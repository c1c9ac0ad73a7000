// Alphabets of interned symbols.
//
// The paper (Section 2.1) works with two kinds of alphabets:
//  * an unranked alphabet Σ of XML tags, labelling unranked ordered trees;
//  * ranked alphabets Σ = Σ0 ∪ Σ2 labelling complete binary trees, where Σ0
//    symbols label leaves and Σ2 symbols label internal (binary) nodes.
// Unranked trees over Σ are encoded into binary trees over the *encoded*
// alphabet Σ′ = Σ ∪ {-, |}, where every tag becomes a binary symbol, `-`
// (cons) is binary, and `|` (nil) is the only leaf symbol.
//
// Symbols are interned: each name maps to a dense SymbolId, and all tree,
// automaton, and transducer structures store ids only.

#ifndef PEBBLETC_ALPHABET_ALPHABET_H_
#define PEBBLETC_ALPHABET_ALPHABET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace pebbletc {

/// Dense index of a symbol within its alphabet.
using SymbolId = uint32_t;

/// Sentinel for "no symbol".
inline constexpr SymbolId kNoSymbol = static_cast<SymbolId>(-1);

/// Name -> id index probed by std::string_view: the transparent hash and
/// std::equal_to<> let a lookup skip building a temporary std::string.
struct NameHash {
  using is_transparent = void;
  size_t operator()(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name);
  }
};
using NameIndex =
    std::unordered_map<std::string, SymbolId, NameHash, std::equal_to<>>;

/// An unranked alphabet: a set of tag names with dense ids.
class Alphabet {
 public:
  Alphabet() = default;

  /// Interns `name`, returning its id. Re-interning an existing name returns
  /// the existing id. Names must be non-empty.
  SymbolId Intern(std::string_view name);

  /// Returns the id of `name`, or kNoSymbol if absent.
  SymbolId Find(std::string_view name) const;

  /// Returns the name of `id`; `id` must be valid.
  const std::string& Name(SymbolId id) const;

  /// Number of interned symbols; valid ids are [0, size).
  size_t size() const { return names_.size(); }

  bool Contains(SymbolId id) const { return id < names_.size(); }

 private:
  std::vector<std::string> names_;
  NameIndex index_;
};

/// A ranked alphabet partitioned as Σ0 (leaf symbols) ∪ Σ2 (binary symbols).
class RankedAlphabet {
 public:
  RankedAlphabet() = default;

  /// Interns a leaf (rank-0) symbol. Fails if `name` exists with rank 2.
  Result<SymbolId> AddLeaf(std::string_view name);

  /// Interns a binary (rank-2) symbol. Fails if `name` exists with rank 0.
  Result<SymbolId> AddBinary(std::string_view name);

  /// Returns the id of `name`, or kNoSymbol if absent.
  SymbolId Find(std::string_view name) const;

  const std::string& Name(SymbolId id) const;

  /// Rank of `id`: 0 or 2.
  int Rank(SymbolId id) const;
  bool IsLeaf(SymbolId id) const { return Rank(id) == 0; }
  bool IsBinary(SymbolId id) const { return Rank(id) == 2; }

  /// All leaf / binary symbol ids, in insertion order.
  const std::vector<SymbolId>& LeafSymbols() const { return leaves_; }
  const std::vector<SymbolId>& BinarySymbols() const { return binaries_; }

  size_t size() const { return names_.size(); }
  bool Contains(SymbolId id) const { return id < names_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<int> ranks_;
  std::vector<SymbolId> leaves_;
  std::vector<SymbolId> binaries_;
  NameIndex index_;
};

/// The encoded alphabet Σ′ for an unranked tag alphabet Σ (Section 2.1):
/// every tag of Σ becomes a binary symbol, plus binary `-` (forest cons) and
/// leaf `|` (forest nil). `tag_symbol[t]` maps the unranked tag id `t` to its
/// ranked id.
struct EncodedAlphabet {
  RankedAlphabet ranked;
  /// Ranked id of the `-` (cons) binary symbol.
  SymbolId cons = kNoSymbol;
  /// Ranked id of the `|` (nil) leaf symbol.
  SymbolId nil = kNoSymbol;
  /// Indexed by unranked SymbolId; ranked id of each tag.
  std::vector<SymbolId> tag_symbol;

  /// Returns the unranked tag id for the ranked symbol `id`, or kNoSymbol if
  /// `id` is cons or nil.
  SymbolId TagOf(SymbolId id) const;
};

/// Builds Σ′ from Σ. Tag names must not collide with "-" or "|".
Result<EncodedAlphabet> MakeEncodedAlphabet(const Alphabet& tags);

/// Canonical names used by the encoding.
inline constexpr std::string_view kConsName = "-";
inline constexpr std::string_view kNilName = "|";

}  // namespace pebbletc

#endif  // PEBBLETC_ALPHABET_ALPHABET_H_
