// DTDs as extended context-free grammars (Section 2.3), their specialized
// (decoupled-tag) generalization, validation of unranked trees, and
// compilation into bottom-up tree automata over the encoded alphabet Σ′ such
// that inst(automaton) = { encode(t) | t ∈ inst(dtd) }.
//
// A *specialized DTD* decouples types from tags: each type carries a tag and
// a content-model regex over *types*; a tree is valid if some assignment of
// types to nodes is tag-consistent and satisfies every content model.
// Specialized DTDs define exactly the regular tree languages (the paper cites
// [4, 32, 13]); plain DTDs are the special case type = tag.
//
// Text format (one declaration per line, '#' comments, first LHS is the
// root):
//   plain:        a := b*.c.e        ε is "()"
//   specialized:  b1[b] := c*        type b1 has tag b

#ifndef PEBBLETC_DTD_DTD_H_
#define PEBBLETC_DTD_DTD_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/regex/dfa.h"
#include "src/regex/regex.h"
#include "src/ta/nbta.h"
#include "src/tree/unranked_tree.h"

namespace pebbletc {

/// Caps on what compiling a DTD's content models may build, so that a few
/// bytes of DTD cannot make Finalize run for minutes or allocate gigabytes:
/// the subset construction of one content model stops past
/// kMaxContentModelStates DFA states, and the content DFAs together hold at
/// most kMaxContentTableEntries transitions (states × number of types; the
/// tables are dense over the type alphabet). Finalize refuses a DTD past
/// either cap with kLimitExceeded.
inline constexpr size_t kMaxContentModelStates = 1u << 14;
inline constexpr size_t kMaxContentTableEntries = 1u << 22;

/// A specialized DTD. Plain DTDs are represented with types ≡ tags
/// (type_tag is the identity and type/tag names coincide).
class SpecializedDtd {
 public:
  /// Tag alphabet — parse document trees against this.
  const Alphabet& tags() const { return tags_; }
  Alphabet* mutable_tags() { return &tags_; }
  /// Type alphabet (equal to tags() for plain DTDs).
  const Alphabet& types() const { return types_; }

  size_t num_types() const { return type_tag_.size(); }
  SymbolId TagOfType(SymbolId type) const { return type_tag_[type]; }
  const RegexPtr& ContentModel(SymbolId type) const { return content_[type]; }
  const std::vector<SymbolId>& root_types() const { return root_types_; }
  bool IsPlain() const { return plain_; }

  /// Declares a type; `tag` is interned into tags(), `type_name` into
  /// types(). Each type may be declared once.
  Result<SymbolId> AddType(std::string_view type_name, std::string_view tag,
                           RegexPtr content_model);

  /// Marks `type` as an allowed root.
  Status AddRootType(SymbolId type);

  /// Compiles content models; must be called after the last AddType and
  /// before validation/compilation. Fails if any referenced type is
  /// undeclared, and with kLimitExceeded past the content-model caps above.
  Status Finalize();

  /// Does `tree` (whose tags are ids of tags()) conform to this DTD?
  /// Requires Finalize(). Implemented as a bottom-up possible-type DP; for
  /// plain DTDs this is the usual one-pass deterministic validation.
  Result<bool> Accepts(const UnrankedTree& tree) const;

  /// Like Accepts but, for invalid trees, reports the offending node (plain
  /// DTDs produce precise per-node diagnostics; specialized DTDs report the
  /// root as a whole).
  Status Validate(const UnrankedTree& tree) const;

 private:
  friend Result<Nbta> CompileDtdToNbta(const SpecializedDtd& dtd,
                                       const EncodedAlphabet& enc);

  /// The types assignable to each node of a tree, in increasing id order:
  /// node n's are types[start[n]] up to types[start[n + 1]].
  struct NodeTypes {
    std::vector<SymbolId> types;
    std::vector<size_t> start;
    std::span<const SymbolId> of(NodeId n) const {
      return {types.data() + start[n], types.data() + start[n + 1]};
    }
  };
  /// The bottom-up DP behind Accepts and Validate.
  Result<NodeTypes> PossibleTypes(const UnrankedTree& tree) const;
  /// Is a root type among `types` (sorted)?
  bool HasRootType(std::span<const SymbolId> types) const;

  Alphabet tags_;
  Alphabet types_;
  std::vector<SymbolId> type_tag_;
  std::vector<RegexPtr> content_;
  std::vector<std::unique_ptr<Dfa>> content_dfa_;  // over the type alphabet
  std::vector<SymbolId> root_types_;
  bool plain_ = true;
  bool finalized_ = false;
};

/// Parses the plain-DTD text format. Tag names are interned in declaration
/// order; the first declaration's LHS is the root.
Result<SpecializedDtd> ParseDtd(std::string_view text);

/// Parses the specialized-DTD format (`type[tag] := regex-over-types`).
/// Plain-form lines (`name := regex`) are treated as `name[name] := regex`.
Result<SpecializedDtd> ParseSpecializedDtd(std::string_view text);

/// Compiles the DTD into a bottom-up automaton over `enc.ranked` with
/// inst(result) = { encode(t) | t ∈ inst(dtd) }. `enc` must be built from
/// dtd.tags(). Requires Finalize().
Result<Nbta> CompileDtdToNbta(const SpecializedDtd& dtd,
                              const EncodedAlphabet& enc);

/// Compiles the DTD over a *different* encoded alphabet, matching symbols by
/// name — the common case where a transducer's alphabet was built
/// independently (e.g. by a query compiler) and contains at least the DTD's
/// tags. Fails if a DTD tag is missing from `target`.
Result<Nbta> CompileDtdOver(const SpecializedDtd& dtd,
                            const EncodedAlphabet& target);

}  // namespace pebbletc

#endif  // PEBBLETC_DTD_DTD_H_
