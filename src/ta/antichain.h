// One bottom-up antichain search (Frisch & Hosoya's on-the-fly backward
// inference; docs/INCLUSION.md, "The engine") behind both practical
// questions of Theorem 4.4: inclusion over sets of B-states (NbtaIncludedIn,
// src/ta/inclusion.h) and pass 2's downward search over Q_T × Q_D sets
// (FindDownwardBadInput, src/core/downward.h).
//
// The search walks pairs (q, S) along a *guide* automaton's rules: q is a
// guide state some tree t reaches, S the domain's exact summary of t. A
// domain supplies the summaries and Bad(S). The engine owns the rest: sets
// as packed 64-bit words, Post memoized per (left set, right set, symbol),
// and the repeat-offer probe, all three interned in PackedSetTables
// (src/ta/packed_sets.h); the rule-driven combine, the antichain, the pair
// budget, and the witness replay through AppendTree
// (src/tree/binary_tree.h).

#ifndef PEBBLETC_TA_ANTICHAIN_H_
#define PEBBLETC_TA_ANTICHAIN_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/ta/packed_sets.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// How Bad(S) behaves under ⊆; fixes which sets each guide state keeps.
/// Either way Post is monotone, so a pair whose set is dominated can only
/// lead to bad pairs its dominator also leads to.
enum class AntichainClosure : uint8_t {
  /// Bad(S) and S′ ⊆ S imply Bad(S′) (inclusion: S ∩ F_B = ∅). A kept
  /// (q, S′) dominates (q, S) when S′ ⊆ S: keep the ⊆-minimal sets.
  kSubsets,
  /// Bad(S) and S ⊆ S′ imply Bad(S′) (downward search: some accepting
  /// D-state from the start state). Keep the ⊆-maximal sets.
  kSupersets,
};

/// The sets of one search: `words` 64-bit words each. The engine zeroes the
/// output buffer before every Leaf and Post call, and checkpoints once per
/// popped pair and offered pair, and once per leaf and three times per
/// internal node of the witness; a domain whose sets are fixpoints
/// checkpoints inside Leaf and Post as well.
class AntichainDomain {
 public:
  AntichainDomain(size_t words, AntichainClosure closure)
      : words(words), closure(closure) {}
  AntichainDomain(const AntichainDomain&) = delete;
  AntichainDomain& operator=(const AntichainDomain&) = delete;
  virtual ~AntichainDomain() = default;

  /// The set of the one-node tree labelled `c`.
  virtual Status Leaf(SymbolId c, uint64_t* out) = 0;
  /// The set of f(t1, t2), given the sets of t1 and t2.
  virtual Status Post(SymbolId f, const uint64_t* left, const uint64_t* right,
                      uint64_t* out) = 0;
  /// Whether a tree with this set refutes, once the guide accepts it.
  virtual bool Bad(const uint64_t* set) const = 0;

  const size_t words;
  const AntichainClosure closure;
};

/// A tree accepted by `guide` whose set `domain` calls bad, replayed from
/// the first bad pair the search interns (genuine, not necessarily
/// smallest), or nullopt when the frontier drains without one. nullopt is
/// returned only from an uninterrupted search; a verdict either way adds
/// one to `inclusions`.
///
/// Budget: interned pairs count against `max_antichain_pairs` (0 =
/// unlimited) and into `incl_pairs_interned`; pruned offers count into
/// `incl_pairs_pruned`. Crossing the budget returns kResourceExhausted
/// ("antichain pairs exceeded budget of N (needed N+1)"); a tripped
/// checkpoint returns its sticky code.
Result<std::optional<BinaryTree>> SearchAntichain(
    const NbtaIndex& guide, const RankedAlphabet& alphabet,
    AntichainDomain& domain, TaOpContext* ctx);

}  // namespace pebbletc

#endif  // PEBBLETC_TA_ANTICHAIN_H_
