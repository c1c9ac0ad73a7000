// Antichain-based on-the-fly language inclusion for bottom-up tree automata.
//
// The Theorem 4.4 pipeline decides inst(A) ⊆ inst(B) the heavyweight way —
// determinize B, flip its accepting set, intersect with A, test emptiness —
// and pays the full subset-construction blowup even when a tiny fragment of
// the determinized complement would have settled the question. This module
// answers the same question by *bottom-up emptiness search on the implicit
// product of A with the determinized-on-demand complement of B* (Frisch &
// Hosoya's antichain refutation search; see docs/INCLUSION.md):
//
//   * Search states are pairs (q, S) with q ∈ Q_A and S ⊆ Q_B, where S is
//     the exact set of B-states reachable on some witness tree t with
//     q ∈ reach_A(t). Only pairs reachable from actual trees are interned;
//     B's subsets materialize lazily, never as a whole transition table.
//   * Inclusion fails iff a pair with q accepting in A and S ∩ F_B = ∅ is
//     reachable; the search stops at the first such pair and replays its
//     provenance chain into a concrete counterexample tree.
//   * Antichain subsumption prunes the frontier: a candidate (q, S) is
//     discarded when an explored (q, S′) with S′ ⊆ S dominates it, and an
//     explored (q, S″) with S″ ⊇ S is retired when the smaller S arrives.
//     Per A-state only ⊆-minimal B-sets survive, which is what keeps the
//     search polynomial on the Martens–Neven deterministic fragments and
//     small in practice elsewhere.
//
// Budgets and failure statuses (PR-5 conventions): the pair arena is bounded
// by TaOpBudgets::max_antichain_pairs (0 = unlimited) and the search aborts
// with kResourceExhausted once crossed; deadlines / cancellation / injected
// faults are polled at TaCheckpoint granularity — once per popped frontier
// pair, once per interned candidate, and once per reconstructed witness
// node — and surface as kDeadlineExceeded / kCancelled with the usual sticky
// semantics. Counters: `incl_pairs_interned` and `incl_pairs_pruned` record
// frontier progress on every exit path; `inclusions` advances only when a
// verdict is reached.

#ifndef PEBBLETC_TA_INCLUSION_H_
#define PEBBLETC_TA_INCLUSION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

class NbtaIndex;

/// Verdict of an antichain inclusion check.
struct NbtaInclusionResult {
  /// True iff inst(A) ⊆ inst(B).
  bool included = false;
  /// Set exactly when `included` is false: a concrete tree in
  /// inst(A) \ inst(B), replayed from the refuting pair's provenance chain.
  /// Unlike WitnessTree the counterexample is *not* guaranteed size-minimal
  /// (subsumption prunes the pairs a minimal witness might have run
  /// through), but it is always genuine — diffcheck's inclusion/witness law
  /// re-checks membership on both sides every sweep.
  std::optional<BinaryTree> counterexample;
};

/// One pair of a bottom-up antichain search — (q, S), with q a state of the
/// automaton searched and S a set id owned by the search — plus the
/// provenance that replays its witness tree: a leaf symbol (`left` is
/// kNoSearchPair), or a binary symbol over two earlier pair ids. Shared by
/// NbtaIncludedIn and the typechecker's downward search
/// (src/core/downward.h). Searches mark dominated pairs dead and never
/// remove them, so the provenance chains of surviving pairs stay valid.
inline constexpr uint32_t kNoSearchPair = static_cast<uint32_t>(-1);
struct SearchPair {
  StateId q = 0;
  uint32_t set = 0;
  SymbolId symbol = 0;
  uint32_t left = kNoSearchPair;
  uint32_t right = kNoSearchPair;
  bool dead = false;
};

/// Replays the provenance chain of `pairs[root]` into a tree. Iterative
/// (chains can be deep) and checkpointed per node (shared provenance is
/// duplicated, so the tree can be much larger than the pair arena).
Result<BinaryTree> ReplaySearchWitness(const std::vector<SearchPair>& pairs,
                                       uint32_t root, TaOpContext* ctx);

/// inst(a) ⊆ inst(b)? Decided by the antichain search described above — no
/// explicit determinization or complement is ever materialized. Both indexes
/// must be over the same alphabet (equal num_symbols; CHECK-enforced, same
/// contract as IntersectNbta).
///
/// Budget: `max_antichain_pairs` (0 = unlimited) bounds the interned pair
/// arena; exceeding it returns kResourceExhausted. Deadline / cancellation /
/// fault-injection checkpoints surface kDeadlineExceeded / kCancelled /
/// the injected code. Note SymbolLeft adjacency is built lazily on `b`'s
/// index, so the call is not thread-safe with respect to concurrent use of
/// `b` (the NbtaIndex contract).
Result<NbtaInclusionResult> NbtaIncludedIn(const NbtaIndex& a,
                                           const NbtaIndex& b,
                                           const RankedAlphabet& alphabet,
                                           TaOpContext* ctx = nullptr);

/// Convenience form compiling throwaway indexes. `max_pairs` (0 = default
/// budget) overrides `max_antichain_pairs`.
Result<NbtaInclusionResult> NbtaIncludedIn(const Nbta& a, const Nbta& b,
                                           const RankedAlphabet& alphabet,
                                           size_t max_pairs = 0);

}  // namespace pebbletc

#endif  // PEBBLETC_TA_INCLUSION_H_
