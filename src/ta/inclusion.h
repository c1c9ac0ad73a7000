// Antichain-based on-the-fly language inclusion for bottom-up tree automata:
// inst(A) ⊆ inst(B) without determinizing or complementing B (Frisch &
// Hosoya's antichain refutation search; docs/INCLUSION.md). It is the B-state
// domain of the antichain engine (src/ta/antichain.h), guided by A: a pair
// (q, S) holds the exact set S of B-states reachable on a tree that reaches
// q in A, and it refutes when q accepts and S ∩ F_B = ∅. Badness is closed
// under subsets, so per A-state only ⊆-minimal B-sets survive, which keeps
// the search polynomial on the Martens–Neven deterministic fragments.

#ifndef PEBBLETC_TA_INCLUSION_H_
#define PEBBLETC_TA_INCLUSION_H_

#include <optional>

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

/// inst(a) = inst(b)? Two inclusion searches, inst(a) ⊆ inst(b) first and
/// inst(b) ⊆ inst(a) only if that holds, over one index per automaton
/// built under `ctx`. Each search has the full `max_antichain_pairs`
/// budget, and every failure status of NbtaIncludedIn propagates.
Result<bool> NbtaEquivalent(const Nbta& a, const Nbta& b,
                            const RankedAlphabet& alphabet,
                            TaOpContext* ctx = nullptr);

}  // namespace pebbletc

#endif  // PEBBLETC_TA_INCLUSION_H_
