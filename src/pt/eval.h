// Evaluation of k-pebble transducers (Proposition 3.8).
//
// The central construction is BuildOutputAutomaton: for a transducer T and an
// input tree t it builds, in time polynomial in |t| (O(|t|^k) configurations),
// a top-down tree automaton A_t with silent transitions over the output
// alphabet such that inst(A_t) = T(t). A_t is the paper's polynomial "DAG
// encoding" of the possibly exponential (or infinite) output set, and powers
//   * membership  t′ ∈ T(t)           (PTIME, Prop. 3.8),
//   * enumeration of T(t),
//   * the per-input typecheck  T(t) ⊆ τ  (used by the bounded refutation
//     search of the typechecker).
// Deterministic transducers can instead be run directly (EvalDeterministic).

#ifndef PEBBLETC_PT_EVAL_H_
#define PEBBLETC_PT_EVAL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "src/common/result.h"
#include "src/pt/transducer.h"
#include "src/ta/nbta.h"
#include "src/ta/topdown.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// The Proposition 3.8 automaton for T on a fixed input tree.
struct OutputAutomaton {
  /// Over the output alphabet; silent transitions encode pebble moves.
  TopDownTA automaton;
  /// Number of reachable transducer configurations (the paper's O(n^k)).
  size_t num_configs = 0;
};

/// Builds A_t. `max_configs` (0 = unlimited) bounds the configuration space.
/// A `ctx` threads deadline/cancel checkpoints and counters through the
/// configuration BFS (PebbleMachine::ExploreConfigs).
Result<OutputAutomaton> BuildOutputAutomaton(const PebbleTransducer& t,
                                             const BinaryTree& input,
                                             size_t max_configs = 0,
                                             TaOpContext* ctx = nullptr);

/// A_t in the form the antichain engine and the enumeration read: an NBTA
/// without silent moves, trimmed to the states that reach an output. Most
/// of A_t's configurations never do (the paper's Q1 on a^5: 436,514 states,
/// 153 useful), and the antichain search interns a pair per inhabited
/// state, so the trim keeps that search within its pair budget.
Result<Nbta> BuildOutputNbta(const PebbleTransducer& t,
                             const BinaryTree& input, size_t max_configs = 0,
                             TaOpContext* ctx = nullptr);

/// Membership test: candidate ∈ T(input)? (PTIME in |input| and |candidate|.)
/// Decided on BuildOutputNbta's trimmed NBTA.
Result<bool> OutputContains(const PebbleTransducer& t, const BinaryTree& input,
                            const BinaryTree& candidate,
                            size_t max_configs = 0,
                            TaOpContext* ctx = nullptr);

/// Enumerates distinct outputs with ≤ max_nodes nodes (≤ max_count of them).
Result<std::vector<BinaryTree>> EnumerateOutputs(const PebbleTransducer& t,
                                                 const BinaryTree& input,
                                                 size_t max_nodes,
                                                 size_t max_count,
                                                 size_t max_configs = 0,
                                                 TaOpContext* ctx = nullptr);

/// Runs a deterministic transducer directly, materializing the unique output
/// tree. Fails with kFailedPrecondition if the transducer is syntactically
/// nondeterministic, a branch diverges (revisits a configuration without
/// emitting output), a branch gets stuck, or `max_steps` is exceeded.
Result<BinaryTree> EvalDeterministic(const PebbleTransducer& t,
                                     const BinaryTree& input,
                                     size_t max_steps = 10'000'000,
                                     TaOpContext* ctx = nullptr);

/// The deterministic branch walker behind EvalDeterministic and the join
/// evaluator: runs branches of `t` from its initial configuration on
/// `input`, taking in each configuration the transition `next` names, which
/// must apply there, and assembles the outputs into one tree. `next` may
/// name a transition `t` does not hold (an equality test is a stay move
/// whose target the data picks). Fails with kFailedPrecondition when a
/// branch revisits a configuration without output, kResourceExhausted past
/// `max_steps` steps, and with any error `next` returns.
using NextTransition = std::function<Result<PebbleTransducer::Transition>(
    const PebbleTransducer::Config&)>;
Result<BinaryTree> RunDeterministicBranches(const PebbleTransducer& t,
                                            const BinaryTree& input,
                                            size_t max_steps,
                                            TaOpContext* ctx,
                                            const NextTransition& next);

}  // namespace pebbletc

#endif  // PEBBLETC_PT_EVAL_H_
