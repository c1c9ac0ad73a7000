// A practical alternative to the Theorem 4.7 MSO route for the 1-pebble
// case: regularize a 1-pebble (two-way, alternating) tree automaton by
// *behavior composition*.
//
// For a subtree rooted at x, the automaton's possible interactions with the
// rest of the tree are summarized by a monotone function from assumption
// sets to result sets:
//     Acc_x^{side}(S) = { q | configuration (q, x) is accessible given that
//                             exactly the states of S are accessible at
//                             x's parent },
// with one table per mounting side (up-left applies only to left children)
// plus the up-move-free root variant. The summary of a node is determined
// by its symbol and its children's summaries (a nested least fixpoint, by
// Bekić's principle), so the summaries form a deterministic bottom-up tree
// automaton whose accepting states are those whose root table contains the
// start state.
//
// Cost: tables have 2^|Q| entries — doubly exponential worst case overall,
// but far below the non-elementary MSO pipeline and practical for machines
// with |Q| ≤ ~12 (the realistic 1-pebble transducer products the paper's
// Section 5 "restricted cases" discussion cares about). This module is an
// extension beyond the paper's construction; it is cross-validated against
// both direct simulation and the MSO route.

#ifndef PEBBLETC_PA_BEHAVIOR_H_
#define PEBBLETC_PA_BEHAVIOR_H_

#include "src/common/result.h"
#include "src/pa/automaton.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"

namespace pebbletc {

/// Builds a bottom-up automaton equivalent to the 1-pebble automaton `a`
/// (inst(result) = inst(a)). Fails with kInvalidArgument if `a` uses more
/// than one pebble, kResourceExhausted when a budget trips: the context's
/// TaOpBudgets::behavior_max_state_bits (more states are refused; tables
/// have 2^states entries) or the fixed cap of 4096 distinct subtree
/// behaviors (the DBTA's state count). A null `ctx` runs with default
/// budgets.
Result<Nbta> OnePebbleToNbtaByBehavior(const PebbleAutomaton& a,
                                       const RankedAlphabet& alphabet,
                                       TaOpContext* ctx = nullptr);

}  // namespace pebbletc

#endif  // PEBBLETC_PA_BEHAVIOR_H_
