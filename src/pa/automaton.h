// The k-pebble tree automaton (Definition 4.5): the acceptor variant of the
// k-pebble transducer. Move transitions are as in the transducer (the shared
// semantics of src/pt/machine.h); output transitions are replaced by
//   branch0 — halt the current computation branch and accept,
//   branch2 — spawn two independent branches (same pebble stack, two states).
// A tree is accepted when every branch of some computation accepts.
//
// Direct acceptance on a fixed tree reduces to alternating-graph
// accessibility on the configuration graph G_{A,t}, exactly as in the proof
// of Theorem 4.7.

#ifndef PEBBLETC_PA_AUTOMATON_H_
#define PEBBLETC_PA_AUTOMATON_H_

#include <cstdint>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/pt/machine.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// An automaton transition: a move of the current pebble, branch0 or branch2.
struct PebbleAutomatonTransition {
  enum class Kind { kMove, kAccept, kBranch };

  Kind kind;
  PebbleGuard guard;
  StateId from;
  PebbleMoveKind move = PebbleMoveKind::kStay;  // kMove only
  StateId to = 0;                               // kMove only
  StateId left = 0;                             // kBranch only
  StateId right = 0;                            // kBranch only
};

class PebbleAutomaton : public PebbleMachine<PebbleAutomatonTransition> {
 public:
  using TransitionKind = PebbleAutomatonTransition::Kind;
  using Transition = PebbleAutomatonTransition;

  PebbleAutomaton(uint32_t max_pebbles, uint32_t num_symbols)
      : PebbleMachine(max_pebbles), num_symbols_(num_symbols) {}

  uint32_t num_symbols() const { return num_symbols_; }

  /// branch0: the branch halts and accepts.
  void AddAccept(const PebbleGuard& guard, StateId from);
  /// branch2: spawn branches in states `left` and `right` (same level).
  void AddBranch(const PebbleGuard& guard, StateId from, StateId left,
                 StateId right);

  /// Stack-discipline and range validation.
  Status Validate(const RankedAlphabet& alphabet) const;

 private:
  uint32_t num_symbols_;
};

/// Direct acceptance via AGAP on the configuration graph (the Theorem 4.7
/// reduction). `max_configs` (0 = unlimited) bounds the explored
/// configuration space.
Result<bool> PebbleAutomatonAccepts(const PebbleAutomaton& a,
                                    const BinaryTree& tree,
                                    size_t max_configs = 0);

}  // namespace pebbletc

#endif  // PEBBLETC_PA_AUTOMATON_H_
