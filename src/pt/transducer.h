// The k-pebble tree transducer (Definition 3.1) — the paper's model of XML
// transformations. Its pebbles walk the input tree under the stack
// discipline of src/pt/machine.h.
//
// Output transitions emit a node of the output tree: output2 spawns two
// branches that inherit all pebble positions and continue independently;
// output0 emits a leaf and halts the branch.

#ifndef PEBBLETC_PT_TRANSDUCER_H_
#define PEBBLETC_PT_TRANSDUCER_H_

#include <cstdint>

#include "src/alphabet/alphabet.h"
#include "src/common/status.h"
#include "src/pt/machine.h"

namespace pebbletc {

/// A transducer transition: a move of the current pebble, or the output of
/// a leaf or of a binary node.
struct PebbleTransducerTransition {
  enum class Kind { kMove, kOutputLeaf, kOutputBinary };

  Kind kind;
  PebbleGuard guard;
  StateId from;
  // kMove:
  PebbleMoveKind move = PebbleMoveKind::kStay;
  StateId to = 0;
  // kOutputLeaf / kOutputBinary:
  SymbolId output_symbol = kNoSymbol;
  StateId out_left = 0;   // kOutputBinary only
  StateId out_right = 0;  // kOutputBinary only
};

class PebbleTransducer : public PebbleMachine<PebbleTransducerTransition> {
 public:
  using TransitionKind = PebbleTransducerTransition::Kind;
  using Transition = PebbleTransducerTransition;

  /// Creates a transducer with `max_pebbles` ≥ 1 pebbles over input/output
  /// alphabets of the given sizes.
  PebbleTransducer(uint32_t max_pebbles, uint32_t num_input_symbols,
                   uint32_t num_output_symbols)
      : PebbleMachine(max_pebbles),
        num_input_symbols_(num_input_symbols),
        num_output_symbols_(num_output_symbols) {}

  uint32_t num_input_symbols() const { return num_input_symbols_; }
  uint32_t num_output_symbols() const { return num_output_symbols_; }

  /// Adds an output transition emitting a leaf (halts the branch).
  void AddOutputLeaf(const PebbleGuard& guard, StateId from,
                     SymbolId output_symbol);

  /// Adds an output transition emitting a binary node and spawning two
  /// branches (same level as `from`).
  void AddOutputBinary(const PebbleGuard& guard, StateId from,
                       SymbolId output_symbol, StateId left, StateId right);

  /// Checks the stack discipline and alphabet/rank constraints.
  Status Validate(const RankedAlphabet& input,
                  const RankedAlphabet& output) const;

  /// True if no configuration can have two applicable transitions — checked
  /// syntactically per (state, symbol, presence) combination, which is exact
  /// for guards over declared mask bits.
  bool IsDeterministic() const;

 private:
  uint32_t num_input_symbols_;
  uint32_t num_output_symbols_;
};

}  // namespace pebbletc

#endif  // PEBBLETC_PT_TRANSDUCER_H_
