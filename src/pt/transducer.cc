#include "src/pt/transducer.h"

#include <string>

#include "src/common/check.h"

namespace pebbletc {

void PebbleTransducer::AddOutputLeaf(const PebbleGuard& guard, StateId from,
                                     SymbolId output_symbol) {
  PEBBLETC_CHECK(from < level_.size()) << "bad state";
  Transition t;
  t.kind = TransitionKind::kOutputLeaf;
  t.guard = guard;
  t.from = from;
  t.output_symbol = output_symbol;
  Add(t);
}

void PebbleTransducer::AddOutputBinary(const PebbleGuard& guard, StateId from,
                                       SymbolId output_symbol, StateId left,
                                       StateId right) {
  PEBBLETC_CHECK(from < level_.size() && left < level_.size() &&
                 right < level_.size())
      << "bad state";
  Transition t;
  t.kind = TransitionKind::kOutputBinary;
  t.guard = guard;
  t.from = from;
  t.output_symbol = output_symbol;
  t.out_left = left;
  t.out_right = right;
  Add(t);
}

Status PebbleTransducer::Validate(const RankedAlphabet& input,
                                  const RankedAlphabet& output) const {
  if (input.size() != num_input_symbols_) {
    return Status::InvalidArgument("input alphabet size mismatch");
  }
  if (output.size() != num_output_symbols_) {
    return Status::InvalidArgument("output alphabet size mismatch");
  }
  return ValidateStack(
      num_input_symbols_,
      [&](const Transition& t, uint32_t lvl, const std::string& where) {
        if (t.kind == TransitionKind::kOutputLeaf) {
          if (t.output_symbol >= num_output_symbols_ ||
              output.Rank(t.output_symbol) != 0) {
            return Status::InvalidArgument(where +
                                           ": output0 needs a leaf symbol");
          }
          return Status::OK();
        }
        if (t.output_symbol >= num_output_symbols_ ||
            output.Rank(t.output_symbol) != 2) {
          return Status::InvalidArgument(where +
                                         ": output2 needs a binary symbol");
        }
        if (level_[t.out_left] != lvl || level_[t.out_right] != lvl) {
          return Status::InvalidArgument(
              where + ": output2 branches must stay at the same level");
        }
        return Status::OK();
      });
}

bool PebbleTransducer::IsDeterministic() const {
  // Syntactic check: two transitions from the same state conflict if their
  // symbol guards overlap and their presence guards are compatible on shared
  // mask bits — except the pair {up-left, up-right}, which is mutually
  // exclusive at runtime (a node is either a left or a right child).
  for (StateId q = 0; q < level_.size(); ++q) {
    const auto& idxs = by_state_[q];
    for (size_t i = 0; i < idxs.size(); ++i) {
      for (size_t j = i + 1; j < idxs.size(); ++j) {
        const Transition& a = transitions_[idxs[i]];
        const Transition& b = transitions_[idxs[j]];
        if (a.guard.symbol != kAnySymbol && b.guard.symbol != kAnySymbol &&
            a.guard.symbol != b.guard.symbol) {
          continue;
        }
        const uint32_t shared = a.guard.presence_mask & b.guard.presence_mask;
        if ((a.guard.presence_value & shared) !=
            (b.guard.presence_value & shared)) {
          continue;
        }
        const bool up_pair =
            a.kind == TransitionKind::kMove &&
            b.kind == TransitionKind::kMove &&
            ((a.move == MoveKind::kUpLeft && b.move == MoveKind::kUpRight) ||
             (a.move == MoveKind::kUpRight && b.move == MoveKind::kUpLeft));
        if (!up_pair) return false;
      }
    }
  }
  return true;
}

}  // namespace pebbletc
