// Deterministic finite automata: subset construction, Hopcroft minimization,
// boolean operations, and decision procedures (emptiness, inclusion,
// equivalence, shortest witness). DFAs are always *complete*: every
// (state, symbol) pair has a successor, so complementation is a flag flip.

#ifndef PEBBLETC_REGEX_DFA_H_
#define PEBBLETC_REGEX_DFA_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/check.h"
#include "src/common/result.h"
#include "src/regex/nfa.h"
#include "src/regex/regex.h"

namespace pebbletc {

/// A complete DFA with a dense transition table.
class Dfa {
 public:
  /// Constructs a DFA with `num_states` states over `num_symbols` symbols;
  /// all transitions initially self-loop on state 0 and must be filled in.
  Dfa(uint32_t num_states, uint32_t num_symbols);

  uint32_t num_states() const { return num_states_; }
  uint32_t num_symbols() const { return num_symbols_; }
  StateId start() const { return start_; }
  void set_start(StateId s) { start_ = s; }

  bool accepting(StateId q) const { return accepting_[q]; }
  void set_accepting(StateId q, bool acc) { accepting_[q] = acc; }

  StateId Next(StateId q, SymbolId a) const {
    PEBBLETC_DCHECK(q < num_states_ && a < num_symbols_);
    return table_[static_cast<size_t>(q) * num_symbols_ + a];
  }
  void SetNext(StateId q, SymbolId a, StateId to) {
    PEBBLETC_CHECK(q < num_states_ && a < num_symbols_ && to < num_states_);
    table_[static_cast<size_t>(q) * num_symbols_ + a] = to;
  }

  /// Runs the DFA on `word` from the start state.
  bool Accepts(const std::vector<SymbolId>& word) const;

  /// States from which some accepting state is reachable. Useful for pruning
  /// (a "dead" state is one where live[q] is false).
  std::vector<bool> LiveStates() const;

 private:
  uint32_t num_states_;
  uint32_t num_symbols_;
  StateId start_ = 0;
  std::vector<bool> accepting_;
  std::vector<StateId> table_;
};

/// Subset construction; only reachable subsets are materialized.
Dfa Determinize(const Nfa& nfa);

/// Determinize that stops with kLimitExceeded as soon as it would intern
/// more than `max_states` subsets.
Result<Dfa> DeterminizeWithin(const Nfa& nfa, size_t max_states);

/// Hopcroft's partition-refinement minimization (also removes unreachable
/// states), O(k·n·log n) for n states over k symbols. The result is the
/// canonical minimal complete DFA, its states numbered by their first
/// member in breadth-first order from the start state, symbols ascending.
Dfa Minimize(const Dfa& dfa);

/// Convenience: Minimize(Determinize(Thompson(regex))).
Dfa CompileRegexToDfa(const RegexPtr& regex, uint32_t num_symbols);

/// Language complement (the DFA is complete, so this just flips acceptance).
Dfa Complement(const Dfa& dfa);

/// Boolean combination of two DFAs over the same alphabet.
enum class BoolOp { kAnd, kOr, kDiff };
Dfa Product(const Dfa& a, const Dfa& b, BoolOp op);

/// True iff lang(dfa) = ∅.
bool IsEmptyLanguage(const Dfa& dfa);

/// A shortest accepted word, or nullopt if the language is empty.
std::optional<std::vector<SymbolId>> ShortestAccepted(const Dfa& dfa);

/// lang(a) ⊆ lang(b)?
bool Includes(const Dfa& b, const Dfa& a);

/// lang(a) = lang(b)?
bool EquivalentLanguages(const Dfa& a, const Dfa& b);

}  // namespace pebbletc

#endif  // PEBBLETC_REGEX_DFA_H_
