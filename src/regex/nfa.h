// Nondeterministic finite automata over interned symbols: Thompson
// construction from regexes, ε-elimination, and the separator-insertion
// construction implementing the Section 2.1 path-expression translation at
// the automaton level.

#ifndef PEBBLETC_REGEX_NFA_H_
#define PEBBLETC_REGEX_NFA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/regex/regex.h"

namespace pebbletc {

/// State index within an automaton.
using StateId = uint32_t;

/// An NFA with a single start state, an accepting-state set, symbol
/// transitions and ε-transitions.
struct Nfa {
  uint32_t num_states = 0;
  /// Symbols are ids in [0, num_symbols).
  uint32_t num_symbols = 0;
  StateId start = 0;
  std::vector<bool> accepting;
  /// transitions[q] = list of (symbol, target).
  std::vector<std::vector<std::pair<SymbolId, StateId>>> transitions;
  /// epsilon[q] = list of targets reachable by ε from q.
  std::vector<std::vector<StateId>> epsilon;

  /// Appends a fresh state; returns its id.
  StateId AddState();
  void AddTransition(StateId from, SymbolId symbol, StateId to);
  void AddEpsilon(StateId from, StateId to);

  /// Direct NFA simulation (subset tracking); mostly for tests.
  bool Accepts(const std::vector<SymbolId>& word) const;
};

/// Expands `set`, a vector of distinct states, to its ε-closure, sorted.
void EpsilonClosure(const Nfa& nfa, std::vector<StateId>* set);

/// Thompson construction. The regex must only mention symbols < num_symbols.
Nfa CompileRegexToNfa(const RegexPtr& regex, uint32_t num_symbols);

/// Returns an equivalent NFA without ε-transitions.
Nfa RemoveEpsilon(const Nfa& nfa);

/// Renames each symbol s to map[s]; the result ranges over
/// [0, new_num_symbols). Every original symbol used must have a mapping.
Nfa RemapSymbols(const Nfa& nfa, const std::vector<SymbolId>& map,
                 uint32_t new_num_symbols);

/// The path-translation core (Section 2.1): returns an NFA accepting
///   { a1 sep^{j1} a2 sep^{j2} ... sep^{j_{n-1}} an | a1⋯an ∈ lang(nfa),
///     ji ≥ 0 },
/// i.e. any number of `separator` symbols may be read *between* consecutive
/// symbols of an accepted word, but not before the first or after the last.
/// `separator` must be < nfa.num_symbols. `nfa` may contain ε-transitions.
Nfa InsertSeparators(const Nfa& nfa, SymbolId separator);

}  // namespace pebbletc

#endif  // PEBBLETC_REGEX_NFA_H_
