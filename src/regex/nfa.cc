#include "src/regex/nfa.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/packed_sets.h"

namespace pebbletc {

StateId Nfa::AddState() {
  StateId id = num_states++;
  accepting.push_back(false);
  transitions.emplace_back();
  epsilon.emplace_back();
  return id;
}

void Nfa::AddTransition(StateId from, SymbolId symbol, StateId to) {
  PEBBLETC_CHECK(from < num_states && to < num_states) << "bad state";
  PEBBLETC_CHECK(symbol < num_symbols) << "symbol " << symbol
                                       << " outside alphabet";
  transitions[from].emplace_back(symbol, to);
}

void Nfa::AddEpsilon(StateId from, StateId to) {
  PEBBLETC_CHECK(from < num_states && to < num_states) << "bad state";
  epsilon[from].push_back(to);
}

void EpsilonClosure(const Nfa& nfa, uint64_t* set,
                    std::vector<StateId>* work) {
  work->clear();
  ForEachBit(set, (nfa.num_states + 63) / 64,
             [&](StateId q) { work->push_back(q); });
  while (!work->empty()) {
    const StateId q = work->back();
    work->pop_back();
    for (StateId p : nfa.epsilon[q]) {
      if (!TestBit(set, p)) {
        SetBit(set, p);
        work->push_back(p);
      }
    }
  }
}

bool Nfa::Accepts(const std::vector<SymbolId>& word) const {
  const size_t words = (num_states + 63) / 64;
  std::vector<uint64_t> current(words, 0);
  std::vector<uint64_t> next(words);
  std::vector<StateId> work;
  SetBit(current.data(), start);
  EpsilonClosure(*this, current.data(), &work);
  for (SymbolId a : word) {
    std::fill(next.begin(), next.end(), 0);
    bool any = false;
    ForEachBit(current.data(), words, [&](StateId q) {
      for (const auto& [sym, to] : transitions[q]) {
        if (sym == a) {
          SetBit(next.data(), to);
          any = true;
        }
      }
    });
    if (!any) return false;
    EpsilonClosure(*this, next.data(), &work);
    current.swap(next);
  }
  bool accepted = false;
  ForEachBit(current.data(), words,
             [&](StateId q) { accepted = accepted || accepting[q]; });
  return accepted;
}

namespace {

// Recursively builds the Thompson fragment for `r`, returning (in, out).
// The fragment has exactly one entry and one exit; the exit has no outgoing
// edges within the fragment.
std::pair<StateId, StateId> Build(const RegexPtr& r, Nfa* nfa) {
  switch (r->kind()) {
    case Regex::Kind::kEmptySet: {
      StateId in = nfa->AddState();
      StateId out = nfa->AddState();
      return {in, out};  // no connection: accepts nothing
    }
    case Regex::Kind::kEpsilon: {
      StateId in = nfa->AddState();
      StateId out = nfa->AddState();
      nfa->AddEpsilon(in, out);
      return {in, out};
    }
    case Regex::Kind::kSymbol: {
      StateId in = nfa->AddState();
      StateId out = nfa->AddState();
      nfa->AddTransition(in, r->symbol(), out);
      return {in, out};
    }
    case Regex::Kind::kConcat: {
      auto [in1, out1] = Build(r->left(), nfa);
      auto [in2, out2] = Build(r->right(), nfa);
      nfa->AddEpsilon(out1, in2);
      return {in1, out2};
    }
    case Regex::Kind::kUnion: {
      StateId in = nfa->AddState();
      StateId out = nfa->AddState();
      auto [in1, out1] = Build(r->left(), nfa);
      auto [in2, out2] = Build(r->right(), nfa);
      nfa->AddEpsilon(in, in1);
      nfa->AddEpsilon(in, in2);
      nfa->AddEpsilon(out1, out);
      nfa->AddEpsilon(out2, out);
      return {in, out};
    }
    case Regex::Kind::kStar: {
      StateId in = nfa->AddState();
      StateId out = nfa->AddState();
      auto [bin, bout] = Build(r->left(), nfa);
      nfa->AddEpsilon(in, bin);
      nfa->AddEpsilon(in, out);
      nfa->AddEpsilon(bout, bin);
      nfa->AddEpsilon(bout, out);
      return {in, out};
    }
  }
  PEBBLETC_CHECK(false) << "unreachable regex kind";
  return {0, 0};
}

}  // namespace

Nfa CompileRegexToNfa(const RegexPtr& regex, uint32_t num_symbols) {
  Nfa nfa;
  nfa.num_symbols = num_symbols;
  auto [in, out] = Build(regex, &nfa);
  nfa.start = in;
  nfa.accepting[out] = true;
  return nfa;
}

Nfa RemoveEpsilon(const Nfa& nfa) {
  Nfa out;
  out.num_symbols = nfa.num_symbols;
  for (StateId q = 0; q < nfa.num_states; ++q) out.AddState();
  out.start = nfa.start;
  std::vector<uint64_t> closure((nfa.num_states + 63) / 64);
  std::vector<StateId> work;
  for (StateId q = 0; q < nfa.num_states; ++q) {
    std::fill(closure.begin(), closure.end(), 0);
    SetBit(closure.data(), q);
    EpsilonClosure(nfa, closure.data(), &work);
    bool acc = false;
    ForEachBit(closure.data(), closure.size(), [&](StateId p) {
      acc = acc || nfa.accepting[p];
      for (const auto& [sym, to] : nfa.transitions[p]) {
        out.AddTransition(q, sym, to);
      }
    });
    out.accepting[q] = acc;
  }
  // Deduplicate transitions.
  for (StateId q = 0; q < out.num_states; ++q) {
    auto& ts = out.transitions[q];
    std::sort(ts.begin(), ts.end());
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  }
  return out;
}

Nfa RemapSymbols(const Nfa& nfa, const std::vector<SymbolId>& map,
                 uint32_t new_num_symbols) {
  Nfa out;
  out.num_symbols = new_num_symbols;
  for (StateId q = 0; q < nfa.num_states; ++q) out.AddState();
  out.start = nfa.start;
  out.accepting = nfa.accepting;
  out.epsilon = nfa.epsilon;
  for (StateId q = 0; q < nfa.num_states; ++q) {
    for (const auto& [sym, to] : nfa.transitions[q]) {
      PEBBLETC_CHECK(sym < map.size()) << "unmapped symbol " << sym;
      out.AddTransition(q, map[sym], to);
    }
  }
  return out;
}

Nfa InsertSeparators(const Nfa& input, SymbolId separator) {
  PEBBLETC_CHECK(separator < input.num_symbols)
      << "separator outside alphabet";
  const Nfa nfa = RemoveEpsilon(input);
  Nfa out;
  out.num_symbols = nfa.num_symbols;
  // Layout: [0, n) original states, [n, 2n) separator-mode copies, 2n a fresh
  // start (so leading separators are never accepted).
  const StateId n = nfa.num_states;
  for (StateId q = 0; q < 2 * n + 1; ++q) out.AddState();
  const StateId fresh_start = 2 * n;
  out.start = fresh_start;
  for (StateId q = 0; q < n; ++q) {
    out.accepting[q] = nfa.accepting[q];
    for (const auto& [sym, to] : nfa.transitions[q]) {
      out.AddTransition(q, sym, to);          // original mode
      out.AddTransition(n + q, sym, to);      // leaving separator mode
    }
    out.AddTransition(q, separator, n + q);   // enter separator mode
    out.AddTransition(n + q, separator, n + q);
  }
  // Fresh start mirrors the original start's symbol moves and acceptance but
  // has no separator edge.
  out.accepting[fresh_start] = nfa.accepting[nfa.start];
  for (const auto& [sym, to] : nfa.transitions[nfa.start]) {
    out.AddTransition(fresh_start, sym, to);
  }
  return out;
}

}  // namespace pebbletc
