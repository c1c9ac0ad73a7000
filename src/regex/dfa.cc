#include "src/regex/dfa.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "src/common/packed_sets.h"

namespace pebbletc {

Dfa::Dfa(uint32_t num_states, uint32_t num_symbols)
    : num_states_(num_states),
      num_symbols_(num_symbols),
      accepting_(num_states, false),
      table_(static_cast<size_t>(num_states) * num_symbols, 0) {
  PEBBLETC_CHECK(num_states > 0) << "DFA needs at least one state";
}

bool Dfa::Accepts(const std::vector<SymbolId>& word) const {
  StateId q = start_;
  for (SymbolId a : word) q = Next(q, a);
  return accepting_[q];
}

std::vector<bool> Dfa::LiveStates() const {
  // Reverse reachability from accepting states.
  std::vector<std::vector<StateId>> rev(num_states_);
  for (StateId q = 0; q < num_states_; ++q) {
    for (SymbolId a = 0; a < num_symbols_; ++a) {
      rev[Next(q, a)].push_back(q);
    }
  }
  std::vector<bool> live(num_states_, false);
  std::vector<StateId> work;
  for (StateId q = 0; q < num_states_; ++q) {
    if (accepting_[q]) {
      live[q] = true;
      work.push_back(q);
    }
  }
  while (!work.empty()) {
    StateId q = work.back();
    work.pop_back();
    for (StateId p : rev[q]) {
      if (!live[p]) {
        live[p] = true;
        work.push_back(p);
      }
    }
  }
  return live;
}

Result<Dfa> DeterminizeWithin(const Nfa& nfa, size_t max_states) {
  PEBBLETC_CHECK(nfa.num_states > 0) << "empty NFA";
  // DFA states are ε-closed subsets of NFA states, packed sets interned in
  // `subsets` and numbered in the order they are first reached. A kernel is
  // one symbol's targets from a subset before ε-closure; equal kernels
  // close to the same subset, so each is interned in `kernels` and closed
  // once, and kernel_state[k] is the subset kernel k closes to. The empty
  // kernel, the common case in a content model over many types, skips both.
  const size_t words = (nfa.num_states + 63) / 64;
  PackedSetTable subsets(words);
  PackedSetTable kernels(words);
  std::vector<StateId> kernel_state;
  std::optional<StateId> empty_state;
  std::vector<uint64_t> set(words, 0);
  std::vector<StateId> work;
  // Interns `set` as a subset and clears it.
  auto intern = [&]() -> Result<StateId> {
    const StateId id = subsets.Intern(set.data());
    std::fill(set.begin(), set.end(), 0);
    if (id >= max_states) {
      return Status::LimitExceeded("subset construction passed " +
                                   std::to_string(max_states) + " states");
    }
    return id;
  };

  SetBit(set.data(), nfa.start);
  EpsilonClosure(nfa, set.data(), &work);
  PEBBLETC_ASSIGN_OR_RETURN(const StateId start, intern());

  // Row-major transition table, one row per subset, built as subsets are
  // discovered.
  std::vector<StateId> table;
  std::vector<bool> acc;
  std::vector<std::vector<StateId>> targets(nfa.num_symbols);
  for (StateId q = 0; q < subsets.size(); ++q) {
    bool a = false;
    ForEachBit(subsets.Set(q), words, [&](StateId s) {
      a = a || nfa.accepting[s];
      for (const auto& [sym, to] : nfa.transitions[s]) {
        targets[sym].push_back(to);
      }
    });
    acc.push_back(a);
    for (SymbolId sym = 0; sym < nfa.num_symbols; ++sym) {
      std::vector<StateId>& kernel = targets[sym];
      if (kernel.empty()) {
        if (!empty_state) {
          PEBBLETC_ASSIGN_OR_RETURN(empty_state, intern());
        }
        table.push_back(*empty_state);
        continue;
      }
      for (StateId t : kernel) SetBit(set.data(), t);
      const uint32_t k = kernels.Intern(set.data());
      if (k < kernel_state.size()) {
        for (StateId t : kernel) set[t / 64] = 0;
      } else {
        EpsilonClosure(nfa, set.data(), &work);
        PEBBLETC_ASSIGN_OR_RETURN(const StateId to, intern());
        kernel_state.push_back(to);
      }
      table.push_back(kernel_state[k]);
      kernel.clear();
    }
  }

  Dfa dfa(static_cast<uint32_t>(subsets.size()),
          nfa.num_symbols == 0 ? 1 : nfa.num_symbols);
  dfa.set_start(start);
  size_t next = 0;
  for (StateId q = 0; q < subsets.size(); ++q) {
    dfa.set_accepting(q, acc[q]);
    for (SymbolId sym = 0; sym < nfa.num_symbols; ++sym) {
      dfa.SetNext(q, sym, table[next++]);
    }
  }
  return dfa;
}

Dfa Determinize(const Nfa& nfa) {
  return *DeterminizeWithin(nfa, std::numeric_limits<size_t>::max());
}

Dfa Minimize(const Dfa& dfa) {
  const uint32_t n = dfa.num_states();
  const uint32_t k = dfa.num_symbols();

  // Restrict to reachable states first, numbered in BFS order.
  std::vector<StateId> order;
  std::vector<int64_t> reach_index(n, -1);
  order.push_back(dfa.start());
  reach_index[dfa.start()] = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    for (SymbolId a = 0; a < k; ++a) {
      StateId t = dfa.Next(order[i], a);
      if (reach_index[t] < 0) {
        reach_index[t] = static_cast<int64_t>(order.size());
        order.push_back(t);
      }
    }
  }
  const uint32_t m = static_cast<uint32_t>(order.size());
  std::vector<uint32_t> next(static_cast<size_t>(m) * k);
  for (uint32_t i = 0; i < m; ++i) {
    for (SymbolId a = 0; a < k; ++a) {
      next[static_cast<size_t>(i) * k + a] =
          static_cast<uint32_t>(reach_index[dfa.Next(order[i], a)]);
    }
  }
  // The a-predecessors of t are pred[pred_begin[a * m + t] ..
  // pred_begin[a * m + t + 1]).
  std::vector<uint32_t> pred_begin(static_cast<size_t>(k) * m + 1, 0);
  std::vector<uint32_t> pred(static_cast<size_t>(m) * k);
  for (uint32_t i = 0; i < m; ++i) {
    for (SymbolId a = 0; a < k; ++a) {
      ++pred_begin[static_cast<size_t>(a) * m +
                   next[static_cast<size_t>(i) * k + a] + 1];
    }
  }
  for (size_t j = 1; j < pred_begin.size(); ++j) {
    pred_begin[j] += pred_begin[j - 1];
  }
  {
    std::vector<uint32_t> fill(pred_begin.begin(), pred_begin.end() - 1);
    for (uint32_t i = 0; i < m; ++i) {
      for (SymbolId a = 0; a < k; ++a) {
        pred[fill[static_cast<size_t>(a) * m +
                  next[static_cast<size_t>(i) * k + a]]++] = i;
      }
    }
  }

  // Hopcroft's refinement, starting from accepting vs non-accepting. A block
  // is a range of `elems`; the predecessors of a splitter are swapped to the
  // front of their block, and a block they do not fill splits. The part
  // split off is the smaller one, and it always waits to split others: if
  // its block was waiting, both halves now wait; if not, the block's
  // splits are already done, and with them the larger half's.
  struct Block {
    uint32_t begin, end, marked;
  };
  std::vector<Block> blocks;
  std::vector<uint32_t> elems, pos(m), block_of(m);
  for (const bool acc : {false, true}) {
    const uint32_t begin = static_cast<uint32_t>(elems.size());
    for (uint32_t i = 0; i < m; ++i) {
      if (dfa.accepting(order[i]) != acc) continue;
      pos[i] = static_cast<uint32_t>(elems.size());
      block_of[i] = static_cast<uint32_t>(blocks.size());
      elems.push_back(i);
    }
    if (elems.size() > begin) {
      blocks.push_back({begin, static_cast<uint32_t>(elems.size()), 0});
    }
  }
  std::vector<uint32_t> waiting;
  if (blocks.size() == 2) {
    waiting.push_back(blocks[0].end - blocks[0].begin <=
                              blocks[1].end - blocks[1].begin
                          ? 0
                          : 1);
  }
  std::vector<uint32_t> splitter, touched;
  while (!waiting.empty()) {
    const Block b = blocks[waiting.back()];
    waiting.pop_back();
    splitter.assign(elems.begin() + b.begin, elems.begin() + b.end);
    for (SymbolId a = 0; a < k; ++a) {
      for (const uint32_t t : splitter) {
        const size_t key = static_cast<size_t>(a) * m + t;
        for (uint32_t j = pred_begin[key]; j < pred_begin[key + 1]; ++j) {
          const uint32_t p = pred[j];
          Block& x = blocks[block_of[p]];
          if (x.marked == 0) touched.push_back(block_of[p]);
          const uint32_t dst = x.begin + x.marked++;
          const uint32_t q = elems[dst];
          elems[pos[p]] = q;
          pos[q] = pos[p];
          elems[dst] = p;
          pos[p] = dst;
        }
      }
      for (const uint32_t xb : touched) {
        Block x = blocks[xb];
        const uint32_t marked = x.marked;
        x.marked = 0;
        if (marked == x.end - x.begin) {
          blocks[xb] = x;
          continue;
        }
        Block y{x.begin, x.begin + marked, 0};
        if (2 * marked <= x.end - x.begin) {
          x.begin = y.end;
        } else {
          y = {x.begin + marked, x.end, 0};
          x.end = y.begin;
        }
        blocks[xb] = x;
        const uint32_t yb = static_cast<uint32_t>(blocks.size());
        for (uint32_t i = y.begin; i < y.end; ++i) block_of[elems[i]] = yb;
        blocks.push_back(y);
        waiting.push_back(yb);
      }
      touched.clear();
    }
  }

  // Number the blocks by their first state in BFS order: the numbering
  // Moore's refinement (RefMinimizeDfa, src/check/reference_ops.h) ends
  // with, so the two tables are identical.
  constexpr uint32_t kUnnumbered = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> number(blocks.size(), kUnnumbered);
  uint32_t num_blocks = 0;
  for (uint32_t i = 0; i < m; ++i) {
    if (number[block_of[i]] == kUnnumbered) number[block_of[i]] = num_blocks++;
  }
  Dfa out(num_blocks, k);
  out.set_start(number[block_of[0]]);  // order[0] == start
  for (uint32_t i = 0; i < m; ++i) {
    const StateId from = number[block_of[i]];
    out.set_accepting(from, dfa.accepting(order[i]));
    for (SymbolId a = 0; a < k; ++a) {
      out.SetNext(from, a,
                  number[block_of[next[static_cast<size_t>(i) * k + a]]]);
    }
  }
  return out;
}

Dfa CompileRegexToDfa(const RegexPtr& regex, uint32_t num_symbols) {
  return Minimize(Determinize(CompileRegexToNfa(regex, num_symbols)));
}

Dfa Complement(const Dfa& dfa) {
  Dfa out = dfa;
  for (StateId q = 0; q < out.num_states(); ++q) {
    out.set_accepting(q, !out.accepting(q));
  }
  return out;
}

Dfa Product(const Dfa& a, const Dfa& b, BoolOp op) {
  PEBBLETC_CHECK(a.num_symbols() == b.num_symbols())
      << "product over mismatched alphabets";
  const uint32_t k = a.num_symbols();
  auto combine = [op](bool x, bool y) {
    switch (op) {
      case BoolOp::kAnd:
        return x && y;
      case BoolOp::kOr:
        return x || y;
      case BoolOp::kDiff:
        return x && !y;
    }
    return false;
  };
  // Lazy pairing of reachable state pairs.
  std::map<std::pair<StateId, StateId>, StateId> index;
  std::vector<std::pair<StateId, StateId>> pairs;
  auto intern = [&](StateId x, StateId y) -> StateId {
    auto [it, inserted] = index.emplace(std::make_pair(x, y), pairs.size());
    if (inserted) pairs.push_back({x, y});
    return it->second;
  };
  StateId start = intern(a.start(), b.start());
  std::vector<std::vector<StateId>> rows;
  for (StateId q = 0; q < pairs.size(); ++q) {
    auto [x, y] = pairs[q];
    std::vector<StateId> row(k);
    for (SymbolId s = 0; s < k; ++s) row[s] = intern(a.Next(x, s), b.Next(y, s));
    rows.push_back(std::move(row));
  }
  Dfa out(static_cast<uint32_t>(pairs.size()), k);
  out.set_start(start);
  for (StateId q = 0; q < pairs.size(); ++q) {
    out.set_accepting(q, combine(a.accepting(pairs[q].first),
                                 b.accepting(pairs[q].second)));
    for (SymbolId s = 0; s < k; ++s) out.SetNext(q, s, rows[q][s]);
  }
  return out;
}

bool IsEmptyLanguage(const Dfa& dfa) {
  std::vector<bool> live = dfa.LiveStates();
  return !live[dfa.start()];
}

std::optional<std::vector<SymbolId>> ShortestAccepted(const Dfa& dfa) {
  // BFS from the start state, remembering the (state, symbol) predecessor.
  std::vector<int64_t> pred_state(dfa.num_states(), -1);
  std::vector<SymbolId> pred_symbol(dfa.num_states(), kNoSymbol);
  std::vector<bool> seen(dfa.num_states(), false);
  std::deque<StateId> queue = {dfa.start()};
  seen[dfa.start()] = true;
  while (!queue.empty()) {
    StateId q = queue.front();
    queue.pop_front();
    if (dfa.accepting(q)) {
      std::vector<SymbolId> word;
      StateId cur = q;
      while (pred_state[cur] >= 0) {
        word.push_back(pred_symbol[cur]);
        cur = static_cast<StateId>(pred_state[cur]);
      }
      std::reverse(word.begin(), word.end());
      return word;
    }
    for (SymbolId a = 0; a < dfa.num_symbols(); ++a) {
      StateId t = dfa.Next(q, a);
      if (!seen[t]) {
        seen[t] = true;
        pred_state[t] = q;
        pred_symbol[t] = a;
        queue.push_back(t);
      }
    }
  }
  return std::nullopt;
}

bool Includes(const Dfa& b, const Dfa& a) {
  return IsEmptyLanguage(Product(a, b, BoolOp::kDiff));
}

bool EquivalentLanguages(const Dfa& a, const Dfa& b) {
  return Includes(b, a) && Includes(a, b);
}

}  // namespace pebbletc
