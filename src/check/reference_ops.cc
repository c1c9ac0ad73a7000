#include "src/check/reference_ops.h"

#include <limits>
#include <map>
#include <string>
#include <utility>

#include "src/common/check.h"

namespace pebbletc {

namespace {

constexpr uint64_t kSat = std::numeric_limits<uint64_t>::max();

uint64_t SatAdd(uint64_t x, uint64_t y) { return x > kSat - y ? kSat : x + y; }

uint64_t SatMul(uint64_t x, uint64_t y) {
  if (x == 0 || y == 0) return 0;
  return x > kSat / y ? kSat : x * y;
}

}  // namespace

std::vector<std::set<StateId>> RefRunStates(const Nbta& a,
                                            const BinaryTree& tree) {
  // NodeIds are created children-first, so ascending order is bottom-up.
  std::vector<std::set<StateId>> states(tree.size());
  for (NodeId n = 0; n < tree.size(); ++n) {
    if (tree.IsLeaf(n)) {
      for (const Nbta::LeafRule& r : a.leaf_rules) {
        if (r.symbol == tree.symbol(n)) states[n].insert(r.to);
      }
    } else {
      const std::set<StateId>& ls = states[tree.left(n)];
      const std::set<StateId>& rs = states[tree.right(n)];
      for (const Nbta::BinaryRule& r : a.rules) {
        if (r.symbol == tree.symbol(n) && ls.count(r.left) &&
            rs.count(r.right)) {
          states[n].insert(r.to);
        }
      }
    }
  }
  return states;
}

bool RefAccepts(const Nbta& a, const BinaryTree& tree) {
  if (tree.empty()) return false;
  std::vector<std::set<StateId>> states = RefRunStates(a, tree);
  for (StateId q : states[tree.root()]) {
    if (a.accepting[q]) return true;
  }
  return false;
}

Result<Dbta> RefDeterminize(const Nbta& a, const RankedAlphabet& alphabet) {
  if (alphabet.size() != a.num_symbols) {
    return Status::InvalidArgument("alphabet size mismatch in RefDeterminize");
  }
  if (a.num_states > kRefMaxDeterminizeStates) {
    return Status::ResourceExhausted(
        "RefDeterminize materializes all 2^" + std::to_string(a.num_states) +
        " subsets; refusing");
  }
  const uint32_t n = a.num_states;
  const uint32_t subsets = 1u << n;
  Dbta out(subsets, a.num_symbols);
  for (SymbolId s = 0; s < a.num_symbols; ++s) {
    uint32_t mask = 0;
    for (const Nbta::LeafRule& r : a.leaf_rules) {
      if (r.symbol == s) mask |= 1u << r.to;
    }
    out.SetLeafState(s, mask);
  }
  for (SymbolId s = 0; s < a.num_symbols; ++s) {
    for (uint32_t m1 = 0; m1 < subsets; ++m1) {
      for (uint32_t m2 = 0; m2 < subsets; ++m2) {
        uint32_t to = 0;
        for (const Nbta::BinaryRule& r : a.rules) {
          if (r.symbol == s && ((m1 >> r.left) & 1u) && ((m2 >> r.right) & 1u)) {
            to |= 1u << r.to;
          }
        }
        out.SetNext(s, m1, m2, to);
      }
    }
  }
  for (uint32_t m = 0; m < subsets; ++m) {
    bool acc = false;
    for (StateId q = 0; q < n; ++q) {
      if (((m >> q) & 1u) && a.accepting[q]) acc = true;
    }
    out.set_accepting(m, acc);
  }
  return out;
}

Result<Nbta> RefComplement(const Nbta& a, const RankedAlphabet& alphabet) {
  PEBBLETC_ASSIGN_OR_RETURN(Dbta det, RefDeterminize(a, alphabet));
  Nbta out;
  out.num_symbols = a.num_symbols;
  for (uint32_t q = 0; q < det.num_states(); ++q) {
    StateId id = out.AddState();
    out.accepting[id] = !det.accepting(q);
  }
  for (SymbolId s : alphabet.LeafSymbols()) {
    out.AddLeafRule(s, det.LeafState(s));
  }
  for (SymbolId s : alphabet.BinarySymbols()) {
    for (uint32_t m1 = 0; m1 < det.num_states(); ++m1) {
      for (uint32_t m2 = 0; m2 < det.num_states(); ++m2) {
        out.AddRule(s, m1, m2, det.Next(s, m1, m2));
      }
    }
  }
  return out;
}

Nbta RefIntersect(const Nbta& a, const Nbta& b) {
  PEBBLETC_CHECK(a.num_symbols == b.num_symbols)
      << "RefIntersect over mismatched alphabets";
  Nbta out;
  out.num_symbols = a.num_symbols;
  auto pair_id = [&](StateId i, StateId j) -> StateId {
    return i * b.num_states + j;
  };
  for (StateId i = 0; i < a.num_states; ++i) {
    for (StateId j = 0; j < b.num_states; ++j) {
      StateId id = out.AddState();
      out.accepting[id] = a.accepting[i] && b.accepting[j];
    }
  }
  for (const Nbta::LeafRule& ra : a.leaf_rules) {
    for (const Nbta::LeafRule& rb : b.leaf_rules) {
      if (ra.symbol == rb.symbol) {
        out.AddLeafRule(ra.symbol, pair_id(ra.to, rb.to));
      }
    }
  }
  for (const Nbta::BinaryRule& ra : a.rules) {
    for (const Nbta::BinaryRule& rb : b.rules) {
      if (ra.symbol == rb.symbol) {
        out.AddRule(ra.symbol, pair_id(ra.left, rb.left),
                    pair_id(ra.right, rb.right), pair_id(ra.to, rb.to));
      }
    }
  }
  return out;
}

Nbta RefUnion(const Nbta& a, const Nbta& b) {
  PEBBLETC_CHECK(a.num_symbols == b.num_symbols)
      << "RefUnion over mismatched alphabets";
  Nbta out;
  out.num_symbols = a.num_symbols;
  for (StateId q = 0; q < a.num_states; ++q) {
    StateId id = out.AddState();
    out.accepting[id] = a.accepting[q];
  }
  for (StateId q = 0; q < b.num_states; ++q) {
    StateId id = out.AddState();
    out.accepting[id] = b.accepting[q];
  }
  for (const Nbta::LeafRule& r : a.leaf_rules) out.AddLeafRule(r.symbol, r.to);
  for (const Nbta::BinaryRule& r : a.rules) {
    out.AddRule(r.symbol, r.left, r.right, r.to);
  }
  for (const Nbta::LeafRule& r : b.leaf_rules) {
    out.AddLeafRule(r.symbol, r.to + a.num_states);
  }
  for (const Nbta::BinaryRule& r : b.rules) {
    out.AddRule(r.symbol, r.left + a.num_states, r.right + a.num_states,
                r.to + a.num_states);
  }
  return out;
}

namespace {

// Inhabited states by whole-rule-list rescans until stable.
std::vector<bool> RefInhabited(const Nbta& a) {
  std::vector<bool> inhabited(a.num_states, false);
  for (const Nbta::LeafRule& r : a.leaf_rules) inhabited[r.to] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Nbta::BinaryRule& r : a.rules) {
      if (inhabited[r.left] && inhabited[r.right] && !inhabited[r.to]) {
        inhabited[r.to] = true;
        changed = true;
      }
    }
  }
  return inhabited;
}

}  // namespace

bool RefIsEmpty(const Nbta& a) {
  std::vector<bool> inhabited = RefInhabited(a);
  for (StateId q = 0; q < a.num_states; ++q) {
    if (inhabited[q] && a.accepting[q]) return false;
  }
  return true;
}

Nbta RefTrim(const Nbta& a) {
  std::vector<bool> inhabited = RefInhabited(a);
  // Useful states: can head a context leading to acceptance. Fixpoint over
  // the rules, restricted to inhabited children (a rule whose other child is
  // uninhabited can never fire).
  std::vector<bool> useful(a.num_states, false);
  for (StateId q = 0; q < a.num_states; ++q) {
    if (a.accepting[q] && inhabited[q]) useful[q] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Nbta::BinaryRule& r : a.rules) {
      if (useful[r.to] && inhabited[r.left] && inhabited[r.right]) {
        if (!useful[r.left]) {
          useful[r.left] = true;
          changed = true;
        }
        if (!useful[r.right]) {
          useful[r.right] = true;
          changed = true;
        }
      }
    }
  }
  std::vector<StateId> remap(a.num_states, kNoSymbol);
  Nbta out;
  out.num_symbols = a.num_symbols;
  for (StateId q = 0; q < a.num_states; ++q) {
    if (inhabited[q] && useful[q]) {
      remap[q] = out.AddState();
      out.accepting[remap[q]] = a.accepting[q];
    }
  }
  for (const Nbta::LeafRule& r : a.leaf_rules) {
    if (remap[r.to] != kNoSymbol) out.AddLeafRule(r.symbol, remap[r.to]);
  }
  for (const Nbta::BinaryRule& r : a.rules) {
    if (remap[r.to] != kNoSymbol && remap[r.left] != kNoSymbol &&
        remap[r.right] != kNoSymbol) {
      out.AddRule(r.symbol, remap[r.left], remap[r.right], remap[r.to]);
    }
  }
  if (out.num_states == 0) out.AddState();
  return out;
}

namespace {

// runs(q, s) = accepting runs of s-node trees evaluating to q, memoized.
uint64_t RefCountRuns(const Nbta& a, StateId q, size_t s,
                      std::map<std::pair<StateId, size_t>, uint64_t>* memo) {
  if (s == 0 || s % 2 == 0) return 0;
  auto key = std::make_pair(q, s);
  auto it = memo->find(key);
  if (it != memo->end()) return it->second;
  uint64_t total = 0;
  if (s == 1) {
    for (const Nbta::LeafRule& r : a.leaf_rules) {
      if (r.to == q) total = SatAdd(total, 1);
    }
  } else {
    for (const Nbta::BinaryRule& r : a.rules) {
      if (r.to != q) continue;
      for (size_t s1 = 1; s1 <= s - 2; s1 += 2) {
        const size_t s2 = s - 1 - s1;
        total = SatAdd(total, SatMul(RefCountRuns(a, r.left, s1, memo),
                                     RefCountRuns(a, r.right, s2, memo)));
      }
    }
  }
  (*memo)[key] = total;
  return total;
}

}  // namespace

Dfa RefMinimizeDfa(const Dfa& dfa) {
  const uint32_t n = dfa.num_states();
  const uint32_t k = dfa.num_symbols();

  // Restrict to reachable states first.
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

  // Moore refinement over reachable states: block id per state, refined until
  // stable. Initial partition: accepting vs non-accepting.
  std::vector<uint32_t> block(m);
  for (uint32_t i = 0; i < m; ++i) block[i] = dfa.accepting(order[i]) ? 1 : 0;
  uint32_t num_blocks = 2;
  for (bool changed = true; changed;) {
    changed = false;
    // Signature: (current block, successor blocks per symbol).
    std::map<std::vector<uint32_t>, uint32_t> sig_index;
    std::vector<uint32_t> new_block(m);
    for (uint32_t i = 0; i < m; ++i) {
      std::vector<uint32_t> sig;
      sig.reserve(k + 1);
      sig.push_back(block[i]);
      for (SymbolId a = 0; a < k; ++a) {
        StateId t = dfa.Next(order[i], a);
        sig.push_back(block[reach_index[t]]);
      }
      auto [it, inserted] = sig_index.emplace(
          std::move(sig), static_cast<uint32_t>(sig_index.size()));
      new_block[i] = it->second;
      (void)inserted;
    }
    if (sig_index.size() != num_blocks) changed = true;
    num_blocks = static_cast<uint32_t>(sig_index.size());
    block = std::move(new_block);
  }

  Dfa out(num_blocks, k);
  out.set_start(block[0]);  // order[0] == start
  for (uint32_t i = 0; i < m; ++i) {
    out.set_accepting(block[i], dfa.accepting(order[i]));
    for (SymbolId a = 0; a < k; ++a) {
      out.SetNext(block[i], a, block[reach_index[dfa.Next(order[i], a)]]);
    }
  }
  return out;
}

uint64_t RefCountAcceptedTrees(const Nbta& a, size_t num_nodes) {
  if (num_nodes == 0 || num_nodes % 2 == 0) return 0;
  std::map<std::pair<StateId, size_t>, uint64_t> memo;
  uint64_t total = 0;
  for (StateId q = 0; q < a.num_states; ++q) {
    if (a.accepting[q]) {
      total = SatAdd(total, RefCountRuns(a, q, num_nodes, &memo));
    }
  }
  return total;
}

namespace {

// trees[s] = all trees with s nodes, built smallest sizes first.
void BuildTreesBySize(const RankedAlphabet& alphabet, size_t max_nodes,
                      size_t max_count,
                      std::vector<std::vector<BinaryTree>>* trees,
                      bool* truncated) {
  trees->assign(max_nodes + 1, {});
  size_t total = 0;
  bool clipped = false;
  auto push = [&](size_t s, BinaryTree t) {
    if (total >= max_count) {
      clipped = true;
      return false;
    }
    (*trees)[s].push_back(std::move(t));
    ++total;
    return true;
  };
  if (max_nodes >= 1) {
    for (SymbolId a : alphabet.LeafSymbols()) {
      BinaryTree t;
      t.SetRoot(t.AddLeaf(a));
      if (!push(1, std::move(t))) break;
    }
  }
  for (size_t s = 3; s <= max_nodes && !clipped; s += 2) {
    for (SymbolId a : alphabet.BinarySymbols()) {
      for (size_t s1 = 1; s1 <= s - 2 && !clipped; s1 += 2) {
        const size_t s2 = s - 1 - s1;
        for (const BinaryTree& lt : (*trees)[s1]) {
          for (const BinaryTree& rt : (*trees)[s2]) {
            BinaryTree t;
            NodeId l = t.CopySubtree(lt, lt.root());
            NodeId r = t.CopySubtree(rt, rt.root());
            t.SetRoot(t.AddInternal(a, l, r));
            if (!push(s, std::move(t))) break;
          }
          if (clipped) break;
        }
      }
      if (clipped) break;
    }
  }
  if (truncated != nullptr) *truncated = clipped;
}

}  // namespace

Result<Nbta> RefDownwardProduct(const PebbleTransducer& t, const Dbta& d,
                                const RankedAlphabet& input_alphabet) {
  using M = PebbleTransducer::MoveKind;
  using TK = PebbleTransducer::TransitionKind;
  if (t.max_pebbles() != 1) {
    return Status::InvalidArgument("RefDownwardProduct needs one pebble");
  }
  for (const auto& tr : t.transitions()) {
    if (tr.kind == TK::kMove && tr.move != M::kStay &&
        tr.move != M::kDownLeft && tr.move != M::kDownRight) {
      return Status::InvalidArgument(
          "RefDownwardProduct needs a downward transducer");
    }
  }
  if (input_alphabet.size() != t.num_input_symbols() ||
      d.num_symbols() != t.num_output_symbols()) {
    return Status::InvalidArgument("alphabet size mismatch in "
                                   "RefDownwardProduct");
  }
  // A set of (transducer state, D-state) pairs.
  using Subset = std::set<std::pair<StateId, StateId>>;

  // The D-states paired with transducer state q in `s`.
  auto row = [](const Subset& s, StateId q) {
    std::vector<StateId> r;
    for (auto it = s.lower_bound({q, 0}); it != s.end() && it->first == q;
         ++it) {
      r.push_back(it->second);
    }
    return r;
  };
  // S at a node labelled `a` whose children carry `left` / `right` (null at
  // leaves): rescan every transition until nothing is added.
  auto node_set = [&](SymbolId a, const Subset* left, const Subset* right) {
    Subset s;
    for (bool changed = true; changed;) {
      changed = false;
      auto add = [&](StateId q, StateId dq) {
        changed |= s.insert({q, dq}).second;
      };
      for (const auto& tr : t.transitions()) {
        if (tr.guard.symbol != kAnySymbol && tr.guard.symbol != a) continue;
        switch (tr.kind) {
          case TK::kOutputLeaf:
            add(tr.from, d.LeafState(tr.output_symbol));
            break;
          case TK::kOutputBinary:
            for (StateId d1 : row(s, tr.out_left)) {
              for (StateId d2 : row(s, tr.out_right)) {
                add(tr.from, d.Next(tr.output_symbol, d1, d2));
              }
            }
            break;
          case TK::kMove: {
            const Subset* from_set = tr.move == M::kStay       ? &s
                                     : tr.move == M::kDownLeft ? left
                                                               : right;
            if (from_set == nullptr) break;
            for (StateId dq : row(*from_set, tr.to)) add(tr.from, dq);
            break;
          }
        }
      }
    }
    return s;
  };

  std::vector<Subset> subsets;
  std::map<Subset, StateId> index;
  Nbta out;
  out.num_symbols = static_cast<uint32_t>(input_alphabet.size());
  auto intern = [&](Subset s) -> StateId {
    auto [it, fresh] =
        index.emplace(s, static_cast<StateId>(subsets.size()));
    if (fresh) {
      subsets.push_back(std::move(s));
      out.AddState();
    }
    return it->second;
  };
  for (SymbolId a : input_alphabet.LeafSymbols()) {
    out.AddLeafRule(a, intern(node_set(a, nullptr, nullptr)));
  }
  // Subset p is paired with every j ≤ p, in both child orders, when the
  // loop reaches it, so each (symbol, i, j) is computed exactly once.
  for (StateId p = 0; p < subsets.size(); ++p) {
    if (subsets.size() > kRefMaxDownwardSubsets) {
      return Status::ResourceExhausted(
          "RefDownwardProduct passed " +
          std::to_string(kRefMaxDownwardSubsets) + " subsets; refusing");
    }
    for (SymbolId a : input_alphabet.BinarySymbols()) {
      for (StateId j = 0; j <= p; ++j) {
        out.AddRule(a, p, j, intern(node_set(a, &subsets[p], &subsets[j])));
        if (j != p) {
          out.AddRule(a, j, p, intern(node_set(a, &subsets[j], &subsets[p])));
        }
      }
    }
  }
  for (StateId i = 0; i < subsets.size(); ++i) {
    for (const auto& [q, dq] : subsets[i]) {
      if (q == t.start() && d.accepting(dq)) out.accepting[i] = true;
    }
  }
  return out;
}

Result<Dbta> MinimizeDbta(const Dbta& d, const RankedAlphabet& alphabet) {
  if (alphabet.size() != d.num_symbols()) {
    return Status::InvalidArgument("alphabet size mismatch in minimize");
  }
  const uint32_t n = d.num_states();

  // Inhabited states (reachable bottom-up); everything else collapses into
  // whatever block its signature lands in — harmless, but restricting keeps
  // the refinement honest and the result canonical.
  std::vector<bool> inhabited(n, false);
  {
    bool changed = true;
    for (SymbolId a : alphabet.LeafSymbols()) inhabited[d.LeafState(a)] = true;
    while (changed) {
      changed = false;
      for (SymbolId a : alphabet.BinarySymbols()) {
        for (StateId l = 0; l < n; ++l) {
          if (!inhabited[l]) continue;
          for (StateId r = 0; r < n; ++r) {
            if (!inhabited[r]) continue;
            StateId to = d.Next(a, l, r);
            if (!inhabited[to]) {
              inhabited[to] = true;
              changed = true;
            }
          }
        }
      }
    }
  }
  std::vector<StateId> live;  // inhabited states, dense order
  std::vector<int64_t> live_index(n, -1);
  for (StateId q = 0; q < n; ++q) {
    if (inhabited[q]) {
      live_index[q] = static_cast<int64_t>(live.size());
      live.push_back(q);
    }
  }
  const size_t m = live.size();
  if (m == 0) {
    // Empty language (no leaf symbols): a one-state reject automaton.
    Dbta out(1, d.num_symbols());
    return out;
  }

  // Moore refinement over inhabited states: a state's signature is its block
  // and the blocks of its successors as either child; each round's blocks
  // are the distinct signatures, numbered in order of first appearance.
  std::vector<uint32_t> block(m);
  for (size_t i = 0; i < m; ++i) block[i] = d.accepting(live[i]) ? 1 : 0;
  size_t num_blocks = 2;
  for (bool changed = true; changed;) {
    std::map<std::vector<uint32_t>, uint32_t> ids;
    std::vector<uint32_t> next_block(m);
    for (size_t i = 0; i < m; ++i) {
      std::vector<uint32_t> sig = {block[i]};
      for (SymbolId a : alphabet.BinarySymbols()) {
        for (size_t j = 0; j < m; ++j) {
          for (StateId to : {d.Next(a, live[i], live[j]),
                             d.Next(a, live[j], live[i])}) {
            // Successors outside the inhabited set cannot occur in any run.
            sig.push_back(live_index[to] < 0 ? ~0u : block[live_index[to]]);
          }
        }
      }
      const uint32_t fresh = static_cast<uint32_t>(ids.size());
      next_block[i] = ids.try_emplace(std::move(sig), fresh).first->second;
    }
    changed = ids.size() != num_blocks;
    num_blocks = ids.size();
    block = std::move(next_block);
  }

  // Emit blocks (+ a sink for transitions leaving the inhabited set). The
  // sink may be unreachable; that is fine for a complete automaton.
  const uint32_t sink = static_cast<uint32_t>(num_blocks);
  Dbta out(static_cast<uint32_t>(num_blocks) + 1, d.num_symbols());
  auto block_of = [&](StateId q) -> StateId {
    return live_index[q] < 0 ? sink
                             : static_cast<StateId>(block[live_index[q]]);
  };
  for (size_t i = 0; i < m; ++i) {
    out.set_accepting(block[i], d.accepting(live[i]));
  }
  for (SymbolId a : alphabet.LeafSymbols()) {
    out.SetLeafState(a, block_of(d.LeafState(a)));
  }
  // Representative per block for transition lookups.
  std::vector<StateId> rep(num_blocks, 0);
  for (size_t i = m; i-- > 0;) rep[block[i]] = live[i];
  for (SymbolId a : alphabet.BinarySymbols()) {
    for (uint32_t bi = 0; bi < num_blocks; ++bi) {
      for (uint32_t bj = 0; bj < num_blocks; ++bj) {
        out.SetNext(a, bi, bj, block_of(d.Next(a, rep[bi], rep[bj])));
      }
      out.SetNext(a, bi, sink, sink);
      out.SetNext(a, sink, bi, sink);
    }
    out.SetNext(a, sink, sink, sink);
  }
  return out;
}

std::vector<BinaryTree> AllTreesWithNodes(const RankedAlphabet& alphabet,
                                          size_t num_nodes, size_t max_count,
                                          bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  if (num_nodes == 0 || num_nodes % 2 == 0) return {};
  std::vector<std::vector<BinaryTree>> trees;
  BuildTreesBySize(alphabet, num_nodes, max_count, &trees, truncated);
  return std::move(trees[num_nodes]);
}

std::vector<BinaryTree> AllTreesUpToNodes(const RankedAlphabet& alphabet,
                                          size_t max_nodes, size_t max_count,
                                          bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  std::vector<std::vector<BinaryTree>> trees;
  BuildTreesBySize(alphabet, max_nodes, max_count, &trees, truncated);
  std::vector<BinaryTree> out;
  for (size_t s = 1; s <= max_nodes; s += 2) {
    for (BinaryTree& t : trees[s]) out.push_back(std::move(t));
  }
  return out;
}

}  // namespace pebbletc
