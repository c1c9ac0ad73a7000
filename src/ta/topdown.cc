#include "src/ta/topdown.h"

#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/graph/agap.h"

namespace pebbletc {

Status TopDownTA::Validate(const RankedAlphabet& alphabet) const {
  if (num_symbols != alphabet.size()) {
    return Status::InvalidArgument("num_symbols does not match the alphabet");
  }
  if (start >= num_states) {
    return Status::InvalidArgument("start state out of range");
  }
  for (const FinalPair& f : final_pairs) {
    if (f.state >= num_states || f.symbol >= num_symbols) {
      return Status::InvalidArgument("final pair out of range");
    }
    if (alphabet.Rank(f.symbol) != 0) {
      return Status::InvalidArgument("final pair on binary symbol '" +
                                     alphabet.Name(f.symbol) + "'");
    }
  }
  for (const BinaryRule& r : rules) {
    if (r.from >= num_states || r.left >= num_states ||
        r.right >= num_states || r.symbol >= num_symbols) {
      return Status::InvalidArgument("binary rule out of range");
    }
    if (alphabet.Rank(r.symbol) != 2) {
      return Status::InvalidArgument("binary rule on leaf symbol '" +
                                     alphabet.Name(r.symbol) + "'");
    }
  }
  for (const SilentRule& s : silent) {
    if (s.from >= num_states || s.to >= num_states ||
        s.symbol >= num_symbols) {
      return Status::InvalidArgument("silent rule out of range");
    }
  }
  return Status::OK();
}

TopDownIndex::TopDownIndex(const TopDownTA& a) : a_(&a) {
  auto ids = [](size_t i) { return static_cast<uint32_t>(i); };
  rules_by_symbol_ = Csr<uint32_t>::Build(
      a.num_symbols, a.rules.size(),
      [&](size_t i) { return a.rules[i].symbol; }, ids);
  finals_by_symbol_ = Csr<uint32_t>::Build(
      a.num_symbols, a.final_pairs.size(),
      [&](size_t i) { return a.final_pairs[i].symbol; }, ids);
  silent_by_symbol_ = Csr<uint32_t>::Build(
      a.num_symbols, a.silent.size(),
      [&](size_t i) { return a.silent[i].symbol; }, ids);
}

std::span<const StateId> TopDownIndex::SilentSources(SymbolId symbol,
                                                     StateId to) const {
  if (!reverse_silent_built_) {
    const auto& silent = a_->silent;
    const size_t rows =
        static_cast<size_t>(a_->num_symbols) * a_->num_states;
    reverse_silent_ = Csr<StateId>::Build(
        rows, silent.size(),
        [&](size_t i) {
          return static_cast<size_t>(silent[i].symbol) * a_->num_states +
                 silent[i].to;
        },
        [&](size_t i) { return silent[i].from; });
    reverse_silent_built_ = true;
  }
  return reverse_silent_.Row(static_cast<size_t>(symbol) * a_->num_states +
                             to);
}

TopDownTA EliminateSilentTransitions(const TopDownIndex& idx,
                                     TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  const TopDownTA& a = idx.ta();
  TopDownTA out;
  out.num_states = a.num_states;
  out.num_symbols = a.num_symbols;
  out.start = a.start;
  if (a.silent.empty()) {
    out.final_pairs = a.final_pairs;
    out.rules = a.rules;
    return out;
  }

  // For a rule (a, t) → ... the eliminated automaton needs it at every state
  // q with q ⇒*_a t, i.e. every q that reaches t backwards through symbol-a
  // silent edges. Compute those sets lazily, one reverse BFS per distinct
  // (symbol, target) over the compiled reverse silent adjacency, so the cost
  // is proportional to the silent-edge graph rather than cubic in the
  // (possibly large) state count.
  const uint32_t n = a.num_states;
  std::vector<std::vector<std::vector<StateId>>> memo(a.num_symbols);
  auto backward_set = [&](SymbolId s, StateId t) -> const std::vector<StateId>& {
    if (memo[s].empty()) memo[s].assign(n, {});
    std::vector<StateId>& cached = memo[s][t];
    if (!cached.empty()) return cached;
    std::vector<bool> seen(n, false);
    std::vector<StateId> work = {t};
    seen[t] = true;
    cached.push_back(t);
    while (!work.empty()) {
      StateId q = work.back();
      work.pop_back();
      for (StateId p : idx.SilentSources(s, q)) {
        if (!seen[p]) {
          seen[p] = true;
          cached.push_back(p);
          work.push_back(p);
        }
      }
    }
    return cached;
  };

  for (const TopDownTA::BinaryRule& r : a.rules) {
    // Interrupted: emit no further rules. Every rule already emitted is
    // sound; callers consult TaInterruptStatus before trusting completeness.
    if (!TaCheckpoint(ctx).ok()) break;
    for (StateId q : backward_set(r.symbol, r.from)) {
      out.AddRule(r.symbol, q, r.left, r.right);
    }
  }
  for (const TopDownTA::FinalPair& f : a.final_pairs) {
    if (!TaCheckpoint(ctx).ok()) break;
    for (StateId q : backward_set(f.symbol, f.state)) {
      out.AddFinalPair(f.symbol, q);
    }
  }
  TaCountRules(ctx, out.rules.size() + out.final_pairs.size());
  return out;
}

TopDownTA EliminateSilentTransitions(const TopDownTA& a, TaOpContext* ctx) {
  return EliminateSilentTransitions(TopDownIndex(a), ctx);
}

bool TopDownAccepts(const TopDownIndex& idx, const BinaryTree& tree) {
  const TopDownTA& a = idx.ta();
  if (tree.empty()) return false;
  // Or-node per configuration [q, x]; one extra and-node per applicable
  // binary rule instance; branchless accept via final pairs (edge to the
  // empty and-node).
  AlternatingGraph g;
  const size_t num_nodes = tree.size();
  // Config ids are laid out first so indices are predictable.
  for (size_t i = 0; i < static_cast<size_t>(a.num_states) * num_nodes; ++i) {
    g.AddNode(AlternatingGraph::NodeType::kOr);
  }
  AgapNodeId accept = g.AddNode(AlternatingGraph::NodeType::kAnd);
  auto config = [&](StateId q, NodeId x) -> AgapNodeId {
    return static_cast<AgapNodeId>(static_cast<size_t>(q) * num_nodes + x);
  };

  for (NodeId x = 0; x < num_nodes; ++x) {
    const SymbolId sym = tree.symbol(x);
    for (uint32_t si : idx.SilentWithSymbol(sym)) {
      const TopDownTA::SilentRule& r = a.silent[si];
      g.AddEdge(config(r.from, x), config(r.to, x));
    }
    if (tree.IsLeaf(x)) {
      for (uint32_t fi : idx.FinalsWithSymbol(sym)) {
        g.AddEdge(config(a.final_pairs[fi].state, x), accept);
      }
    } else {
      for (uint32_t ri : idx.RulesWithSymbol(sym)) {
        const TopDownTA::BinaryRule& r = a.rules[ri];
        AgapNodeId pair = g.AddNode(AlternatingGraph::NodeType::kAnd);
        g.AddEdge(config(r.from, x), pair);
        g.AddEdge(pair, config(r.left, tree.left(x)));
        g.AddEdge(pair, config(r.right, tree.right(x)));
      }
    }
  }
  std::vector<bool> accessible = g.ComputeAccessible();
  return accessible[config(a.start, tree.root())];
}

bool TopDownAccepts(const TopDownTA& a, const BinaryTree& tree) {
  return TopDownAccepts(TopDownIndex(a), tree);
}

}  // namespace pebbletc
