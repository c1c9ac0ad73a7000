#include "src/ta/enumerate.h"

#include <string>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"

namespace pebbletc {

namespace {

// Canonical structural key of a subtree, independent of node ids.
void AppendKey(const BinaryTree& t, NodeId n, std::string* out) {
  *out += std::to_string(t.symbol(n));
  if (!t.IsLeaf(n)) {
    *out += '(';
    AppendKey(t, t.left(n), out);
    *out += ',';
    AppendKey(t, t.right(n), out);
    *out += ')';
  }
}

std::string Key(const BinaryTree& t) {
  std::string out;
  AppendKey(t, t.root(), &out);
  return out;
}

}  // namespace

std::vector<BinaryTree> EnumerateAcceptedTrees(const Nbta& untrimmed,
                                               size_t max_nodes,
                                               size_t max_count,
                                               TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  std::vector<BinaryTree> out;
  if (max_nodes == 0 || max_count == 0) return out;
  // Only accepting states emit trees, so only the trim's states need them:
  // a state that never sits below an accepting root may hold almost every
  // tree. The trim keeps state and rule order, so the emitted list is the
  // untrimmed one.
  const Nbta a = TrimNbta(untrimmed);

  // per_state[q][s] = distinct trees of size s evaluating to q. Sizes are
  // odd; index by size directly for clarity.
  std::vector<std::vector<std::vector<BinaryTree>>> per_state(
      a.num_states, std::vector<std::vector<BinaryTree>>(max_nodes + 1));
  std::vector<std::vector<std::unordered_set<std::string>>> seen(
      a.num_states,
      std::vector<std::unordered_set<std::string>>(max_nodes + 1));

  auto add = [&](StateId q, size_t s, BinaryTree tree) {
    std::string key = Key(tree);
    if (seen[q][s].insert(std::move(key)).second) {
      per_state[q][s].push_back(std::move(tree));
    }
  };

  for (const Nbta::LeafRule& r : a.leaf_rules) {
    BinaryTree t;
    t.SetRoot(t.AddLeaf(r.symbol));
    add(r.to, 1, std::move(t));
  }

  std::unordered_set<std::string> emitted;
  auto emit_size = [&](size_t s) {
    for (StateId q = 0; q < a.num_states && out.size() < max_count; ++q) {
      if (!a.accepting[q]) continue;
      for (const BinaryTree& t : per_state[q][s]) {
        if (emitted.insert(Key(t)).second) {
          out.push_back(t);
          if (out.size() >= max_count) break;
        }
      }
    }
  };

  emit_size(1);
  for (size_t s = 3; s <= max_nodes && out.size() < max_count; s += 2) {
    for (const Nbta::BinaryRule& r : a.rules) {
      for (size_t s1 = 1; s1 + 2 <= s; s1 += 2) {
        const size_t s2 = s - 1 - s1;
        for (const BinaryTree& lt : per_state[r.left][s1]) {
          for (const BinaryTree& rt : per_state[r.right][s2]) {
            // One checkpoint per built tree. Interrupted: return the trees
            // emitted so far — each is a genuine accepted tree; only
            // exhaustiveness of the sweep is lost.
            if (!TaCheckpoint(ctx).ok()) return out;
            BinaryTree combined;
            NodeId l = combined.CopySubtree(lt, lt.root());
            NodeId rr = combined.CopySubtree(rt, rt.root());
            combined.SetRoot(combined.AddInternal(r.symbol, l, rr));
            add(r.to, s, std::move(combined));
          }
        }
      }
    }
    emit_size(s);
  }
  return out;
}

}  // namespace pebbletc
