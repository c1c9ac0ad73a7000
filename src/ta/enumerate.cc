#include "src/ta/enumerate.h"

#include <algorithm>
#include <utility>

#include "src/common/packed_sets.h"

namespace pebbletc {

namespace {

// A tree is one node, (left << 32 | right, symbol), interned in a
// two-word PackedSetTable; a leaf's children are kNoNode.
uint32_t InternTree(PackedSetTable& trees, SymbolId symbol, uint32_t left,
                    uint32_t right) {
  const uint64_t node[2] = {(uint64_t{left} << 32) | right, symbol};
  return trees.Intern<2>(node);
}

// The tree `id` as a BinaryTree in post-order, as CopySubtree builds it.
BinaryTree Materialize(const PackedSetTable& trees, uint32_t id) {
  return UnfoldTree(id, [&](uint32_t t) {
    const uint64_t* node = trees.Set(t);
    return TreeNodeRef{static_cast<SymbolId>(node[1]),
                       static_cast<uint32_t>(node[0] >> 32),
                       static_cast<uint32_t>(node[0])};
  });
}

}  // namespace

EnumerationEnd ForEachAcceptedTree(
    const Nbta& untrimmed, size_t max_nodes, TaOpContext* ctx,
    const std::function<bool(BinaryTree)>& visit) {
  TaOpTimer timer(ctx);
  if (max_nodes == 0) return EnumerationEnd::kComplete;
  // Only accepting states emit trees, so only the trim's states need them:
  // a state that never sits below an accepting root may hold almost every
  // tree. The trim keeps state and rule order, so the emitted list is the
  // untrimmed one.
  const Nbta a = TrimNbta(untrimmed);

  PackedSetTable trees(2);
  uint32_t interns = 0;
  // by_state[q][i] = the distinct trees of 2i + 1 nodes that reach q, in
  // the order they were first built.
  std::vector<std::vector<std::vector<uint32_t>>> by_state(a.num_states);
  // A tree joins a state's list once. first_state[t] is the state whose list
  // t joined when it was interned; `more` holds every later (state, tree)
  // pair, so a deterministic automaton never touches it.
  std::vector<StateId> first_state;
  PackedSetTable more(1);
  auto add = [&](StateId q, uint32_t t) {
    std::vector<uint32_t>& list = by_state[q].back();
    if (t == first_state.size()) {
      first_state.push_back(q);
      list.push_back(t);
      return;
    }
    if (first_state[t] == q) return;
    const uint64_t pair = (uint64_t{q} << 32) | t;
    const uint32_t before = more.size();
    if (more.Intern<1>(&pair) == before) list.push_back(t);
  };

  // Visits the closed size's trees: accepting states ascending, each tree
  // once. Trees of one size are interned together, so `visited` marks ids.
  std::vector<bool> visited;
  auto close_size = [&]() {
    visited.resize(trees.size(), false);
    for (StateId q = 0; q < a.num_states; ++q) {
      if (!a.accepting[q]) continue;
      for (const uint32_t t : by_state[q].back()) {
        if (visited[t]) continue;
        visited[t] = true;
        if (!visit(Materialize(trees, t))) return false;
      }
    }
    return true;
  };

  for (auto& lists : by_state) lists.emplace_back();
  for (const Nbta::LeafRule& r : a.leaf_rules) {
    if (interns == kMaxEnumeratedTrees) return EnumerationEnd::kStoreFull;
    ++interns;
    add(r.to, InternTree(trees, r.symbol, kNoNode, kNoNode));
  }
  if (!close_size()) return EnumerationEnd::kStopped;
  for (size_t s = 3; s <= max_nodes; s += 2) {
    // Make room for every tree this size may intern, up to the cap, so the
    // store reallocates at the size boundary rather than between two
    // checkpoints in the middle of the size.
    uint64_t planned = 0;
    for (const Nbta::BinaryRule& r : a.rules) {
      for (size_t s1 = 1; s1 + 2 <= s; s1 += 2) {
        planned = std::min<uint64_t>(
            planned + uint64_t{by_state[r.left][s1 / 2].size()} *
                          by_state[r.right][(s - 1 - s1) / 2].size(),
            kMaxEnumeratedTrees);
      }
    }
    const uint64_t unspent = kMaxEnumeratedTrees - interns;
    const size_t room = trees.size() + std::min(planned, unspent);
    trees.Reserve(room);
    first_state.reserve(room);
    for (auto& lists : by_state) lists.emplace_back();
    for (const Nbta::BinaryRule& r : a.rules) {
      for (size_t s1 = 1; s1 + 2 <= s; s1 += 2) {
        const std::vector<uint32_t>& lefts = by_state[r.left][s1 / 2];
        const std::vector<uint32_t>& rights =
            by_state[r.right][(s - 1 - s1) / 2];
        for (const uint32_t lt : lefts) {
          for (const uint32_t rt : rights) {
            if (interns == kMaxEnumeratedTrees) {
              return EnumerationEnd::kStoreFull;
            }
            // One checkpoint per built tree.
            if (!TaCheckpoint(ctx).ok()) return EnumerationEnd::kInterrupted;
            ++interns;
            add(r.to, InternTree(trees, r.symbol, lt, rt));
          }
        }
      }
    }
    if (!close_size()) return EnumerationEnd::kStopped;
  }
  return EnumerationEnd::kComplete;
}

std::vector<BinaryTree> EnumerateAcceptedTrees(const Nbta& a, size_t max_nodes,
                                               size_t max_count,
                                               TaOpContext* ctx) {
  std::vector<BinaryTree> out;
  if (max_count == 0) return out;
  ForEachAcceptedTree(a, max_nodes, ctx, [&](BinaryTree t) {
    out.push_back(std::move(t));
    return out.size() < max_count;
  });
  return out;
}

}  // namespace pebbletc
