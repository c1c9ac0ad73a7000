#include "src/pa/automaton.h"

#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/graph/agap.h"

namespace pebbletc {

void PebbleAutomaton::AddAccept(const PebbleGuard& guard, StateId from) {
  PEBBLETC_CHECK(from < level_.size()) << "bad state";
  Transition t;
  t.kind = TransitionKind::kAccept;
  t.guard = guard;
  t.from = from;
  Add(t);
}

void PebbleAutomaton::AddBranch(const PebbleGuard& guard, StateId from,
                                StateId left, StateId right) {
  PEBBLETC_CHECK(from < level_.size() && left < level_.size() &&
                 right < level_.size())
      << "bad state";
  Transition t;
  t.kind = TransitionKind::kBranch;
  t.guard = guard;
  t.from = from;
  t.left = left;
  t.right = right;
  Add(t);
}

Status PebbleAutomaton::Validate(const RankedAlphabet& alphabet) const {
  if (alphabet.size() != num_symbols_) {
    return Status::InvalidArgument("alphabet size mismatch");
  }
  return ValidateStack(
      num_symbols_,
      [&](const Transition& t, uint32_t lvl, const std::string& where) {
        if (t.kind == TransitionKind::kBranch &&
            (level_[t.left] != lvl || level_[t.right] != lvl)) {
          return Status::InvalidArgument(
              where + ": branch states must stay at the same level");
        }
        return Status::OK();
      });
}

Result<bool> PebbleAutomatonAccepts(const PebbleAutomaton& a,
                                    const BinaryTree& tree,
                                    size_t max_configs) {
  if (tree.empty()) return Status::InvalidArgument("empty tree");
  using NodeType = AlternatingGraph::NodeType;
  // G_{A,t}, built as the configurations are explored: each configuration
  // is an or-node, each branch0 points at the universal accept node (an
  // and-node with no successors), and each branch2 at an and-node over its
  // two configurations.
  AlternatingGraph g;
  const AgapNodeId accept = g.AddNode(NodeType::kAnd);
  std::vector<AgapNodeId> node_of;  // configuration id → its or-node
  auto node = [&](uint32_t config) {
    while (node_of.size() <= config) {
      node_of.push_back(g.AddNode(NodeType::kOr));
    }
    return node_of[config];
  };
  ConfigTable configs(a.max_pebbles());
  PEBBLETC_RETURN_IF_ERROR(a.ExploreConfigs(
      tree, max_configs, /*ctx=*/nullptr, configs,
      [&](uint32_t from, const PebbleAutomaton::Config& config,
          const PebbleAutomaton::Transition& tr, uint32_t to) {
        switch (tr.kind) {
          case PebbleAutomaton::TransitionKind::kMove:
            g.AddEdge(node(from), node(to));
            break;
          case PebbleAutomaton::TransitionKind::kAccept:
            g.AddEdge(node(from), accept);
            break;
          case PebbleAutomaton::TransitionKind::kBranch: {
            const uint32_t left = configs.Intern(tr.left, config.pebbles);
            const uint32_t right = configs.Intern(tr.right, config.pebbles);
            const AgapNodeId pair = g.AddNode(NodeType::kAnd);
            g.AddEdge(node(from), pair);
            g.AddEdge(pair, node(left));
            g.AddEdge(pair, node(right));
            break;
          }
        }
      }));
  // The initial configuration was interned first (id 0).
  return static_cast<bool>(g.ComputeAccessible()[node(0)]);
}

}  // namespace pebbletc
