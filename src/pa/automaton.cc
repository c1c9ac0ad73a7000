#include "src/pa/automaton.h"

#include <map>
#include <string>
#include <utility>

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
  using Config = PebbleAutomaton::Config;
  using TKind = PebbleAutomaton::TransitionKind;

  // Reachable configurations.
  std::map<Config, AgapNodeId> index;
  std::vector<Config> configs;
  auto intern = [&](Config c) -> AgapNodeId {
    auto [it, inserted] = index.emplace(std::move(c), configs.size());
    if (inserted) configs.push_back(it->first);
    return it->second;
  };
  intern(a.InitialConfig(tree));

  // Edge records, materialized into the graph after interning finishes (node
  // ids for configs are their interning order, which is stable).
  struct Edge {
    AgapNodeId from;
    AgapNodeId to1;
    AgapNodeId to2;  // == kNoEdge unless a branch pair
    bool accept;
  };
  constexpr AgapNodeId kNoEdge = static_cast<AgapNodeId>(-1);
  std::vector<Edge> edges;

  for (size_t i = 0; i < configs.size(); ++i) {
    if (max_configs != 0 && configs.size() > max_configs) {
      return Status::ResourceExhausted(
          "configuration budget of " + std::to_string(max_configs) +
          " exceeded");
    }
    const Config current = configs[i];  // copy: vector grows below
    for (const auto* tr : a.Applicable(tree, current)) {
      switch (tr->kind) {
        case TKind::kMove: {
          AgapNodeId to = intern(a.ApplyMove(*tr, tree, current));
          edges.push_back(
              {static_cast<AgapNodeId>(i), to, kNoEdge, false});
          break;
        }
        case TKind::kAccept:
          edges.push_back({static_cast<AgapNodeId>(i), kNoEdge, kNoEdge, true});
          break;
        case TKind::kBranch: {
          Config l = current;
          l.state = tr->left;
          Config r = current;
          r.state = tr->right;
          AgapNodeId li = intern(std::move(l));
          AgapNodeId ri = intern(std::move(r));
          edges.push_back({static_cast<AgapNodeId>(i), li, ri, false});
          break;
        }
      }
    }
  }

  // Build G_{A,t}: configurations are or-nodes; each branch2 instance gets an
  // and-node; branch0 points at the universal (empty and) accept node.
  AlternatingGraph g;
  for (size_t i = 0; i < configs.size(); ++i) {
    g.AddNode(AlternatingGraph::NodeType::kOr);
  }
  AgapNodeId accept = g.AddNode(AlternatingGraph::NodeType::kAnd);
  for (const Edge& e : edges) {
    if (e.accept) {
      g.AddEdge(e.from, accept);
    } else if (e.to2 == kNoEdge) {
      g.AddEdge(e.from, e.to1);
    } else {
      AgapNodeId pair = g.AddNode(AlternatingGraph::NodeType::kAnd);
      g.AddEdge(e.from, pair);
      g.AddEdge(pair, e.to1);
      g.AddEdge(pair, e.to2);
    }
  }
  std::vector<bool> accessible = g.ComputeAccessible();
  // The initial configuration was interned first (node id 0).
  return static_cast<bool>(accessible[0]);
}

}  // namespace pebbletc
