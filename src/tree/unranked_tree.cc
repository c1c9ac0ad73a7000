#include "src/tree/unranked_tree.h"

#include <algorithm>
#include <string>
#include <utility>

namespace pebbletc {

NodeId UnrankedTree::AddNode(SymbolId tag, std::vector<NodeId> children) {
  NodeId id = static_cast<NodeId>(tags_.size());
  for (NodeId c : children) {
    PEBBLETC_CHECK(c < tags_.size()) << "bad child " << c;
    PEBBLETC_CHECK(parent_[c] == kNoNode) << "child already attached";
  }
  tags_.push_back(tag);
  children_.push_back(std::move(children));
  parent_.push_back(kNoNode);
  for (NodeId c : children_.back()) parent_[c] = id;
  return id;
}

void UnrankedTree::SetRoot(NodeId root) {
  PEBBLETC_CHECK(root < tags_.size()) << "bad root " << root;
  root_ = root;
}

Status UnrankedTree::Validate(const Alphabet& alphabet) const {
  if (empty()) return Status::OK();
  if (root_ == kNoNode) {
    return Status::FailedPrecondition("tree has nodes but no root");
  }
  if (parent_[root_] != kNoNode) {
    return Status::FailedPrecondition("root has a parent");
  }
  std::vector<bool> seen(size(), false);
  std::vector<NodeId> stack = {root_};
  size_t visited = 0;
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (seen[n]) {
      return Status::FailedPrecondition("node " + std::to_string(n) +
                                        " reachable twice");
    }
    seen[n] = true;
    ++visited;
    if (!alphabet.Contains(tags_[n])) {
      return Status::FailedPrecondition("node " + std::to_string(n) +
                                        " has tag outside the alphabet");
    }
    for (NodeId c : children_[n]) {
      if (parent_[c] != n) {
        return Status::FailedPrecondition("parent link of node " +
                                          std::to_string(c) + " is wrong");
      }
      stack.push_back(c);
    }
  }
  if (visited != size()) {
    return Status::FailedPrecondition(
        std::to_string(size() - visited) +
        " node(s) unreachable from the root");
  }
  return Status::OK();
}

bool UnrankedTree::SubtreeEquals(const UnrankedTree& ta, NodeId a,
                                 const UnrankedTree& tb, NodeId b) {
  std::vector<std::pair<NodeId, NodeId>> stack = {{a, b}};
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (ta.tag(x) != tb.tag(y)) return false;
    const auto& cx = ta.children(x);
    const auto& cy = tb.children(y);
    if (cx.size() != cy.size()) return false;
    for (size_t i = 0; i < cx.size(); ++i) stack.push_back({cx[i], cy[i]});
  }
  return true;
}

size_t UnrankedTree::Depth() const {
  if (empty()) return 0;
  size_t best = 0;
  std::vector<std::pair<NodeId, size_t>> stack = {{root_, 1}};
  while (!stack.empty()) {
    auto [n, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    for (NodeId c : children(n)) stack.push_back({c, d + 1});
  }
  return best;
}

}  // namespace pebbletc
