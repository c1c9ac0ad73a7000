#include "src/tree/binary_tree.h"

#include <algorithm>
#include <string>
#include <utility>

namespace pebbletc {

NodeId BinaryTree::AddLeaf(SymbolId symbol) {
  NodeId id = static_cast<NodeId>(symbols_.size());
  symbols_.push_back(symbol);
  left_.push_back(kNoNode);
  right_.push_back(kNoNode);
  parent_.push_back(kNoNode);
  return id;
}

NodeId BinaryTree::AddInternal(SymbolId symbol, NodeId left, NodeId right) {
  PEBBLETC_CHECK(left < symbols_.size()) << "bad left child " << left;
  PEBBLETC_CHECK(right < symbols_.size()) << "bad right child " << right;
  PEBBLETC_CHECK(parent_[left] == kNoNode) << "left child already attached";
  PEBBLETC_CHECK(parent_[right] == kNoNode) << "right child already attached";
  PEBBLETC_CHECK(left != right) << "children must be distinct nodes";
  NodeId id = static_cast<NodeId>(symbols_.size());
  symbols_.push_back(symbol);
  left_.push_back(left);
  right_.push_back(right);
  parent_.push_back(kNoNode);
  parent_[left] = id;
  parent_[right] = id;
  return id;
}

void BinaryTree::SetRoot(NodeId root) {
  PEBBLETC_CHECK(root < symbols_.size()) << "bad root " << root;
  root_ = root;
}

Status BinaryTree::Validate(const RankedAlphabet& alphabet) const {
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
    if (!alphabet.Contains(symbols_[n])) {
      return Status::FailedPrecondition("node " + std::to_string(n) +
                                        " has symbol outside the alphabet");
    }
    const bool leaf = left_[n] == kNoNode;
    if (leaf != (right_[n] == kNoNode)) {
      return Status::FailedPrecondition("node " + std::to_string(n) +
                                        " has exactly one child");
    }
    const int want_rank = leaf ? 0 : 2;
    if (alphabet.Rank(symbols_[n]) != want_rank) {
      return Status::FailedPrecondition(
          "node " + std::to_string(n) + " labelled '" +
          alphabet.Name(symbols_[n]) + "' violates symbol rank");
    }
    if (!leaf) {
      for (NodeId c : {left_[n], right_[n]}) {
        if (parent_[c] != n) {
          return Status::FailedPrecondition("parent link of node " +
                                            std::to_string(c) + " is wrong");
        }
        stack.push_back(c);
      }
    }
  }
  if (visited != size()) {
    return Status::FailedPrecondition(
        std::to_string(size() - visited) +
        " node(s) unreachable from the root");
  }
  return Status::OK();
}

bool BinaryTree::SubtreeEquals(const BinaryTree& ta, NodeId a,
                               const BinaryTree& tb, NodeId b) {
  std::vector<std::pair<NodeId, NodeId>> stack = {{a, b}};
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (ta.symbol(x) != tb.symbol(y)) return false;
    const bool xl = ta.IsLeaf(x);
    if (xl != tb.IsLeaf(y)) return false;
    if (!xl) {
      stack.push_back({ta.left(x), tb.left(y)});
      stack.push_back({ta.right(x), tb.right(y)});
    }
  }
  return true;
}

size_t BinaryTree::SubtreeSize(NodeId n) const {
  size_t count = 0;
  std::vector<NodeId> stack = {n};
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    ++count;
    if (!IsLeaf(x)) {
      stack.push_back(left(x));
      stack.push_back(right(x));
    }
  }
  return count;
}

size_t BinaryTree::Depth() const {
  if (empty()) return 0;
  size_t best = 0;
  std::vector<std::pair<NodeId, size_t>> stack = {{root_, 1}};
  while (!stack.empty()) {
    auto [n, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    if (!IsLeaf(n)) {
      stack.push_back({left(n), d + 1});
      stack.push_back({right(n), d + 1});
    }
  }
  return best;
}

NodeId BinaryTree::CopySubtree(const BinaryTree& src, NodeId src_node) {
  return *AppendTree(
      *this, src_node,
      [&](NodeId n) {
        return TreeNodeRef{src.symbol(n), src.left(n), src.right(n)};
      },
      [] { return Status::OK(); });
}

}  // namespace pebbletc
