// Complete binary trees over a ranked alphabet (Section 2.1).
//
// Nodes are created bottom-up (children before parents) and addressed by
// dense NodeId. Every node labelled with a Σ0 symbol is a leaf; every node
// labelled with a Σ2 symbol has exactly two children. Parent pointers are
// maintained so pebble transducers can walk up as well as down.
//
// AppendTree is the one builder that turns a DAG of ids (witness
// provenance, hash-consed trees, another tree's nodes) into a BinaryTree.

#ifndef PEBBLETC_TREE_BINARY_TREE_H_
#define PEBBLETC_TREE_BINARY_TREE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/check.h"
#include "src/common/result.h"
#include "src/common/status.h"

namespace pebbletc {

/// Dense index of a node within its tree.
using NodeId = uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// A complete binary tree. The tree does not own its alphabet; symbol ids are
/// interpreted by whichever RankedAlphabet the caller pairs it with.
class BinaryTree {
 public:
  BinaryTree() = default;

  /// Appends a leaf node labelled `symbol` and returns its id.
  NodeId AddLeaf(SymbolId symbol);

  /// Appends an internal node labelled `symbol` with the given children and
  /// returns its id. Children must already exist and must not already have a
  /// parent.
  NodeId AddInternal(SymbolId symbol, NodeId left, NodeId right);

  /// Declares `root` to be the root of the tree.
  void SetRoot(NodeId root);

  NodeId root() const { return root_; }
  size_t size() const { return symbols_.size(); }
  bool empty() const { return symbols_.empty(); }

  SymbolId symbol(NodeId n) const { return At(symbols_, n); }
  NodeId left(NodeId n) const { return At(left_, n); }
  NodeId right(NodeId n) const { return At(right_, n); }
  NodeId parent(NodeId n) const { return At(parent_, n); }
  bool IsLeaf(NodeId n) const { return left(n) == kNoNode; }
  bool IsRoot(NodeId n) const { return n == root_; }

  /// True if `n` is the left child of its parent. `n` must not be the root.
  bool IsLeftChild(NodeId n) const {
    PEBBLETC_CHECK(parent(n) != kNoNode) << "IsLeftChild on root";
    return left(parent(n)) == n;
  }

  /// Checks structural well-formedness: a root is set, every node is
  /// reachable from the root exactly once, parent links are consistent, and
  /// ranks match `alphabet` (leaves carry Σ0 symbols, internal nodes Σ2).
  Status Validate(const RankedAlphabet& alphabet) const;

  /// Structural equality of the subtrees rooted at `a` (in `ta`) and `b`
  /// (in `tb`).
  static bool SubtreeEquals(const BinaryTree& ta, NodeId a, const BinaryTree& tb,
                            NodeId b);

  /// Structural equality of whole trees.
  friend bool operator==(const BinaryTree& a, const BinaryTree& b) {
    if (a.empty() != b.empty()) return false;
    if (a.empty()) return true;
    return SubtreeEquals(a, a.root(), b, b.root());
  }

  /// Number of nodes in the subtree rooted at `n`.
  size_t SubtreeSize(NodeId n) const;

  /// Depth of the tree (a single node has depth 1); 0 for the empty tree.
  size_t Depth() const;

  /// Copies the subtree of `src` rooted at `src_node` into this tree,
  /// returning the id of the copied root (which has no parent yet).
  NodeId CopySubtree(const BinaryTree& src, NodeId src_node);

 private:
  template <typename T>
  const T& At(const std::vector<T>& v, NodeId n) const {
    PEBBLETC_CHECK(n < v.size()) << "invalid node id " << n;
    return v[n];
  }

  std::vector<SymbolId> symbols_;
  std::vector<NodeId> left_;
  std::vector<NodeId> right_;
  std::vector<NodeId> parent_;
  NodeId root_ = kNoNode;
};

/// One node of an id DAG as AppendTree reads it: its symbol and its
/// children's ids, `left == kNoNode` for a leaf.
struct TreeNodeRef {
  SymbolId symbol;
  uint32_t left;
  uint32_t right;
};

/// Appends to `out` the tree that id `root` unfolds to, where `node(id)`
/// gives id's TreeNodeRef, and returns the appended root (which has no
/// parent yet). A shared id unfolds once per occurrence. Nodes are
/// appended in post-order (left subtree, right subtree, node), the layout
/// CopySubtree produces; the walk is iterative, so depth costs heap, not
/// stack. `step()` returns a Status and runs before each visit: once for a
/// leaf and three times for an internal node (before its left child, before
/// its right child, before appending it); the first non-OK status ends the
/// walk and is returned.
template <typename NodeFn, typename StepFn>
Result<NodeId> AppendTree(BinaryTree& out, uint32_t root, NodeFn&& node,
                          StepFn&& step) {
  struct Frame {
    TreeNodeRef ref;
    int children_done;  // 0, 1 or 2 children unfolded
  };
  std::vector<Frame> stack = {{node(root), 0}};
  std::vector<NodeId> built;  // appended subtrees not yet under a parent
  for (;;) {
    PEBBLETC_RETURN_IF_ERROR(step());
    Frame& f = stack.back();
    if (f.ref.left == kNoNode) {
      built.push_back(out.AddLeaf(f.ref.symbol));
    } else if (f.children_done < 2) {
      const uint32_t child = f.children_done++ == 0 ? f.ref.left : f.ref.right;
      stack.push_back({node(child), 0});
      continue;
    } else {
      const NodeId right = built.back();
      built.pop_back();
      built.back() = out.AddInternal(f.ref.symbol, built.back(), right);
    }
    stack.pop_back();
    if (stack.empty()) return built.back();
  }
}

/// The tree that id `root` unfolds to (AppendTree into an empty tree, with
/// no step hook), its root set.
template <typename NodeFn>
BinaryTree UnfoldTree(uint32_t root, NodeFn&& node) {
  BinaryTree out;
  out.SetRoot(*AppendTree(out, root, std::forward<NodeFn>(node),
                          [] { return Status::OK(); }));
  return out;
}

}  // namespace pebbletc

#endif  // PEBBLETC_TREE_BINARY_TREE_H_
