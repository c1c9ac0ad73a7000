// Complete binary trees over a ranked alphabet (Section 2.1).
//
// Nodes are created bottom-up (children before parents) and addressed by
// dense NodeId. Every node labelled with a Σ0 symbol is a leaf; every node
// labelled with a Σ2 symbol has exactly two children. Parent pointers are
// maintained so pebble transducers can walk up as well as down.

#ifndef PEBBLETC_TREE_BINARY_TREE_H_
#define PEBBLETC_TREE_BINARY_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/check.h"
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

}  // namespace pebbletc

#endif  // PEBBLETC_TREE_BINARY_TREE_H_
