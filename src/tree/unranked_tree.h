// Unranked ordered labelled trees — the paper's model of XML documents
// (Section 2.1/2.2). Nodes carry a tag from an (unranked) Alphabet and an
// ordered list of children of unbounded length.

#ifndef PEBBLETC_TREE_UNRANKED_TREE_H_
#define PEBBLETC_TREE_UNRANKED_TREE_H_

#include <cstdint>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/check.h"
#include "src/common/status.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// An unranked ordered tree. Nodes are created bottom-up and addressed by
/// dense NodeId (shared with BinaryTree).
class UnrankedTree {
 public:
  UnrankedTree() = default;

  /// Appends a node labelled `tag` with the given ordered children (possibly
  /// empty) and returns its id. Children must exist and be unattached.
  NodeId AddNode(SymbolId tag, std::vector<NodeId> children = {});

  /// Declares `root` as the root node.
  void SetRoot(NodeId root);

  NodeId root() const { return root_; }
  size_t size() const { return tags_.size(); }
  bool empty() const { return tags_.empty(); }

  SymbolId tag(NodeId n) const {
    PEBBLETC_CHECK(n < tags_.size()) << "invalid node " << n;
    return tags_[n];
  }
  const std::vector<NodeId>& children(NodeId n) const {
    PEBBLETC_CHECK(n < children_.size()) << "invalid node " << n;
    return children_[n];
  }
  NodeId parent(NodeId n) const {
    PEBBLETC_CHECK(n < parent_.size()) << "invalid node " << n;
    return parent_[n];
  }
  bool IsLeaf(NodeId n) const { return children(n).empty(); }

  /// Structural validation: root set, all nodes reachable exactly once,
  /// parent links consistent, tags within `alphabet`.
  Status Validate(const Alphabet& alphabet) const;

  /// Structural equality of subtrees.
  static bool SubtreeEquals(const UnrankedTree& ta, NodeId a,
                            const UnrankedTree& tb, NodeId b);

  friend bool operator==(const UnrankedTree& a, const UnrankedTree& b) {
    if (a.empty() != b.empty()) return false;
    if (a.empty()) return true;
    return SubtreeEquals(a, a.root(), b, b.root());
  }

  size_t Depth() const;

 private:
  std::vector<SymbolId> tags_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<NodeId> parent_;
  NodeId root_ = kNoNode;
};

}  // namespace pebbletc

#endif  // PEBBLETC_TREE_UNRANKED_TREE_H_
