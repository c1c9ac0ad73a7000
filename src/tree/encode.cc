#include "src/tree/encode.h"

#include <string>
#include <utility>
#include <vector>

namespace pebbletc {

Result<BinaryTree> EncodeTree(const UnrankedTree& tree,
                              const EncodedAlphabet& enc,
                              std::vector<NodeId>* node_map) {
  if (tree.empty()) return Status::InvalidArgument("cannot encode empty tree");
  BinaryTree out;

  // Iterative post-order: encoded[u] is the binary node encoding the unranked
  // subtree rooted at u.
  std::vector<NodeId> encoded(tree.size(), kNoNode);
  struct Frame {
    NodeId node;
    bool expanded;
  };
  std::vector<Frame> stack = {{tree.root(), false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (tree.tag(f.node) >= enc.tag_symbol.size()) {
      return Status::InvalidArgument("tag id " +
                                     std::to_string(tree.tag(f.node)) +
                                     " outside the encoded alphabet");
    }
    const auto& kids = tree.children(f.node);
    if (!f.expanded && !kids.empty()) {
      stack.push_back({f.node, true});
      for (NodeId c : kids) stack.push_back({c, false});
      continue;
    }
    const SymbolId tag_sym = enc.tag_symbol[tree.tag(f.node)];
    if (kids.empty()) {
      // encode(a()) = a(|, |)
      NodeId l = out.AddLeaf(enc.nil);
      NodeId r = out.AddLeaf(enc.nil);
      encoded[f.node] = out.AddInternal(tag_sym, l, r);
    } else {
      // Fold the children right-to-left into a `-` spine; a singleton forest
      // is encoded without a cons node.
      NodeId forest = encoded[kids.back()];
      for (size_t i = kids.size() - 1; i-- > 0;) {
        forest = out.AddInternal(enc.cons, encoded[kids[i]], forest);
      }
      NodeId r = out.AddLeaf(enc.nil);
      encoded[f.node] = out.AddInternal(tag_sym, forest, r);
    }
  }
  out.SetRoot(encoded[tree.root()]);
  if (node_map != nullptr) *node_map = encoded;
  return out;
}

namespace {

// Collects the encoded trees making up the forest rooted at `n`: follows the
// `-` spine, emitting each head. `n` must not be a nil leaf.
Status CollectForest(const BinaryTree& tree, const EncodedAlphabet& enc,
                     NodeId n, std::vector<NodeId>* heads) {
  while (true) {
    SymbolId sym = tree.symbol(n);
    if (sym == enc.nil) {
      return Status::InvalidArgument("'|' appears inside a forest spine");
    }
    if (sym == enc.cons) {
      NodeId head = tree.left(n);
      if (tree.symbol(head) == enc.cons || tree.symbol(head) == enc.nil) {
        return Status::InvalidArgument(
            "left child of '-' must be a tag node");
      }
      heads->push_back(head);
      n = tree.right(n);
      continue;
    }
    // A tag node terminates the spine as the last tree of the forest.
    heads->push_back(n);
    return Status::OK();
  }
}

}  // namespace

Result<UnrankedTree> DecodeTree(const BinaryTree& tree,
                                const EncodedAlphabet& enc) {
  if (tree.empty()) return Status::InvalidArgument("cannot decode empty tree");
  UnrankedTree out;

  // Iterative post-order over tag nodes. decoded[b] is the unranked node for
  // the tag node b.
  std::vector<NodeId> decoded(tree.size(), kNoNode);
  struct Frame {
    NodeId node;              // a tag node in the binary tree
    bool expanded;
    std::vector<NodeId> kids;  // tag-node heads of its forest
  };
  std::vector<Frame> stack;
  {
    SymbolId s = tree.symbol(tree.root());
    if (s == enc.cons || s == enc.nil) {
      return Status::InvalidArgument("encoded root must be a tag node");
    }
    stack.push_back({tree.root(), false, {}});
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (!f.expanded) {
      f.expanded = true;
      NodeId n = f.node;
      SymbolId sym = tree.symbol(n);
      SymbolId tag = enc.TagOf(sym);
      if (tag == kNoSymbol) {
        return Status::InvalidArgument("expected tag node, found '" +
                                       enc.ranked.Name(sym) + "'");
      }
      if (tree.IsLeaf(n)) {
        return Status::InvalidArgument("tag node '" + enc.ranked.Name(sym) +
                                       "' is a leaf in the encoding");
      }
      if (tree.symbol(tree.right(n)) != enc.nil) {
        return Status::InvalidArgument(
            "right child of tag node must be '|'");
      }
      if (!tree.IsLeaf(tree.right(n))) {
        return Status::InvalidArgument("'|' node must be a leaf");
      }
      NodeId l = tree.left(n);
      if (tree.symbol(l) == enc.nil) {
        if (!tree.IsLeaf(l)) {
          return Status::InvalidArgument("'|' node must be a leaf");
        }
        // No children.
      } else {
        PEBBLETC_RETURN_IF_ERROR(CollectForest(tree, enc, l, &f.kids));
        // Process children first. Copy the list before pushing: push_back may
        // reallocate the stack and invalidate `f`.
        std::vector<NodeId> kids = f.kids;
        for (size_t i = kids.size(); i-- > 0;) {
          stack.push_back({kids[i], false, {}});
        }
        continue;
      }
    }
    // All children decoded (or none); emit this node.
    Frame done = std::move(stack.back());
    stack.pop_back();
    std::vector<NodeId> child_nodes;
    child_nodes.reserve(done.kids.size());
    for (NodeId k : done.kids) {
      PEBBLETC_CHECK(decoded[k] != kNoNode) << "child not yet decoded";
      child_nodes.push_back(decoded[k]);
    }
    SymbolId tag = enc.TagOf(tree.symbol(done.node));
    decoded[done.node] = out.AddNode(tag, std::move(child_nodes));
  }
  out.SetRoot(decoded[tree.root()]);
  return out;
}

}  // namespace pebbletc
