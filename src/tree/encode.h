// The unranked→binary encoding of Section 2.1 (Figure 1) and its inverse.
//
//   encode(a(F))   = a(encode_f(F), |)
//   encode(a())    = a(|, |)
//   encode_f(T.F)  = -(encode(T), encode_f(F))
//   encode_f(T)    = encode(T)
//
// The encoding is a bijection between unranked trees over Σ and the set of
// well-formed binary trees over Σ′ = Σ ∪ {-, |}; `DecodeTree` rejects binary
// trees outside the image of `EncodeTree`.

#ifndef PEBBLETC_TREE_ENCODE_H_
#define PEBBLETC_TREE_ENCODE_H_

#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/tree/binary_tree.h"
#include "src/tree/unranked_tree.h"

namespace pebbletc {

/// Encodes `tree` (over the unranked alphabet underlying `enc`) into a binary
/// tree over `enc.ranked`. Fails if `tree` is invalid or uses tags outside
/// `enc.tag_symbol`. If `node_map` is non-null it receives, for each unranked
/// NodeId, the binary NodeId of its (label-preserving) image — the bijection
/// of Section 2.1.
Result<BinaryTree> EncodeTree(const UnrankedTree& tree,
                              const EncodedAlphabet& enc,
                              std::vector<NodeId>* node_map = nullptr);

/// Decodes a binary tree produced by `EncodeTree`. Fails with
/// kInvalidArgument if `tree` is not a well-formed encoding (e.g. a tag node
/// whose right child is not `|`, or a `-` node heading no tree).
Result<UnrankedTree> DecodeTree(const BinaryTree& tree,
                                const EncodedAlphabet& enc);

}  // namespace pebbletc

#endif  // PEBBLETC_TREE_ENCODE_H_
