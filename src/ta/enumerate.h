// Enumeration of the trees accepted by a bottom-up automaton, smallest
// first. Used to enumerate transducer outputs T(t) via the Prop. 3.8
// automaton A_t, by the bounded counterexample search of the typechecker
// (pass 1 checks each τ1 tree as its size closes and stops at the first
// violator), and by the typechecker's salvage search.

#ifndef PEBBLETC_TA_ENUMERATE_H_
#define PEBBLETC_TA_ENUMERATE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/ta/nbta.h"
#include "src/ta/op_context.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// The most trees one enumeration interns, leaves included; it counts every
/// intern, so a tree built by two rules or splits counts twice. Every tree
/// up to the last closed size is kept for building the next size, so this
/// bounds the store (about 64 MiB at the cap): a τ1 one of whose states
/// holds almost every tree would otherwise keep millions of them (a 15-node
/// bound over two leaf and two binary symbols admits 15.2 million trees).
inline constexpr uint32_t kMaxEnumeratedTrees = 1u << 20;

/// Why ForEachAcceptedTree returned.
enum class EnumerationEnd : uint8_t {
  /// Every accepted tree of at most `max_nodes` nodes was visited.
  kComplete,
  /// The visitor returned false.
  kStopped,
  /// kMaxEnumeratedTrees interns were spent before the sizes up to
  /// `max_nodes` closed. Like the `max_nodes` bound, this ends the
  /// enumeration at a size boundary: no tree of the unfinished size was
  /// visited.
  kStoreFull,
  /// A `ctx` checkpoint tripped; TaInterruptStatus(ctx) says why. Every
  /// tree visited before is genuine, and no tree of the unfinished size was
  /// visited.
  kInterrupted,
};

/// Builds the distinct trees accepted by `a` with at most `max_nodes` nodes,
/// smallest first, and passes each to `visit` as soon as its size closes,
/// until `visit` returns false. Within a size the order is: accepting states
/// ascending; within a state, the order its trees were first built (rules in
/// order, then left sizes ascending, then left and right subtrees in their
/// own lists' order). A tree accepted in two states is visited once, at the
/// first.
///
/// Trees are hash-consed: a built tree is one interned (symbol, left, right)
/// node, so two trees are equal exactly when their ids are. Only visited
/// trees become a BinaryTree, laid out in post-order (left subtree, right
/// subtree, root) exactly as BinaryTree::CopySubtree lays out a copy.
///
/// Only the trim of `a` is enumerated: a state that never sits below an
/// accepting root may hold almost every tree. One `ctx` checkpoint per built
/// tree.
EnumerationEnd ForEachAcceptedTree(
    const Nbta& a, size_t max_nodes, TaOpContext* ctx,
    const std::function<bool(BinaryTree)>& visit);

/// Collects ForEachAcceptedTree's trees, stopping after `max_count`. The list
/// is exact: it holds *all* accepted trees within the bounds unless truncated
/// by `max_count`, by the store cap kMaxEnumeratedTrees (the list then ends
/// at the last size that closed), or by a `ctx` checkpoint, in which case
/// the (genuine) trees found so far are returned and TaInterruptStatus(ctx)
/// reports why the enumeration stopped.
std::vector<BinaryTree> EnumerateAcceptedTrees(const Nbta& a, size_t max_nodes,
                                               size_t max_count,
                                               TaOpContext* ctx = nullptr);

}  // namespace pebbletc

#endif  // PEBBLETC_TA_ENUMERATE_H_
