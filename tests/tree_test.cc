// Tests for src/tree: binary/unranked trees, the Figure 1 encoding, term
// syntax, and random generation.

#include <gtest/gtest.h>

#include <string>

#include "src/alphabet/alphabet.h"
#include "src/common/rng.h"
#include "src/tree/binary_tree.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"
#include "src/tree/unranked_tree.h"

namespace pebbletc {
namespace {

RankedAlphabet TinyRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("a0");
  (void)sigma.AddLeaf("b0");
  (void)sigma.AddBinary("a2");
  (void)sigma.AddBinary("b2");
  return sigma;
}

TEST(BinaryTreeTest, BuildAndNavigate) {
  RankedAlphabet sigma = TinyRanked();
  BinaryTree t;
  NodeId l = t.AddLeaf(sigma.Find("a0"));
  NodeId r = t.AddLeaf(sigma.Find("b0"));
  NodeId root = t.AddInternal(sigma.Find("a2"), l, r);
  t.SetRoot(root);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.root(), root);
  EXPECT_EQ(t.left(root), l);
  EXPECT_EQ(t.right(root), r);
  EXPECT_EQ(t.parent(l), root);
  EXPECT_EQ(t.parent(root), kNoNode);
  EXPECT_TRUE(t.IsLeaf(l));
  EXPECT_FALSE(t.IsLeaf(root));
  EXPECT_TRUE(t.IsLeftChild(l));
  EXPECT_FALSE(t.IsLeftChild(r));
  EXPECT_TRUE(t.Validate(sigma).ok());
  EXPECT_EQ(t.Depth(), 2u);
  EXPECT_EQ(t.SubtreeSize(root), 3u);
  EXPECT_EQ(t.SubtreeSize(l), 1u);
}

TEST(BinaryTreeTest, ValidateCatchesMissingRoot) {
  RankedAlphabet sigma = TinyRanked();
  BinaryTree t;
  t.AddLeaf(sigma.Find("a0"));
  EXPECT_FALSE(t.Validate(sigma).ok());
}

TEST(BinaryTreeTest, ValidateCatchesUnreachableNode) {
  RankedAlphabet sigma = TinyRanked();
  BinaryTree t;
  NodeId root = t.AddLeaf(sigma.Find("a0"));
  t.AddLeaf(sigma.Find("b0"));  // orphan
  t.SetRoot(root);
  EXPECT_FALSE(t.Validate(sigma).ok());
}

TEST(BinaryTreeTest, ValidateCatchesRankViolation) {
  RankedAlphabet sigma = TinyRanked();
  BinaryTree t;
  NodeId leaf = t.AddLeaf(sigma.Find("a2"));  // binary symbol on a leaf
  t.SetRoot(leaf);
  EXPECT_FALSE(t.Validate(sigma).ok());
}

TEST(BinaryTreeTest, EqualityIsStructural) {
  RankedAlphabet sigma = TinyRanked();
  auto t1 = std::move(ParseBinaryTerm("a2(a0,b0)", sigma)).ValueOrDie();
  auto t2 = std::move(ParseBinaryTerm("a2( a0 , b0 )", sigma)).ValueOrDie();
  auto t3 = std::move(ParseBinaryTerm("a2(b0,a0)", sigma)).ValueOrDie();
  EXPECT_TRUE(t1 == t2);
  EXPECT_FALSE(t1 == t3);
}

TEST(BinaryTreeTest, CopySubtree) {
  RankedAlphabet sigma = TinyRanked();
  auto src =
      std::move(ParseBinaryTerm("a2(b2(a0,b0),a0)", sigma)).ValueOrDie();
  BinaryTree dst;
  NodeId copied = dst.CopySubtree(src, src.left(src.root()));
  dst.SetRoot(copied);
  auto want = std::move(ParseBinaryTerm("b2(a0,b0)", sigma)).ValueOrDie();
  EXPECT_TRUE(dst == want);
}

// A left spine of `depth` internal nodes given by ids: node i < depth is
// a2(i + 1, leaf), node depth is the leaf a0, and id depth + 1 is the leaf
// b0 every internal node hangs on its right.
TreeNodeRef SpineNode(SymbolId a2, SymbolId a0, SymbolId b0, uint32_t depth,
                      uint32_t id) {
  if (id == depth) return {a0, kNoNode, kNoNode};
  if (id == depth + 1) return {b0, kNoNode, kNoNode};
  return {a2, id + 1, depth + 1};
}

TEST(AppendTreeTest, MillionDeepSpineUnfoldsWithoutRecursion) {
  RankedAlphabet sigma = TinyRanked();
  const SymbolId a2 = sigma.Find("a2"), a0 = sigma.Find("a0"),
                 b0 = sigma.Find("b0");
  constexpr uint32_t kDepth = 1000000;
  BinaryTree t = UnfoldTree(
      0, [&](uint32_t id) { return SpineNode(a2, a0, b0, kDepth, id); });
  EXPECT_EQ(t.size(), 2 * size_t{kDepth} + 1);
  EXPECT_EQ(t.Depth(), size_t{kDepth} + 1);
  EXPECT_TRUE(t.Validate(sigma).ok());
  // Post-order: the deepest leaf first, the root last.
  EXPECT_EQ(t.symbol(0), a0);
  EXPECT_EQ(t.root(), t.size() - 1);
}

TEST(AppendTreeTest, SharedIdUnfoldsOncePerOccurrenceLikeCopySubtree) {
  RankedAlphabet sigma = TinyRanked();
  const SymbolId a2 = sigma.Find("a2"), b2 = sigma.Find("b2"),
                 a0 = sigma.Find("a0"), b0 = sigma.Find("b0");
  // 0 = a2(1, 1), 1 = b2(2, 3), 2 = a0, 3 = b0: id 1 is shared.
  const TreeNodeRef dag[] = {
      {a2, 1, 1}, {b2, 2, 3}, {a0, kNoNode, kNoNode}, {b0, kNoNode, kNoNode}};
  BinaryTree out;
  const NodeId first = out.AddLeaf(b0);  // appended after existing nodes
  Result<NodeId> root = AppendTree(
      out, 0, [&](uint32_t id) { return dag[id]; },
      [] { return Status::OK(); });
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(out.parent(first), kNoNode);
  EXPECT_EQ(out.SubtreeSize(*root), 7u);

  auto shape =
      std::move(ParseBinaryTerm("a2(b2(a0,b0),b2(a0,b0))", sigma)).ValueOrDie();
  BinaryTree copy;
  copy.AddLeaf(b0);
  const NodeId copied = copy.CopySubtree(shape, shape.root());
  EXPECT_TRUE(BinaryTree::SubtreeEquals(out, *root, shape, shape.root()));
  // Node for node: the same ids, symbols and children.
  ASSERT_EQ(out.size(), copy.size());
  EXPECT_EQ(*root, copied);
  for (NodeId n = 0; n < out.size(); ++n) {
    EXPECT_EQ(out.symbol(n), copy.symbol(n)) << n;
    EXPECT_EQ(out.left(n), copy.left(n)) << n;
    EXPECT_EQ(out.right(n), copy.right(n)) << n;
  }
}

TEST(AppendTreeTest, StepRunsOncePerLeafAndThricePerInternalNode) {
  RankedAlphabet sigma = TinyRanked();
  const SymbolId a2 = sigma.Find("a2"), a0 = sigma.Find("a0"),
                 b0 = sigma.Find("b0");
  constexpr uint32_t kDepth = 5;  // 5 internal nodes, 6 leaves
  auto node = [&](uint32_t id) { return SpineNode(a2, a0, b0, kDepth, id); };
  constexpr int kSteps = 6 + 3 * 5;
  int calls = 0;
  BinaryTree t;
  ASSERT_TRUE(AppendTree(t, 0, node, [&] {
                ++calls;
                return Status::OK();
              }).ok());
  EXPECT_EQ(calls, kSteps);

  // A step failing at its k-th call ends the walk with that status.
  for (int k = 1; k <= kSteps; ++k) {
    int seen = 0;
    BinaryTree partial;
    Result<NodeId> r = AppendTree(partial, 0, node, [&] {
      return ++seen == k ? Status::Cancelled("step " + std::to_string(k))
                         : Status::OK();
    });
    ASSERT_FALSE(r.ok()) << k;
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(r.status().message(), "step " + std::to_string(k));
    EXPECT_EQ(seen, k);
  }
}

TEST(UnrankedTreeTest, BuildAndNavigate) {
  Alphabet sigma;
  UnrankedTree t;
  NodeId c1 = t.AddNode(sigma.Intern("b"));
  NodeId c2 = t.AddNode(sigma.Intern("c"));
  NodeId root = t.AddNode(sigma.Intern("a"), {c1, c2});
  t.SetRoot(root);
  EXPECT_TRUE(t.Validate(sigma).ok());
  EXPECT_EQ(t.children(root).size(), 2u);
  EXPECT_EQ(t.parent(c1), root);
  EXPECT_TRUE(t.IsLeaf(c2));
  EXPECT_EQ(t.Depth(), 2u);
}

TEST(TermTest, ParsePrintRoundtripUnranked) {
  Alphabet sigma;
  const std::string text = "a(b,b,c(d),e)";
  auto t = std::move(ParseUnrankedTerm(text, &sigma)).ValueOrDie();
  EXPECT_EQ(UnrankedTermString(t, sigma), text);
  EXPECT_EQ(t.size(), 6u);
}

TEST(TermTest, ParseUnrankedLeafParens) {
  Alphabet sigma;
  auto t1 = std::move(ParseUnrankedTerm("a(b(),c)", &sigma)).ValueOrDie();
  auto t2 = std::move(ParseUnrankedTerm("a(b,c)", &sigma)).ValueOrDie();
  EXPECT_TRUE(t1 == t2);
}

TEST(TermTest, ParseErrors) {
  Alphabet sigma;
  EXPECT_FALSE(ParseUnrankedTerm("", &sigma).ok());
  EXPECT_FALSE(ParseUnrankedTerm("a(", &sigma).ok());
  EXPECT_FALSE(ParseUnrankedTerm("a)b", &sigma).ok());
  EXPECT_FALSE(ParseUnrankedTerm("a b", &sigma).ok());
  EXPECT_FALSE(ParseUnrankedTerm("a(b,)", &sigma).ok());
}

TEST(TermTest, ParseBinaryChecksRanks) {
  RankedAlphabet sigma = TinyRanked();
  EXPECT_TRUE(ParseBinaryTerm("a2(a0,b0)", sigma).ok());
  EXPECT_FALSE(ParseBinaryTerm("a2(a0)", sigma).ok());      // arity 1
  EXPECT_FALSE(ParseBinaryTerm("a0(a0,b0)", sigma).ok());   // leaf w/ children
  EXPECT_FALSE(ParseBinaryTerm("a2", sigma).ok());          // binary as leaf
  EXPECT_FALSE(ParseBinaryTerm("zz", sigma).ok());          // unknown symbol
}

TEST(TermTest, BinaryRoundtrip) {
  RankedAlphabet sigma = TinyRanked();
  const std::string text = "a2(b2(a0,a0),b0)";
  auto t = std::move(ParseBinaryTerm(text, sigma)).ValueOrDie();
  EXPECT_EQ(BinaryTermString(t, sigma), text);
}

// --- Encoding (Figure 1) ---

TEST(EncodeTest, PaperFigure1Example) {
  // encode(a(b,b,c(d),e)) = a(-(b,-(b,-(c(d,|),e))),|)  with leaves b ≡ b(|,|)
  Alphabet tags;
  auto tree =
      std::move(ParseUnrankedTerm("a(b,b,c(d),e)", &tags)).ValueOrDie();
  auto enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
  auto bin = std::move(EncodeTree(tree, enc)).ValueOrDie();
  EXPECT_TRUE(bin.Validate(enc.ranked).ok());
  const std::string want =
      "a(-(b(|,|),-(b(|,|),-(c(d(|,|),|),e(|,|)))),|)";
  EXPECT_EQ(BinaryTermString(bin, enc.ranked), want);
}

TEST(EncodeTest, SingleNode) {
  Alphabet tags;
  auto tree = std::move(ParseUnrankedTerm("a", &tags)).ValueOrDie();
  auto enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
  auto bin = std::move(EncodeTree(tree, enc)).ValueOrDie();
  EXPECT_EQ(BinaryTermString(bin, enc.ranked), "a(|,|)");
}

TEST(EncodeTest, SingletonForestHasNoCons) {
  Alphabet tags;
  auto tree = std::move(ParseUnrankedTerm("a(b)", &tags)).ValueOrDie();
  auto enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
  auto bin = std::move(EncodeTree(tree, enc)).ValueOrDie();
  EXPECT_EQ(BinaryTermString(bin, enc.ranked), "a(b(|,|),|)");
}

TEST(EncodeTest, DecodeInvertsEncode) {
  Alphabet tags;
  auto tree =
      std::move(ParseUnrankedTerm("r(a(b,c),d,e(f(g,h,i)))", &tags))
          .ValueOrDie();
  auto enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
  auto bin = std::move(EncodeTree(tree, enc)).ValueOrDie();
  auto back = std::move(DecodeTree(bin, enc)).ValueOrDie();
  EXPECT_TRUE(back == tree);
}

TEST(EncodeTest, DecodeRejectsIllFormedEncodings) {
  Alphabet tags;
  tags.Intern("a");
  tags.Intern("b");
  auto enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
  // Right child of a tag node must be '|'.
  auto bad1 = ParseBinaryTerm("a(|,b(|,|))", enc.ranked);
  ASSERT_TRUE(bad1.ok());
  EXPECT_FALSE(DecodeTree(*bad1, enc).ok());
  // Root must be a tag node.
  auto bad2 = ParseBinaryTerm("-(a(|,|),b(|,|))", enc.ranked);
  ASSERT_TRUE(bad2.ok());
  EXPECT_FALSE(DecodeTree(*bad2, enc).ok());
  // Left child of '-' must be a tag node.
  auto bad3 =
      ParseBinaryTerm("a(-(-(a(|,|),b(|,|)),b(|,|)),|)", enc.ranked);
  ASSERT_TRUE(bad3.ok());
  EXPECT_FALSE(DecodeTree(*bad3, enc).ok());
  // Bare '|' root.
  auto bad4 = ParseBinaryTerm("|", enc.ranked);
  ASSERT_TRUE(bad4.ok());
  EXPECT_FALSE(DecodeTree(*bad4, enc).ok());
}

// Property: encode/decode roundtrip on random trees, and size bookkeeping:
// encode adds one '-' per extra sibling and one '|' per node-with-children
// plus one per leaf... (exact: |encode(t)| = 2*|t| + 1 - (#nodes with >=1
// child... ) — we check the bijection, monotone size, and validity instead.
class EncodeRoundtripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodeRoundtripTest, RandomRoundtrip) {
  Rng rng(GetParam());
  Alphabet tags;
  for (const char* name : {"a", "b", "c", "d"}) tags.Intern(name);
  RandomUnrankedOptions opts;
  opts.target_size = 1 + rng.NextBelow(200);
  opts.max_children = 5;
  UnrankedTree t = RandomUnrankedTree(tags, rng, opts);
  ASSERT_TRUE(t.Validate(tags).ok());
  auto enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
  auto bin = std::move(EncodeTree(t, enc)).ValueOrDie();
  ASSERT_TRUE(bin.Validate(enc.ranked).ok());
  auto back = std::move(DecodeTree(bin, enc)).ValueOrDie();
  EXPECT_TRUE(back == t);
  // encode(t) has exactly one tag node per node of t.
  size_t tag_nodes = 0;
  for (NodeId n = 0; n < bin.size(); ++n) {
    SymbolId s = bin.symbol(n);
    if (s != enc.cons && s != enc.nil) ++tag_nodes;
  }
  EXPECT_EQ(tag_nodes, t.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodeRoundtripTest,
                         ::testing::Range<uint64_t>(0, 50));

TEST(RandomTreeTest, BinaryTreeHasRequestedSize) {
  RankedAlphabet sigma = TinyRanked();
  Rng rng(42);
  for (size_t m : {0u, 1u, 5u, 100u}) {
    BinaryTree t = RandomBinaryTree(sigma, rng, m);
    EXPECT_TRUE(t.Validate(sigma).ok());
    EXPECT_EQ(t.size(), 2 * m + 1);
  }
}

TEST(RandomTreeTest, UnrankedTreeRespectsBudget) {
  Alphabet sigma;
  sigma.Intern("a");
  Rng rng(43);
  RandomUnrankedOptions opts;
  opts.target_size = 50;
  opts.max_children = 3;
  UnrankedTree t = RandomUnrankedTree(sigma, rng, opts);
  EXPECT_TRUE(t.Validate(sigma).ok());
  EXPECT_GE(t.size(), 1u);
  EXPECT_LE(t.size(), 53u);
}

TEST(RandomTreeTest, DeterministicGivenSeed) {
  RankedAlphabet sigma = TinyRanked();
  Rng r1(7), r2(7);
  BinaryTree a = RandomBinaryTree(sigma, r1, 40);
  BinaryTree b = RandomBinaryTree(sigma, r2, 40);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace pebbletc
