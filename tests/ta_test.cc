// Tests for src/ta and src/graph: AGAP, bottom-up/top-down tree automata,
// conversions, boolean operations, decision procedures, enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/check/reference_ops.h"
#include "src/common/rng.h"
#include "src/graph/agap.h"
#include "src/ta/convert.h"
#include "src/ta/enumerate.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/random_ta.h"
#include "src/ta/op_context.h"
#include "src/ta/packed_sets.h"
#include "src/ta/topdown.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"

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

// --- AGAP ---

TEST(AgapTest, OrNodeNeedsOneSuccessor) {
  AlternatingGraph g;
  auto o = g.AddNode(AlternatingGraph::NodeType::kOr);
  auto bad = g.AddNode(AlternatingGraph::NodeType::kOr);   // dead end
  auto good = g.AddNode(AlternatingGraph::NodeType::kAnd);  // vacuous accept
  g.AddEdge(o, bad);
  g.AddEdge(o, good);
  auto acc = g.ComputeAccessible();
  EXPECT_TRUE(acc[o]);
  EXPECT_FALSE(acc[bad]);
  EXPECT_TRUE(acc[good]);
}

TEST(AgapTest, AndNodeNeedsAllSuccessors) {
  AlternatingGraph g;
  auto a = g.AddNode(AlternatingGraph::NodeType::kAnd);
  auto ok = g.AddNode(AlternatingGraph::NodeType::kAnd);
  auto dead = g.AddNode(AlternatingGraph::NodeType::kOr);
  g.AddEdge(a, ok);
  g.AddEdge(a, dead);
  auto acc = g.ComputeAccessible();
  EXPECT_FALSE(acc[a]);

  AlternatingGraph g2;
  auto a2 = g2.AddNode(AlternatingGraph::NodeType::kAnd);
  auto ok1 = g2.AddNode(AlternatingGraph::NodeType::kAnd);
  auto ok2 = g2.AddNode(AlternatingGraph::NodeType::kAnd);
  g2.AddEdge(a2, ok1);
  g2.AddEdge(a2, ok2);
  EXPECT_TRUE(g2.ComputeAccessible()[a2]);
}

TEST(AgapTest, CyclesAreNotAccessible) {
  // Least fixpoint: a cycle with no grounded exit is inaccessible.
  AlternatingGraph g;
  auto x = g.AddNode(AlternatingGraph::NodeType::kOr);
  auto y = g.AddNode(AlternatingGraph::NodeType::kOr);
  g.AddEdge(x, y);
  g.AddEdge(y, x);
  auto acc = g.ComputeAccessible();
  EXPECT_FALSE(acc[x]);
  EXPECT_FALSE(acc[y]);
}

TEST(AgapTest, AndOrTreeEvaluation) {
  // (1 ∨ 0) ∧ (1 ∧ 1) = 1, modelled with and/or nodes; leaves "1" are empty
  // and-nodes, leaves "0" empty or-nodes.
  AlternatingGraph g;
  auto root = g.AddNode(AlternatingGraph::NodeType::kAnd);
  auto orn = g.AddNode(AlternatingGraph::NodeType::kOr);
  auto andn = g.AddNode(AlternatingGraph::NodeType::kAnd);
  auto one1 = g.AddNode(AlternatingGraph::NodeType::kAnd);
  auto zero = g.AddNode(AlternatingGraph::NodeType::kOr);
  auto one2 = g.AddNode(AlternatingGraph::NodeType::kAnd);
  auto one3 = g.AddNode(AlternatingGraph::NodeType::kAnd);
  g.AddEdge(root, orn);
  g.AddEdge(root, andn);
  g.AddEdge(orn, one1);
  g.AddEdge(orn, zero);
  g.AddEdge(andn, one2);
  g.AddEdge(andn, one3);
  EXPECT_TRUE(g.ComputeAccessible()[root]);
}

// --- NBTA basics ---

// Accepts trees whose leaves are all labelled a0.
Nbta AllLeavesA0() {
  Nbta a;
  a.num_symbols = 4;  // TinyRanked layout: a0=0 b0=1 a2=2 b2=3
  StateId q = a.AddState();
  a.accepting[q] = true;
  a.AddLeafRule(0, q);
  a.AddRule(2, q, q, q);
  a.AddRule(3, q, q, q);
  return a;
}

TEST(PackedSetTableTest, FindSeesOnlyInternedSetsAndChangesNothing) {
  for (size_t words : {1, 2, 3}) {
    PackedSetTable table(words);
    std::vector<uint64_t> set(words);
    auto key = [&](uint64_t i) {
      // Wider keys share their first word among thirds, so the comparison
      // reaches the arena.
      for (size_t w = 0; w < words; ++w) {
        set[w] = w == 0 && words > 1 ? i % 3 : i;
      }
      return set.data();
    };
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(table.Find(key(i)), PackedSetTable::kNone) << words << " " << i;
      EXPECT_EQ(table.size(), i);
      EXPECT_EQ(table.Intern(key(i)), i);
      EXPECT_EQ(table.Find(key(i)), i);
      EXPECT_EQ(table.size(), i + 1);
    }
    // Looking up absent keys between interns left the numbering intact.
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(table.Find(key(i)), i);
      EXPECT_EQ(table.Intern(key(i)), i);
      EXPECT_TRUE(std::equal(set.begin(), set.end(), table.Set(i)));
    }
    EXPECT_EQ(table.Find(key(100)), PackedSetTable::kNone);
    EXPECT_EQ(table.size(), 100u);
  }
}

TEST(NbtaTest, AcceptsAndRejects) {
  RankedAlphabet sigma = TinyRanked();
  Nbta a = AllLeavesA0();
  EXPECT_TRUE(a.Validate(sigma).ok());
  auto yes = std::move(ParseBinaryTerm("a2(a0,b2(a0,a0))", sigma)).ValueOrDie();
  auto no = std::move(ParseBinaryTerm("a2(a0,b2(a0,b0))", sigma)).ValueOrDie();
  EXPECT_TRUE(a.Accepts(yes));
  EXPECT_FALSE(a.Accepts(no));
}

TEST(NbtaTest, ValidateCatchesRankErrors) {
  RankedAlphabet sigma = TinyRanked();
  Nbta a;
  a.num_symbols = 4;
  StateId q = a.AddState();
  a.AddLeafRule(2, q);  // a2 is binary
  EXPECT_FALSE(a.Validate(sigma).ok());
}

TEST(NbtaTest, UniversalAndEmpty) {
  RankedAlphabet sigma = TinyRanked();
  Rng rng(3);
  Nbta uni = UniversalNbta(sigma);
  Nbta none = EmptyLanguageNbta(sigma);
  EXPECT_FALSE(IsEmptyNbta(uni));
  EXPECT_TRUE(IsEmptyNbta(none));
  for (int i = 0; i < 20; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(20));
    EXPECT_TRUE(uni.Accepts(t));
    EXPECT_FALSE(none.Accepts(t));
  }
}

TEST(NbtaTest, WitnessIsAcceptedAndMinimal) {
  RankedAlphabet sigma = TinyRanked();
  Nbta a = AllLeavesA0();
  auto w = WitnessTree(a);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(a.Accepts(*w));
  EXPECT_EQ(w->size(), 1u);  // the single leaf a0
  EXPECT_FALSE(WitnessTree(EmptyLanguageNbta(sigma)).has_value());
}

TEST(NbtaTest, WitnessOfForcedInternalTree) {
  // Language: root must be a2, both children leaves a0 -> minimal size 3.
  Nbta a;
  a.num_symbols = 4;
  StateId leaf = a.AddState();
  StateId root = a.AddState();
  a.accepting[root] = true;
  a.AddLeafRule(0, leaf);
  a.AddRule(2, leaf, leaf, root);
  auto w = WitnessTree(a);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->size(), 3u);
  EXPECT_TRUE(a.Accepts(*w));
}

TEST(NbtaTest, CatalanCount) {
  RankedAlphabet mono;
  (void)mono.AddLeaf("l");
  (void)mono.AddBinary("n");
  Nbta uni = UniversalNbta(mono);
  // #binary trees with m internal nodes = Catalan(m).
  EXPECT_EQ(CountAcceptedTrees(uni, 1), 1u);
  EXPECT_EQ(CountAcceptedTrees(uni, 3), 1u);
  EXPECT_EQ(CountAcceptedTrees(uni, 5), 2u);
  EXPECT_EQ(CountAcceptedTrees(uni, 7), 5u);
  EXPECT_EQ(CountAcceptedTrees(uni, 9), 14u);
  EXPECT_EQ(CountAcceptedTrees(uni, 11), 42u);
  EXPECT_EQ(CountAcceptedTrees(uni, 2), 0u);  // even sizes impossible
}

TEST(NbtaTest, EnumerateMatchesCount) {
  RankedAlphabet sigma = TinyRanked();
  Nbta uni = UniversalNbta(sigma);
  std::vector<BinaryTree> trees = EnumerateAcceptedTrees(uni, 5, 100000);
  // sizes: 1 -> 2 leaf labels; 3 -> 2*2*2 = 8; 5 -> 2 shapes * 2^2 internal
  // labels... compute via CountAcceptedTrees (uni is deterministic).
  uint64_t expected =
      CountAcceptedTrees(uni, 1) + CountAcceptedTrees(uni, 3) +
      CountAcceptedTrees(uni, 5);
  EXPECT_EQ(trees.size(), expected);
  // All distinct, all accepted, sizes ascending.
  std::set<std::string> keys;
  size_t prev = 0;
  for (const BinaryTree& t : trees) {
    EXPECT_TRUE(uni.Accepts(t));
    EXPECT_GE(t.size(), prev);
    prev = t.size();
    keys.insert(BinaryTermString(t, sigma));
  }
  EXPECT_EQ(keys.size(), trees.size());
}

TEST(NbtaTest, EnumerateRespectsMaxCount) {
  RankedAlphabet sigma = TinyRanked();
  Nbta uni = UniversalNbta(sigma);
  EXPECT_EQ(EnumerateAcceptedTrees(uni, 9, 7).size(), 7u);
}

// Three states, two accepting. a0 reaches states 0 and 2, the fifth rule
// rebuilds trees of the first in state 2, and the sixth puts the second's
// trees in state 2 as well, so the order pins per-state deduplication and
// the single visit of a tree two accepting states hold.
Nbta PinnedOrderNbta() {
  constexpr SymbolId kA0 = 0, kB0 = 1, kA2 = 2, kB2 = 3;
  Nbta a;
  a.num_symbols = 4;
  for (int q = 0; q < 3; ++q) a.AddState();
  a.accepting[1] = a.accepting[2] = true;
  a.AddLeafRule(kA0, 0);
  a.AddLeafRule(kB0, 1);
  a.AddLeafRule(kA0, 2);
  a.AddRule(kB2, 0, 1, 2);
  a.AddRule(kA2, 1, 0, 1);
  a.AddRule(kA2, 2, 2, 2);
  a.AddRule(kB2, 0, 0, 1);
  a.AddRule(kB2, 2, 1, 2);
  a.AddRule(kA2, 1, 0, 2);
  return a;
}

TEST(EnumerateTest, PinnedOrderOfAThreeStateAutomaton) {
  // Sizes ascending; within a size, accepting states ascending; within a
  // state, build order.
  const RankedAlphabet sigma = TinyRanked();
  const std::vector<std::string> want = {
      "b0",
      "a0",
      "a2(b0,a0)",
      "b2(a0,a0)",
      "b2(a0,b0)",
      "a2(a0,a0)",
      "a2(a2(b0,a0),a0)",
      "a2(b2(a0,a0),a0)",
      "b2(a0,a2(b0,a0))",
      "b2(a0,b2(a0,a0))",
      "a2(a0,b2(a0,b0))",
      "a2(a0,a2(a0,a0))",
  };
  const std::vector<BinaryTree> all =
      EnumerateAcceptedTrees(PinnedOrderNbta(), 7, 1000);
  ASSERT_GE(all.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(BinaryTermString(all[i], sigma), want[i]) << "tree " << i;
  }
}

TEST(EnumerateTest, StoppedVisitorSeesAPrefix) {
  const Nbta a = PinnedOrderNbta();
  const std::vector<BinaryTree> all = EnumerateAcceptedTrees(a, 7, 1000);
  std::vector<BinaryTree> seen;
  EXPECT_EQ(ForEachAcceptedTree(a, 7, nullptr,
                                [&](BinaryTree t) {
                                  seen.push_back(std::move(t));
                                  return true;
                                }),
            EnumerationEnd::kComplete);
  EXPECT_EQ(seen, all);
  for (size_t k = 1; k <= all.size(); ++k) {
    seen.clear();
    const EnumerationEnd end =
        ForEachAcceptedTree(a, 7, nullptr, [&](BinaryTree t) {
          seen.push_back(std::move(t));
          return seen.size() < k;
        });
    EXPECT_EQ(end, EnumerationEnd::kStopped) << "k = " << k;
    ASSERT_EQ(seen.size(), k);
    for (size_t i = 0; i < k; ++i) EXPECT_EQ(seen[i], all[i]) << "k = " << k;
  }
}

TEST(EnumerateTest, TreesAreLaidOutAsCopySubtreeCopies) {
  // Node for node: the post-order a CopySubtree copy has.
  for (const BinaryTree& t :
       EnumerateAcceptedTrees(PinnedOrderNbta(), 9, 1000)) {
    BinaryTree copy;
    copy.SetRoot(copy.CopySubtree(t, t.root()));
    ASSERT_EQ(copy.size(), t.size());
    EXPECT_EQ(copy.root(), t.root());
    for (NodeId n = 0; n < t.size(); ++n) {
      EXPECT_EQ(copy.symbol(n), t.symbol(n));
      EXPECT_EQ(copy.left(n), t.left(n));
      EXPECT_EQ(copy.right(n), t.right(n));
    }
  }
}

TEST(EnumerateTest, StoreCapEndsAtAClosedSize) {
  // Every tree over TinyRanked(): sizes up to 11 hold 93,898 trees and size
  // 13 another 1,081,344, so the cap falls inside size 13, whose trees are
  // then not visited.
  const RankedAlphabet sigma = TinyRanked();
  const Nbta uni = UniversalNbta(sigma);
  uint64_t closed = 0;
  for (size_t s = 1; s <= 11; s += 2) closed += CountAcceptedTrees(uni, s);
  ASSERT_LT(closed, kMaxEnumeratedTrees);
  ASSERT_GT(closed + CountAcceptedTrees(uni, 13), kMaxEnumeratedTrees);
  TaOpContext ctx;
  uint64_t visited = 0;
  size_t largest = 0;
  const EnumerationEnd end =
      ForEachAcceptedTree(uni, 15, &ctx, [&](BinaryTree t) {
        ++visited;
        largest = std::max(largest, t.size());
        return true;
      });
  EXPECT_EQ(end, EnumerationEnd::kStoreFull);
  EXPECT_EQ(visited, closed);
  EXPECT_EQ(largest, 11u);
  // Every intern counts, the two leaves' too; every built tree passed one
  // checkpoint.
  EXPECT_EQ(ctx.counters.checkpoints, kMaxEnumeratedTrees - 2);
  EXPECT_TRUE(TaInterruptStatus(&ctx).ok());
}

// --- determinization / boolean ops, property-tested ---

class NbtaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NbtaPropertyTest, DeterminizeAgrees) {
  Rng rng(GetParam());
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 3;
  Nbta a = RandomNbta(sigma, rng, opts);
  auto det = DeterminizeNbta(a, sigma);
  ASSERT_TRUE(det.ok());
  for (int i = 0; i < 40; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(12));
    EXPECT_EQ(a.Accepts(t), det->Accepts(t));
  }
}

TEST_P(NbtaPropertyTest, ComplementIsComplement) {
  Rng rng(GetParam() + 500);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 3;
  Nbta a = RandomNbta(sigma, rng, opts);
  auto comp = ComplementNbta(a, sigma);
  ASSERT_TRUE(comp.ok());
  for (int i = 0; i < 40; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(12));
    EXPECT_NE(a.Accepts(t), comp->Accepts(t));
  }
  // a ∩ ¬a = ∅ and a ∪ ¬a = universal.
  EXPECT_TRUE(IsEmptyNbta(IntersectNbta(a, *comp)));
  auto uni_check =
      NbtaEquivalent(UnionNbta(a, *comp), UniversalNbta(sigma), sigma);
  ASSERT_TRUE(uni_check.ok());
  EXPECT_TRUE(*uni_check);
}

TEST_P(NbtaPropertyTest, IntersectAndUnionSemantics) {
  Rng rng(GetParam() + 1000);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 3;
  Nbta a = RandomNbta(sigma, rng, opts);
  Nbta b = RandomNbta(sigma, rng, opts);
  Nbta inter = IntersectNbta(a, b);
  Nbta uni = UnionNbta(a, b);
  for (int i = 0; i < 40; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(12));
    EXPECT_EQ(inter.Accepts(t), a.Accepts(t) && b.Accepts(t));
    EXPECT_EQ(uni.Accepts(t), a.Accepts(t) || b.Accepts(t));
  }
}

TEST_P(NbtaPropertyTest, TrimPreservesLanguage) {
  Rng rng(GetParam() + 2000);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 4;
  Nbta a = RandomNbta(sigma, rng, opts);
  Nbta trimmed = TrimNbta(a);
  EXPECT_LE(trimmed.num_states, a.num_states);
  auto eq = NbtaEquivalent(a, trimmed, sigma);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_P(NbtaPropertyTest, TopDownRoundTrip) {
  Rng rng(GetParam() + 3000);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 3;
  Nbta a = RandomNbta(sigma, rng, opts);
  TopDownTA td = NbtaToTopDown(a);
  EXPECT_TRUE(td.Validate(sigma).ok());
  Nbta back = TopDownToNbta(td);
  for (int i = 0; i < 30; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(10));
    bool want = a.Accepts(t);
    EXPECT_EQ(want, TopDownAccepts(td, t));
    EXPECT_EQ(want, back.Accepts(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NbtaPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));

// --- inclusion / equivalence ---

TEST(NbtaDecisionTest, InclusionChain) {
  RankedAlphabet sigma = TinyRanked();
  Nbta all_a0 = AllLeavesA0();
  Nbta uni = UniversalNbta(sigma);
  NbtaIndex i_all_a0(all_a0);
  NbtaIndex i_uni(uni);
  auto r1 = NbtaIncludedIn(i_all_a0, i_uni, sigma);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->included);
  auto r2 = NbtaIncludedIn(i_uni, i_all_a0, sigma);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->included);
  auto r3 = NbtaEquivalent(all_a0, all_a0, sigma);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(*r3);
}

TEST(NbtaDecisionTest, DeterminizeBudgetEnforced) {
  Rng rng(77);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 8;
  opts.rule_density = 0.8;
  Nbta a = RandomNbta(sigma, rng, opts);
  // 7 reachable subsets: a budget of 2 must trip.
  TaOpContext ctx;
  ctx.budgets.max_det_states = 2;
  auto det = DeterminizeNbta(a, sigma, &ctx);
  ASSERT_FALSE(det.ok());
  EXPECT_EQ(det.status().ToString(),
            "resource-exhausted: determinization exceeded state budget of 2");
}

// --- top-down specifics: silent transitions ---

TEST(TopDownTest, SilentTransitionsElimination) {
  RankedAlphabet sigma = TinyRanked();
  // start --silent(on a2)--> q1, (a2,q1)->(qa,qa), (a0,qa) final.
  TopDownTA td;
  td.num_symbols = 4;
  StateId q0 = td.AddState();
  StateId q1 = td.AddState();
  StateId qa = td.AddState();
  td.start = q0;
  td.AddSilent(2, q0, q1);
  td.AddRule(2, q1, qa, qa);
  td.AddFinalPair(0, qa);
  ASSERT_TRUE(td.Validate(sigma).ok());

  auto t = std::move(ParseBinaryTerm("a2(a0,a0)", sigma)).ValueOrDie();
  auto t_bad = std::move(ParseBinaryTerm("b2(a0,a0)", sigma)).ValueOrDie();
  EXPECT_TRUE(TopDownAccepts(td, t));
  EXPECT_FALSE(TopDownAccepts(td, t_bad));

  TopDownTA elim = EliminateSilentTransitions(td);
  EXPECT_TRUE(elim.silent.empty());
  EXPECT_TRUE(TopDownAccepts(elim, t));
  EXPECT_FALSE(TopDownAccepts(elim, t_bad));
}

TEST(TopDownTest, SilentChainsAndLeafAcceptance) {
  RankedAlphabet sigma = TinyRanked();
  // Chain of silent moves on a leaf symbol ending in a final pair.
  TopDownTA td;
  td.num_symbols = 4;
  StateId q0 = td.AddState();
  StateId q1 = td.AddState();
  StateId q2 = td.AddState();
  td.start = q0;
  td.AddSilent(0, q0, q1);
  td.AddSilent(0, q1, q2);
  td.AddFinalPair(0, q2);
  auto leaf = std::move(ParseBinaryTerm("a0", sigma)).ValueOrDie();
  auto leaf_b = std::move(ParseBinaryTerm("b0", sigma)).ValueOrDie();
  EXPECT_TRUE(TopDownAccepts(td, leaf));
  EXPECT_FALSE(TopDownAccepts(td, leaf_b));
  TopDownTA elim = EliminateSilentTransitions(td);
  EXPECT_TRUE(TopDownAccepts(elim, leaf));
  EXPECT_FALSE(TopDownAccepts(elim, leaf_b));
  // And through the bottom-up conversion.
  Nbta nbta = TopDownToNbta(td);
  EXPECT_TRUE(nbta.Accepts(leaf));
  EXPECT_FALSE(nbta.Accepts(leaf_b));
}

TEST(TopDownTest, SilentCycleDoesNotDiverge) {
  RankedAlphabet sigma = TinyRanked();
  TopDownTA td;
  td.num_symbols = 4;
  StateId q0 = td.AddState();
  StateId q1 = td.AddState();
  td.start = q0;
  td.AddSilent(0, q0, q1);
  td.AddSilent(0, q1, q0);  // cycle
  td.AddFinalPair(0, q1);
  auto leaf = std::move(ParseBinaryTerm("a0", sigma)).ValueOrDie();
  EXPECT_TRUE(TopDownAccepts(td, leaf));
  EXPECT_TRUE(TopDownToNbta(td).Accepts(leaf));
}

class DbtaMinimizeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DbtaMinimizeProperty, MinimizePreservesLanguageAndShrinks) {
  Rng rng(GetParam() + 9000);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 4;
  Nbta a = RandomNbta(sigma, rng, opts);
  auto det = std::move(DeterminizeNbta(a, sigma)).ValueOrDie();
  auto min = std::move(MinimizeDbta(det, sigma)).ValueOrDie();
  EXPECT_LE(min.num_states(), det.num_states() + 1);  // +1: explicit sink
  for (int i = 0; i < 40; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(10));
    EXPECT_EQ(det.Accepts(t), min.Accepts(t)) << BinaryTermString(t, sigma);
  }
  // Idempotent up to state count.
  auto min2 = std::move(MinimizeDbta(min, sigma)).ValueOrDie();
  EXPECT_LE(min2.num_states(), min.num_states());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbtaMinimizeProperty,
                         ::testing::Range<uint64_t>(0, 20));

TEST(DbtaMinimizeTest, CanonicalSizesForKnownLanguages) {
  RankedAlphabet sigma = TinyRanked();
  // Universal language: 1 live block + sink.
  auto uni = std::move(DeterminizeNbta(UniversalNbta(sigma), sigma))
                 .ValueOrDie();
  auto min_uni = std::move(MinimizeDbta(uni, sigma)).ValueOrDie();
  EXPECT_EQ(min_uni.num_states(), 2u);
  // "All leaves a0": accept/reject blocks + sink.
  auto all_a0 = std::move(DeterminizeNbta(AllLeavesA0(), sigma)).ValueOrDie();
  auto min_a0 = std::move(MinimizeDbta(all_a0, sigma)).ValueOrDie();
  EXPECT_EQ(min_a0.num_states(), 3u);
}

TEST(OpContextTest, NestedTimersCountWallTimeOnce) {
  // Operations frequently call other timed operations (Complement →
  // Determinize → Index builds); only the outermost TaOpTimer scope may
  // accumulate, or op_nanos multiplies by the nesting depth.
  TaOpContext ctx;
  const auto start = std::chrono::steady_clock::now();
  {
    TaOpTimer outer(&ctx);
    {
      TaOpTimer mid(&ctx);
      TaOpTimer inner(&ctx);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const uint64_t wall = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  EXPECT_GE(ctx.counters.op_nanos, 20u * 1000 * 1000);
  // Triple-counting would report ~3× the sleep, far above the wall clock.
  EXPECT_LE(ctx.counters.op_nanos, wall);
}

TEST(OpContextTest, FaultInjectorTripsExactCheckpointAndSticks) {
  TaOpContext ctx;
  TaFaultInjector fault;
  fault.trip_at = 3;
  fault.code = StatusCode::kResourceExhausted;
  ctx.fault = &fault;
  for (uint64_t i = 0; i < 3; ++i) EXPECT_TRUE(ctx.Checkpoint().ok());
  Status s = ctx.Checkpoint();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(fault.tripped);
  // Sticky: later checkpoints return the same Status without advancing the
  // ordinal counter, so `checkpoints` records exactly where the run died.
  EXPECT_EQ(ctx.Checkpoint().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.counters.checkpoints, 4u);
  EXPECT_EQ(ctx.interrupt().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx.interrupted());
}

TEST(OpContextTest, DeadlineIsPolledAtStrideBoundaries) {
  TaOpBudgets budgets;
  budgets.checkpoint_stride = 4;
  TaOpContext ctx(budgets);
  // Checkpoint 0 polls the clock (0 % stride == 0); pass it first, then set
  // a deadline in the past: calls 1..3 skip the poll, call 4 trips.
  EXPECT_TRUE(ctx.Checkpoint().ok());
  ctx.budgets.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  for (uint64_t n = 1; n < 4; ++n) EXPECT_TRUE(ctx.Checkpoint().ok());
  EXPECT_EQ(ctx.Checkpoint().code(), StatusCode::kDeadlineExceeded);
}

TEST(OpContextTest, CancelIsPolledEveryCheckpoint) {
  std::atomic<bool> cancel{false};
  TaOpBudgets budgets;
  budgets.cancel = &cancel;
  budgets.checkpoint_stride = 1u << 30;  // stride must not delay cancel
  TaOpContext ctx(budgets);
  EXPECT_TRUE(ctx.Checkpoint().ok());
  cancel.store(true);
  EXPECT_EQ(ctx.Checkpoint().code(), StatusCode::kCancelled);
  // TaInterruptStatus exposes the sticky state to value-returning callers.
  EXPECT_EQ(TaInterruptStatus(&ctx).code(), StatusCode::kCancelled);
}

TEST(OpContextTest, CopyOfTrippedContextKeepsBudgetsCountersAndInterrupt) {
  // A derived context is a plain copy: it must carry the sticky interrupt,
  // so work handed a copy after cancellation drains immediately.
  std::atomic<bool> cancel{true};
  TaOpContext ctx;
  ctx.budgets.cancel = &cancel;
  ctx.budgets.max_det_states = 77;
  ctx.counters.rules_scanned = 100;
  const Status tripped = ctx.Checkpoint();
  ASSERT_EQ(tripped.code(), StatusCode::kCancelled);

  cancel.store(false);  // the copy must not need the flag to stay tripped
  TaOpContext copy = ctx;
  EXPECT_EQ(copy.budgets.max_det_states, 77u);
  EXPECT_EQ(copy.budgets.cancel, &cancel);
  EXPECT_EQ(copy.counters.rules_scanned, 100u);
  EXPECT_TRUE(copy.interrupted());
  EXPECT_EQ(copy.Checkpoint().code(), tripped.code());
  // A tripped context stops counting checkpoints, the copy included.
  EXPECT_EQ(copy.counters.checkpoints, ctx.counters.checkpoints);
}

}  // namespace
}  // namespace pebbletc
