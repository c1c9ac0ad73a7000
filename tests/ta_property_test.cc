// Property tests for the tree-automaton operation layer: language
// preservation of TrimNbta and of the oracle's MinimizeDbta
// (src/check/reference_ops.h) on randomized automata, agreement of the
// shared-index operations with the convenience forms, and
// CountAcceptedTrees saturation behavior near UINT64_MAX.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "src/alphabet/alphabet.h"
#include "src/check/reference_ops.h"
#include "src/common/rng.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/random_ta.h"
#include "src/tree/random_tree.h"

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

Nbta DrawRandom(const RankedAlphabet& sigma, Rng& rng) {
  RandomNbtaOptions opts;
  opts.num_states = 2 + static_cast<uint32_t>(rng.NextBelow(5));
  opts.rule_density = 0.15 + rng.NextDouble() * 0.35;
  opts.leaf_density = 0.3 + rng.NextDouble() * 0.5;
  opts.accepting_density = 0.2 + rng.NextDouble() * 0.5;
  return RandomNbta(sigma, rng, opts);
}

// --- language preservation ---

TEST(TaPropertyTest, TrimPreservesLanguage) {
  RankedAlphabet sigma = TinyRanked();
  Rng rng(0x7201);
  for (int i = 0; i < 60; ++i) {
    Nbta a = DrawRandom(sigma, rng);
    Nbta trimmed = TrimNbta(a);
    EXPECT_LE(trimmed.num_states, a.num_states);
    EXPECT_LE(trimmed.rules.size(), a.rules.size());
    auto eq = NbtaEquivalent(a, trimmed, sigma);
    ASSERT_TRUE(eq.ok()) << eq.status().ToString();
    EXPECT_TRUE(*eq) << "TrimNbta changed the language at iteration " << i;
  }
}

TEST(TaPropertyTest, TrimIsIdempotent) {
  RankedAlphabet sigma = TinyRanked();
  Rng rng(0x7202);
  for (int i = 0; i < 40; ++i) {
    Nbta once = TrimNbta(DrawRandom(sigma, rng));
    Nbta twice = TrimNbta(once);
    EXPECT_EQ(once.num_states, twice.num_states) << "iteration " << i;
    EXPECT_EQ(once.rules.size(), twice.rules.size());
    EXPECT_EQ(once.leaf_rules.size(), twice.leaf_rules.size());
  }
}

TEST(TaPropertyTest, MinimizePreservesLanguage) {
  RankedAlphabet sigma = TinyRanked();
  Rng rng(0x7203);
  for (int i = 0; i < 40; ++i) {
    Nbta a = DrawRandom(sigma, rng);
    auto det = DeterminizeNbta(a, sigma);
    ASSERT_TRUE(det.ok()) << det.status().ToString();
    auto min = MinimizeDbta(*det, sigma);
    ASSERT_TRUE(min.ok()) << min.status().ToString();
    // Minimization completes the table with a sink, so it may exceed the
    // reachable-subset DBTA by at most that one state.
    EXPECT_LE(min->num_states(), det->num_states() + 1);
    auto eq = NbtaEquivalent(a, min->ToNbta(sigma), sigma);
    ASSERT_TRUE(eq.ok()) << eq.status().ToString();
    EXPECT_TRUE(*eq) << "MinimizeDbta changed the language at iteration " << i;
  }
}

TEST(TaPropertyTest, MinimizeIsCanonicallyMinimal) {
  // Minimizing a minimized automaton must not shrink it further.
  RankedAlphabet sigma = TinyRanked();
  Rng rng(0x7204);
  for (int i = 0; i < 25; ++i) {
    auto det = DeterminizeNbta(DrawRandom(sigma, rng), sigma);
    ASSERT_TRUE(det.ok());
    auto min1 = MinimizeDbta(*det, sigma);
    ASSERT_TRUE(min1.ok());
    auto min2 = MinimizeDbta(*min1, sigma);
    ASSERT_TRUE(min2.ok());
    EXPECT_EQ(min1->num_states(), min2->num_states()) << "iteration " << i;
  }
}

// --- shared-index operations agree with the convenience forms ---

TEST(TaPropertyTest, IndexedMembershipMatchesBitsetRun) {
  RankedAlphabet sigma = TinyRanked();
  Rng rng(0x7205);
  for (int i = 0; i < 40; ++i) {
    Nbta a = DrawRandom(sigma, rng);
    NbtaIndex idx(a);
    for (int j = 0; j < 10; ++j) {
      BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(8));
      // Reference semantics: some accepting state in the root's bitset.
      auto states = a.RunStates(t);
      bool expected = false;
      for (StateId q = 0; q < a.num_states; ++q) {
        if (a.accepting[q] && states[t.root()][q]) expected = true;
      }
      EXPECT_EQ(NbtaAccepts(idx, t), expected);
      EXPECT_EQ(a.Accepts(t), expected);
    }
  }
}

TEST(TaPropertyTest, IndexedOpsMatchConvenienceOps) {
  RankedAlphabet sigma = TinyRanked();
  Rng rng(0x7206);
  TaOpContext ctx;
  for (int i = 0; i < 25; ++i) {
    Nbta a = DrawRandom(sigma, rng);
    Nbta b = DrawRandom(sigma, rng);
    NbtaIndex ia(a, &ctx), ib(b, &ctx);

    EXPECT_EQ(IsEmptyNbta(ia, &ctx), IsEmptyNbta(a));
    std::optional<BinaryTree> w1 = WitnessTree(ia, &ctx);
    std::optional<BinaryTree> w2 = WitnessTree(a);
    EXPECT_EQ(w1.has_value(), w2.has_value());
    if (w1.has_value()) {
      EXPECT_EQ(w1->size(), w2->size());  // both minimal
    }

    auto eq = NbtaEquivalent(IntersectNbta(ia, ib, &ctx),
                             IntersectNbta(a, b), sigma);
    ASSERT_TRUE(eq.ok());
    EXPECT_TRUE(*eq) << "indexed intersection diverged at iteration " << i;
  }
  // The shared context really accounted for the work above.
  EXPECT_GT(ctx.counters.indexes_built, 0u);
  EXPECT_GT(ctx.counters.rules_scanned, 0u);
  EXPECT_GT(ctx.counters.intersections, 0u);
}

// --- CountAcceptedTrees saturation ---

// A maximally nondeterministic automaton: k all-accepting states, every leaf
// rule and every binary rule present. Accepting runs on trees with n nodes =
// Catalan((n-1)/2) shapes x (|Σ0 or Σ2| x k)^n per-node choices, which
// overflows uint64 already at moderate n.
Nbta Blowup(const RankedAlphabet& sigma, uint32_t k) {
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  for (uint32_t q = 0; q < k; ++q) {
    a.AddState();
    a.accepting[q] = true;
  }
  for (SymbolId s : sigma.LeafSymbols()) {
    for (StateId q = 0; q < k; ++q) a.AddLeafRule(s, q);
  }
  for (SymbolId s : sigma.BinarySymbols()) {
    for (StateId q1 = 0; q1 < k; ++q1) {
      for (StateId q2 = 0; q2 < k; ++q2) {
        for (StateId q = 0; q < k; ++q) a.AddRule(s, q1, q2, q);
      }
    }
  }
  return a;
}

TEST(TaPropertyTest, CountAcceptedTreesSaturatesAtUint64Max) {
  RankedAlphabet sigma = TinyRanked();
  Nbta a = Blowup(sigma, 2);
  // Exact small counts: Catalan((n-1)/2) shapes x 4^n (2 symbols x 2 states
  // per node).
  EXPECT_EQ(CountAcceptedTrees(a, 1), 4u);
  EXPECT_EQ(CountAcceptedTrees(a, 3), 64u);
  EXPECT_EQ(CountAcceptedTrees(a, 5), 2u * 1024u);
  // n = 31: Catalan(15) x 4^31 = 9694845 x 2^62 >> UINT64_MAX.
  EXPECT_EQ(CountAcceptedTrees(a, 31), UINT64_MAX);
  // Saturation is sticky for larger sizes (no wraparound back below).
  EXPECT_EQ(CountAcceptedTrees(a, 33), UINT64_MAX);
  EXPECT_EQ(CountAcceptedTrees(a, 63), UINT64_MAX);
  // Even node counts remain impossible regardless of saturation.
  EXPECT_EQ(CountAcceptedTrees(a, 32), 0u);
}

TEST(TaPropertyTest, CountAcceptedTreesNearBoundaryDoesNotWrap) {
  // Single state, single leaf symbol, single binary symbol: exactly
  // Catalan((n-1)/2) runs, far below saturation — while the 2-state variant
  // crosses UINT64_MAX between n = 25 and n = 35. Both sides of the boundary
  // must behave: exact below, clamped (never wrapped) above.
  RankedAlphabet mono;
  (void)mono.AddLeaf("l");
  (void)mono.AddBinary("b");
  Nbta one = Blowup(mono, 1);
  EXPECT_EQ(CountAcceptedTrees(one, 11), 42u);  // Catalan(5)
  Nbta many = Blowup(mono, 6);  // 6 states: 6^n runs per shape
  uint64_t prev = 0;
  for (size_t n = 1; n <= 41; n += 2) {
    uint64_t c = CountAcceptedTrees(many, n);
    // Monotone in n until saturation; once saturated, pinned to the max.
    EXPECT_GE(c, prev) << "wraparound at n = " << n;
    prev = c;
  }
  EXPECT_EQ(prev, UINT64_MAX);
}

}  // namespace
}  // namespace pebbletc
