// Regression tests pinning the frontier-driven determinization engine
// (docs/DETERMINIZE.md): dense/sparse regime parity, mid-frontier budget
// exhaustion leaving consistent counters, and counter plumbing through the
// operations that determinize internally.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/alphabet/alphabet.h"
#include "src/common/rng.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
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

// Appending inert states pushes the automaton across the dense-regime
// cutoff without changing its language, so the same language runs through
// both subset representations.
Nbta PadAcrossDenseCutoff(const Nbta& a) {
  Nbta padded = a;
  while (padded.num_states <= NbtaIndex::kDenseMaskMaxStates) {
    (void)padded.AddState();
  }
  return padded;
}

// The engine picks its regime from the *input* state count: ≤ 16 states is
// the uint32-mask fast path, above it the packed-bitset worklist. Both must
// produce the same deterministic language (state numbering may differ).
TEST(DeterminizeRegimeTest, DenseAndSparseRegimesAgreeOnTheSameLanguage) {
  RankedAlphabet sigma = TinyRanked();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RandomNbtaOptions opts;
    opts.num_states = 5;
    opts.rule_density = 0.4;
    Nbta a = RandomNbta(sigma, rng, opts);
    Nbta padded = PadAcrossDenseCutoff(a);
    ASSERT_LE(a.num_states, NbtaIndex::kDenseMaskMaxStates);
    ASSERT_GT(padded.num_states, NbtaIndex::kDenseMaskMaxStates);

    auto dense = DeterminizeNbta(a, sigma);
    auto sparse = DeterminizeNbta(padded, sigma);
    ASSERT_TRUE(dense.ok()) << "seed " << seed;
    ASSERT_TRUE(sparse.ok()) << "seed " << seed;
    // Reachable-subset counts match: the inert padding states never appear
    // in any reachable subset.
    EXPECT_EQ(dense->num_states(), sparse->num_states()) << "seed " << seed;
    for (int i = 0; i < 60; ++i) {
      BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(15));
      EXPECT_EQ(dense->Accepts(t), sparse->Accepts(t))
          << "seed " << seed << " tree " << i;
    }
    auto equiv =
        NbtaEquivalent(dense->ToNbta(sigma), sparse->ToNbta(sigma), sigma);
    ASSERT_TRUE(equiv.ok()) << "seed " << seed;
    EXPECT_TRUE(*equiv) << "seed " << seed;
  }
}

// A state budget tripping mid-frontier must fail with kResourceExhausted
// and leave the context's counters describing the work actually done: the
// frontier progress counters advance, the completion counters do not.
TEST(DeterminizeBudgetTest, DenseExhaustionLeavesConsistentCounters) {
  Rng rng(77);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 8;
  opts.rule_density = 0.8;
  Nbta a = RandomNbta(sigma, rng, opts);

  // Unbudgeted run for the true subset count.
  TaOpContext free_ctx;
  free_ctx.budgets.max_det_states = 0;
  auto full = DeterminizeNbta(NbtaIndex(a), sigma, &free_ctx);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(free_ctx.counters.det_subsets_interned, full->num_states());
  EXPECT_EQ(free_ctx.counters.states_materialized, full->num_states());
  EXPECT_EQ(free_ctx.counters.determinizations, 1u);
  EXPECT_GT(free_ctx.counters.det_pairs_expanded, 0u);
  ASSERT_GT(full->num_states(), 4u) << "instance too small to exhaust";

  TaOpContext ctx;
  ctx.budgets.max_det_states = 4;
  auto det = DeterminizeNbta(NbtaIndex(a), sigma, &ctx);
  ASSERT_FALSE(det.ok());
  EXPECT_EQ(det.status().code(), StatusCode::kResourceExhausted);
  // Frontier progress was recorded up to the abort...
  EXPECT_GT(ctx.counters.det_subsets_interned, 4u);
  EXPECT_LE(ctx.counters.det_subsets_interned,
            free_ctx.counters.det_subsets_interned);
  EXPECT_GT(ctx.counters.det_pairs_expanded, 0u);
  EXPECT_LT(ctx.counters.det_pairs_expanded,
            free_ctx.counters.det_pairs_expanded);
  // ...but nothing claims completion.
  EXPECT_EQ(ctx.counters.determinizations, 0u);
  EXPECT_EQ(ctx.counters.states_materialized, 0u);
}

TEST(DeterminizeBudgetTest, SparseExhaustionLeavesConsistentCounters) {
  Rng rng(78);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 20;  // above the dense cutoff: packed-bitset path
  opts.rule_density = 0.02;
  Nbta a = RandomNbta(sigma, rng, opts);

  TaOpContext free_ctx;
  free_ctx.budgets.max_det_states = 0;
  auto full = DeterminizeNbta(NbtaIndex(a), sigma, &free_ctx);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->num_states(), 2u) << "instance too small to exhaust";

  TaOpContext ctx;
  ctx.budgets.max_det_states = 2;
  auto det = DeterminizeNbta(NbtaIndex(a), sigma, &ctx);
  ASSERT_FALSE(det.ok());
  EXPECT_EQ(det.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(ctx.counters.det_subsets_interned, 2u);
  EXPECT_GT(ctx.counters.det_pairs_expanded, 0u);
  EXPECT_EQ(ctx.counters.determinizations, 0u);
  EXPECT_EQ(ctx.counters.states_materialized, 0u);
}

// Ops that determinize internally (ComplementNbta here, and through it the
// typechecker's complement of τ2) surface the frontier counters on the same
// context, so a pipeline's op_counters expose the subset-construction work.
TEST(DeterminizeCountersTest, ComplementPropagatesFrontierCounters) {
  Rng rng(5);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 4;
  Nbta a = RandomNbta(sigma, rng, opts);
  TaOpContext ctx;
  auto comp = ComplementNbta(NbtaIndex(a), sigma, &ctx);
  ASSERT_TRUE(comp.ok());
  EXPECT_EQ(ctx.counters.complementations, 1u);
  EXPECT_EQ(ctx.counters.determinizations, 1u);
  EXPECT_GT(ctx.counters.det_subsets_interned, 0u);
  EXPECT_GT(ctx.counters.det_pairs_expanded, 0u);
}

// The deterministic result is complete: every (symbol, l, r) entry of the
// table is defined and evaluation never escapes the materialized states —
// the frontier discipline's "paired against every known subset" invariant.
TEST(DeterminizeRegimeTest, ResultIsCompleteInBothRegimes) {
  Rng rng(9);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 6;
  opts.rule_density = 0.5;
  Nbta a = RandomNbta(sigma, rng, opts);
  for (const Nbta& input : {a, PadAcrossDenseCutoff(a)}) {
    auto det = DeterminizeNbta(input, sigma);
    ASSERT_TRUE(det.ok());
    const uint32_t n = det->num_states();
    for (SymbolId s : sigma.BinarySymbols()) {
      for (StateId l = 0; l < n; ++l) {
        for (StateId r = 0; r < n; ++r) {
          EXPECT_LT(det->Next(s, l, r), n);
        }
      }
    }
    for (SymbolId s : sigma.LeafSymbols()) {
      EXPECT_LT(det->LeafState(s), n);
    }
  }
}

}  // namespace
}  // namespace pebbletc
