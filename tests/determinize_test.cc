// Regression tests pinning the frontier-driven determinization engine
// (docs/DETERMINIZE.md): one-word and two-word subsets building the same
// DBTA, mid-frontier budget exhaustion leaving consistent counters, and
// counter plumbing through the operations that determinize internally.

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

// A subset of n states is ⌈n/64⌉ words. Appending inert states pushes the
// automaton past 64 states without changing its language, so the same
// language runs through one-word and two-word subsets.
Nbta PadPastOneWord(const Nbta& a) {
  Nbta padded = a;
  while (padded.num_states <= 64) (void)padded.AddState();
  return padded;
}

// Same state count, accepting set, leaf states and transition table.
void ExpectIdenticalDbtas(const Dbta& x, const Dbta& y,
                          const RankedAlphabet& sigma) {
  ASSERT_EQ(x.num_states(), y.num_states());
  for (StateId q = 0; q < x.num_states(); ++q) {
    EXPECT_EQ(x.accepting(q), y.accepting(q)) << "state " << q;
  }
  for (SymbolId s : sigma.LeafSymbols()) {
    EXPECT_EQ(x.LeafState(s), y.LeafState(s)) << "leaf " << s;
  }
  for (SymbolId s : sigma.BinarySymbols()) {
    for (StateId l = 0; l < x.num_states(); ++l) {
      for (StateId r = 0; r < x.num_states(); ++r) {
        EXPECT_EQ(x.Next(s, l, r), y.Next(s, l, r))
            << "symbol " << s << " (" << l << ", " << r << ")";
      }
    }
  }
}

// The inert padding states never enter a reachable subset, so the subsets,
// their interning order and hence the whole DBTA are the same at both
// widths — not only its language.
TEST(DeterminizeWidthTest, OneAndTwoWordSetsBuildIdenticalDbtas) {
  RankedAlphabet sigma = TinyRanked();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RandomNbtaOptions opts;
    opts.num_states = 5;
    opts.rule_density = 0.4;
    Nbta a = RandomNbta(sigma, rng, opts);
    Nbta padded = PadPastOneWord(a);
    ASSERT_LE(a.num_states, 64u);
    ASSERT_GT(padded.num_states, 64u);

    auto one_word = DeterminizeNbta(a, sigma);
    auto two_words = DeterminizeNbta(padded, sigma);
    ASSERT_TRUE(one_word.ok()) << "seed " << seed;
    ASSERT_TRUE(two_words.ok()) << "seed " << seed;
    EXPECT_EQ(one_word->num_states(), two_words->num_states())
        << "seed " << seed;
    ExpectIdenticalDbtas(*one_word, *two_words, sigma);
    for (int i = 0; i < 60; ++i) {
      BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(15));
      EXPECT_EQ(one_word->Accepts(t), two_words->Accepts(t))
          << "seed " << seed << " tree " << i;
    }
    auto equiv = NbtaEquivalent(one_word->ToNbta(sigma),
                                two_words->ToNbta(sigma), sigma);
    ASSERT_TRUE(equiv.ok()) << "seed " << seed;
    EXPECT_TRUE(*equiv) << "seed " << seed;
  }
}

// Fold rows are appended as the adjacency touches them, so an input of 2^20
// states and two rules determinizes in memory that follows its rules: a
// row per state would be 2^20 rows of 2^14 words on each side.
TEST(DeterminizeWidthTest, WideInputWithFewRulesDeterminizes) {
  RankedAlphabet sigma = TinyRanked();
  const SymbolId leaf = sigma.LeafSymbols()[0];
  const SymbolId bin = sigma.BinarySymbols()[0];
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  while (a.num_states < (1u << 20)) (void)a.AddState();
  a.accepting[1] = true;
  a.AddLeafRule(leaf, 0);
  a.AddRule(bin, 0, 0, 1);

  auto det = DeterminizeNbta(a, sigma);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  // The sink, {0} (the leaf) and {1}.
  ASSERT_EQ(det->num_states(), 3u);
  EXPECT_EQ(det->LeafState(leaf), 1u);
  EXPECT_EQ(det->Next(bin, 1, 1), 2u);
  EXPECT_EQ(det->Next(bin, 2, 2), 0u);
  EXPECT_FALSE(det->accepting(1));
  EXPECT_TRUE(det->accepting(2));
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
  opts.num_states = 20;
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

// Past 64 states every subset is two words; a budget tripping there
// behaves the same.
TEST(DeterminizeBudgetTest, TwoWordExhaustionLeavesConsistentCounters) {
  Rng rng(79);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 80;
  opts.rule_density = 1.0 / 80;
  opts.leaf_density = 0.1;
  Nbta a = RandomNbta(sigma, rng, opts);

  TaOpContext free_ctx;
  free_ctx.budgets.max_det_states = 0;
  auto full = DeterminizeNbta(NbtaIndex(a), sigma, &free_ctx);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->num_states(), 16u) << "instance too small to exhaust";

  TaOpContext ctx;
  ctx.budgets.max_det_states = 16;
  auto det = DeterminizeNbta(NbtaIndex(a), sigma, &ctx);
  ASSERT_FALSE(det.ok());
  EXPECT_EQ(det.status().ToString(),
            "resource-exhausted: determinization exceeded state budget of 16");
  EXPECT_GT(ctx.counters.det_subsets_interned, 16u);
  EXPECT_LE(ctx.counters.det_subsets_interned,
            free_ctx.counters.det_subsets_interned);
  EXPECT_GT(ctx.counters.det_pairs_expanded, 0u);
  EXPECT_LT(ctx.counters.det_pairs_expanded,
            free_ctx.counters.det_pairs_expanded);
  EXPECT_EQ(ctx.counters.determinizations, 0u);
  EXPECT_EQ(ctx.counters.states_materialized, 0u);
}

// A fold's rows may not pass 2^22 words. Here the leaf subset holds 4100
// states, all right children of left child 0, and 4100 rows of
// ⌈66000/64⌉ = 1032 words would pass the cap: the construction fails
// instead of allocating them.
TEST(DeterminizeBudgetTest, FoldPastItsRowCapIsResourceExhausted) {
  RankedAlphabet sigma = TinyRanked();
  const SymbolId leaf = sigma.LeafSymbols()[0];
  const SymbolId bin = sigma.BinarySymbols()[0];
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  while (a.num_states < 66000) (void)a.AddState();
  for (StateId q = 0; q < 4100; ++q) {
    a.AddLeafRule(leaf, q);
    a.AddRule(bin, 0, q, 0);
  }

  TaOpContext ctx;
  auto det = DeterminizeNbta(a, sigma, &ctx);
  ASSERT_FALSE(det.ok());
  EXPECT_EQ(det.status().ToString(),
            "resource-exhausted: determinization fold exceeded 4194304 words");
  EXPECT_EQ(ctx.counters.det_subsets_interned, 2u);  // the sink and the leaf
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
TEST(DeterminizeWidthTest, ResultIsCompleteAtBothWidths) {
  Rng rng(9);
  RankedAlphabet sigma = TinyRanked();
  RandomNbtaOptions opts;
  opts.num_states = 6;
  opts.rule_density = 0.5;
  Nbta a = RandomNbta(sigma, rng, opts);
  for (const Nbta& input : {a, PadPastOneWord(a)}) {
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
