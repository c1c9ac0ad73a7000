// Tests for src/ta/inclusion and the antichain engine it shares with the
// typechecker's downward search (src/ta/antichain.h): verdicts, witnesses,
// counters, the pair budget in both domains, Martens–Neven fragment
// behavior, and NbtaEquivalent.

#include "src/ta/inclusion.h"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>

#include "src/alphabet/alphabet.h"
#include "src/common/rng.h"
#include "src/core/downward.h"
#include "src/pt/paper_machines.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"

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

// All leaves labelled a0 (one state, accepting).
Nbta AllLeavesA0(const RankedAlphabet& sigma) {
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId q = a.AddState();
  a.accepting[q] = true;
  a.AddLeafRule(sigma.Find("a0"), q);
  a.AddRule(sigma.Find("a2"), q, q, q);
  a.AddRule(sigma.Find("b2"), q, q, q);
  return a;
}

// NbtaIncludedIn over throwaway indexes.
Result<NbtaInclusionResult> IncludedIn(const Nbta& a, const Nbta& b,
                                       const RankedAlphabet& sigma) {
  NbtaIndex ia(a);
  NbtaIndex ib(b);
  return NbtaIncludedIn(ia, ib, sigma);
}

// The explicit pipeline the antichain search replaces; the ground truth.
bool ExplicitIncluded(const Nbta& a, const Nbta& b,
                      const RankedAlphabet& sigma) {
  auto not_b = ComplementNbta(b, sigma);
  PEBBLETC_CHECK(not_b.ok());
  return IsEmptyNbta(IntersectNbta(a, *not_b));
}

TEST(InclusionTest, BasicChain) {
  RankedAlphabet sigma = TinyRanked();
  Nbta all_a0 = AllLeavesA0(sigma);
  Nbta uni = UniversalNbta(sigma);

  auto sub = IncludedIn(all_a0, uni, sigma);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->included);
  EXPECT_FALSE(sub->counterexample.has_value());

  auto super = IncludedIn(uni, all_a0, sigma);
  ASSERT_TRUE(super.ok());
  EXPECT_FALSE(super->included);
  ASSERT_TRUE(super->counterexample.has_value());
  // The witness is a genuine separator.
  EXPECT_TRUE(uni.Accepts(*super->counterexample));
  EXPECT_FALSE(all_a0.Accepts(*super->counterexample));
}

TEST(InclusionTest, EmptyLanguagesAreIncludedInEverything) {
  RankedAlphabet sigma = TinyRanked();
  Nbta empty = EmptyLanguageNbta(sigma);
  auto r = IncludedIn(empty, empty, sigma);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->included);
  auto r2 = IncludedIn(AllLeavesA0(sigma), empty, sigma);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->included);
}

TEST(InclusionTest, AgreesWithExplicitPipelineOnRandomAutomata) {
  RankedAlphabet sigma = TinyRanked();
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed + 900);
    RandomNbtaOptions opts;
    opts.num_states = 1 + seed % 5;
    Nbta a = RandomNbta(sigma, rng, opts);
    Nbta b = RandomNbta(sigma, rng, opts);
    auto r = IncludedIn(a, b, sigma);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    EXPECT_EQ(r->included, ExplicitIncluded(a, b, sigma)) << "seed " << seed;
    if (!r->included) {
      ASSERT_TRUE(r->counterexample.has_value()) << "seed " << seed;
      EXPECT_TRUE(a.Accepts(*r->counterexample)) << "seed " << seed;
      EXPECT_FALSE(b.Accepts(*r->counterexample)) << "seed " << seed;
    }
  }
}

TEST(InclusionTest, CountersAdvance) {
  RankedAlphabet sigma = TinyRanked();
  TaOpContext ctx;
  Nbta uni = UniversalNbta(sigma);
  Nbta all_a0 = AllLeavesA0(sigma);
  NbtaIndex iu(uni, &ctx);
  NbtaIndex ia(all_a0, &ctx);
  auto r = NbtaIncludedIn(iu, ia, sigma, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx.counters.inclusions, 1u);
  EXPECT_GT(ctx.counters.incl_pairs_interned, 0u);
}

TEST(InclusionTest, PairBudgetEnforced) {
  RankedAlphabet sigma = TinyRanked();
  Rng rng(4242);
  RandomNbtaOptions opts;
  opts.num_states = 6;
  opts.rule_density = 0.7;
  Nbta a = RandomNbta(sigma, rng, opts);
  Nbta b = RandomNbta(sigma, rng, opts);
  TaOpContext ctx;
  ctx.budgets.max_antichain_pairs = 1;
  NbtaIndex ia(a, &ctx);
  NbtaIndex ib(b, &ctx);
  auto r = NbtaIncludedIn(ia, ib, sigma, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(),
            "resource-exhausted: antichain pairs exceeded budget of 1 "
            "(needed 2)");
}

// The downward domain runs on the same engine, so the same budget trips
// with the same detail: the copy transducer's leaf sets and its first
// binary set are two pairs on the universal τ1's one state.
TEST(InclusionTest, DownwardPairBudgetEnforced) {
  RankedAlphabet sigma = TinyRanked();
  const PebbleTransducer copy = MakeCopyTransducer(sigma);
  Nbta uni = UniversalNbta(sigma);
  auto not_uni = ComplementNbta(uni, sigma);
  ASSERT_TRUE(not_uni.ok());
  auto d = DeterminizeNbta(*not_uni, sigma);
  ASSERT_TRUE(d.ok());
  TaOpContext ctx;
  ctx.budgets.max_antichain_pairs = 1;
  NbtaIndex tau1(uni, &ctx);
  auto r = FindDownwardBadInput(copy, *d, tau1, sigma, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(),
            "resource-exhausted: antichain pairs exceeded budget of 1 "
            "(needed 2)");
}

TEST(InclusionTest, DeadlineSurfaces) {
  RankedAlphabet sigma = TinyRanked();
  TaOpContext ctx;
  ctx.budgets.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  ctx.budgets.checkpoint_stride = 1;
  Nbta uni = UniversalNbta(sigma);
  NbtaIndex iu(uni, &ctx);
  auto r = NbtaIncludedIn(iu, iu, sigma, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(InclusionTest, RewiredIncludesAndEquivalentAgree) {
  RankedAlphabet sigma = TinyRanked();
  Nbta all_a0 = AllLeavesA0(sigma);
  Nbta uni = UniversalNbta(sigma);
  auto r1 = IncludedIn(all_a0, uni, sigma);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->included);
  auto r2 = IncludedIn(uni, all_a0, sigma);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->included);
  auto eq = NbtaEquivalent(all_a0, all_a0, sigma);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
  auto ne = NbtaEquivalent(all_a0, uni, sigma);
  ASSERT_TRUE(ne.ok());
  EXPECT_FALSE(*ne);
}

// The Martens–Neven fragment: inclusion into a bottom-up-deterministic
// superset keeps every reachable B-set at most a singleton, so pair counts
// stay linear-ish. Checked via the interned-pair counter.
TEST(InclusionTest, DeterministicSupersetKeepsPairsSmall) {
  RankedAlphabet sigma = TinyRanked();
  TaOpContext ctx;
  Rng rng(99);
  RandomNbtaOptions opts;
  opts.num_states = 5;
  Nbta a = RandomNbta(sigma, rng, opts);
  Nbta b = AllLeavesA0(sigma);  // bottom-up deterministic
  NbtaIndex ia(a, &ctx);
  NbtaIndex ib(b, &ctx);
  auto r = NbtaIncludedIn(ia, ib, sigma, &ctx);
  ASSERT_TRUE(r.ok());
  // At most |Q_A| × (|Q_B| + 1) pairs can ever be interned here.
  EXPECT_LE(ctx.counters.incl_pairs_interned,
            static_cast<size_t>(a.num_states) * (b.num_states + 1));
}

}  // namespace
}  // namespace pebbletc
