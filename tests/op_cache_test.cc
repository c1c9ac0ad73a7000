// Tests for the content-addressed op cache (docs/CACHING.md): structural
// hash invariants (rename / rule-order / duplicate / dead-state invariance),
// binary (de)serialization round-trips, TaOpCache
// hit/miss/evict/byte accounting, size-aware LRU eviction order, budget-key
// separation, the TaMemoEnabled gate, and the determinize entry that
// MembershipEngine::Compile probes and inserts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/diffcheck.h"
#include "src/common/rng.h"
#include "src/ta/membership.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_cache.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"
#include "src/ta/serialize.h"

namespace pebbletc {
namespace {

Nbta SampleNbta(uint64_t seed, uint32_t num_states = 6) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  Rng rng(seed);
  RandomNbtaOptions o;
  o.num_states = num_states;
  o.rule_density = 0.4;
  o.leaf_density = 0.6;
  o.accepting_density = 0.4;
  return RandomNbta(sigma, rng, o);
}

// Renames state q to perm[q] everywhere (perm must be a permutation).
Nbta PermuteStates(const Nbta& a, const std::vector<StateId>& perm) {
  Nbta out;
  out.num_states = a.num_states;
  out.num_symbols = a.num_symbols;
  out.accepting.assign(a.num_states, false);
  for (StateId q = 0; q < a.num_states; ++q) {
    out.accepting[perm[q]] = a.accepting[q];
  }
  for (const Nbta::LeafRule& r : a.leaf_rules) {
    out.AddLeafRule(r.symbol, perm[r.to]);
  }
  for (const Nbta::BinaryRule& r : a.rules) {
    out.AddRule(r.symbol, perm[r.left], perm[r.right], perm[r.to]);
  }
  return out;
}

std::string NbtaBytesOf(const Nbta& a) {
  std::string s;
  SerializeNbta(a, &s);
  return s;
}

std::string DbtaBytesOf(const Dbta& d) {
  std::string s;
  SerializeDbta(d, &s);
  return s;
}

// ------------------------------------------------ structural hashing -------

TEST(StructuralHashTest, InvariantUnderStatePermutation) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Nbta a = SampleNbta(0xcafe00 + seed);
    const TaStructuralHash h = NbtaStructuralHash(a);
    // An order-reversing permutation and a rotation.
    std::vector<StateId> rev(a.num_states), rot(a.num_states);
    for (StateId q = 0; q < a.num_states; ++q) {
      rev[q] = a.num_states - 1 - q;
      rot[q] = (q + 1) % a.num_states;
    }
    EXPECT_EQ(NbtaStructuralHash(PermuteStates(a, rev)), h) << "seed " << seed;
    EXPECT_EQ(NbtaStructuralHash(PermuteStates(a, rot)), h) << "seed " << seed;
  }
}

TEST(StructuralHashTest, InvariantUnderRuleReorderAndDuplicates) {
  const Nbta a = SampleNbta(0xd00d);
  const TaStructuralHash h = NbtaStructuralHash(a);

  Nbta reordered = a;
  std::reverse(reordered.rules.begin(), reordered.rules.end());
  std::reverse(reordered.leaf_rules.begin(), reordered.leaf_rules.end());
  EXPECT_EQ(NbtaStructuralHash(reordered), h);

  // Rule multiplicity is not part of the language; the hash must not see
  // it.
  Nbta duplicated = a;
  ASSERT_FALSE(a.rules.empty());
  ASSERT_FALSE(a.leaf_rules.empty());
  duplicated.rules.push_back(a.rules.front());
  duplicated.rules.push_back(a.rules.front());
  duplicated.leaf_rules.push_back(a.leaf_rules.back());
  EXPECT_EQ(NbtaStructuralHash(duplicated), h);
}

TEST(StructuralHashTest, InvariantUnderDeadStates) {
  const Nbta a = SampleNbta(0xbeef);
  const TaStructuralHash h = NbtaStructuralHash(a);

  // An unreachable state (no leaf rule ever produces it, and it only feeds
  // itself) must be trimmed away before hashing.
  Nbta padded = a;
  const StateId dead = padded.AddState();
  padded.AddRule(2, dead, dead, dead);
  EXPECT_EQ(NbtaStructuralHash(padded), h);

  // A reachable but dead-end state (never reaches acceptance) likewise.
  Nbta sink = a;
  const StateId s = sink.AddState();
  ASSERT_FALSE(sink.leaf_rules.empty());
  sink.AddRule(2, sink.leaf_rules.front().to, sink.leaf_rules.front().to, s);
  sink.AddRule(2, s, s, s);
  EXPECT_EQ(NbtaStructuralHash(sink), h);
}

TEST(StructuralHashTest, DistinguishesDifferentAutomata) {
  const Nbta a = SampleNbta(0x1111);
  const Nbta b = SampleNbta(0x2222);
  EXPECT_NE(NbtaStructuralHash(a), NbtaStructuralHash(b));

  // Flipping acceptance of a live state changes the hash.
  Nbta flipped = a;
  ASSERT_FALSE(flipped.leaf_rules.empty());
  const StateId q = flipped.leaf_rules.front().to;
  flipped.accepting[q] = !flipped.accepting[q];
  EXPECT_NE(NbtaStructuralHash(flipped), NbtaStructuralHash(a));
}

TEST(StructuralHashTest, BudgetKeySeparation) {
  const TaStructuralHash h = NbtaStructuralHash(SampleNbta(0xabcd));
  const uint64_t fp = RankedAlphabetFingerprint(DiffcheckAlphabet(false));
  const TaCacheKey small_cap =
      MakeTaCacheKey(TaOpKind::kDeterminize, h, TaStructuralHash{}, fp, 100);
  const TaCacheKey big_cap =
      MakeTaCacheKey(TaOpKind::kDeterminize, h, TaStructuralHash{}, fp, 200);
  EXPECT_FALSE(small_cap == big_cap)
      << "same operands under different budget caps must not alias";
  const TaCacheKey other_op =
      MakeTaCacheKey(TaOpKind::kDownwardProof, h, TaStructuralHash{}, fp, 100);
  EXPECT_FALSE(small_cap == other_op);
}

// --------------------------------------------------- serialization ---------

TEST(SerializeTest, NbtaRoundTrip) {
  for (uint64_t seed : {0x1ull, 0x77ull, 0xfeedull}) {
    const Nbta a = SampleNbta(seed);
    const std::string bytes = NbtaBytesOf(a);
    Result<Nbta> back = DeserializeNbta(bytes);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(NbtaBytesOf(*back), bytes) << "round-trip must be bit-exact";
    EXPECT_EQ(back->num_states, a.num_states);
    EXPECT_EQ(back->rules.size(), a.rules.size());
  }
}

TEST(SerializeTest, RejectsTruncationAndTrailingBytes) {
  const std::string nbta_bytes = NbtaBytesOf(SampleNbta(0x42));

  EXPECT_FALSE(DeserializeNbta("").ok());
  EXPECT_FALSE(
      DeserializeNbta(std::string_view(nbta_bytes).substr(
          0, nbta_bytes.size() - 1)).ok());
  EXPECT_FALSE(DeserializeNbta(nbta_bytes + '\0').ok());
}

// A hostile header may claim astronomically more elements than the payload
// holds (e.g. 0xFFFFFFFF rules in a few bytes, ~68 GB if reserved). Every
// such count must be rejected as a parse error before anything is
// allocated — an uncaught bad_alloc would take down the whole daemon.
TEST(SerializeTest, RejectsCountsExceedingRemainingInput) {
  auto u32 = [](uint32_t v) {
    std::string s;
    for (int i = 0; i < 4; ++i) {
      s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    return s;
  };

  // Nbta: 1 state, 1 symbol, empty accepting byte, then a leaf-rule count
  // far beyond the remaining (zero) bytes.
  const std::string nbta_header = u32(1) + u32(1) + std::string(1, '\0');
  Result<Nbta> huge_leaf = DeserializeNbta(nbta_header + u32(0xffffffffu));
  ASSERT_FALSE(huge_leaf.ok());
  EXPECT_EQ(huge_leaf.status().code(), StatusCode::kParseError);
  // Same with a plausible leaf section but a hostile binary-rule count.
  Result<Nbta> huge_rules =
      DeserializeNbta(nbta_header + u32(0) + u32(0xffffffffu));
  ASSERT_FALSE(huge_rules.ok());
  EXPECT_EQ(huge_rules.status().code(), StatusCode::kParseError);
}

TEST(SerializeTest, ChecksumDetectsBitFlips) {
  const std::string bytes = NbtaBytesOf(SampleNbta(0x99));
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_NE(TaPayloadChecksum(flipped), TaPayloadChecksum(bytes));
}

// ------------------------------------------------- cache accounting --------

TaCacheKey KeyFor(uint64_t tag) {
  TaStructuralHash h;
  h.lo = tag;
  h.hi = ~tag;
  return MakeTaCacheKey(TaOpKind::kDownwardProof, h, TaStructuralHash{}, 7, 0);
}

TEST(TaOpCacheTest, HitMissAndByteAccounting) {
  TaOpCache cache(1 << 20);
  TaOpContext ctx;

  EXPECT_FALSE(cache.FindProof(KeyFor(1), &ctx));
  EXPECT_EQ(ctx.counters.memo_misses, 1u);
  EXPECT_EQ(ctx.counters.memo_hits, 0u);

  cache.InsertProof(KeyFor(1), &ctx);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(ctx.counters.memo_bytes, TaOpCache::kProofBytes);
  EXPECT_EQ(cache.size_bytes(), ctx.counters.memo_bytes);

  EXPECT_TRUE(cache.FindProof(KeyFor(1), &ctx));
  EXPECT_EQ(ctx.counters.memo_hits, 1u);

  // A key holding a proof is a miss for the DBTA probe, and vice versa.
  EXPECT_EQ(cache.FindDbta(KeyFor(1), &ctx), nullptr);
  EXPECT_EQ(ctx.counters.memo_misses, 2u);
  const Nbta a = SampleNbta(0x1234);
  const TaCacheKey table_key = MakeTaCacheKey(
      TaOpKind::kDeterminize, NbtaStructuralHash(a), TaStructuralHash{}, 7, 0);
  Result<Dbta> det = DeterminizeNbta(a, DiffcheckAlphabet(false));
  ASSERT_TRUE(det.ok());
  cache.InsertDbta(table_key, std::make_shared<const Dbta>(std::move(*det)),
                   &ctx);
  EXPECT_FALSE(cache.FindProof(table_key, &ctx));
  EXPECT_EQ(ctx.counters.memo_misses, 3u);
  EXPECT_NE(cache.FindDbta(table_key, &ctx), nullptr);
  EXPECT_EQ(ctx.counters.memo_hits, 2u);

  // Idempotent re-insert: no growth, no duplicate charge.
  const size_t bytes_before = cache.size_bytes();
  cache.InsertProof(KeyFor(1), &ctx);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.size_bytes(), bytes_before);

  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_FALSE(cache.FindProof(KeyFor(1), &ctx));
}

TEST(TaOpCacheTest, LruEvictionPrefersStaleEntries) {
  // Every proof record is charged the same fixed size, so a capacity of
  // exactly two entries forces the third insert to evict.
  TaOpCache probe(1 << 20);
  TaOpContext ctx;
  probe.InsertProof(KeyFor(1), &ctx);
  const size_t entry_bytes = probe.size_bytes();
  ASSERT_GT(entry_bytes, 0u);

  TaOpCache cache(2 * entry_bytes);
  cache.InsertProof(KeyFor(1), &ctx);
  cache.InsertProof(KeyFor(2), &ctx);
  EXPECT_EQ(cache.entries(), 2u);

  // Touch key 1 so key 2 is the LRU entry, then overflow.
  ASSERT_TRUE(cache.FindProof(KeyFor(1), &ctx));
  const size_t evictions_before = ctx.counters.memo_evictions;
  cache.InsertProof(KeyFor(3), &ctx);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(ctx.counters.memo_evictions, evictions_before + 1);
  EXPECT_TRUE(cache.FindProof(KeyFor(1), &ctx)) << "recency refreshed";
  EXPECT_TRUE(cache.FindProof(KeyFor(3), &ctx));
  EXPECT_FALSE(cache.FindProof(KeyFor(2), &ctx)) << "LRU entry evicted";

  // Shrinking the capacity evicts oldest-first until the contents fit.
  cache.set_capacity_bytes(entry_bytes);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_LE(cache.size_bytes(), entry_bytes);
}

TEST(TaOpCacheTest, BudgetCapsSeparateEntries) {
  TaOpCache cache(1 << 20);
  TaOpContext ctx;
  const TaStructuralHash h = NbtaStructuralHash(SampleNbta(0x5678));
  const TaCacheKey under_small =
      MakeTaCacheKey(TaOpKind::kDownwardProof, h, TaStructuralHash{}, 7, 100);
  const TaCacheKey under_big =
      MakeTaCacheKey(TaOpKind::kDownwardProof, h, TaStructuralHash{}, 7, 200);
  cache.InsertProof(under_small, &ctx);
  EXPECT_FALSE(cache.FindProof(under_big, &ctx))
      << "a success under one cap must not serve a query under another";
  EXPECT_TRUE(cache.FindProof(under_small, &ctx));
}

// ------------------------------------------ memo gate, determinize entry ---

TEST(TaOpCacheTest, MemoEnabledGating) {
  EXPECT_FALSE(TaMemoEnabled(nullptr));

  TaOpContext off;
  EXPECT_FALSE(TaMemoEnabled(&off)) << "memo defaults to kOff";

  TaOpContext on;
  on.budgets.memo = TaMemoMode::kInMemory;
  EXPECT_TRUE(TaMemoEnabled(&on));

  // A context carrying a fault injector is always served cold: injection
  // ordinals must stay deterministic.
  TaFaultInjector inj;
  inj.trip_at = 1u << 30;
  on.fault = &inj;
  EXPECT_FALSE(TaMemoEnabled(&on));
}

TEST(TaOpCacheTest, DeterminizeEntryReplaysTheColdTable) {
  TaOpCache cache(8 << 20);
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = SampleNbta(0x31337);

  TaOpContext cold_ctx;
  Result<Dbta> cold = DeterminizeNbta(NbtaIndex(a), sigma, &cold_ctx);
  ASSERT_TRUE(cold.ok());

  TaOpContext miss_ctx;
  miss_ctx.budgets.memo = TaMemoMode::kInMemory;
  Result<MembershipEngine> e1 =
      MembershipEngine::Compile(a, sigma, &miss_ctx, &cache);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e1->fast());
  EXPECT_EQ(miss_ctx.counters.memo_misses, 1u);
  EXPECT_EQ(miss_ctx.counters.memo_hits, 0u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(DbtaBytesOf(*e1->table()), DbtaBytesOf(*cold))
      << "a miss computes exactly the cold table";

  TaOpContext hit_ctx;
  hit_ctx.budgets.memo = TaMemoMode::kInMemory;
  Result<MembershipEngine> e2 =
      MembershipEngine::Compile(a, sigma, &hit_ctx, &cache);
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(hit_ctx.counters.memo_hits, 1u);
  EXPECT_EQ(hit_ctx.counters.memo_misses, 0u);
  EXPECT_EQ(hit_ctx.counters.determinizations, 0u);
  EXPECT_EQ(e2->table(), e1->table())
      << "a hit shares the cached table, never a copy";
}

TEST(TaOpCacheTest, OffModeBypassesCache) {
  TaOpCache cache(1 << 20);
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  TaOpContext ctx;  // memo = kOff
  Result<MembershipEngine> engine =
      MembershipEngine::Compile(SampleNbta(0x777), sigma, &ctx, &cache);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->fast());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(ctx.counters.memo_misses, 0u);
  EXPECT_EQ(ctx.counters.memo_hits, 0u);
}

}  // namespace
}  // namespace pebbletc
