// Tests for the content-addressed op cache (docs/CACHING.md): structural
// hash invariants (rename / rule-order / duplicate / dead-state invariance),
// binary (de)serialization round-trips, TaOpCache
// hit/miss/evict/byte accounting, size-aware LRU eviction order, budget-key
// separation, and the TaAlgebra gating rules.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/diffcheck.h"
#include "src/common/rng.h"
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

// A tiny deterministic DBTA over the diffcheck alphabet (4 symbols).
Dbta SampleDbta() {
  Dbta d(3, 4);
  d.set_accepting(1, true);
  d.SetLeafState(0, 0);
  d.SetLeafState(1, 1);
  for (SymbolId s = 0; s < 4; ++s) {
    for (StateId l = 0; l < 3; ++l) {
      for (StateId r = 0; r < 3; ++r) {
        d.SetNext(s, l, r, (s + l + 2 * r) % 3);
      }
    }
  }
  return d;
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

TEST(StructuralHashTest, DbtaHashTracksRepresentation) {
  const Dbta d1 = SampleDbta();
  const Dbta d2 = SampleDbta();
  EXPECT_EQ(DbtaStructuralHash(d1), DbtaStructuralHash(d2));

  Dbta d3 = SampleDbta();
  d3.SetNext(0, 0, 0, (d3.Next(0, 0, 0) + 1) % d3.num_states());
  EXPECT_NE(DbtaStructuralHash(d3), DbtaStructuralHash(d1));
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
      MakeTaCacheKey(TaOpKind::kComplement, h, TaStructuralHash{}, fp, 100);
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
  return MakeTaCacheKey(TaOpKind::kComplement, h, TaStructuralHash{}, 7, 0);
}

TEST(TaOpCacheTest, HitMissAndByteAccounting) {
  TaOpCache cache(1 << 20);
  TaOpContext ctx;
  const Nbta a = SampleNbta(0x1234);

  EXPECT_EQ(cache.FindNbta(KeyFor(1), &ctx), nullptr);
  EXPECT_EQ(ctx.counters.memo_misses, 1u);
  EXPECT_EQ(ctx.counters.memo_hits, 0u);

  cache.InsertNbta(KeyFor(1), a, &ctx);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(ctx.counters.memo_bytes, 0u);
  EXPECT_EQ(cache.size_bytes(), ctx.counters.memo_bytes);

  std::shared_ptr<const Nbta> hit = cache.FindNbta(KeyFor(1), &ctx);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(ctx.counters.memo_hits, 1u);
  EXPECT_EQ(NbtaBytesOf(*hit), NbtaBytesOf(a));

  // A key holding an NBTA is a miss for the DBTA probe (and vice versa).
  EXPECT_EQ(cache.FindDbta(KeyFor(1), &ctx), nullptr);
  EXPECT_EQ(ctx.counters.memo_misses, 2u);

  // Idempotent re-insert: no growth, no duplicate charge.
  const size_t bytes_before = cache.size_bytes();
  cache.InsertNbta(KeyFor(1), a, &ctx);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.size_bytes(), bytes_before);

  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.FindNbta(KeyFor(1), &ctx), nullptr);
}

TEST(TaOpCacheTest, LruEvictionPrefersStaleEntries) {
  // Identical payloads under distinct keys make every entry the same size,
  // so a capacity of exactly two entries forces the third insert to evict.
  const Nbta a = SampleNbta(0x4321);
  TaOpCache probe(1 << 20);
  TaOpContext ctx;
  probe.InsertNbta(KeyFor(1), a, &ctx);
  const size_t entry_bytes = probe.size_bytes();
  ASSERT_GT(entry_bytes, 0u);

  TaOpCache cache(2 * entry_bytes);
  cache.InsertNbta(KeyFor(1), a, &ctx);
  cache.InsertNbta(KeyFor(2), a, &ctx);
  EXPECT_EQ(cache.entries(), 2u);

  // Touch key 1 so key 2 is the LRU entry, then overflow.
  ASSERT_NE(cache.FindNbta(KeyFor(1), &ctx), nullptr);
  const size_t evictions_before = ctx.counters.memo_evictions;
  cache.InsertNbta(KeyFor(3), a, &ctx);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(ctx.counters.memo_evictions, evictions_before + 1);
  EXPECT_NE(cache.FindNbta(KeyFor(1), &ctx), nullptr) << "recency refreshed";
  EXPECT_NE(cache.FindNbta(KeyFor(3), &ctx), nullptr);
  EXPECT_EQ(cache.FindNbta(KeyFor(2), &ctx), nullptr) << "LRU entry evicted";

  // Shrinking the capacity evicts oldest-first until the contents fit.
  cache.set_capacity_bytes(entry_bytes);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_LE(cache.size_bytes(), entry_bytes);
}

TEST(TaOpCacheTest, BudgetCapsSeparateEntries) {
  TaOpCache cache(1 << 20);
  TaOpContext ctx;
  const Nbta a = SampleNbta(0x5678);
  const TaStructuralHash h = NbtaStructuralHash(a);
  const TaCacheKey under_small =
      MakeTaCacheKey(TaOpKind::kDeterminize, h, TaStructuralHash{}, 7, 100);
  const TaCacheKey under_big =
      MakeTaCacheKey(TaOpKind::kDeterminize, h, TaStructuralHash{}, 7, 200);
  cache.InsertNbta(under_small, a, &ctx);
  EXPECT_EQ(cache.FindNbta(under_big, &ctx), nullptr)
      << "a success under one cap must not serve a query under another";
  EXPECT_NE(cache.FindNbta(under_small, &ctx), nullptr);
}

// ------------------------------------------------------ TaAlgebra ----------

TEST(TaAlgebraTest, EnabledGating) {
  EXPECT_FALSE(TaAlgebra::Enabled(nullptr));

  TaOpContext off;
  EXPECT_FALSE(TaAlgebra::Enabled(&off)) << "memo defaults to kOff";

  TaOpContext on;
  on.budgets.memo = TaMemoMode::kInMemory;
  EXPECT_TRUE(TaAlgebra::Enabled(&on));

  // A context carrying a fault injector is always served cold: injection
  // ordinals must stay deterministic.
  TaFaultInjector inj;
  inj.trip_at = 1u << 30;
  on.fault = &inj;
  EXPECT_FALSE(TaAlgebra::Enabled(&on));
}

TEST(TaAlgebraTest, CachedOpsReplayByteExactly) {
  TaOpCache cache(8 << 20);
  const TaAlgebra alg(&cache);
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = SampleNbta(0x31337);
  const NbtaIndex idx(a);

  auto memo_ctx = [] {
    TaOpContext ctx;
    ctx.budgets.memo = TaMemoMode::kInMemory;
    return ctx;
  };

  TaOpContext cold_ctx;
  Result<Nbta> cold = ComplementNbta(idx, sigma, &cold_ctx);
  ASSERT_TRUE(cold.ok());

  TaOpContext miss_ctx = memo_ctx();
  Result<Nbta> warm1 = alg.Complement(idx, sigma, &miss_ctx);
  ASSERT_TRUE(warm1.ok());
  EXPECT_EQ(miss_ctx.counters.memo_misses, 1u);
  EXPECT_EQ(miss_ctx.counters.memo_hits, 0u);
  EXPECT_EQ(NbtaBytesOf(*warm1), NbtaBytesOf(*cold))
      << "a miss computes exactly the cold result";

  TaOpContext hit_ctx = memo_ctx();
  Result<Nbta> warm2 = alg.Complement(idx, sigma, &hit_ctx);
  ASSERT_TRUE(warm2.ok());
  EXPECT_EQ(hit_ctx.counters.memo_hits, 1u);
  EXPECT_EQ(hit_ctx.counters.memo_misses, 0u);
  EXPECT_EQ(NbtaBytesOf(*warm2), NbtaBytesOf(*warm1));

  // The other cached ops follow the same miss-then-hit protocol.
  TaOpContext det_miss = memo_ctx();
  TaOpContext det_hit = memo_ctx();
  Result<std::shared_ptr<const Dbta>> d1 =
      alg.Determinize(idx, sigma, &det_miss);
  Result<std::shared_ptr<const Dbta>> d2 =
      alg.Determinize(idx, sigma, &det_hit);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(det_hit.counters.memo_hits, 1u);
  EXPECT_EQ(*d2, *d1) << "a hit shares the cached table, never a copy";
  TaOpContext det_cold;
  Result<Dbta> cold_det = DeterminizeNbta(idx, sigma, &det_cold);
  ASSERT_TRUE(cold_det.ok());
  EXPECT_EQ(DbtaBytesOf(**d1), DbtaBytesOf(*cold_det));

  const Nbta b = SampleNbta(0x31338);
  const NbtaIndex bidx(b);
  TaOpContext int_miss = memo_ctx();
  TaOpContext int_hit = memo_ctx();
  const Nbta p1 = alg.Intersect(idx, bidx, &int_miss);
  const Nbta p2 = alg.Intersect(idx, bidx, &int_hit);
  EXPECT_EQ(int_hit.counters.memo_hits, 1u);
  EXPECT_EQ(NbtaBytesOf(p2), NbtaBytesOf(p1));
}

TEST(TaAlgebraTest, OffModeBypassesCache) {
  TaOpCache cache(1 << 20);
  const TaAlgebra alg(&cache);
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = SampleNbta(0x777);
  const NbtaIndex idx(a);
  TaOpContext ctx;  // memo = kOff
  ASSERT_TRUE(alg.Complement(idx, sigma, &ctx).ok());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(ctx.counters.memo_misses, 0u);
  EXPECT_EQ(ctx.counters.memo_hits, 0u);
}

}  // namespace
}  // namespace pebbletc
