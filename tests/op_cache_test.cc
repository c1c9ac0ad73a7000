// Tests for the content-addressed op cache (docs/CACHING.md): structural
// hash invariants (rename / rule-order / duplicate / dead-state invariance),
// binary (de)serialization round-trips, TaOpCache
// hit/miss/evict/byte accounting, size-aware LRU eviction order, budget-key
// separation, the TaAlgebra gating rules, and persistent round-trips with
// corrupted-entry quarantine.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
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

namespace fs = std::filesystem;

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

TEST(SerializeTest, DbtaRoundTrip) {
  const Dbta d = SampleDbta();
  const std::string bytes = DbtaBytesOf(d);
  Result<Dbta> back = DeserializeDbta(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(DbtaBytesOf(*back), bytes);
  EXPECT_EQ(back->num_states(), d.num_states());
  EXPECT_EQ(back->Next(1, 2, 1), d.Next(1, 2, 1));
}

TEST(SerializeTest, RejectsTruncationAndTrailingBytes) {
  const std::string nbta_bytes = NbtaBytesOf(SampleNbta(0x42));
  const std::string dbta_bytes = DbtaBytesOf(SampleDbta());

  EXPECT_FALSE(DeserializeNbta("").ok());
  EXPECT_FALSE(
      DeserializeNbta(std::string_view(nbta_bytes).substr(
          0, nbta_bytes.size() - 1)).ok());
  EXPECT_FALSE(DeserializeNbta(nbta_bytes + '\0').ok());

  EXPECT_FALSE(DeserializeDbta("").ok());
  EXPECT_FALSE(
      DeserializeDbta(std::string_view(dbta_bytes).substr(
          0, dbta_bytes.size() - 1)).ok());
  EXPECT_FALSE(DeserializeDbta(dbta_bytes + '\0').ok());
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

  // Dbta: an 8-byte header demanding ~2^64 table entries from an empty
  // payload, plus a shape whose num_symbols * num_states^2 product would
  // wrap 64-bit arithmetic if it were computed unchecked.
  Result<Dbta> huge_dims =
      DeserializeDbta(u32(0xffffffffu) + u32(0xffffffffu));
  ASSERT_FALSE(huge_dims.ok());
  EXPECT_EQ(huge_dims.status().code(), StatusCode::kParseError);
  Result<Dbta> wrapping =
      DeserializeDbta(u32(1u << 22) + u32(1u << 21) + std::string(64, '\0'));
  ASSERT_FALSE(wrapping.ok());
  EXPECT_EQ(wrapping.status().code(), StatusCode::kParseError);
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
  Result<Dbta> d1 = alg.Determinize(idx, sigma, &det_miss);
  Result<Dbta> d2 = alg.Determinize(idx, sigma, &det_hit);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(det_hit.counters.memo_hits, 1u);
  EXPECT_EQ(DbtaBytesOf(*d2), DbtaBytesOf(*d1));

  const Nbta b = SampleNbta(0x31338);
  const NbtaIndex bidx(b);
  TaOpContext int_miss = memo_ctx();
  TaOpContext int_hit = memo_ctx();
  const Nbta p1 = alg.Intersect(idx, bidx, &int_miss);
  const Nbta p2 = alg.Intersect(idx, bidx, &int_hit);
  EXPECT_EQ(int_hit.counters.memo_hits, 1u);
  EXPECT_EQ(NbtaBytesOf(p2), NbtaBytesOf(p1));
}

TEST(TaAlgebraTest, IncludedInMemoizesVerdictsAndWitnesses) {
  // Inclusion verdicts ride the Nbta payload (kIncludedIn encoding): a warm
  // "included" decodes from the empty-language automaton, a warm refutation
  // decodes the counterexample tree from its singleton automaton — and both
  // must match the cold result structurally.
  TaOpCache cache(8 << 20);
  const TaAlgebra alg(&cache);
  const RankedAlphabet sigma = DiffcheckAlphabet(false);

  auto memo_ctx = [] {
    TaOpContext ctx;
    ctx.budgets.memo = TaMemoMode::kInMemory;
    return ctx;
  };

  // Refuted pair: a random automaton vs. the empty language (any accepted
  // tree is a counterexample). Sample until the left side is non-empty.
  Nbta a = SampleNbta(0x4444);
  for (uint64_t seed = 0x4445; IsEmptyNbta(NbtaIndex(a)); ++seed) {
    a = SampleNbta(seed);
  }
  const NbtaIndex aidx(a);
  const Nbta none = EmptyLanguageNbta(sigma);
  const NbtaIndex nidx(none);

  TaOpContext miss_ctx = memo_ctx();
  auto cold = alg.IncludedIn(aidx, nidx, sigma, &miss_ctx);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->included);
  ASSERT_TRUE(cold->counterexample.has_value());
  EXPECT_EQ(miss_ctx.counters.memo_misses, 1u);

  TaOpContext hit_ctx = memo_ctx();
  auto warm = alg.IncludedIn(aidx, nidx, sigma, &hit_ctx);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(hit_ctx.counters.memo_hits, 1u);
  EXPECT_EQ(hit_ctx.counters.memo_misses, 0u);
  EXPECT_FALSE(warm->included);
  ASSERT_TRUE(warm->counterexample.has_value());
  EXPECT_TRUE(*warm->counterexample == *cold->counterexample);

  // Included pair: anything against the universal automaton.
  const Nbta uni = UniversalNbta(sigma);
  const NbtaIndex uidx(uni);
  TaOpContext inc_miss = memo_ctx();
  TaOpContext inc_hit = memo_ctx();
  auto inc1 = alg.IncludedIn(aidx, uidx, sigma, &inc_miss);
  auto inc2 = alg.IncludedIn(aidx, uidx, sigma, &inc_hit);
  ASSERT_TRUE(inc1.ok());
  ASSERT_TRUE(inc2.ok());
  EXPECT_EQ(inc_hit.counters.memo_hits, 1u);
  EXPECT_TRUE(inc1->included);
  EXPECT_TRUE(inc2->included);
  EXPECT_FALSE(inc2->counterexample.has_value());

  // Different pair budgets must not alias (the key carries the cap).
  TaOpContext small_cap = memo_ctx();
  small_cap.budgets.max_antichain_pairs = 12345;
  auto r3 = alg.IncludedIn(aidx, uidx, sigma, &small_cap);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(small_cap.counters.memo_hits, 0u);
  EXPECT_EQ(small_cap.counters.memo_misses, 1u);
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

// ------------------------------------------------------ persistence --------

class PersistenceTest : public ::testing::Test {
 protected:
  // A fresh directory per test; gtest's TempDir is stable across the run.
  std::string FreshDir(const std::string& leaf) {
    fs::path dir = fs::path(::testing::TempDir()) / "op_cache_test" / leaf;
    std::error_code ec;
    fs::remove_all(dir, ec);
    return dir.string();
  }

  std::vector<fs::path> EntryFiles(const std::string& dir) {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".ta") out.push_back(e.path());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void FlipByte(const fs::path& p, size_t offset) {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << p;
    f.seekg(0, std::ios::end);
    ASSERT_LT(offset, static_cast<size_t>(f.tellg())) << p;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c ^= 0x20;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
  }
};

TEST_F(PersistenceTest, RoundTripAcrossProcessesWorthOfCaches) {
  const std::string dir = FreshDir("roundtrip");
  const Nbta a = SampleNbta(0xaaaa);
  const Dbta d = SampleDbta();
  TaOpContext ctx;
  {
    TaOpCache writer(1 << 20);
    ASSERT_TRUE(writer.AttachPersistentDir(dir).ok());
    writer.InsertNbta(KeyFor(1), a, &ctx);
    writer.InsertDbta(KeyFor(2), d, &ctx);
    // Destructor flushes the manifest.
  }
  ASSERT_EQ(EntryFiles(dir).size(), 2u);

  TaOpCache reader(1 << 20);
  size_t loaded = 0, quarantined = 0;
  ASSERT_TRUE(reader.AttachPersistentDir(dir, &loaded, &quarantined).ok());
  EXPECT_EQ(loaded, 2u);
  EXPECT_EQ(quarantined, 0u);
  EXPECT_EQ(reader.entries(), 2u);

  std::shared_ptr<const Nbta> na = reader.FindNbta(KeyFor(1), &ctx);
  ASSERT_NE(na, nullptr);
  EXPECT_EQ(NbtaBytesOf(*na), NbtaBytesOf(a));
  std::shared_ptr<const Dbta> dd = reader.FindDbta(KeyFor(2), &ctx);
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(DbtaBytesOf(*dd), DbtaBytesOf(d));
}

TEST_F(PersistenceTest, CorruptEntriesAreQuarantinedNeverTrusted) {
  const std::string dir = FreshDir("quarantine");
  TaOpContext ctx;
  {
    TaOpCache writer(1 << 20);
    ASSERT_TRUE(writer.AttachPersistentDir(dir).ok());
    writer.InsertNbta(KeyFor(1), SampleNbta(0xbbb1), &ctx);
    writer.InsertNbta(KeyFor(2), SampleNbta(0xbbb2), &ctx);
    writer.InsertNbta(KeyFor(3), SampleNbta(0xbbb3), &ctx);
  }
  std::vector<fs::path> files = EntryFiles(dir);
  ASSERT_EQ(files.size(), 3u);

  // Entry layout (docs/FORMATS.md): magic+version (8 bytes), key (48 bytes),
  // kind/len/checksum (16 bytes), then the payload. Corrupt one file inside
  // the key region — caught because the filename is itself a hash of the key
  // — and another inside the payload — caught by the stored checksum.
  FlipByte(files[0], 16);
  FlipByte(files[1], 80);

  TaOpCache reader(1 << 20);
  size_t loaded = 0, quarantined = 0;
  ASSERT_TRUE(reader.AttachPersistentDir(dir, &loaded, &quarantined).ok());
  EXPECT_EQ(loaded, 1u);
  EXPECT_EQ(quarantined, 2u);
  EXPECT_EQ(reader.entries(), 1u);

  // The corrupt files were renamed aside, not deleted and not trusted.
  EXPECT_FALSE(fs::exists(files[0]));
  EXPECT_FALSE(fs::exists(files[1]));
  EXPECT_TRUE(fs::exists(files[0].string() + ".quarantined"));
  EXPECT_TRUE(fs::exists(files[1].string() + ".quarantined"));
  EXPECT_TRUE(fs::exists(files[2]));
}

TEST_F(PersistenceTest, WriteThroughKeepsWarmEntriesReloadable) {
  const std::string dir = FreshDir("write_through");
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = SampleNbta(0xcc01);
  const NbtaIndex idx(a);

  TaOpContext ctx;
  ctx.budgets.memo = TaMemoMode::kPersistent;

  std::string first_bytes;
  {
    TaOpCache cache(1 << 20);
    ASSERT_TRUE(cache.AttachPersistentDir(dir).ok());
    const TaAlgebra alg(&cache);
    Result<Nbta> r = alg.Complement(idx, sigma, &ctx);
    ASSERT_TRUE(r.ok());
    first_bytes = NbtaBytesOf(*r);
    EXPECT_EQ(ctx.counters.memo_misses, 1u);
  }

  // A second cache ("process") hits without recomputing.
  TaOpCache cache2(1 << 20);
  size_t loaded = 0;
  ASSERT_TRUE(cache2.AttachPersistentDir(dir, &loaded).ok());
  ASSERT_GE(loaded, 1u);
  const TaAlgebra alg2(&cache2);
  TaOpContext ctx2;
  ctx2.budgets.memo = TaMemoMode::kPersistent;
  Result<Nbta> r2 = alg2.Complement(idx, sigma, &ctx2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ctx2.counters.memo_hits, 1u);
  EXPECT_EQ(ctx2.counters.memo_misses, 0u);
  EXPECT_EQ(NbtaBytesOf(*r2), first_bytes);
}

}  // namespace
}  // namespace pebbletc
