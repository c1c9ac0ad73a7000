// Content-addressed memoization for the tree-automaton algebra.
//
// At service scale the same algebra subexpressions recur constantly —
// complement(τ2) is shared by every transducer checked against one output
// schema, and the determinized forms of popular schemas are recomputed per
// request — yet each call into DeterminizeNbta / ComplementNbta /
// IntersectNbta historically started cold. This layer gives every expensive
// op one dispatch path (the TaAlgebra facade):
//
//   canonicalize the operands  →  structural hash (order-independent and
//   rename-invariant: the operand is trimmed and states are renumbered by a
//   refinement coloring, so two constructions of one automaton that number
//   its states or list its rules differently share one cache entry)  →
//   probe a bounded, in-process content-addressed cache keyed by (op,
//   operand hashes, relevant budget caps)  →  compute on miss under the
//   existing TaOpContext discipline  →  insert with size-aware LRU eviction.
//
// Hit/miss/evict/byte counters fold into TaOpContext exactly like the timing
// counters. The cache is opt-in per context (TaOpBudgets::memo); a context
// carrying a fault injector is always served cold, so injection ordinals and
// unwind paths stay deterministic. Entries live only as long as the process.
// Keying rules, canonicalization invariants, and the eviction policy are
// specified in docs/CACHING.md; the diffcheck oracle arbitrates the cache
// with cached-vs-cold laws like every other optimization.

#ifndef PEBBLETC_TA_OP_CACHE_H_
#define PEBBLETC_TA_OP_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"

namespace pebbletc {

class NbtaIndex;

/// A 128-bit structural fingerprint of an automaton. Equal fingerprints are
/// treated as equal content by the cache (the content-addressed contract —
/// the same trust git places in its object hashes).
struct TaStructuralHash {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const TaStructuralHash&) const = default;
};

/// Rename-invariant, order-independent fingerprint of inst-relevant
/// structure: the automaton is trimmed, states are colored by an iterated
/// refinement over the rule hypergraph (Weisfeiler–Leman style), and the
/// final hash combines per-state colors and per-rule color signatures as
/// sorted, deduplicated multisets. Invariants (docs/CACHING.md):
///   * permuting states or reordering rule lists never changes the hash;
///   * duplicate rules never change the hash (one language may be built
///     with different rule multiplicities);
///   * adding/removing dead states never changes the hash (trim first).
TaStructuralHash NbtaStructuralHash(const Nbta& a);

/// Fingerprint of a deterministic complete automaton. DBTAs reaching the
/// cache come from the subset construction, whose numbering is already
/// canonical for fixed input, so this hashes the exact representation
/// (cheaper, collision-free across distinct tables).
TaStructuralHash DbtaStructuralHash(const Dbta& d);

/// Promotes an externally computed 64-bit fingerprint (e.g. of a transducer)
/// to a key operand.
TaStructuralHash TaFingerprintHash(uint64_t fingerprint);

/// Fingerprint of the rank structure of `sigma` (symbol names are semantic-
/// free ids; only the leaf/binary partition affects op results).
uint64_t RankedAlphabetFingerprint(const RankedAlphabet& sigma);

/// The cacheable operations, as key discriminants. kPipelineOffending is a
/// composite artifact: the typechecker's pass-2 offending product, keyed on
/// the *input* hashes (τ1, τ2, transducer) so a warm repeat decision skips
/// the whole complement/determinize/product chain — including the structural
/// hashing of the large intermediate automata. Values 4, 7 and 8 are unused.
enum class TaOpKind : uint64_t {
  kDeterminize = 1,
  kComplement = 2,
  kIntersect = 3,
  kDownwardProduct = 5,
  kPipelineOffending = 6,
};

/// A complete cache key: op, both operand fingerprints (b zero for unary
/// ops), and `extra` mixing the alphabet fingerprint with every budget cap
/// the op's success depends on — same operands under different caps must not
/// alias (a success under a small cap is replayable under a larger one, but
/// not vice versa).
struct TaCacheKey {
  uint64_t op = 0;
  TaStructuralHash a;
  TaStructuralHash b;
  uint64_t extra = 0;
  bool operator==(const TaCacheKey&) const = default;
};

TaCacheKey MakeTaCacheKey(TaOpKind op, const TaStructuralHash& a,
                          const TaStructuralHash& b, uint64_t alphabet_fp,
                          uint64_t budget_cap);

/// Order-dependent combiner for folding several fingerprints / budget caps
/// into one key operand (e.g. the composite pipeline key mixes both alphabet
/// fingerprints, the transducer fingerprint, and two budget caps).
uint64_t TaMixFingerprints(uint64_t a, uint64_t b);

/// A bounded, thread-safe, content-addressed store of computed automata.
/// Size-aware LRU: entries are charged their payload byte size and the
/// least-recently-used entries are evicted until the total fits the
/// capacity. One process-wide instance (Global()) backs the TaAlgebra
/// facade by default; tests and benchmarks may run private instances.
class TaOpCache {
 public:
  static constexpr size_t kDefaultCapacityBytes = 64ull << 20;

  explicit TaOpCache(size_t capacity_bytes = kDefaultCapacityBytes);

  TaOpCache(const TaOpCache&) = delete;
  TaOpCache& operator=(const TaOpCache&) = delete;

  /// The process-wide cache.
  static TaOpCache& Global();

  /// Lookup. A hit refreshes recency and bumps ctx->counters.memo_hits; a
  /// miss bumps memo_misses. Payload type must match the key's op (an
  /// entry of the other type is a miss).
  std::shared_ptr<const Nbta> FindNbta(const TaCacheKey& key,
                                       TaOpContext* ctx);
  std::shared_ptr<const Dbta> FindDbta(const TaCacheKey& key,
                                       TaOpContext* ctx);

  /// Insert (idempotent: re-inserting an existing key only refreshes
  /// recency). Bumps memo_bytes by the payload size and memo_evictions per
  /// entry displaced. InsertDbta shares `value` rather than copying it.
  void InsertNbta(const TaCacheKey& key, const Nbta& value, TaOpContext* ctx);
  void InsertDbta(const TaCacheKey& key, std::shared_ptr<const Dbta> value,
                  TaOpContext* ctx);

  /// Shrinking the capacity evicts (oldest-first) until the contents fit.
  void set_capacity_bytes(size_t bytes);
  size_t capacity_bytes() const;
  size_t size_bytes() const;
  size_t entries() const;

  /// Drops every entry.
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const Nbta> nbta;  // exactly one of the two is set
    std::shared_ptr<const Dbta> dbta;
    size_t bytes = 0;
    std::list<TaCacheKey>::iterator lru_it;
  };
  struct KeyHash {
    size_t operator()(const TaCacheKey& k) const;
  };

  // All private helpers assume mu_ is held.
  void Touch(Entry& e);
  void EvictToFitLocked(size_t incoming_bytes, TaOpContext* ctx);
  void InsertLocked(const TaCacheKey& key, Entry entry, TaOpContext* ctx);

  mutable std::mutex mu_;
  size_t capacity_bytes_;
  size_t size_bytes_ = 0;
  std::list<TaCacheKey> lru_;  // front = most recent
  std::unordered_map<TaCacheKey, Entry, KeyHash> map_;
};

/// The unified op-dispatch facade: every expensive algebra op runs through
/// one of these methods, which consult the cache when the context opts in
/// (TaOpBudgets::memo != kOff and no fault injector) and fall through to the
/// underlying operation otherwise — bit-for-bit the legacy behavior,
/// including when `ctx` is null. Results inserted into the cache are always
/// complete (never taken from an interrupted context).
class TaAlgebra {
 public:
  /// `cache` null means the process-wide TaOpCache::Global().
  explicit TaAlgebra(TaOpCache* cache = nullptr);

  /// True when ops on `ctx` are served through the cache.
  static bool Enabled(const TaOpContext* ctx);

  /// Determinizes `a` into its complete DBTA. A warm hit hands back the
  /// cached table by shared_ptr with no copy, which is what lets a serving
  /// batch reuse one compiled run table (docs/VALIDATION.md) across thousands
  /// of documents and typecheck pass 2 reuse one determinized ¬τ2.
  Result<std::shared_ptr<const Dbta>> Determinize(const NbtaIndex& a,
                                                  const RankedAlphabet& sigma,
                                                  TaOpContext* ctx) const;
  Result<Nbta> Complement(const NbtaIndex& a, const RankedAlphabet& sigma,
                          TaOpContext* ctx) const;
  Nbta Intersect(const NbtaIndex& a, const NbtaIndex& b,
                 TaOpContext* ctx) const;

  TaOpCache* cache() const { return cache_; }

 private:
  TaOpCache* cache_;
};

}  // namespace pebbletc

#endif  // PEBBLETC_TA_OP_CACHE_H_
