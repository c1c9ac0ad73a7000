// Content-addressed memoization of two facts the service repeats.
//
// A typecheck service sees the same (transducer, τ1, τ2) triples and the same
// validation schemas over and over, so the cache holds exactly two kinds of
// entry (docs/CACHING.md):
//
//   * kDeterminize — a schema's compiled DBTA, probed and inserted by
//     MembershipEngine::Compile, so every validation plan after the first
//     for one schema shares one run table;
//   * kDownwardProof — the proof that a downward triple typechecks, probed
//     and inserted by Typechecker::Typecheck, so a warm repeat decision
//     hashes two small input automata and returns.
//
// Every intermediate of the decision (the complement of τ2, the downward
// search's sets, the intersections) is computed cold: a census of a serving
// run found those entries held 10 MB and took 3 hits, against thousands of
// warm repeats served by the whole decision.
//
// Keys are structural: operands are trimmed and states renumbered by a
// refinement coloring, so two constructions of one automaton that number
// its states or list its rules differently share one entry. The store is a
// bounded, in-process, size-aware LRU. Hit/miss/evict/byte counters fold
// into TaOpContext like the timing counters. Memoization is opt-in per
// context (TaOpBudgets::memo), and a context carrying a fault injector is
// always served cold, so injection ordinals and unwind paths stay
// deterministic. The diffcheck oracle arbitrates the cache with
// cached-vs-cold laws like every other optimization.

#ifndef PEBBLETC_TA_OP_CACHE_H_
#define PEBBLETC_TA_OP_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/alphabet/alphabet.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"

namespace pebbletc {

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

/// Fingerprint of the rank structure of `sigma` (symbol names are semantic-
/// free ids; only the leaf/binary partition affects op results).
uint64_t RankedAlphabetFingerprint(const RankedAlphabet& sigma);

/// The cached facts, as key discriminants. kDownwardProof records that pass
/// 2 proved a downward (τ1, τ2, transducer) triple typechecks; it is keyed
/// on the *input* hashes and has no payload. Values 2, 3, 4, 5, 7 and 8 are
/// unused.
enum class TaOpKind : uint64_t {
  kDeterminize = 1,
  kDownwardProof = 6,
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
/// into one key operand (e.g. the proof key mixes both alphabet
/// fingerprints, the transducer fingerprint, and two budget caps).
uint64_t TaMixFingerprints(uint64_t a, uint64_t b);

/// A bounded, thread-safe, content-addressed store of DBTAs and proof
/// records. Size-aware LRU: a DBTA is charged its table's byte size, a proof
/// record a fixed kProofBytes, and the least-recently-used entries are
/// evicted until the total fits the capacity. One process-wide instance
/// (Global()) serves the daemon and every caller that passes no cache; tests
/// and benchmarks may run private instances.
class TaOpCache {
 public:
  static constexpr size_t kDefaultCapacityBytes = 64ull << 20;
  /// What a proof record is charged, so proofs count against the capacity.
  static constexpr size_t kProofBytes = 96;

  explicit TaOpCache(size_t capacity_bytes = kDefaultCapacityBytes);

  TaOpCache(const TaOpCache&) = delete;
  TaOpCache& operator=(const TaOpCache&) = delete;

  /// The process-wide cache.
  static TaOpCache& Global();

  /// Lookup. A hit refreshes recency and bumps ctx->counters.memo_hits; a
  /// miss bumps memo_misses. The entry kind must match (a DBTA entry is a
  /// miss for FindProof, a proof record a miss for FindDbta).
  bool FindProof(const TaCacheKey& key, TaOpContext* ctx);
  std::shared_ptr<const Dbta> FindDbta(const TaCacheKey& key,
                                       TaOpContext* ctx);

  /// Insert (idempotent: re-inserting an existing key only refreshes
  /// recency). Bumps memo_bytes by the entry's charge and memo_evictions per
  /// entry displaced. InsertDbta shares `value` rather than copying it.
  void InsertProof(const TaCacheKey& key, TaOpContext* ctx);
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
    std::shared_ptr<const Dbta> dbta;  // null for a proof record
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

/// True when `ctx` opts into the cache: memo on and no fault injector. A
/// null context is always served cold.
bool TaMemoEnabled(const TaOpContext* ctx);

}  // namespace pebbletc

#endif  // PEBBLETC_TA_OP_CACHE_H_
