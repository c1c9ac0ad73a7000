#include "src/ta/op_cache.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace pebbletc {

namespace {

// splitmix64 finalizer, the bit mixer diffcheck's MixSeed uses too.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t MixPair(uint64_t a, uint64_t b) { return Mix64(a ^ Mix64(b)); }

// Order-sensitive accumulation of a word stream into one 64-bit value; run
// with two different seeds for the two fingerprint halves.
inline uint64_t Chain(uint64_t acc, uint64_t v) {
  return (acc ^ Mix64(v)) * 1099511628211ull;
}

size_t CountDistinct(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return static_cast<size_t>(std::unique(v.begin(), v.end()) - v.begin());
}

TaStructuralHash FinishHash(const std::vector<uint64_t>& words) {
  uint64_t lo = 1469598103934665603ull;
  uint64_t hi = 0x8e4c6fcc2c1e8f3dull;
  for (uint64_t w : words) {
    lo = Chain(lo, w);
    hi = Chain(hi, w ^ 0x5bd1e9955bd1e995ull);
  }
  return {lo, hi};
}

}  // namespace

TaStructuralHash NbtaStructuralHash(const Nbta& input) {
  // Canonicalize: drop dead states, then work on deduplicated rule *sets* —
  // two constructions of one automaton may list its rules in different
  // orders and multiplicities, and neither may split cache entries.
  const Nbta a = TrimNbta(input);
  std::vector<Nbta::LeafRule> leaf(a.leaf_rules);
  std::sort(leaf.begin(), leaf.end(), [](const auto& x, const auto& y) {
    return std::pair(x.symbol, x.to) < std::pair(y.symbol, y.to);
  });
  leaf.erase(std::unique(leaf.begin(), leaf.end(),
                         [](const auto& x, const auto& y) {
                           return x.symbol == y.symbol && x.to == y.to;
                         }),
             leaf.end());
  std::vector<Nbta::BinaryRule> rules(a.rules);
  auto rule_tuple = [](const Nbta::BinaryRule& r) {
    return std::tuple(r.symbol, r.left, r.right, r.to);
  };
  std::sort(rules.begin(), rules.end(), [&](const auto& x, const auto& y) {
    return rule_tuple(x) < rule_tuple(y);
  });
  rules.erase(std::unique(rules.begin(), rules.end(),
                          [&](const auto& x, const auto& y) {
                            return rule_tuple(x) == rule_tuple(y);
                          }),
              rules.end());

  // Refinement coloring (Weisfeiler–Leman over the rule hypergraph): a
  // state's next color mixes its own color with the commutative sum of the
  // color signatures of every rule it participates in, per role. The
  // partition only refines round over round, so an unchanged distinct-color
  // count means it is stable.
  const uint32_t n = a.num_states;
  std::vector<uint64_t> color(n), next(n);
  for (uint32_t q = 0; q < n; ++q) {
    color[q] = Mix64(a.accepting[q] ? 0xACCE97ull : 0x2E7EC7ull);
  }
  size_t distinct = CountDistinct(color);
  for (uint32_t round = 0; round < n; ++round) {
    for (uint32_t q = 0; q < n; ++q) next[q] = Mix64(color[q]);
    for (const Nbta::LeafRule& r : leaf) {
      next[r.to] += MixPair(0xA1, r.symbol);
    }
    for (const Nbta::BinaryRule& r : rules) {
      const uint64_t cl = color[r.left], cr = color[r.right],
                     ct = color[r.to];
      next[r.to] += Mix64(0xB1 ^ MixPair(MixPair(r.symbol, cl), cr));
      next[r.left] += Mix64(0xB2 ^ MixPair(MixPair(r.symbol, cr), ct));
      next[r.right] += Mix64(0xB3 ^ MixPair(MixPair(r.symbol, cl), ct));
    }
    color.swap(next);
    const size_t d = CountDistinct(color);
    if (d == distinct) break;
    distinct = d;
  }

  // Combine as sorted multisets so state numbering and rule order are
  // irrelevant: shape header, per-state final colors, accepting colors, and
  // per-rule color signatures.
  std::vector<uint64_t> words;
  words.reserve(2 * n + leaf.size() + rules.size() + 8);
  words.push_back(0x7067636d656d6f31ull);  // format tag
  words.push_back(n);
  words.push_back(a.num_symbols);
  words.push_back(leaf.size());
  words.push_back(rules.size());
  std::vector<uint64_t> sorted;
  sorted.assign(color.begin(), color.end());
  std::sort(sorted.begin(), sorted.end());
  words.insert(words.end(), sorted.begin(), sorted.end());
  sorted.clear();
  for (uint32_t q = 0; q < n; ++q) {
    if (a.accepting[q]) sorted.push_back(color[q]);
  }
  std::sort(sorted.begin(), sorted.end());
  words.push_back(0xACCE7ull + sorted.size());
  words.insert(words.end(), sorted.begin(), sorted.end());
  sorted.clear();
  for (const Nbta::LeafRule& r : leaf) {
    sorted.push_back(MixPair(MixPair(0xC1, r.symbol), color[r.to]));
  }
  for (const Nbta::BinaryRule& r : rules) {
    sorted.push_back(MixPair(
        MixPair(MixPair(MixPair(0xC2, r.symbol), color[r.left]),
                color[r.right]),
        color[r.to]));
  }
  std::sort(sorted.begin(), sorted.end());
  words.insert(words.end(), sorted.begin(), sorted.end());
  return FinishHash(words);
}

uint64_t RankedAlphabetFingerprint(const RankedAlphabet& sigma) {
  uint64_t h = Mix64(sigma.size());
  for (SymbolId s = 0; s < sigma.size(); ++s) {
    h = Chain(h, static_cast<uint64_t>(sigma.Rank(s)));
  }
  return h;
}

TaCacheKey MakeTaCacheKey(TaOpKind op, const TaStructuralHash& a,
                          const TaStructuralHash& b, uint64_t alphabet_fp,
                          uint64_t budget_cap) {
  TaCacheKey key;
  key.op = static_cast<uint64_t>(op);
  key.a = a;
  key.b = b;
  key.extra = MixPair(alphabet_fp, budget_cap);
  return key;
}

uint64_t TaMixFingerprints(uint64_t a, uint64_t b) { return MixPair(a, b); }

size_t TaOpCache::KeyHash::operator()(const TaCacheKey& k) const {
  uint64_t h = Mix64(k.op);
  h = Chain(h, k.a.lo);
  h = Chain(h, k.a.hi);
  h = Chain(h, k.b.lo);
  h = Chain(h, k.b.hi);
  h = Chain(h, k.extra);
  return static_cast<size_t>(h);
}

TaOpCache::TaOpCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

TaOpCache& TaOpCache::Global() {
  static TaOpCache* cache = new TaOpCache();
  return *cache;
}

void TaOpCache::Touch(Entry& e) {
  lru_.splice(lru_.begin(), lru_, e.lru_it);
}

bool TaOpCache::FindProof(const TaCacheKey& key, TaOpContext* ctx) {
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.dbta == nullptr) {
      Touch(it->second);
      hit = true;
    }
  }
  if (ctx != nullptr) {
    (hit ? ctx->counters.memo_hits : ctx->counters.memo_misses)++;
  }
  return hit;
}

std::shared_ptr<const Dbta> TaOpCache::FindDbta(const TaCacheKey& key,
                                                TaOpContext* ctx) {
  std::shared_ptr<const Dbta> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.dbta != nullptr) {
      Touch(it->second);
      out = it->second.dbta;
    }
  }
  if (ctx != nullptr) {
    (out != nullptr ? ctx->counters.memo_hits : ctx->counters.memo_misses)++;
  }
  return out;
}

void TaOpCache::EvictToFitLocked(size_t incoming_bytes, TaOpContext* ctx) {
  while (!lru_.empty() && size_bytes_ + incoming_bytes > capacity_bytes_) {
    const TaCacheKey victim = lru_.back();
    auto it = map_.find(victim);
    size_bytes_ -= it->second.bytes;
    lru_.pop_back();
    map_.erase(it);
    if (ctx != nullptr) ctx->counters.memo_evictions++;
  }
}

void TaOpCache::InsertLocked(const TaCacheKey& key, Entry entry,
                             TaOpContext* ctx) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    Touch(it->second);
    return;
  }
  // An entry bigger than the whole cache would evict everything for nothing.
  if (entry.bytes > capacity_bytes_) return;
  EvictToFitLocked(entry.bytes, ctx);
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  size_bytes_ += entry.bytes;
  if (ctx != nullptr) ctx->counters.memo_bytes += entry.bytes;
  map_.emplace(key, std::move(entry));
}

namespace {

size_t DbtaBytes(const Dbta& d) {
  return sizeof(Dbta) + d.num_states() / 8 +
         (static_cast<size_t>(d.num_symbols()) * d.num_states() *
              d.num_states() +
          d.num_symbols()) *
             sizeof(StateId);
}

}  // namespace

void TaOpCache::InsertProof(const TaCacheKey& key, TaOpContext* ctx) {
  Entry e;
  e.bytes = kProofBytes;
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(e), ctx);
}

void TaOpCache::InsertDbta(const TaCacheKey& key,
                           std::shared_ptr<const Dbta> value,
                           TaOpContext* ctx) {
  Entry e;
  e.bytes = DbtaBytes(*value);
  e.dbta = std::move(value);
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(e), ctx);
}

void TaOpCache::set_capacity_bytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_bytes_ = bytes;
  EvictToFitLocked(0, nullptr);
}

size_t TaOpCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_bytes_;
}

size_t TaOpCache::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_bytes_;
}

size_t TaOpCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void TaOpCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  size_bytes_ = 0;
}

bool TaMemoEnabled(const TaOpContext* ctx) {
  return ctx != nullptr && ctx->budgets.memo != TaMemoMode::kOff &&
         ctx->fault == nullptr;
}

}  // namespace pebbletc
