#include "src/ta/antichain.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pebbletc {
namespace {

constexpr uint32_t kNoPair = static_cast<uint32_t>(-1);
constexpr uint64_t kNoKey = static_cast<uint64_t>(-1);

// One pair (q, S) — q a guide state, S an interned set id — plus the
// provenance that replays its witness tree: a leaf symbol (`left` is
// kNoPair), or a binary symbol over two earlier pair ids. Dominated pairs
// are marked dead, never removed, so surviving provenance chains stay valid.
struct Pair {
  StateId q = 0;
  uint32_t set = 0;
  SymbolId symbol = 0;
  uint32_t left = kNoPair;
  uint32_t right = kNoPair;
  bool dead = false;
};

uint64_t Mix(uint64_t h) {  // the MurmurHash3 finalizer
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

// Re-files an open-addressing table (linear probing, power-of-two size)
// into one twice its size; `hash` gives an entry's hash.
template <typename T, typename HashFn>
void Grow(std::vector<T>& slots, T empty, HashFn hash) {
  std::vector<T> old(2 * slots.size(), empty);
  old.swap(slots);
  const size_t mask = slots.size() - 1;
  for (T e : old) {
    if (e == empty) continue;
    size_t j = hash(e) & mask;
    while (slots[j] != empty) j = (j + 1) & mask;
    slots[j] = e;
  }
}

class Engine {
 public:
  Engine(const NbtaIndex& guide, const RankedAlphabet& alphabet,
         AntichainDomain& domain, TaOpContext* ctx)
      : guide_(guide),
        alphabet_(alphabet),
        domain_(domain),
        ctx_(ctx),
        max_pairs_(TaBudgetMaxAntichainPairs(ctx)),
        sets_(domain.words),
        pending_(sets_.words()),
        offered_(64, kNoKey),
        kept_(guide.num_states()),
        processed_(guide.num_states()) {}

  Result<std::optional<BinaryTree>> Run() {
    PEBBLETC_RETURN_IF_ERROR(SeedLeaves());
    if (bad_ != kNoPair) return Witness();
    const std::vector<Nbta::BinaryRule>& rules = guide_.nbta().rules;
    while (head_ < worklist_.size()) {
      const uint32_t p = worklist_[head_++];
      if (pairs_[p].dead) continue;
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
      const StateId q = pairs_[p].q;
      processed_[q].push_back(p);
      // Combine p with every processed live pair (itself included), in both
      // child orders, through the guide's rules on q: only pairs whose state
      // is the rule's other child can combine with p, so the work is per
      // rule rather than per processed pair.
      const auto as_left = guide_.RulesWithLeft(q);
      TaCountRules(ctx_, as_left.size());
      for (uint32_t i : as_left) {
        const Nbta::BinaryRule& rule = rules[i];
        for (uint32_t r : processed_[rule.right]) {
          if (pairs_[r].dead) continue;
          PEBBLETC_RETURN_IF_ERROR(Combine(rule, p, r));
          if (bad_ != kNoPair) return Witness();
        }
      }
      const auto as_right = guide_.RulesWithRight(q);
      TaCountRules(ctx_, as_right.size());
      for (uint32_t i : as_right) {
        const Nbta::BinaryRule& rule = rules[i];
        for (uint32_t l : processed_[rule.left]) {
          if (l == p || pairs_[l].dead) continue;  // (p, p) done above
          PEBBLETC_RETURN_IF_ERROR(Combine(rule, l, p));
          if (bad_ != kNoPair) return Witness();
        }
      }
    }
    // Frontier drained with no bad pair: every reachable (q, S) is dominated
    // by an explored one, and domination preserves badness, so none exists.
    // Only an uninterrupted search may say so (a guide without leaf rules
    // drains without ever checkpointing).
    PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx_));
    if (ctx_ != nullptr) ++ctx_->counters.inclusions;
    return std::optional<BinaryTree>();
  }

 private:
  // One pair per (leaf symbol, distinct guide target), with the symbol's
  // leaf set: the exact summary of the one-node tree.
  Status SeedLeaves() {
    std::vector<bool> seen(guide_.num_states(), false);
    std::vector<StateId> targets;
    for (SymbolId c : alphabet_.LeafSymbols()) {
      const auto row = guide_.LeafTargets(c);
      if (row.empty()) continue;
      std::fill(pending_.begin(), pending_.end(), 0);
      PEBBLETC_RETURN_IF_ERROR(domain_.Leaf(c, pending_.data()));
      const uint32_t set = Intern();
      targets.clear();
      for (StateId q : row) {
        if (!seen[q]) {
          seen[q] = true;
          targets.push_back(q);
        }
      }
      for (StateId q : targets) seen[q] = false;
      for (StateId q : targets) {
        PEBBLETC_RETURN_IF_ERROR(Offer(q, set, c, kNoPair, kNoPair));
        if (bad_ != kNoPair) return Status::OK();
      }
    }
    return Status::OK();
  }

  // Offers (rule.to, Post(rule.symbol, S_l, S_r)); Post is memoized per
  // (symbol, left set, right set) — set ids are canonical.
  Status Combine(const Nbta::BinaryRule& rule, uint32_t lp, uint32_t rp) {
    const uint32_t sl = pairs_[lp].set;
    const uint32_t sr = pairs_[rp].set;
    if (post_memo_.size() <= rule.symbol) post_memo_.resize(rule.symbol + 1);
    auto [it, fresh] = post_memo_[rule.symbol].try_emplace(
        (static_cast<uint64_t>(sl) << 32) | sr);
    if (fresh) {
      std::fill(pending_.begin(), pending_.end(), 0);
      PEBBLETC_RETURN_IF_ERROR(domain_.Post(rule.symbol, sets_.Set(sl),
                                            sets_.Set(sr), pending_.data()));
      it->second = Intern();
    }
    return Offer(rule.to, it->second, rule.symbol, lp, rp);
  }

  // Interns pending_, testing a new set once for badness.
  uint32_t Intern() {
    const uint32_t id = sets_.Intern(pending_.data());
    if (id == bad_set_.size()) bad_set_.push_back(domain_.Bad(sets_.Set(id)));
    return id;
  }

  // Records an offered (q << 32 | set) key: open addressing, load ≤ 1/2.
  // False when the key was already there.
  bool FirstOffer(uint64_t key) {
    const size_t mask = offered_.size() - 1;
    size_t i = Mix(key) & mask;
    for (; offered_[i] != kNoKey; i = (i + 1) & mask) {
      if (offered_[i] == key) return false;
    }
    offered_[i] = key;
    if (2 * ++num_offered_ > offered_.size()) Grow(offered_, kNoKey, Mix);
    return true;
  }

  bool SubsetOf(uint32_t a, uint32_t b) const {
    const uint64_t* wa = sets_.Set(a);
    const uint64_t* wb = sets_.Set(b);
    for (size_t i = 0; i < sets_.words(); ++i) {
      if ((wa[i] & ~wb[i]) != 0) return false;
    }
    return true;
  }

  // Whether a pair with set `a` makes a pair with set `b` (same guide
  // state) redundant.
  bool Dominates(uint32_t a, uint32_t b) const {
    return domain_.closure == AntichainClosure::kSubsets ? SubsetOf(a, b)
                                                         : SubsetOf(b, a);
  }

  // Offers a candidate pair (q, S): prune it if a kept pair of q dominates
  // it, else retire the kept pairs it dominates, intern it, test it, and
  // enqueue it. Sets bad_ when the pair refutes.
  Status Offer(StateId q, uint32_t set, SymbolId symbol, uint32_t lp,
               uint32_t rp) {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
    // A repeat is pruned without a scan: whatever pruned or kept (q, S)
    // before, it or a pair dominating it is still kept. Most offers are
    // repeats — the combine meets the same sets again and again.
    if (!FirstOffer((static_cast<uint64_t>(q) << 32) | set)) {
      if (ctx_ != nullptr) ++ctx_->counters.incl_pairs_pruned;
      return Status::OK();
    }
    std::vector<uint32_t>& anti = kept_[q];
    for (uint32_t k : anti) {
      if (Dominates(pairs_[k].set, set)) {
        if (ctx_ != nullptr) ++ctx_->counters.incl_pairs_pruned;
        return Status::OK();
      }
    }
    std::erase_if(anti, [&](uint32_t k) {
      if (!Dominates(set, pairs_[k].set)) return false;
      pairs_[k].dead = true;
      return true;
    });
    PEBBLETC_RETURN_IF_ERROR(TaOpContext::CheckBudget(
        pairs_.size() + 1, max_pairs_, "antichain pairs"));
    const uint32_t id = static_cast<uint32_t>(pairs_.size());
    pairs_.push_back({q, set, symbol, lp, rp, false});
    if (ctx_ != nullptr) ++ctx_->counters.incl_pairs_interned;
    if (guide_.nbta().accepting[q] && bad_set_[set]) {
      bad_ = id;
      return Status::OK();
    }
    anti.push_back(id);
    worklist_.push_back(id);
    return Status::OK();
  }

  // Replays bad_'s provenance chain into a tree. Iterative (chains can be
  // deep) and checkpointed per node (shared provenance is duplicated, so
  // the tree can be much larger than the pair arena).
  Result<std::optional<BinaryTree>> Witness() {
    struct Frame {
      uint32_t pair;
      int stage = 0;
      NodeId child[2] = {kNoNode, kNoNode};
    };
    BinaryTree t;
    NodeId root = kNoNode;
    std::vector<Frame> stack;
    stack.push_back({bad_});
    auto deliver = [&](NodeId n) {
      stack.pop_back();
      if (stack.empty()) {
        root = n;
      } else {
        Frame& parent = stack.back();
        parent.child[parent.stage - 1] = n;
      }
    };
    while (!stack.empty()) {
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
      Frame& f = stack.back();
      const Pair& pr = pairs_[f.pair];
      if (pr.left == kNoPair) {
        deliver(t.AddLeaf(pr.symbol));
      } else if (f.stage == 0) {
        f.stage = 1;
        stack.push_back({pr.left});
      } else if (f.stage == 1) {
        f.stage = 2;
        stack.push_back({pr.right});
      } else {
        deliver(t.AddInternal(pr.symbol, f.child[0], f.child[1]));
      }
    }
    t.SetRoot(root);
    if (ctx_ != nullptr) ++ctx_->counters.inclusions;
    return std::optional<BinaryTree>(std::move(t));
  }

  const NbtaIndex& guide_;
  const RankedAlphabet& alphabet_;
  AntichainDomain& domain_;
  TaOpContext* ctx_;
  const size_t max_pairs_;

  PackedSetTable sets_;
  std::vector<bool> bad_set_;      // per interned set: whether it is bad
  std::vector<uint64_t> pending_;  // the set being computed
  // Per binary symbol: (left set << 32 | right set) → Post set id.
  std::vector<std::unordered_map<uint64_t, uint32_t>> post_memo_;

  std::vector<Pair> pairs_;
  std::vector<uint64_t> offered_;  // (q << 32 | set) ever offered, hashed
  size_t num_offered_ = 0;
  std::vector<std::vector<uint32_t>> kept_;  // live antichain per guide state
  std::vector<uint32_t> worklist_;           // FIFO; head_ is the cursor
  size_t head_ = 0;
  std::vector<std::vector<uint32_t>> processed_;  // popped pairs per state
  uint32_t bad_ = kNoPair;
};

}  // namespace

Result<std::optional<BinaryTree>> SearchAntichain(
    const NbtaIndex& guide, const RankedAlphabet& alphabet,
    AntichainDomain& domain, TaOpContext* ctx) {
  return Engine(guide, alphabet, domain, ctx).Run();
}

}  // namespace pebbletc
