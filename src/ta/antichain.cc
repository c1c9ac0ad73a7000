#include "src/ta/antichain.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace pebbletc {
namespace {

// No pair. It is kNoNode, so AppendTree reads a leaf pair's kNoPair
// children as a leaf.
constexpr uint32_t kNoPair = kNoNode;

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
  // (left set, right set, symbol) — set ids are canonical.
  Status Combine(const Nbta::BinaryRule& rule, uint32_t lp, uint32_t rp) {
    const uint32_t sl = pairs_[lp].set;
    const uint32_t sr = pairs_[rp].set;
    const uint64_t key[2] = {(static_cast<uint64_t>(sl) << 32) | sr,
                             rule.symbol};
    const uint32_t k = post_keys_.Intern<2>(key);
    if (k == post_sets_.size()) {
      std::fill(pending_.begin(), pending_.end(), 0);
      PEBBLETC_RETURN_IF_ERROR(domain_.Post(rule.symbol, sets_.Set(sl),
                                            sets_.Set(sr), pending_.data()));
      post_sets_.push_back(Intern());
    }
    return Offer(rule.to, post_sets_[k], rule.symbol, lp, rp);
  }

  // Interns pending_, testing a new set once for badness.
  uint32_t Intern() {
    const uint32_t id = sets_.Intern(pending_.data());
    if (id == bad_set_.size()) bad_set_.push_back(domain_.Bad(sets_.Set(id)));
    return id;
  }

  // Records an offered (q << 32 | set) key; false when it was already there.
  bool FirstOffer(uint64_t key) {
    const uint32_t before = offered_.size();
    return offered_.Intern<1>(&key) == before;
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

  // Replays bad_'s provenance chain into a tree, checkpointed per visit
  // (shared provenance is duplicated, so the tree can be much larger than
  // the pair arena).
  Result<std::optional<BinaryTree>> Witness() {
    BinaryTree t;
    PEBBLETC_ASSIGN_OR_RETURN(
        const NodeId root,
        AppendTree(
            t, bad_,
            [&](uint32_t p) {
              const Pair& pr = pairs_[p];
              return TreeNodeRef{pr.symbol, pr.left, pr.right};
            },
            [&] { return TaCheckpoint(ctx_); }));
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
  // The Post memo: key k = (left set << 32 | right set, symbol) has Post
  // set id post_sets_[k].
  PackedSetTable post_keys_{2};
  std::vector<uint32_t> post_sets_;

  std::vector<Pair> pairs_;
  PackedSetTable offered_{1};  // (q << 32 | set) ever offered
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
