#include "src/core/downward.h"

#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/ta/inclusion.h"

namespace pebbletc {

bool IsDownwardTransducer(const PebbleTransducer& t) {
  if (t.max_pebbles() != 1) return false;
  using M = PebbleTransducer::MoveKind;
  for (const auto& tr : t.transitions()) {
    if (tr.kind != PebbleTransducer::TransitionKind::kMove) continue;
    if (tr.move != M::kStay && tr.move != M::kDownLeft &&
        tr.move != M::kDownRight) {
      return false;
    }
  }
  return true;
}

uint64_t TransducerFingerprint(const PebbleTransducer& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(t.num_states());
  mix(t.start());
  mix(t.num_input_symbols());
  mix(t.num_output_symbols());
  mix(t.max_pebbles());
  for (const auto& tr : t.transitions()) {
    mix(static_cast<uint64_t>(tr.kind));
    mix(tr.guard.symbol);
    mix(tr.guard.presence_mask);
    mix(tr.guard.presence_value);
    mix(tr.from);
    mix(static_cast<uint64_t>(tr.move));
    mix(tr.to);
    mix(tr.output_symbol);
    mix(tr.out_left);
    mix(tr.out_right);
  }
  return h;
}

namespace {

constexpr uint32_t kNoSet = static_cast<uint32_t>(-1);

using Words = std::vector<uint64_t>;

struct WordsHash {
  size_t operator()(const Words& w) const {
    uint64_t h = 1469598103934665603ull;
    for (uint64_t v : w) h = (h ^ v) * 1099511628211ull;
    return static_cast<size_t>(h);
  }
};

// The transducer's rules, indexed once per input symbol `a` (guards are
// symbol-only in the downward fragment). Seeds fire without looking at the
// node's own set: leaf outputs, and down-moves that copy a child's row.
// Triggers fire when a pair (q, d) enters the node's set, and are filed
// under q: a stay move to q, or a binary output with q as one of its two
// children (`other` is the sibling state).
class RuleIndex {
 public:
  enum class Kind : uint8_t { kStay, kOutLeft, kOutRight };
  struct Trigger {
    Kind kind;
    StateId from;
    SymbolId out;
    StateId other;
  };
  struct Edge {
    StateId from;
    StateId to;
  };

  RuleIndex(const PebbleTransducer& t, const Dbta& d)
      : nt_(t.num_states()),
        leaf_out_(t.num_input_symbols()),
        down_left_(t.num_input_symbols()),
        down_right_(t.num_input_symbols()),
        trigger_begin_(static_cast<size_t>(t.num_input_symbols()) * nt_ + 1,
                       0) {
    using M = PebbleTransducer::MoveKind;
    using TK = PebbleTransducer::TransitionKind;
    std::vector<std::pair<size_t, Trigger>> filed;  // (bucket, trigger)
    for (const auto& tr : t.transitions()) {
      for (SymbolId a = 0; a < t.num_input_symbols(); ++a) {
        if (tr.guard.symbol != kAnySymbol && tr.guard.symbol != a) continue;
        auto bucket = [&](StateId q) {
          return static_cast<size_t>(a) * nt_ + q;
        };
        switch (tr.kind) {
          case TK::kOutputLeaf:
            leaf_out_[a].push_back({tr.from, d.LeafState(tr.output_symbol)});
            break;
          case TK::kOutputBinary:
            filed.push_back({bucket(tr.out_left),
                             {Kind::kOutLeft, tr.from, tr.output_symbol,
                              tr.out_right}});
            filed.push_back({bucket(tr.out_right),
                             {Kind::kOutRight, tr.from, tr.output_symbol,
                              tr.out_left}});
            break;
          case TK::kMove:
            if (tr.move == M::kStay) {
              filed.push_back({bucket(tr.to), {Kind::kStay, tr.from, 0, 0}});
              break;
            }
            PEBBLETC_CHECK(tr.move == M::kDownLeft || tr.move == M::kDownRight)
                << "non-downward move survived the fragment check";
            (tr.move == M::kDownLeft ? down_left_ : down_right_)[a].push_back(
                {tr.from, tr.to});
            break;
        }
      }
    }
    // Counting sort of the triggers into one flat array, bucket by bucket.
    for (const auto& [b, tr] : filed) ++trigger_begin_[b + 1];
    for (size_t i = 1; i < trigger_begin_.size(); ++i) {
      trigger_begin_[i] += trigger_begin_[i - 1];
    }
    std::vector<size_t> fill(trigger_begin_.begin(), trigger_begin_.end() - 1);
    triggers_.resize(filed.size());
    for (const auto& [b, tr] : filed) triggers_[fill[b]++] = tr;
  }

  // At a node labelled `a`: leaf outputs as (from, D-state of the leaf),
  // and down moves as (from, to).
  const std::vector<Edge>& LeafOutputs(SymbolId a) const {
    return leaf_out_[a];
  }
  const std::vector<Edge>& DownLeft(SymbolId a) const { return down_left_[a]; }
  const std::vector<Edge>& DownRight(SymbolId a) const {
    return down_right_[a];
  }
  std::span<const Trigger> Triggers(SymbolId a, StateId q) const {
    const size_t bucket = static_cast<size_t>(a) * nt_ + q;
    return {triggers_.data() + trigger_begin_[bucket],
            triggers_.data() + trigger_begin_[bucket + 1]};
  }

 private:
  const uint32_t nt_;
  std::vector<std::vector<Edge>> leaf_out_;
  std::vector<std::vector<Edge>> down_left_;
  std::vector<std::vector<Edge>> down_right_;
  std::vector<size_t> trigger_begin_;  // CSR offsets per (symbol, state)
  std::vector<Trigger> triggers_;
};

class DownwardSearch {
 public:
  DownwardSearch(const PebbleTransducer& t, const Dbta& d,
                 const NbtaIndex& tau1, const RankedAlphabet& alphabet,
                 TaOpContext* ctx)
      : t_(t),
        d_(d),
        tau1_(tau1),
        alphabet_(alphabet),
        ctx_(ctx),
        max_pairs_(TaBudgetMaxAntichainPairs(ctx)),
        rules_(t, d),
        row_words_((d.num_states() + 63) / 64),
        set_words_(static_cast<size_t>(t.num_states()) * row_words_),
        accepting_row_(row_words_, 0),
        kept_(tau1.num_states()),
        processed_(tau1.num_states()) {
    for (StateId dq = 0; dq < d.num_states(); ++dq) {
      if (d.accepting(dq)) accepting_row_[dq / 64] |= uint64_t{1} << (dq % 64);
    }
    TaCountRules(ctx_, t.transitions().size());
  }

  Result<std::optional<BinaryTree>> Run() {
    PEBBLETC_RETURN_IF_ERROR(SeedLeaves());
    if (bad_ != kNoSearchPair) return Witness();
    const std::vector<Nbta::BinaryRule>& rules = tau1_.nbta().rules;
    while (head_ < worklist_.size()) {
      const uint32_t p = worklist_[head_++];
      if (pairs_[p].dead) continue;
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
      const StateId q = pairs_[p].q;
      processed_[q].push_back(p);
      // Combine p with every processed live pair (itself included), in both
      // child orders, through τ1's rules on q — the rule-driven combine of
      // the inclusion search.
      const auto as_left = tau1_.RulesWithLeft(q);
      TaCountRules(ctx_, as_left.size());
      for (uint32_t i : as_left) {
        const Nbta::BinaryRule& rule = rules[i];
        for (uint32_t r : processed_[rule.right]) {
          if (pairs_[r].dead) continue;
          PEBBLETC_RETURN_IF_ERROR(Combine(rule, p, r));
          if (bad_ != kNoSearchPair) return Witness();
        }
      }
      const auto as_right = tau1_.RulesWithRight(q);
      TaCountRules(ctx_, as_right.size());
      for (uint32_t i : as_right) {
        const Nbta::BinaryRule& rule = rules[i];
        for (uint32_t l : processed_[rule.left]) {
          if (l == p || pairs_[l].dead) continue;  // (p, p) done above
          PEBBLETC_RETURN_IF_ERROR(Combine(rule, l, p));
          if (bad_ != kNoSearchPair) return Witness();
        }
      }
    }
    // Frontier drained with no bad pair: every reachable (q, S) is dominated
    // by an explored one, and domination preserves badness, so none exists.
    // Only an uninterrupted search may say so (a τ1 without leaf rules
    // drains without ever checkpointing).
    PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx_));
    if (ctx_ != nullptr) ++ctx_->counters.inclusions;
    return std::optional<BinaryTree>();
  }

 private:
  // One pair per τ1 leaf rule, with the leaf symbol's S (a repeated target
  // is pruned by its own first pair).
  Status SeedLeaves() {
    for (SymbolId c : alphabet_.LeafSymbols()) {
      const auto row = tau1_.LeafTargets(c);
      if (row.empty()) continue;
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
      const uint32_t set_id = InternSet(NodeSet(c, nullptr, nullptr));
      for (StateId q : row) {
        PEBBLETC_RETURN_IF_ERROR(
            Offer(q, set_id, c, kNoSearchPair, kNoSearchPair));
        if (bad_ != kNoSearchPair) return Status::OK();
      }
    }
    return Status::OK();
  }

  // Offers (rule.to, S(rule.symbol, S_l, S_r)); S is memoized per (symbol,
  // left set, right set) — set ids are canonical.
  Status Combine(const Nbta::BinaryRule& rule, uint32_t lp, uint32_t rp) {
    const uint32_t sl = pairs_[lp].set;
    const uint32_t sr = pairs_[rp].set;
    const uint64_t key = (static_cast<uint64_t>(sl) << 32) | sr;
    if (node_memo_.size() <= rule.symbol) node_memo_.resize(rule.symbol + 1);
    auto [it, fresh] = node_memo_[rule.symbol].try_emplace(key, kNoSet);
    if (fresh) {
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
      it->second = InternSet(NodeSet(rule.symbol, sets_[sl], sets_[sr]));
    }
    return Offer(rule.to, it->second, rule.symbol, lp, rp);
  }

  // S at a node labelled `a` whose children carry `left` / `right` (null at
  // leaves): the least set closed under the rules, computed semi-naively —
  // each (q, d) entering the set fires only the triggers filed under q,
  // against the set as it stands.
  Words NodeSet(SymbolId a, const Words* left, const Words* right) {
    Words s(set_words_, 0);
    work_.clear();
    auto add = [&](StateId q, StateId dq) {
      uint64_t& w = s[static_cast<size_t>(q) * row_words_ + dq / 64];
      const uint64_t bit = uint64_t{1} << (dq % 64);
      if ((w & bit) != 0) return;
      w |= bit;
      work_.push_back({q, dq});
    };
    // Visits every D-state in row q of `set`.
    auto for_row = [&](const Words& set, StateId q, auto&& fn) {
      const uint64_t* row = set.data() + static_cast<size_t>(q) * row_words_;
      for (uint32_t w = 0; w < row_words_; ++w) {
        for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          fn(static_cast<StateId>(w * 64 + std::countr_zero(bits)));
        }
      }
    };
    for (const auto& out : rules_.LeafOutputs(a)) add(out.from, out.to);
    if (left != nullptr) {
      for (const auto& mv : rules_.DownLeft(a)) {
        for_row(*left, mv.to, [&](StateId dq) { add(mv.from, dq); });
      }
    }
    if (right != nullptr) {
      for (const auto& mv : rules_.DownRight(a)) {
        for_row(*right, mv.to, [&](StateId dq) { add(mv.from, dq); });
      }
    }
    size_t fired = 0;
    for (size_t i = 0; i < work_.size(); ++i) {
      const auto [q, dq] = work_[i];
      const auto triggers = rules_.Triggers(a, q);
      fired += triggers.size();
      for (const RuleIndex::Trigger& tr : triggers) {
        switch (tr.kind) {
          case RuleIndex::Kind::kStay:
            add(tr.from, dq);
            break;
          case RuleIndex::Kind::kOutLeft:
            for_row(s, tr.other, [&](StateId d2) {
              add(tr.from, d_.Next(tr.out, dq, d2));
            });
            break;
          case RuleIndex::Kind::kOutRight:
            for_row(s, tr.other, [&](StateId d1) {
              add(tr.from, d_.Next(tr.out, d1, dq));
            });
            break;
        }
      }
    }
    TaCountRules(ctx_, fired);
    return s;
  }

  uint32_t InternSet(Words s) {
    const uint32_t next = static_cast<uint32_t>(sets_.size());
    auto [it, fresh] = set_index_.try_emplace(std::move(s), next);
    if (fresh) {
      // Bad: some output from the start state ends in an accepting D-state.
      const Words& w = it->first;
      const uint64_t* start_row =
          w.data() + static_cast<size_t>(t_.start()) * row_words_;
      bool bad = false;
      for (uint32_t i = 0; i < row_words_; ++i) {
        bad |= (start_row[i] & accepting_row_[i]) != 0;
      }
      sets_.push_back(&w);
      set_bad_.push_back(bad);
    }
    return it->second;
  }

  bool SubsetOf(uint32_t a, uint32_t b) const {
    const Words& wa = *sets_[a];
    const Words& wb = *sets_[b];
    for (size_t i = 0; i < wa.size(); ++i) {
      if ((wa[i] & ~wb[i]) != 0) return false;
    }
    return true;
  }

  // Offers a candidate pair (q, S): prune it if a kept pair of q has a
  // superset, else retire the kept pairs it dominates, intern it, test it,
  // and enqueue it. Sets bad_ when the pair refutes.
  Status Offer(StateId q, uint32_t set_id, SymbolId symbol, uint32_t lp,
               uint32_t rp) {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
    // A repeat is pruned without a scan: the kept sets of q only grow under
    // ⊆, so whatever pruned or kept (q, S) before still covers it. Most
    // offers are repeats — the combine meets the same sets again and again.
    if (!offered_.insert((static_cast<uint64_t>(q) << 32) | set_id).second) {
      if (ctx_ != nullptr) ++ctx_->counters.incl_pairs_pruned;
      return Status::OK();
    }
    auto& anti = kept_[q];
    for (uint32_t k : anti) {
      if (SubsetOf(set_id, pairs_[k].set)) {
        if (ctx_ != nullptr) ++ctx_->counters.incl_pairs_pruned;
        return Status::OK();
      }
    }
    std::erase_if(anti, [&](uint32_t k) {
      if (!SubsetOf(pairs_[k].set, set_id)) return false;
      pairs_[k].dead = true;
      return true;
    });
    PEBBLETC_RETURN_IF_ERROR(TaOpContext::CheckBudget(
        pairs_.size() + 1, max_pairs_, "downward search pairs"));
    const uint32_t id = static_cast<uint32_t>(pairs_.size());
    pairs_.push_back({q, set_id, symbol, lp, rp, false});
    if (ctx_ != nullptr) ++ctx_->counters.incl_pairs_interned;
    if (tau1_.nbta().accepting[q] && set_bad_[set_id]) {
      bad_ = id;
      return Status::OK();
    }
    anti.push_back(id);
    worklist_.push_back(id);
    return Status::OK();
  }

  Result<std::optional<BinaryTree>> Witness() const {
    PEBBLETC_ASSIGN_OR_RETURN(BinaryTree t,
                              ReplaySearchWitness(pairs_, bad_, ctx_));
    if (ctx_ != nullptr) ++ctx_->counters.inclusions;
    return std::optional<BinaryTree>(std::move(t));
  }

  const PebbleTransducer& t_;
  const Dbta& d_;
  const NbtaIndex& tau1_;
  const RankedAlphabet& alphabet_;
  TaOpContext* ctx_;
  const size_t max_pairs_;
  const RuleIndex rules_;
  const uint32_t row_words_;  // words per transducer state's row of D-states
  const size_t set_words_;    // words per set: one row per transducer state
  Words accepting_row_;       // D's accepting states, as one row

  // Interned sets S, as |Q_T| rows of |Q_D| bits, and whether each is bad.
  // sets_ points at the index's keys, which stay put when it rehashes.
  std::vector<const Words*> sets_;
  std::vector<bool> set_bad_;
  std::unordered_map<Words, uint32_t, WordsHash> set_index_;
  // Per binary symbol: (left set << 32 | right set) → set id.
  std::vector<std::unordered_map<uint64_t, uint32_t>> node_memo_;
  std::vector<std::pair<StateId, StateId>> work_;  // NodeSet's worklist

  std::vector<SearchPair> pairs_;
  std::unordered_set<uint64_t> offered_;     // (q << 32 | set) ever offered
  std::vector<std::vector<uint32_t>> kept_;  // live antichain per τ1 state
  std::vector<uint32_t> worklist_;           // FIFO; head_ is the cursor
  size_t head_ = 0;
  std::vector<std::vector<uint32_t>> processed_;  // popped pairs per τ1 state
  uint32_t bad_ = kNoSearchPair;
};

}  // namespace

Result<std::optional<BinaryTree>> FindDownwardBadInput(
    const PebbleTransducer& t, const Dbta& d, const NbtaIndex& input_type,
    const RankedAlphabet& input_alphabet, TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  if (!IsDownwardTransducer(t)) {
    return Status::InvalidArgument(
        "transducer is outside the downward fragment");
  }
  if (input_alphabet.size() != t.num_input_symbols() ||
      input_type.num_symbols() != t.num_input_symbols()) {
    return Status::InvalidArgument("input alphabet size mismatch");
  }
  if (d.num_symbols() != t.num_output_symbols()) {
    return Status::InvalidArgument(
        "output automaton alphabet does not match the transducer");
  }
  return DownwardSearch(t, d, input_type, input_alphabet, ctx).Run();
}

}  // namespace pebbletc
