#include "src/core/downward.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/packed_sets.h"
#include "src/ta/antichain.h"

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

// Sets S ⊆ Q_T × Q_D as |Q_T| rows of |Q_D| bits.
class DownwardSets final : public AntichainDomain {
 public:
  DownwardSets(const PebbleTransducer& t, const Dbta& d, TaOpContext* ctx)
      : AntichainDomain(static_cast<size_t>(t.num_states()) *
                            ((d.num_states() + 63) / 64),
                        AntichainClosure::kSupersets),
        start_(t.start()),
        d_(d),
        ctx_(ctx),
        rules_(t, d),
        row_words_((d.num_states() + 63) / 64),
        accepting_row_(row_words_, 0) {
    for (StateId dq = 0; dq < d.num_states(); ++dq) {
      if (d.accepting(dq)) SetBit(accepting_row_.data(), dq);
    }
    TaCountRules(ctx_, t.transitions().size());
  }

  Status Leaf(SymbolId c, uint64_t* out) override {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
    NodeSet(c, nullptr, nullptr, out);
    return Status::OK();
  }

  Status Post(SymbolId f, const uint64_t* left, const uint64_t* right,
              uint64_t* out) override {
    PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx_));
    NodeSet(f, left, right, out);
    return Status::OK();
  }

  // Bad: some output from the start state ends in an accepting D-state.
  bool Bad(const uint64_t* set) const override {
    return Intersects(set + static_cast<size_t>(start_) * row_words_,
                      accepting_row_.data(), row_words_);
  }

 private:
  // S at a node labelled `a` whose children carry `left` / `right` (null at
  // leaves), written into `s`: the least set closed under the rules,
  // computed semi-naively — each (q, d) entering the set fires only the
  // triggers filed under q, against the set as it stands.
  void NodeSet(SymbolId a, const uint64_t* left, const uint64_t* right,
               uint64_t* s) {
    work_.clear();
    auto add = [&](StateId q, StateId dq) {
      uint64_t& w = s[static_cast<size_t>(q) * row_words_ + dq / 64];
      const uint64_t bit = uint64_t{1} << (dq % 64);
      if ((w & bit) != 0) return;
      w |= bit;
      work_.push_back({q, dq});
    };
    // Visits every D-state in row q of `set`.
    auto for_row = [&](const uint64_t* set, StateId q, auto&& fn) {
      ForEachBit(set + static_cast<size_t>(q) * row_words_, row_words_, fn);
    };
    for (const auto& out : rules_.LeafOutputs(a)) add(out.from, out.to);
    if (left != nullptr) {
      for (const auto& mv : rules_.DownLeft(a)) {
        for_row(left, mv.to, [&](StateId dq) { add(mv.from, dq); });
      }
    }
    if (right != nullptr) {
      for (const auto& mv : rules_.DownRight(a)) {
        for_row(right, mv.to, [&](StateId dq) { add(mv.from, dq); });
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
  }

  const StateId start_;
  const Dbta& d_;
  TaOpContext* ctx_;
  const RuleIndex rules_;
  const uint32_t row_words_;  // words per transducer state's row of D-states
  std::vector<uint64_t> accepting_row_;  // D's accepting states, as one row
  std::vector<std::pair<StateId, StateId>> work_;  // NodeSet's worklist
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
  DownwardSets domain(t, d, ctx);
  return SearchAntichain(input_type, input_alphabet, domain, ctx);
}

}  // namespace pebbletc
