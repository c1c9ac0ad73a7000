#include "src/pa/behavior.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace pebbletc {

namespace {

using TK = PebbleAutomaton::TransitionKind;
using M = PebbleAutomaton::MoveKind;

// Distinct subtree behaviors (the DBTA's states) the composition admits.
constexpr size_t kMaxBehaviors = 4096;

// A subtree summary: per mounting side, assumption-set → accessible-set
// (bitmasks over Q); plus the root (no-up-moves) accessible set.
struct Behavior {
  std::vector<uint32_t> as_left;
  std::vector<uint32_t> as_right;
  uint32_t as_root = 0;

  friend bool operator<(const Behavior& a, const Behavior& b) {
    if (a.as_root != b.as_root) return a.as_root < b.as_root;
    if (a.as_left != b.as_left) return a.as_left < b.as_left;
    return a.as_right < b.as_right;
  }
};

enum class Side { kLeft, kRight, kRoot };

class BehaviorBuilder {
 public:
  explicit BehaviorBuilder(const PebbleAutomaton& a)
      : a_(a), n_(a.num_states()) {}

  // The accessible set at a node labelled `sym` mounted as `side`, under
  // assumption S, with children behaviors bl/br (null at leaves).
  uint32_t Accessible(SymbolId sym, Side side, uint32_t s_mask,
                      const Behavior* bl, const Behavior* br) const {
    uint32_t acc = 0;
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto& tr : a_.transitions()) {
        if ((acc >> tr.from) & 1u) continue;
        if (tr.guard.symbol != kAnySymbol && tr.guard.symbol != sym) continue;
        // k = 1: no presence guards (validated by the caller).
        bool fires = false;
        switch (tr.kind) {
          case TK::kAccept:
            fires = true;
            break;
          case TK::kBranch:
            fires = ((acc >> tr.left) & 1u) && ((acc >> tr.right) & 1u);
            break;
          case TK::kMove:
            switch (tr.move) {
              case M::kStay:
                fires = (acc >> tr.to) & 1u;
                break;
              case M::kDownLeft:
                fires = bl != nullptr && ((bl->as_left[acc] >> tr.to) & 1u);
                break;
              case M::kDownRight:
                fires = br != nullptr && ((br->as_right[acc] >> tr.to) & 1u);
                break;
              case M::kUpLeft:
                fires = side == Side::kLeft && ((s_mask >> tr.to) & 1u);
                break;
              case M::kUpRight:
                fires = side == Side::kRight && ((s_mask >> tr.to) & 1u);
                break;
              case M::kPlacePebble:
              case M::kPickPebble:
                break;  // impossible with one pebble
            }
            break;
        }
        if (fires) {
          acc |= (1u << tr.from);
          changed = true;
        }
      }
    }
    return acc;
  }

  // One checkpoint per assumption set: a summary runs 2·2^|Q| accessibility
  // fixpoints, too many to go between deadline polls.
  Result<Behavior> Summarize(SymbolId sym, const Behavior* bl,
                             const Behavior* br, TaOpContext* ctx) const {
    const uint32_t combos = 1u << n_;
    Behavior out;
    out.as_left.resize(combos);
    out.as_right.resize(combos);
    for (uint32_t s = 0; s < combos; ++s) {
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
      out.as_left[s] = Accessible(sym, Side::kLeft, s, bl, br);
      out.as_right[s] = Accessible(sym, Side::kRight, s, bl, br);
    }
    out.as_root = Accessible(sym, Side::kRoot, 0, bl, br);
    return out;
  }

 private:
  const PebbleAutomaton& a_;
  const uint32_t n_;
};

}  // namespace

Result<Nbta> OnePebbleToNbtaByBehavior(const PebbleAutomaton& a,
                                       const RankedAlphabet& alphabet,
                                       TaOpContext* ctx) {
  TaOpTimer timer(ctx);
  const TaOpBudgets budgets = ctx != nullptr ? ctx->budgets : TaOpBudgets{};
  if (a.max_pebbles() != 1) {
    return Status::InvalidArgument(
        "behavior composition handles 1-pebble automata only");
  }
  if (alphabet.size() != a.num_symbols()) {
    return Status::InvalidArgument("alphabet size mismatch");
  }
  if (a.num_states() > budgets.behavior_max_state_bits) {
    return Status::ResourceExhausted(
        "behavior tables limited to " +
        std::to_string(budgets.behavior_max_state_bits) +
        " states (automaton has " +
        std::to_string(a.num_states()) + ")");
  }
  for (const auto& tr : a.transitions()) {
    if (tr.guard.presence_mask != 0) {
      return Status::InvalidArgument(
          "presence guards are impossible at one pebble");
    }
  }

  BehaviorBuilder builder(a);
  std::map<Behavior, StateId> index;
  std::vector<Behavior> behaviors;
  auto intern = [&](Behavior b) -> StateId {
    auto [it, inserted] = index.emplace(std::move(b), behaviors.size());
    if (inserted) behaviors.push_back(it->first);
    return it->second;
  };

  std::vector<std::pair<SymbolId, StateId>> leaf_rules;
  for (SymbolId sym : alphabet.LeafSymbols()) {
    PEBBLETC_ASSIGN_OR_RETURN(Behavior b,
                              builder.Summarize(sym, nullptr, nullptr, ctx));
    leaf_rules.push_back({sym, intern(std::move(b))});
  }

  std::map<std::tuple<SymbolId, StateId, StateId>, StateId> trans;
  bool changed = true;
  while (changed) {
    changed = false;
    const size_t snapshot = behaviors.size();
    if (snapshot > kMaxBehaviors) {
      return Status::ResourceExhausted("behavior count exceeded " +
                                       std::to_string(kMaxBehaviors));
    }
    for (SymbolId sym : alphabet.BinarySymbols()) {
      for (StateId i = 0; i < snapshot; ++i) {
        for (StateId j = 0; j < snapshot; ++j) {
          PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
          auto key = std::make_tuple(sym, i, j);
          if (trans.count(key)) continue;
          PEBBLETC_ASSIGN_OR_RETURN(
              Behavior b,
              builder.Summarize(sym, &behaviors[i], &behaviors[j], ctx));
          trans[key] = intern(std::move(b));
        }
      }
    }
    if (behaviors.size() > snapshot) changed = true;
  }

  if (ctx != nullptr) {
    ctx->counters.determinizations++;
    ctx->counters.states_materialized += behaviors.size();
  }
  Nbta out;
  out.num_symbols = static_cast<uint32_t>(alphabet.size());
  for (size_t i = 0; i < behaviors.size(); ++i) {
    StateId q = out.AddState();
    out.accepting[q] = (behaviors[i].as_root >> a.start()) & 1u;
  }
  for (auto [sym, q] : leaf_rules) out.AddLeafRule(sym, q);
  for (const auto& [key, to] : trans) {
    auto [sym, l, r] = key;
    out.AddRule(sym, l, r, to);
  }
  return out;
}

}  // namespace pebbletc
