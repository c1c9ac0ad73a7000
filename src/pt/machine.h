// The walking semantics every pebble machine shares: the k-pebble
// transducer (Definition 3.1), the k-pebble automaton that keeps the
// transducer's moves and swaps its outputs for branching (Definition 4.5),
// and the Section 5 join machines, which add equality tests to a transducer.
//
// Up to k pebbles sit on nodes of the input binary tree under a stack
// discipline: pebbles are placed in order 1..k (each new pebble starts at
// the root), removed in reverse order, and only the highest-numbered pebble
// moves. States are partitioned by the pebble they control: a state of
// level i is active exactly when i pebbles are on the tree, and its
// transitions move pebble i. Guards see the symbol under the current pebble
// and which of pebbles 1..i-1 share its node (the paper's b-vector; here a
// mask/value pair so "don't care" bits need not be enumerated).
//
// The machines share one configuration space too: a ConfigTable interns
// configurations, and ExploreConfigs walks the ones a machine reaches on a
// tree. That walk is the configuration graph under Proposition 3.8's A_t
// (src/pt/eval.h) and Theorem 4.7's G_{A,t} (src/pa/automaton.h).
//
// Everything here is inline so that the per-configuration calls of the
// evaluators (Applicable above all) compile into their loops.

#ifndef PEBBLETC_PT_MACHINE_H_
#define PEBBLETC_PT_MACHINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/check.h"
#include "src/common/packed_sets.h"
#include "src/common/status.h"
#include "src/regex/nfa.h"  // StateId
#include "src/ta/op_context.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// Wildcard for guard symbols.
inline constexpr SymbolId kAnySymbol = kNoSymbol;

/// A transition guard: input symbol under the current pebble (kAnySymbol
/// matches every symbol) and a partial constraint on which lower-numbered
/// pebbles sit on the current node — bit j (0-based) of the presence vector
/// refers to pebble j+1; only bits selected by `presence_mask` are tested.
struct PebbleGuard {
  SymbolId symbol = kAnySymbol;
  uint32_t presence_mask = 0;
  uint32_t presence_value = 0;
};

/// The moves of the current pebble.
enum class PebbleMoveKind {
  kStay,
  kDownLeft,
  kDownRight,
  kUpLeft,   ///< move to the parent; applies only if the node is a left child
  kUpRight,  ///< move to the parent; applies only if the node is a right child
  kPlacePebble,
  kPickPebble,
};

/// A configuration (i, q, x1..xi): `pebbles.size()` equals the level of
/// `state`; pebbles[i-1] is the current pebble's node.
struct PebbleConfig {
  StateId state;
  std::vector<NodeId> pebbles;
};

/// The id no configuration gets.
inline constexpr uint32_t kNoConfig = PackedSetTable::kNone;

/// Interns the configurations of a machine with up to `max_pebbles` pebbles
/// and numbers them 0, 1, … in the order they are first seen. A key is one
/// word for the state and one per pebble slot, the slots above the state's
/// level holding kNoNode, so equal configurations pack to equal keys.
class ConfigTable {
 public:
  explicit ConfigTable(uint32_t max_pebbles)
      : table_(1 + max_pebbles), key_(1 + max_pebbles) {}

  uint32_t size() const { return table_.size(); }

  /// The id of (state, pebbles), interning it when new.
  uint32_t Intern(StateId state, std::span<const NodeId> pebbles) {
    PEBBLETC_DCHECK(pebbles.size() < key_.size()) << "too many pebbles";
    key_[0] = state;
    std::fill(std::copy(pebbles.begin(), pebbles.end(), key_.begin() + 1),
              key_.end(), kNoNode);
    return table_.Intern(key_.data());
  }
  uint32_t Intern(const PebbleConfig& c) { return Intern(c.state, c.pebbles); }

  /// Writes configuration `id` into `*c`, reusing its pebble buffer.
  void Get(uint32_t id, PebbleConfig* c) const {
    const uint64_t* key = table_.Set(id);
    c->state = static_cast<StateId>(key[0]);
    c->pebbles.clear();
    for (size_t j = 1; j < key_.size() && key[j] != kNoNode; ++j) {
      c->pebbles.push_back(static_cast<NodeId>(key[j]));
    }
  }

 private:
  PackedSetTable table_;
  std::vector<uint64_t> key_;
};

/// Whether `guard` holds in `config` on `tree`.
inline bool GuardMatches(const PebbleGuard& guard, const BinaryTree& tree,
                         const PebbleConfig& config) {
  const NodeId current = config.pebbles.back();
  if (guard.symbol != kAnySymbol && tree.symbol(current) != guard.symbol) {
    return false;
  }
  if (guard.presence_mask == 0) return true;
  uint32_t presence = 0;
  for (size_t j = 0; j + 1 < config.pebbles.size(); ++j) {
    if (config.pebbles[j] == current) presence |= (1u << j);
  }
  return (presence & guard.presence_mask) == guard.presence_value;
}

/// The states, transitions and stack discipline of a pebble machine.
/// `Transition` has an enum `kind` with a `kMove` value, a `guard`, a
/// `from` state, a `move` and a `to` state; its default member values are
/// the padding a move leaves in the fields only other kinds use.
template <typename Transition>
class PebbleMachine {
 public:
  using MoveKind = PebbleMoveKind;
  using Config = PebbleConfig;

  uint32_t max_pebbles() const { return max_pebbles_; }
  uint32_t num_states() const { return static_cast<uint32_t>(level_.size()); }
  uint32_t level(StateId q) const { return level_[q]; }
  StateId start() const { return start_; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Adds a state controlled by pebble `level` (1-based, ≤ max_pebbles).
  StateId AddState(uint32_t level) {
    PEBBLETC_CHECK(level >= 1 && level <= max_pebbles_)
        << "state level " << level << " out of range";
    const auto q = static_cast<StateId>(level_.size());
    level_.push_back(level);
    by_state_.emplace_back();
    return q;
  }

  /// Sets the initial state (must have level 1).
  void SetStart(StateId q) {
    PEBBLETC_CHECK(q < level_.size()) << "bad start state";
    start_ = q;
  }

  /// Adds a move transition. Level constraints (checked by Validate):
  /// kPlacePebble raises the level by one, kPickPebble lowers it, all other
  /// moves preserve it.
  void AddMove(const PebbleGuard& guard, StateId from, MoveKind move,
               StateId to) {
    PEBBLETC_CHECK(from < level_.size() && to < level_.size()) << "bad state";
    Transition t;
    t.kind = decltype(t.kind)::kMove;
    t.guard = guard;
    t.from = from;
    t.move = move;
    t.to = to;
    Add(t);
  }

  /// The initial configuration on `tree`: pebble 1 on the root, start state.
  Config InitialConfig(const BinaryTree& tree) const {
    PEBBLETC_CHECK(!tree.empty()) << "empty input tree";
    return Config{start_, {tree.root()}};
  }

  /// Whether `t` applies to `config` on `tree` — guard satisfied and, for
  /// moves, the direction possible.
  bool Applies(const Transition& t, const BinaryTree& tree,
               const Config& config) const {
    if (t.from != config.state || !GuardMatches(t.guard, tree, config)) {
      return false;
    }
    if (t.kind != decltype(t.kind)::kMove) return true;
    const NodeId current = config.pebbles.back();
    switch (t.move) {
      case MoveKind::kStay:
        return true;
      case MoveKind::kDownLeft:
      case MoveKind::kDownRight:
        return !tree.IsLeaf(current);
      case MoveKind::kUpLeft:
        return !tree.IsRoot(current) && tree.IsLeftChild(current);
      case MoveKind::kUpRight:
        return !tree.IsRoot(current) && !tree.IsLeftChild(current);
      case MoveKind::kPlacePebble:
        return config.pebbles.size() < max_pebbles_;
      case MoveKind::kPickPebble:
        return config.pebbles.size() > 1;
    }
    return false;
  }

  /// Applies an (applicable) move transition, returning the successor
  /// configuration.
  Config ApplyMove(const Transition& t, const BinaryTree& tree,
                   const Config& config) const {
    PEBBLETC_DCHECK(t.kind == decltype(t.kind)::kMove) << "not a move";
    Config next = config;
    next.state = t.to;
    NodeId& current = next.pebbles.back();
    switch (t.move) {
      case MoveKind::kStay:
        break;
      case MoveKind::kDownLeft:
        current = tree.left(current);
        break;
      case MoveKind::kDownRight:
        current = tree.right(current);
        break;
      case MoveKind::kUpLeft:
      case MoveKind::kUpRight:
        current = tree.parent(current);
        break;
      case MoveKind::kPlacePebble:
        next.pebbles.push_back(tree.root());
        break;
      case MoveKind::kPickPebble:
        next.pebbles.pop_back();
        break;
    }
    return next;
  }

  /// All transitions applicable to `config`, in declaration order.
  std::vector<const Transition*> Applicable(const BinaryTree& tree,
                                            const Config& config) const {
    std::vector<const Transition*> out;
    for (uint32_t idx : by_state_[config.state]) {
      const Transition& t = transitions_[idx];
      if (Applies(t, tree, config)) out.push_back(&t);
    }
    return out;
  }

  /// Explores breadth first the configurations reachable on `tree`,
  /// interning them in the empty `configs`: the initial configuration gets
  /// id 0. For each configuration `from`, in id order, and each transition
  /// `t` applicable there, in declaration order, calls
  /// visit(from, config, t, to), where `config` is configuration `from` and
  /// `to` is the id of a move's successor (kNoConfig for other kinds). A
  /// visitor interns the configurations its transitions spawn, a branch's
  /// left one first. One checkpoint per configuration; more than
  /// `max_configs` (0 = unlimited) configurations is kResourceExhausted.
  template <typename Visit>
  Status ExploreConfigs(const BinaryTree& tree, size_t max_configs,
                        TaOpContext* ctx, ConfigTable& configs,
                        Visit&& visit) const {
    configs.Intern(InitialConfig(tree));
    Config config{};
    for (uint32_t from = 0; from < configs.size(); ++from) {
      PEBBLETC_RETURN_IF_ERROR(TaCheckpoint(ctx));
      if (max_configs != 0 && configs.size() > max_configs) {
        return Status::ResourceExhausted("configuration budget of " +
                                         std::to_string(max_configs) +
                                         " exceeded");
      }
      configs.Get(from, &config);
      for (const Transition* t : Applicable(tree, config)) {
        const uint32_t to = t->kind == decltype(t->kind)::kMove
                                ? configs.Intern(ApplyMove(*t, tree, config))
                                : kNoConfig;
        visit(from, config, *t, to);
      }
    }
    return Status::OK();
  }

 protected:
  explicit PebbleMachine(uint32_t max_pebbles) : max_pebbles_(max_pebbles) {
    PEBBLETC_CHECK(max_pebbles >= 1) << "need at least one pebble";
    PEBBLETC_CHECK(max_pebbles <= 30) << "pebble guard bits limited to 30";
  }

  /// Appends `t`, whose states the caller has checked.
  void Add(const Transition& t) {
    by_state_[t.from].push_back(static_cast<uint32_t>(transitions_.size()));
    transitions_.push_back(t);
  }

  /// The checks of the stack discipline: a level-1 start state and, per
  /// transition, a guard symbol below `num_symbols`, presence bits only for
  /// pebbles below the state's level, and each move's level change. Every
  /// non-move transition then goes to `check_other(t, level, where)`, where
  /// `level` is its state's level and `where` names it in messages.
  template <typename CheckOther>
  Status ValidateStack(uint32_t num_symbols, CheckOther check_other) const {
    if (level_.empty()) return Status::FailedPrecondition("no states");
    if (level_[start_] != 1) {
      return Status::InvalidArgument("start state must have level 1");
    }
    for (size_t i = 0; i < transitions_.size(); ++i) {
      const Transition& t = transitions_[i];
      const std::string where = "transition " + std::to_string(i);
      if (t.guard.symbol != kAnySymbol && t.guard.symbol >= num_symbols) {
        return Status::InvalidArgument(where + ": guard symbol out of range");
      }
      const uint32_t lvl = level_[t.from];
      // Presence bits refer to pebbles 1..lvl-1, i.e. bits 0..lvl-2.
      if ((t.guard.presence_mask >> (lvl - 1)) != 0) {
        return Status::InvalidArgument(
            where + ": presence guard mentions pebbles ≥ the state level");
      }
      if ((t.guard.presence_value & ~t.guard.presence_mask) != 0) {
        return Status::InvalidArgument(
            where + ": presence value has bits outside the mask");
      }
      if (t.kind != decltype(t.kind)::kMove) {
        PEBBLETC_RETURN_IF_ERROR(check_other(t, lvl, where));
        continue;
      }
      const uint32_t to_lvl = level_[t.to];
      if (t.move == MoveKind::kPlacePebble) {
        if (to_lvl != lvl + 1) {
          return Status::InvalidArgument(
              where + ": place-new-pebble must raise the level by one");
        }
      } else if (t.move == MoveKind::kPickPebble) {
        if (lvl < 2 || to_lvl != lvl - 1) {
          return Status::InvalidArgument(
              where + ": pick-current-pebble must lower the level by one");
        }
      } else if (to_lvl != lvl) {
        return Status::InvalidArgument(where + ": move must preserve level");
      }
    }
    return Status::OK();
  }

  uint32_t max_pebbles_;
  StateId start_ = 0;
  std::vector<uint32_t> level_;
  std::vector<Transition> transitions_;
  // transitions_ indexed by from-state for fast lookup.
  std::vector<std::vector<uint32_t>> by_state_;
};

}  // namespace pebbletc

#endif  // PEBBLETC_PT_MACHINE_H_
