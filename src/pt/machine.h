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
// Everything here is inline so that the per-configuration calls of the
// evaluators (Applicable above all) compile into their loops.

#ifndef PEBBLETC_PT_MACHINE_H_
#define PEBBLETC_PT_MACHINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/check.h"
#include "src/common/status.h"
#include "src/regex/nfa.h"  // StateId
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

  friend bool operator==(const PebbleConfig& a, const PebbleConfig& b) {
    return a.state == b.state && a.pebbles == b.pebbles;
  }
  friend bool operator<(const PebbleConfig& a, const PebbleConfig& b) {
    if (a.state != b.state) return a.state < b.state;
    return a.pebbles < b.pebbles;
  }
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
