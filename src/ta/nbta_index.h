// Compiled, immutable rule indexes for bottom-up tree automata.
//
// Every operation on an Nbta needs some grouping of the flat rule vectors:
// per-symbol buckets (membership, relabelings), by-(symbol, child-state)
// adjacency (determinization), by-child-state lists (products, reachability),
// reverse by-target lists (trimming, witness extraction). Historically each
// operation rebuilt its own ad-hoc index on every call; an NbtaIndex is
// built once per automaton — O(|states| + |rules|) time, compressed-sparse-
// row storage — and shared by every operation that consumes the automaton.
//
// The index holds a pointer to the automaton it was built from; the
// automaton must outlive the index and must not be mutated afterwards
// (AddRule after indexing silently desynchronizes the two).

#ifndef PEBBLETC_TA_NBTA_INDEX_H_
#define PEBBLETC_TA_NBTA_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/regex/nfa.h"  // StateId
#include "src/ta/csr.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"

namespace pebbletc {

class NbtaIndex {
 public:
  /// Builds all eager sub-indexes. `ctx` (optional) accrues the build cost
  /// into its counters.
  explicit NbtaIndex(const Nbta& a, TaOpContext* ctx = nullptr);

  NbtaIndex(const NbtaIndex&) = delete;
  NbtaIndex& operator=(const NbtaIndex&) = delete;

  const Nbta& nbta() const { return *a_; }
  uint32_t num_states() const { return a_->num_states; }
  uint32_t num_symbols() const { return a_->num_symbols; }

  /// Leaf-rule target states for `symbol` (duplicates preserved).
  std::span<const StateId> LeafTargets(SymbolId symbol) const {
    return leaf_by_symbol_.Row(symbol);
  }

  /// Indices into nbta().rules of the binary rules labelled `symbol`.
  std::span<const uint32_t> RulesWithSymbol(SymbolId symbol) const {
    return by_symbol_.Row(symbol);
  }

  /// Indices into nbta().rules of rules whose left / right child is `q`.
  std::span<const uint32_t> RulesWithLeft(StateId q) const {
    return by_left_.Row(q);
  }
  std::span<const uint32_t> RulesWithRight(StateId q) const {
    return by_right_.Row(q);
  }

  /// Indices into nbta().rules of rules whose target state is `q`.
  std::span<const uint32_t> RulesWithTarget(StateId q) const {
    return by_target_.Row(q);
  }
  /// Indices into nbta().leaf_rules of leaf rules targeting `q`.
  std::span<const uint32_t> LeafRulesWithTarget(StateId q) const {
    return leaf_by_target_.Row(q);
  }

  /// (right child, target) successors of the rules labelled `symbol` with
  /// left child `left`, and the (left child, target) twins of the rules
  /// with right child `right`: the adjacency of the subset construction's
  /// folds and of the inclusion domain's Post. Each is built lazily on
  /// first use (its row count is |Σ|·|Q|, which only those need); not
  /// thread-safe.
  struct RightTo {
    StateId right;
    StateId to;
  };
  std::span<const RightTo> SymbolLeft(SymbolId symbol, StateId left) const;
  struct LeftTo {
    StateId left;
    StateId to;
  };
  std::span<const LeftTo> SymbolRight(SymbolId symbol, StateId right) const;

  /// The accepting states, as a list.
  std::span<const StateId> AcceptingStates() const {
    return accepting_states_;
  }
  /// True if some accepting state appears in `set` (bitset over states).
  bool AnyAccepting(const std::vector<bool>& set) const {
    for (StateId q : accepting_states_) {
      if (set[q]) return true;
    }
    return false;
  }

 private:
  const Nbta* a_;
  Csr<StateId> leaf_by_symbol_;
  Csr<uint32_t> by_symbol_;
  Csr<uint32_t> by_left_;
  Csr<uint32_t> by_right_;
  Csr<uint32_t> by_target_;
  Csr<uint32_t> leaf_by_target_;
  std::vector<StateId> accepting_states_;

  mutable bool symbol_left_built_ = false;
  mutable Csr<RightTo> symbol_left_;
  mutable bool symbol_right_built_ = false;
  mutable Csr<LeftTo> symbol_right_;
};

}  // namespace pebbletc

#endif  // PEBBLETC_TA_NBTA_INDEX_H_
