// Nondeterministic bottom-up (frontier-to-root) tree automata over complete
// binary trees, and the full operation suite on regular tree languages:
// determinization, boolean operations, emptiness with witness extraction,
// membership, relabelings (used as cylindrification / projection by the MSO
// compiler), and language statistics. Inclusion and equivalence live in
// src/ta/inclusion.h.
//
// Bottom-up NTAs are the library's canonical representation of a *type*
// (regular tree language); top-down automata (Def. 2.1) convert losslessly in
// both directions (see src/ta/convert.h).
//
// Operations come in two flavors: a primary form consuming a compiled
// NbtaIndex (src/ta/nbta_index.h) — build the index once per automaton and
// share it across every operation — and a convenience form taking a bare
// Nbta that compiles a throwaway index internally. Budgets and counters
// thread through an optional TaOpContext (src/ta/op_context.h).

#ifndef PEBBLETC_TA_NBTA_H_
#define PEBBLETC_TA_NBTA_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/regex/nfa.h"  // StateId
#include "src/ta/op_context.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

class NbtaIndex;

/// A nondeterministic bottom-up tree automaton. A run assigns each leaf
/// labelled `a` some state q with a leaf rule a → q, and each internal node
/// labelled `a` with children in states (q1, q2) some q with a binary rule
/// a(q1, q2) → q; the tree is accepted if the root can be assigned an
/// accepting state.
struct Nbta {
  uint32_t num_states = 0;
  uint32_t num_symbols = 0;
  std::vector<bool> accepting;

  struct LeafRule {
    SymbolId symbol;
    StateId to;
  };
  std::vector<LeafRule> leaf_rules;

  struct BinaryRule {
    SymbolId symbol;
    StateId left;
    StateId right;
    StateId to;
  };
  std::vector<BinaryRule> rules;

  StateId AddState() {
    accepting.push_back(false);
    return num_states++;
  }
  void AddLeafRule(SymbolId symbol, StateId to) {
    leaf_rules.push_back({symbol, to});
  }
  void AddRule(SymbolId symbol, StateId left, StateId right, StateId to) {
    rules.push_back({symbol, left, right, to});
  }

  /// Range/rank validation against `alphabet`.
  Status Validate(const RankedAlphabet& alphabet) const;

  /// The set of states the subtree rooted at each node can evaluate to;
  /// returns per-node state bitsets (indexed by NodeId). Compiles a
  /// throwaway index; prefer NbtaRunStates with a shared one.
  std::vector<std::vector<bool>> RunStates(const BinaryTree& tree) const;

  /// Membership: does this automaton accept `tree`? Compiles a throwaway
  /// index; prefer NbtaAccepts with a shared one.
  bool Accepts(const BinaryTree& tree) const;
};

/// Per-node reachable-state bitsets (see Nbta::RunStates), off a shared
/// index.
std::vector<std::vector<bool>> NbtaRunStates(const NbtaIndex& a,
                                             const BinaryTree& tree);

/// Membership off a shared index. Short-circuits at the root: returns as
/// soon as one accepting root state is derivable instead of materializing
/// the full root bitset.
bool NbtaAccepts(const NbtaIndex& a, const BinaryTree& tree);

/// A deterministic, complete bottom-up automaton: exactly one state per
/// (symbol, child states) combination. Complementation is a flag flip.
class Dbta {
 public:
  Dbta(uint32_t num_states, uint32_t num_symbols);

  uint32_t num_states() const { return num_states_; }
  uint32_t num_symbols() const { return num_symbols_; }

  bool accepting(StateId q) const { return accepting_[q]; }
  void set_accepting(StateId q, bool acc) { accepting_[q] = acc; }

  StateId LeafState(SymbolId a) const { return leaf_[a]; }
  void SetLeafState(SymbolId a, StateId q) { leaf_[a] = q; }

  StateId Next(SymbolId a, StateId l, StateId r) const {
    return table_[(static_cast<size_t>(a) * num_states_ + l) * num_states_ + r];
  }
  void SetNext(SymbolId a, StateId l, StateId r, StateId to) {
    table_[(static_cast<size_t>(a) * num_states_ + l) * num_states_ + r] = to;
  }

  /// Evaluates the tree bottom-up to its unique root state.
  StateId Eval(const BinaryTree& tree) const;
  bool Accepts(const BinaryTree& tree) const {
    return accepting_[Eval(tree)];
  }

  /// View as an Nbta, materializing one rule per *rank-valid* table entry
  /// (leaf rules for Σ0 symbols, binary rules for Σ2 symbols).
  Nbta ToNbta(const RankedAlphabet& alphabet) const;

  /// Same state and symbol counts, accepting set, leaf states and table.
  bool operator==(const Dbta&) const = default;

 private:
  uint32_t num_states_;
  uint32_t num_symbols_;
  std::vector<bool> accepting_;
  std::vector<StateId> leaf_;
  std::vector<StateId> table_;
};

/// Subset construction (only reachable subsets are materialized), frontier
/// driven: each (symbol, subset, subset) pair is expanded exactly once, over
/// subsets packed into ⌈n/64⌉ words (see docs/DETERMINIZE.md for the folds
/// and invariants). May be exponential.
///
/// Budgets: `max_det_states` (0 = unlimited) aborts with kResourceExhausted
/// once the interned-subset count exceeds it; a hard transition-table cap
/// (2^28 entries) fails the same way. Deadlines/cancellation are polled
/// between frontier pairs and surface as kDeadlineExceeded / kCancelled.
/// Counters: `det_subsets_interned` and `det_pairs_expanded` record frontier
/// progress on every exit path (including failures); `determinizations` and
/// `states_materialized` advance only on success.
Result<Dbta> DeterminizeNbta(const NbtaIndex& a, const RankedAlphabet& alphabet,
                             TaOpContext* ctx = nullptr);
Result<Dbta> DeterminizeNbta(const Nbta& a, const RankedAlphabet& alphabet,
                             TaOpContext* ctx = nullptr);

/// Complement *relative to well-ranked trees*: DeterminizeNbta with every
/// accepting bit flipped, counting one complementation. The `max_det_states`
/// budget and DeterminizeNbta's failure codes apply unchanged.
Result<Dbta> ComplementDbta(const NbtaIndex& a, const RankedAlphabet& alphabet,
                            TaOpContext* ctx = nullptr);
/// ComplementDbta's Dbta::ToNbta view.
Result<Nbta> ComplementNbta(const NbtaIndex& a, const RankedAlphabet& alphabet,
                            TaOpContext* ctx = nullptr);
Result<Nbta> ComplementNbta(const Nbta& a, const RankedAlphabet& alphabet,
                            TaOpContext* ctx = nullptr);

/// Language intersection via the product construction (no determinization).
Nbta IntersectNbta(const NbtaIndex& a, const NbtaIndex& b,
                   TaOpContext* ctx = nullptr);
Nbta IntersectNbta(const Nbta& a, const Nbta& b);

/// Language union via disjoint sum (no determinization).
Nbta UnionNbta(const Nbta& a, const Nbta& b);

/// True iff inst(a) = ∅.
bool IsEmptyNbta(const NbtaIndex& a, TaOpContext* ctx = nullptr);
bool IsEmptyNbta(const Nbta& a);

/// A size-minimal witness tree, or nullopt if the language is empty.
std::optional<BinaryTree> WitnessTree(const NbtaIndex& a,
                                      TaOpContext* ctx = nullptr);
std::optional<BinaryTree> WitnessTree(const Nbta& a);

/// Removes states that are not inhabited (reachable bottom-up) or not
/// co-reachable (cannot lead to acceptance); shrinks rule lists accordingly.
Nbta TrimNbta(const NbtaIndex& a, TaOpContext* ctx = nullptr);
Nbta TrimNbta(const Nbta& a);

/// Inverse relabeling (cylindrification): `map[b]` gives, for each symbol of
/// the *larger* alphabet, its image in a's alphabet. Returns an automaton
/// over the larger alphabet accepting {t | relabel(t) ∈ inst(a)}.
Nbta InverseRelabelNbta(const NbtaIndex& a, const std::vector<SymbolId>& map,
                        uint32_t new_num_symbols, TaOpContext* ctx = nullptr);
Nbta InverseRelabelNbta(const Nbta& a, const std::vector<SymbolId>& map,
                        uint32_t new_num_symbols);

/// Forward relabeling (projection): rewrites each symbol s of a's alphabet to
/// map[s] (over the smaller alphabet). Accepts {relabel(t) | t ∈ inst(a)}...
/// note this is the *image*, hence nondeterministic in general.
Nbta RelabelNbta(const Nbta& a, const std::vector<SymbolId>& map,
                 uint32_t new_num_symbols);

/// The automaton accepting every tree over `alphabet` (one state, total
/// rules).
Nbta UniversalNbta(const RankedAlphabet& alphabet);

/// The automaton accepting nothing.
Nbta EmptyLanguageNbta(const RankedAlphabet& alphabet);

/// Number of accepting *runs* on trees with exactly `num_nodes` nodes,
/// saturating at UINT64_MAX. When `a` is deterministic (e.g. obtained from
/// DeterminizeNbta(...).ToNbta()) this equals the number of accepted trees.
/// (Complete binary trees always have an odd node count.)
uint64_t CountAcceptedTrees(const Nbta& a, size_t num_nodes);

}  // namespace pebbletc

#endif  // PEBBLETC_TA_NBTA_H_
