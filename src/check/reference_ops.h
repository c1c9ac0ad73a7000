// Deliberately-naive reference implementations of the tree-automaton
// operation suite, written for obviousness rather than speed and fully
// independent of the compiled NbtaIndex layer (src/ta/nbta_index.h).
//
// These are the trusted side of the differential oracle (docs/DIFFCHECK.md):
// each follows the textbook definition as directly as possible — plain
// std::set state sets, bitmask set-of-sets subset construction over *all*
// 2^|Q| subsets, dense pairwise products over *all* state pairs, fixpoints
// that rescan the whole rule list until nothing changes. The optimized ops
// in src/ta/nbta.h must agree with them per tree; any disagreement is a bug
// in one side or the other.
//
// Everything here is exponential or quadratic by design. Callers keep the
// automata small (the RefDeterminize family refuses more than
// kRefMaxDeterminizeStates states outright).

#ifndef PEBBLETC_CHECK_REFERENCE_OPS_H_
#define PEBBLETC_CHECK_REFERENCE_OPS_H_

#include <cstdint>
#include <set>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/pt/transducer.h"
#include "src/regex/dfa.h"
#include "src/ta/nbta.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// RefDeterminize materializes all 2^|Q| subsets; beyond this many input
/// states it refuses (kResourceExhausted) instead of exploding.
inline constexpr uint32_t kRefMaxDeterminizeStates = 10;

/// RefDownwardProduct refuses once it has interned this many subsets.
inline constexpr size_t kRefMaxDownwardSubsets = 2000;

/// Direct bottom-up run: the set of states each node's subtree can evaluate
/// to, computed by scanning the flat rule vectors per node.
std::vector<std::set<StateId>> RefRunStates(const Nbta& a,
                                            const BinaryTree& tree);

/// Membership by direct bottom-up evaluation: RunsOn(tree) ∩ accepting ≠ ∅.
bool RefAccepts(const Nbta& a, const BinaryTree& tree);

/// Set-of-sets subset construction over *all* subsets of Q, encoded as
/// bitmasks: deterministic state m ⊆ Q, transition on (a, m1, m2) is the set
/// of rule targets whose children lie in m1 × m2. Complete by construction
/// (the empty subset is the sink). The result has exactly 2^|Q| states.
Result<Dbta> RefDeterminize(const Nbta& a, const RankedAlphabet& alphabet);

/// Brute-force complement relative to well-ranked trees: RefDeterminize,
/// flip every accepting bit, and write out one rule per rank-valid table
/// entry (without going through Dbta::ToNbta).
Result<Nbta> RefComplement(const Nbta& a, const RankedAlphabet& alphabet);

/// Pairwise product over *all* |Qa| × |Qb| state pairs (no reachability
/// pruning): state (i, j) is i * |Qb| + j, and every same-symbol rule pair
/// contributes a product rule.
Nbta RefIntersect(const Nbta& a, const Nbta& b);

/// Disjoint sum built state by state (b's states shifted past a's).
Nbta RefUnion(const Nbta& a, const Nbta& b);

/// Emptiness by the naive inhabitedness fixpoint: rescan every rule until no
/// new state becomes inhabited, then look for an inhabited accepting state.
bool RefIsEmpty(const Nbta& a);

/// Trim by two naive whole-rule-list fixpoints (inhabited, then useful),
/// keeping states that are both.
Nbta RefTrim(const Nbta& a);

/// Canonical minimization of a complete DBTA (Moore partition refinement
/// over inhabited states, then completion with a sink): the same language
/// with the fewest states among complete DBTAs. Not a reference twin —
/// nothing in the library minimizes. The oracle uses it to keep the
/// product-form De Morgan operands small, and its minimize/lang law checks
/// it. kInvalidArgument when `alphabet` does not match `d`.
Result<Dbta> MinimizeDbta(const Dbta& d, const RankedAlphabet& alphabet);

/// Moore's partition refinement over the states reachable from the start
/// (breadth-first, symbols ascending): refine accepting vs non-accepting by
/// (block, successor blocks) signatures until the block count stops
/// growing, numbering each round's blocks by first occurrence. The oracle
/// for Minimize (src/regex/dfa.h), whose tables must be identical.
/// O(k·n²·log n): a chain of n states takes n rounds.
Dfa RefMinimizeDfa(const Dfa& dfa);

/// Number of accepting runs on trees with exactly `num_nodes` nodes,
/// saturating at UINT64_MAX — the reference twin of CountAcceptedTrees,
/// computed by top-down memoized recursion instead of the bottom-up table.
uint64_t RefCountAcceptedTrees(const Nbta& a, size_t num_nodes);

/// The all-pairs downward subset closure — the oracle for the typechecker's
/// downward search (src/core/downward.h). For a downward transducer `t`
/// (one pebble; stay/down moves only) and a complete DBTA `d` over its output
/// alphabet, builds a deterministic automaton over `input_alphabet`
/// accepting {s | T(s) ∩ inst(d) ≠ ∅}. Its states are the reachable sets
/// S(s) ⊆ Q_T × Q_D of (transducer state, D-state) pairs such that T started
/// in that state at s's root emits an output on which d ends in that
/// D-state; each S is a fixpoint that rescans every transition until nothing
/// changes, and every subset is paired with every subset under every binary
/// symbol. Refuses (kResourceExhausted) past kRefMaxDownwardSubsets subsets;
/// kInvalidArgument for a non-downward transducer or mismatched alphabets.
Result<Nbta> RefDownwardProduct(const PebbleTransducer& t, const Dbta& d,
                                const RankedAlphabet& input_alphabet);

/// Every well-ranked tree over `alphabet` with exactly `num_nodes` nodes, in
/// a deterministic order. Stops after `max_count` trees, setting
/// `*truncated` (if non-null) so callers can tell an exhaustive enumeration
/// from a clipped one.
std::vector<BinaryTree> AllTreesWithNodes(const RankedAlphabet& alphabet,
                                          size_t num_nodes, size_t max_count,
                                          bool* truncated = nullptr);

/// Every well-ranked tree with an odd node count ≤ `max_nodes`, smallest
/// sizes first; same truncation contract as AllTreesWithNodes.
std::vector<BinaryTree> AllTreesUpToNodes(const RankedAlphabet& alphabet,
                                          size_t max_nodes, size_t max_count,
                                          bool* truncated = nullptr);

}  // namespace pebbletc

#endif  // PEBBLETC_CHECK_REFERENCE_OPS_H_
