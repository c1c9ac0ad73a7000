// Compiled membership: the validation fast path (docs/VALIDATION.md).
//
// The general membership route (NbtaAccepts) tracks a reachable-state bitset
// per tree node — one heap vector<bool> and one rule scan per node. For the
// serving workload ("does this document conform to this schema?", answered
// millions of times per artifact) that is the wrong trade: the automaton is
// fixed, so we can pay determinization ONCE per artifact and then answer
// every instance with a single bottom-up pass doing one O(1) flat-table
// lookup per node (Frisch–Hosoya's practical-typechecking move; the compiled
// DBTA is the Martens–Neven steady-state artifact).
//
// MembershipEngine::Compile determinizes the validating NBTA through
// TaAlgebra::Determinize (memoized under TaOpKind::kDeterminize, so every
// request after the first fetches the table by shared_ptr). When
// determinization exceeds its `max_det_states` budget the engine degrades to
// the NbtaAccepts route — correct, just slower — and says so through the
// `membership_fallbacks` counter; fast-path answers bump
// `membership_fast_hits`. Deadline/cancel interrupts propagate unchanged.
//
// StreamingValidateXml goes one step further for XML instances: it folds the
// DBTA over the parse events directly (a state stack mirroring the element
// stack, with the Section 2.1 encoding applied on the fly), never
// materializing the tree at all: one pass over the bytes decides both
// well-formedness and membership, and its only allocations are the event
// reader's open-element stack and the fold's two state stacks, on the
// ordinary heap.

#ifndef PEBBLETC_TA_MEMBERSHIP_H_
#define PEBBLETC_TA_MEMBERSHIP_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_cache.h"
#include "src/ta/op_context.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// A validating automaton compiled for repeated membership queries. Cheap to
/// copy (shared payloads); safe to share across threads once compiled (all
/// queries are const and take their own context).
class MembershipEngine {
 public:
  /// A default-constructed engine is an empty shell (for aggregate members);
  /// it must be assigned from Compile() before Accepts() may be called.
  MembershipEngine() = default;

  /// Compiles `nbta` (over `sigma`) for membership. Determinization runs
  /// through TaAlgebra against `cache` (null = the process-wide cache) under
  /// `ctx`'s budgets; kResourceExhausted degrades to the fallback engine
  /// rather than failing, while kDeadlineExceeded / kCancelled propagate —
  /// the caller's request is over either way.
  static Result<MembershipEngine> Compile(const Nbta& nbta,
                                          const RankedAlphabet& sigma,
                                          TaOpContext* ctx = nullptr,
                                          TaOpCache* cache = nullptr);

  /// Membership of `tree`. Fast path: one table lookup per node into a
  /// per-node state array. Fallback path: NbtaAccepts on the shared index.
  /// Checkpoints per node, so deadline/cancel/fault interrupts surface as
  /// errors.
  Result<bool> Accepts(const BinaryTree& tree,
                       TaOpContext* ctx = nullptr) const;

  /// True when queries run on the compiled table (false = NbtaAccepts
  /// fallback).
  bool fast() const { return table_ != nullptr; }

  /// The compiled run table, or null for a fallback engine.
  std::shared_ptr<const Dbta> table() const { return table_; }

  const Nbta& nbta() const { return *nbta_; }

 private:
  std::shared_ptr<const Nbta> nbta_;
  std::shared_ptr<const NbtaIndex> index_;  // fallback route
  std::shared_ptr<const Dbta> table_;       // fast route; null = fallback
};

/// Verdict of a streaming validation.
struct StreamVerdict {
  /// Root state accepted. False whenever `unknown_tag` is set.
  bool accepted = false;
  /// First tag (document order) outside the schema alphabet, or empty. The
  /// document is drained for well-formedness either way (a parse error wins
  /// over an unknown tag, matching the tree-materializing route).
  std::string unknown_tag;
};

/// Validates an XML document against a compiled run table without building
/// the tree: folds `table` over the parse events, applying the Section 2.1
/// unranked→binary encoding on the fly via `enc` (tags resolved against
/// `tags`). Parse errors and checkpoint interrupts return as Status errors.
Result<StreamVerdict> StreamingValidateXml(std::string_view xml,
                                           const Dbta& table,
                                           const EncodedAlphabet& enc,
                                           const Alphabet& tags,
                                           TaOpContext* ctx = nullptr);

}  // namespace pebbletc

#endif  // PEBBLETC_TA_MEMBERSHIP_H_
