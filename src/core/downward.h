// The practical typechecking path for the *top-down fragment*: 1-pebble
// transducers whose moves only go downwards (stay / down-left / down-right).
// Classical top-down transducers (Def. 3.2) embed into this fragment, which
// covers the XSLT-style template languages of Section 5's "restricted cases
// of practical interest".
//
// For a downward transducer T and a *deterministic* bottom-up automaton D
// over the output alphabet, the run of T below a node depends only on that
// node's subtree t. Summarize t by S(t) ⊆ Q_T × Q_D, the pairs (q, d) such
// that T started in q at t's root emits some output on which D ends in d.
// S(a(t1, t2)) is a least fixpoint over S(t1) and S(t2), monotone in both.
// FindDownwardBadInput searches bottom-up for an input t in τ1 with
// (start, accepting d) ∈ S(t), i.e. T(t) ∩ inst(D) ≠ ∅. It is the
// Q_T × Q_D domain of the antichain engine (src/ta/antichain.h), guided by
// τ1: it explores (τ1-state, S) pairs only along τ1's rules and keeps only
// the ⊆-maximal S per τ1 state, since "bad" is closed under supersets.
// This is Frisch–Hosoya's on-the-fly backward inference on the fragment
// Martens–Neven analyse — exponential in the worst case (the paper's
// discussion of §5), but it visits only the pairs τ1 can reach. The
// all-pairs closure it replaced lives on as the oracle RefDownwardProduct
// (src/check/reference_ops.h).

#ifndef PEBBLETC_CORE_DOWNWARD_H_
#define PEBBLETC_CORE_DOWNWARD_H_

#include <optional>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/pt/transducer.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// True if `t` is in the downward fragment: one pebble and only
/// stay/down-left/down-right moves.
bool IsDownwardTransducer(const PebbleTransducer& t);

/// Exact FNV-1a fingerprint of a transducer's transition table — the
/// transducer operand of the downward proof's cache key (docs/CACHING.md).
/// Transducers are parsed structures, never products of automaton ops, so
/// representation hashing is canonical here.
uint64_t TransducerFingerprint(const PebbleTransducer& t);

/// A tree in inst(input_type) whose image under `t` meets inst(d), or
/// nullopt when there is none (T(τ1) ∩ inst(D) = ∅). The witness is replayed
/// from the first bad pair's provenance; it is genuine but not necessarily
/// smallest.
///
/// Budget: the (τ1-state, S) pairs count against `max_antichain_pairs`
/// (0 = unlimited) and into `incl_pairs_interned` / `incl_pairs_pruned`;
/// exceeding it returns kResourceExhausted. Deadline / cancellation / fault
/// checkpoints (per popped pair, per offered pair, per computed S and per
/// witness node) surface as kDeadlineExceeded / kCancelled / the injected
/// code; nullopt is returned only from an uninterrupted search. Fails with
/// kInvalidArgument if `t` is not downward or the alphabets mismatch.
Result<std::optional<BinaryTree>> FindDownwardBadInput(
    const PebbleTransducer& t, const Dbta& d, const NbtaIndex& input_type,
    const RankedAlphabet& input_alphabet, TaOpContext* ctx = nullptr);

}  // namespace pebbletc

#endif  // PEBBLETC_CORE_DOWNWARD_H_
