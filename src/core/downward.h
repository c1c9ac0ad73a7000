// The practical typechecking path for the *top-down fragment*: 1-pebble
// transducers whose moves only go downwards (stay / down-left / down-right).
// Classical top-down transducers (Def. 3.2) embed into this fragment, which
// covers the XSLT-style template languages of Section 5's "restricted cases
// of practical interest".
//
// For a downward transducer T and a *deterministic* bottom-up automaton D
// over the output alphabet, the set {t | T(t) ∩ inst(D) ≠ ∅} is computed
// directly by a lazy subset construction over Q_T × Q_D — exponential in the
// worst case (the paper's 2-EXPTIME discussion) but far below the
// non-elementary general pipeline, and cheap on realistic machines.

#ifndef PEBBLETC_CORE_DOWNWARD_H_
#define PEBBLETC_CORE_DOWNWARD_H_

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/pt/transducer.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"

namespace pebbletc {

/// True if `t` is in the downward fragment: one pebble and only
/// stay/down-left/down-right moves.
bool IsDownwardTransducer(const PebbleTransducer& t);

/// Exact FNV-1a fingerprint of a transducer's transition table — the
/// transducer operand of the downward proof's cache key (docs/CACHING.md).
/// Transducers are parsed structures, never products of automaton ops, so
/// representation hashing is canonical here.
uint64_t TransducerFingerprint(const PebbleTransducer& t);

/// Builds a (deterministic, reachable-subset) bottom-up automaton over the
/// input alphabet accepting { t | T(t) ∩ inst(D) ≠ ∅ }, using the same
/// frontier discipline as DeterminizeNbta (docs/DETERMINIZE.md): each
/// (symbol, subset, subset) pair is expanded exactly once. The context's
/// `fastpath_max_states` budget bounds the subset space (0 = unlimited),
/// aborting with kResourceExhausted; deadline/cancel checkpoints surface as
/// kDeadlineExceeded / kCancelled. `det_subsets_interned` and
/// `det_pairs_expanded` record frontier progress on every exit path. Fails
/// with kInvalidArgument if `t` is not downward or alphabets mismatch.
Result<Nbta> DownwardProductAutomaton(const PebbleTransducer& t, const Dbta& d,
                                      const RankedAlphabet& input_alphabet,
                                      TaOpContext* ctx);

/// Convenience form: `max_states` bounds the subset space (0 = unlimited).
Result<Nbta> DownwardProductAutomaton(const PebbleTransducer& t, const Dbta& d,
                                      const RankedAlphabet& input_alphabet,
                                      size_t max_states = 0);

}  // namespace pebbletc

#endif  // PEBBLETC_CORE_DOWNWARD_H_
