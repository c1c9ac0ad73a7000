// Compilation of MSO sentences over binary trees into bottom-up tree
// automata — the classical "MSO = regular" construction (non-elementary in
// the quantifier alternation depth), which the proof of Theorem 4.7 cites.
//
// The compiler assigns every variable id its own track over the extended
// alphabet Σ × {0,1}^NV, builds small automata for atoms, intersects/unions
// for ∧/∨, complements (with singleton-revalidation of free first-order
// variables) for ¬, and projects tracks for ∃. Sub-formulas shared as
// pointers are compiled once (the Theorem 4.7 translation shares its
// replicated φ^{(i)} blocks this way); each cached automaton carries its
// compiled NbtaIndex so every consumer reuses one set of rule indexes.
// Intermediate automata are trimmed between steps. Every budget — the
// per-complement `max_det_states` above all — is read from the TaOpBudgets
// of the context the caller passes (or of a default context when none is
// given).
//
// Contract: the input must be a *sentence* — every used variable is bound,
// and every occurrence of a variable lies inside its binder's scope. (A free
// occurrence outside any binder would silently receive existential
// semantics from the final projection.)

#ifndef PEBBLETC_MSO_COMPILE_H_
#define PEBBLETC_MSO_COMPILE_H_

#include <cstddef>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/mso/formula.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"

namespace pebbletc {

/// Metrics from a compilation run, for the Theorem 4.8 blowup benchmarks.
struct MsoCompileStats {
  size_t automata_built = 0;
  size_t complementations = 0;
  size_t max_intermediate_states = 0;
  size_t cache_hits = 0;
};

struct MsoCompileOptions {
  /// Optional metrics sink.
  MsoCompileStats* stats = nullptr;
  /// Unified budget/metrics context shared with the rest of the pipeline.
  /// When null, the compiler runs its own context with default budgets.
  TaOpContext* ctx = nullptr;
};

/// Compiles a sentence into an automaton over `base` with
/// inst(result) = { t | t ⊨ sentence }. Non-elementary in general; fails
/// with kResourceExhausted when the context's `max_det_states` trips.
Result<Nbta> CompileMsoSentence(const MsoPtr& sentence,
                                const RankedAlphabet& base,
                                const MsoCompileOptions& options = {});

/// Satisfiability over `base`: is there a tree satisfying the sentence?
/// Returns the witness-enabled automaton emptiness result.
Result<bool> MsoSatisfiable(const MsoPtr& sentence, const RankedAlphabet& base,
                            const MsoCompileOptions& options = {});

}  // namespace pebbletc

#endif  // PEBBLETC_MSO_COMPILE_H_
