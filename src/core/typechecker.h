// The typechecker (Theorem 4.4): given a k-pebble transducer T, an input
// type τ1 and an output type τ2 (regular tree languages over the binary
// encodings), decide whether T(τ1) ⊆ τ2.
//
// Three cooperating procedures, in escalating cost:
//  1. *Bounded refutation*: enumerate small τ1-trees, and for each t decide
//     T(t) ⊆ τ2 exactly via the Prop. 3.8 automaton A_t (inst(A_t) = T(t)),
//     by the antichain on-the-fly inclusion search NbtaIncludedIn(A_t, τ2)
//     that never materializes complement(τ2) (docs/INCLUSION.md).
//     Finds concrete counterexamples (input *and* violating output)
//     quickly; cannot prove correctness.
//  2. *Downward fast path* (complete for the top-down fragment): the
//     τ1-guided antichain search of src/core/downward.h through
//     ComplementDbta(τ2), which returns a bad τ1 input or proves that none
//     exists.
//  3. *Complete decision* (any k): the paper's pipeline — Prop. 4.6 product
//     of T with complement(τ2), Theorem 4.7 MSO translation to a regular
//     tree automaton, intersection with τ1, emptiness. Non-elementary
//     (Theorem 4.8), so guarded by budgets.
//
// Inverse type inference (the paper's central notion) is exposed directly:
// InferInverseType returns an automaton for τ2⁻¹ = {t | T(t) ⊆ τ2}.

#ifndef PEBBLETC_CORE_TYPECHECKER_H_
#define PEBBLETC_CORE_TYPECHECKER_H_

#include <atomic>
#include <chrono>
#include <optional>
#include <string>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/mso/compile.h"
#include "src/pt/transducer.h"
#include "src/ta/nbta.h"
#include "src/ta/op_context.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

/// Ignored: per-input checks always run the antichain search
/// (docs/INCLUSION.md). Kept, cut to its one enumerator, only so existing
/// callers that assign TypecheckOptions::inclusion still compile.
enum class TaInclusionPath : uint8_t {
  kAntichain = 1,
};

struct TypecheckOptions {
  /// Budget for each determinization in the MSO pipeline (0 = unlimited).
  size_t max_det_states = 200000;
  /// Budget for per-tree configuration spaces (Prop. 3.8).
  size_t max_configs = 1u << 20;
  /// Ignored (see TaInclusionPath); kept so existing callers that set it
  /// still compile.
  TaInclusionPath inclusion = TaInclusionPath::kAntichain;
  /// Pair-arena budget for each antichain search (0 = unlimited): pass 1's
  /// per-input inclusion checks and pass 2's downward search over
  /// (τ1-state, S) pairs. Exceeding it surfaces as kResourceExhausted from
  /// the owning pass, like every other budget on the ladder.
  size_t max_antichain_pairs = 200000;
  /// Bounded refutation: how many τ1 trees to try (0 disables the pre-pass)
  /// and the node-count cap per tree.
  size_t refutation_max_trees = 100;
  size_t refutation_max_nodes = 15;
  /// Budgets for the 1-pebble behavior-composition path (complete for
  /// machines with up-moves whose product stays small; tables are
  /// 2^state_bits entries).
  uint32_t behavior_max_state_bits = 12;
  size_t behavior_max_behaviors = 4096;
  /// Run the complete (non-elementary) decision when cheaper passes are
  /// inconclusive.
  bool run_complete_decision = true;
  /// Content-addressed op cache (docs/CACHING.md). kOff (the default)
  /// preserves the cold path bit-for-bit — the serial oracle and the
  /// fault-injection harness rely on that. kInMemory records, in the
  /// process-wide TaOpCache, each downward triple that pass 2 proves, and
  /// answers a repeat of it from that proof; every other run is computed
  /// cold.
  TaMemoMode memo = TaMemoMode::kOff;

  // --- execution control (threaded into the shared TaOpContext) ---

  /// Wall-clock deadline for the whole run, relative to the Typecheck call.
  /// On expiry every in-flight pass unwinds with kDeadlineExceeded and the
  /// run degrades to kUnknown (plus the salvage search below). Unset = none.
  std::optional<std::chrono::milliseconds> deadline;
  /// Cooperative cancellation: polled at every checkpoint; set it from
  /// another thread to abort the run with kCancelled. Must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Checkpoints between deadline clock polls (see TaOpBudgets).
  uint32_t checkpoint_stride = 256;
  /// Deterministic fault injection for robustness tests: trips the Nth
  /// checkpoint of the run with a chosen Status code. Not owned.
  TaFaultInjector* fault_injector = nullptr;
  /// Ignored by Typecheck, CheckOnInput and InferInverseType: the pipeline
  /// is one chain of dependent automaton ops and always runs serial
  /// (docs/PARALLEL.md, "What stays serial"). Kept so existing callers that
  /// set it still compile.
  uint32_t num_threads = 0;

  // --- graceful degradation (the verdict ladder's last rung) ---

  /// When the exact passes exhaust a budget or the deadline, run a small
  /// best-effort counterexample search (enumerate/sample τ1 inputs, compare
  /// outputs against τ2 directly — no complementation needed) that can still
  /// upgrade kUnknown to kCounterexample with a concrete witness. Its bounds
  /// are fixed (src/core/typechecker.cc).
  bool degrade_on_exhaustion = true;
};

enum class TypecheckVerdict {
  /// Proven: every output of T on every τ1 input conforms to τ2.
  kTypechecks,
  /// Refuted: a concrete input/output counterexample is attached.
  kCounterexample,
  /// All enabled procedures exhausted their budgets / deadline; neither
  /// proven nor refuted.
  kUnknown,
};

/// Why (and where) a run failed to reach an exact verdict. Populated the
/// first time a pass exhausts a budget, deadline, or cancellation; later
/// passes may still decide the instance, in which case `exhausted` stays
/// true but the verdict is exact.
struct ExhaustionReport {
  /// Whether any pass was cut short.
  bool exhausted = false;
  /// kResourceExhausted, kDeadlineExceeded, kCancelled, or kLimitExceeded
  /// (a structural cap such as the MSO route's 20-track limit).
  StatusCode code = StatusCode::kOk;
  /// The pass that first exhausted: "output-complement",
  /// "bounded-refutation", "downward-fastpath", "complete-decision", or
  /// "degraded-enumeration".
  std::string pass;
  /// The underlying Status message.
  std::string detail;
  /// Counter snapshot at the moment of first exhaustion.
  TaOpCounters counters;
};

struct TypecheckResult {
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  /// For kCounterexample: a τ1 input whose image leaves τ2, and (when the
  /// deciding procedure can exhibit one) a violating output.
  std::optional<BinaryTree> counterexample_input;
  std::optional<BinaryTree> counterexample_output;
  /// Which procedure decided: "bounded-refutation", "downward-fastpath",
  /// "behavior-complete", "mso-complete", "degraded-enumeration", or "none".
  std::string method = "none";
  /// Budget failures encountered along the way (empty if none).
  std::string notes;
  /// Structured report of the first budget/deadline/cancellation hit.
  ExhaustionReport exhausted;
  /// MSO compilation metrics when the complete pipeline ran.
  MsoCompileStats mso_stats;
  /// Unified automaton-operation cost profile for the whole run: every pass
  /// shares one TaOpContext, so these counters cover the complete pipeline
  /// (states materialized, rules scanned, determinizations, wall time, and
  /// the frontier counters det_pairs_expanded / det_subsets_interned from
  /// every subset construction along the way — see docs/DETERMINIZE.md).
  TaOpCounters op_counters;
};

class Typechecker {
 public:
  /// The transducer and its alphabets. The alphabets must match the
  /// transducer's declared sizes (checked in Typecheck/Infer calls).
  Typechecker(const PebbleTransducer& transducer,
              const RankedAlphabet& input_alphabet,
              const RankedAlphabet& output_alphabet);

  /// Decides (or refutes / gives up on) T(τ1) ⊆ τ2.
  Result<TypecheckResult> Typecheck(const Nbta& input_type,
                                    const Nbta& output_type,
                                    const TypecheckOptions& options = {}) const;

  /// Inverse type inference: an automaton for {t | T(t) ⊆ output_type},
  /// via the complete pipeline. Non-elementary; honors the MSO budgets.
  /// Operands that do not match the alphabets return kInvalidArgument.
  Result<Nbta> InferInverseType(const Nbta& output_type,
                                const TypecheckOptions& options = {}) const;

  /// Exact per-input check: T(input) ⊆ output_type? On refutation fills
  /// `*violating_output` (if non-null) with a witness output. Runs the
  /// complement-free antichain search (budget `max_antichain_pairs`,
  /// exhaustion code kResourceExhausted) and honors deadline/cancel with
  /// kDeadlineExceeded/kCancelled. Operands that do not match the
  /// alphabets return kInvalidArgument.
  Result<bool> CheckOnInput(const BinaryTree& input, const Nbta& output_type,
                            const TypecheckOptions& options = {},
                            std::optional<BinaryTree>* violating_output =
                                nullptr) const;

 private:
  // {t | T(t) ∩ inst(not_tau2) ≠ ∅} as a regular automaton, where
  // `not_tau2` is ComplementDbta of the output type: the Prop. 4.6 product
  // regularized by behavior composition (1-pebble, when it fits) or the
  // Thm 4.7 MSO route. Shared by Typecheck's pass 3 and InferInverseType.
  // `*method` (if non-null) reports which route ran.
  Result<Nbta> BadInputsAutomaton(const Dbta& not_tau2,
                                  MsoCompileStats* stats, std::string* method,
                                  TaOpContext* ctx) const;

  // Last rung of the degradation ladder: when every exact pass exhausted,
  // enumerate/sample small τ1 inputs and compare their outputs against τ2
  // *directly* (NbtaAccepts membership — no complementation, so it works
  // even when complement(τ2) was the budget that blew). Runs on a fresh
  // context with its own small deadline; can upgrade the verdict in
  // `*result` from kUnknown to kCounterexample, never to kTypechecks.
  void RunDegradedSearch(const Nbta& input_type, const Nbta& output_type,
                         const TypecheckOptions& options,
                         TypecheckResult* result) const;

  // The one per-input check behind pass 1, CheckOnInput and the violating-
  // output recovery of passes 2/3: T(input) ⊆ τ2 via NbtaIncludedIn of the
  // Prop. 3.8 output automaton against a shared index of τ2 itself, so no
  // complement is built. A refutation's inclusion counterexample *is* the
  // violating output.
  Result<bool> CheckOnInputAntichain(
      const BinaryTree& input, const NbtaIndex& tau2_idx, TaOpContext* ctx,
      std::optional<BinaryTree>* violating_output) const;

  const PebbleTransducer& transducer_;
  const RankedAlphabet& input_alphabet_;
  const RankedAlphabet& output_alphabet_;
};

}  // namespace pebbletc

#endif  // PEBBLETC_CORE_TYPECHECKER_H_
