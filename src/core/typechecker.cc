#include "src/core/typechecker.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/downward.h"
#include "src/pa/behavior.h"
#include "src/pa/product.h"
#include "src/pa/to_mso.h"
#include "src/pt/eval.h"
#include "src/ta/convert.h"
#include "src/ta/enumerate.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_cache.h"
#include "src/ta/topdown.h"
#include "src/tree/random_tree.h"

namespace pebbletc {

namespace {

// One shared budget/metrics/execution-control context per pipeline run,
// seeded from the caller-facing options.
TaOpContext MakeContext(const TypecheckOptions& options) {
  TaOpBudgets budgets;
  budgets.max_det_states = options.max_det_states;
  budgets.max_configs = options.max_configs;
  budgets.max_antichain_pairs = options.max_antichain_pairs;
  budgets.behavior_max_state_bits = options.behavior_max_state_bits;
  if (options.deadline.has_value()) {
    budgets.deadline = std::chrono::steady_clock::now() + *options.deadline;
  }
  budgets.cancel = options.cancel;
  budgets.memo = options.memo;
  TaOpContext ctx(budgets);
  ctx.fault = options.fault_injector;
  return ctx;
}

// Codes on which the ladder degrades to the next pass instead of failing the
// whole call: per-op budgets, the run deadline, cooperative cancellation, and
// structural limits. Everything else (kInternal, kInvalidArgument, ...) is a
// hard error.
bool IsExhaustion(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled || code == StatusCode::kLimitExceeded;
}

// Salvage-search bounds (RunDegradedSearch): τ1 inputs tried (enumerated
// smallest-first plus random samples), per-tree node caps, outputs tested
// per input, and a fresh wall-clock budget (the main deadline has already
// expired).
constexpr size_t kDegradedMaxInputTrees = 48;
constexpr size_t kDegradedMaxInputNodes = 9;
constexpr size_t kDegradedMaxOutputNodes = 17;
constexpr size_t kDegradedOutputsPerInput = 16;
constexpr size_t kDegradedRandomSamples = 32;
constexpr std::chrono::milliseconds kDegradedBudget{25};

}  // namespace

Typechecker::Typechecker(const PebbleTransducer& transducer,
                         const RankedAlphabet& input_alphabet,
                         const RankedAlphabet& output_alphabet)
    : transducer_(transducer),
      input_alphabet_(input_alphabet),
      output_alphabet_(output_alphabet) {}

Result<bool> Typechecker::CheckOnInputAntichain(
    const BinaryTree& input, const NbtaIndex& tau2_idx, TaOpContext* ctx,
    std::optional<BinaryTree>* violating_output) const {
  PEBBLETC_ASSIGN_OR_RETURN(
      Nbta outputs,
      BuildOutputNbta(transducer_, input, ctx->budgets.max_configs, ctx));
  NbtaIndex outputs_idx(outputs, ctx);
  // The per-input inclusion bypasses the op cache: every enumerated tree
  // yields a distinct operand hash that would never be re-hit
  // (docs/CACHING.md).
  PEBBLETC_ASSIGN_OR_RETURN(
      NbtaInclusionResult incl,
      NbtaIncludedIn(outputs_idx, tau2_idx, output_alphabet_, ctx));
  if (!incl.included) {
    if (violating_output != nullptr) {
      *violating_output = std::move(incl.counterexample);
    }
    return false;
  }
  return true;
}

Result<bool> Typechecker::CheckOnInput(
    const BinaryTree& input, const Nbta& output_type,
    const TypecheckOptions& options,
    std::optional<BinaryTree>* violating_output) const {
  PEBBLETC_RETURN_IF_ERROR(
      transducer_.Validate(input_alphabet_, output_alphabet_));
  PEBBLETC_RETURN_IF_ERROR(output_type.Validate(output_alphabet_));
  TaOpContext ctx = MakeContext(options);
  NbtaIndex tau2_idx(output_type, &ctx);
  return CheckOnInputAntichain(input, tau2_idx, &ctx, violating_output);
}

Result<Nbta> Typechecker::BadInputsAutomaton(const Dbta& not_tau2,
                                             MsoCompileStats* stats,
                                             std::string* method,
                                             TaOpContext* ctx) const {
  // Prop. 4.6: A = T × complement(τ2) accepts {t | T(t) ⊄ τ2}, built over
  // the trimmed NBTA view of ¬τ2. A trim cut short by the sticky interrupt
  // is partial, so it never feeds the product.
  const Nbta not_tau2_trimmed =
      TrimNbta(NbtaIndex(not_tau2.ToNbta(output_alphabet_), ctx), ctx);
  PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(ctx));
  TopDownTA b = NbtaToTopDown(not_tau2_trimmed, ctx);
  PEBBLETC_ASSIGN_OR_RETURN(PebbleAutomaton product,
                            TransducerTimesTopDown(transducer_, b, ctx));
  // Regularize. For one pebble, behavior composition reaches machines the
  // MSO route cannot; fall back to Thm 4.7's construction otherwise.
  if (transducer_.max_pebbles() == 1) {
    auto by_behavior = OnePebbleToNbtaByBehavior(product, input_alphabet_, ctx);
    if (by_behavior.ok()) {
      if (method != nullptr) *method = "behavior-complete";
      return by_behavior;
    }
    // Fall through to the MSO route only on behavior composition's own
    // budget codes. A deadline or cancellation ends the run here: the MSO
    // route's prelude (PebbleAutomatonToMso, AnalyzeMso, TrackAlphabet::Make)
    // takes no context, so it would run in full before its first checkpoint
    // returned the sticky code.
    const StatusCode code = by_behavior.status().code();
    if (code != StatusCode::kResourceExhausted &&
        code != StatusCode::kLimitExceeded) {
      return by_behavior.status();
    }
  }
  MsoCompileOptions mso;
  mso.stats = stats;
  mso.ctx = ctx;
  if (method != nullptr) *method = "mso-complete";
  return PebbleAutomatonToNbta(product, input_alphabet_, mso);
}

Result<Nbta> Typechecker::InferInverseType(
    const Nbta& output_type, const TypecheckOptions& options) const {
  PEBBLETC_RETURN_IF_ERROR(
      transducer_.Validate(input_alphabet_, output_alphabet_));
  PEBBLETC_RETURN_IF_ERROR(output_type.Validate(output_alphabet_));
  TaOpContext ctx = MakeContext(options);
  PEBBLETC_ASSIGN_OR_RETURN(
      Dbta not_tau2,
      ComplementDbta(NbtaIndex(output_type, &ctx), output_alphabet_, &ctx));
  PEBBLETC_ASSIGN_OR_RETURN(
      Nbta bad, BadInputsAutomaton(not_tau2, nullptr, nullptr, &ctx));
  PEBBLETC_ASSIGN_OR_RETURN(
      Nbta inverse,
      ComplementNbta(NbtaIndex(bad, &ctx), input_alphabet_, &ctx));
  Nbta trimmed = TrimNbta(NbtaIndex(inverse, &ctx), &ctx);
  // A partially trimmed inverse type would under-approximate τ2⁻¹ silently;
  // fail instead.
  PEBBLETC_RETURN_IF_ERROR(TaInterruptStatus(&ctx));
  return trimmed;
}

Result<TypecheckResult> Typechecker::Typecheck(
    const Nbta& input_type, const Nbta& output_type,
    const TypecheckOptions& options) const {
  PEBBLETC_RETURN_IF_ERROR(
      transducer_.Validate(input_alphabet_, output_alphabet_));
  PEBBLETC_RETURN_IF_ERROR(input_type.Validate(input_alphabet_));
  PEBBLETC_RETURN_IF_ERROR(output_type.Validate(output_alphabet_));

  TaOpContext ctx = MakeContext(options);
  TypecheckResult result;

  // The downward proof (docs/CACHING.md): a prior run whose pass 2 proved
  // this (τ1, τ2, transducer, caps) triple typechecks recorded the fact
  // under a key of the *input* hashes, so a repeat decision probes with two
  // small hashes and returns. Pass 2 is exact, so the skipped passes could
  // only have agreed. Every other outcome is recomputed cold.
  std::optional<TaCacheKey> proof_key;
  if (TaMemoEnabled(&ctx) && IsDownwardTransducer(transducer_)) {
    proof_key = MakeTaCacheKey(
        TaOpKind::kDownwardProof, NbtaStructuralHash(input_type),
        NbtaStructuralHash(output_type),
        TaMixFingerprints(
            TaMixFingerprints(RankedAlphabetFingerprint(input_alphabet_),
                              RankedAlphabetFingerprint(output_alphabet_)),
            TransducerFingerprint(transducer_)),
        TaMixFingerprints(ctx.budgets.max_det_states,
                          ctx.budgets.max_antichain_pairs));
    if (TaOpCache::Global().FindProof(*proof_key, &ctx)) {
      result.verdict = TypecheckVerdict::kTypechecks;
      result.method = "downward-fastpath";
      result.op_counters = ctx.counters;
      return result;
    }
  }

  // Records the first budget/deadline/cancellation hit (later ones only
  // append to the notes) and keeps the ladder descending.
  auto note_exhaustion = [&](const char* pass, const Status& s) {
    result.notes += std::string(pass) + ": " + s.ToString() + "; ";
    if (!result.exhausted.exhausted) {
      result.exhausted.exhausted = true;
      result.exhausted.code = s.code();
      result.exhausted.pass = pass;
      result.exhausted.detail = std::string(s.message());
      result.exhausted.counters = ctx.counters;
    }
  };

  // Every per-input check (pass 1, and recovering a violating output for a
  // pass 2/3 witness) runs against this one index of τ2, and the complement
  // of τ2 is built off it.
  NbtaIndex tau2_idx(output_type, &ctx);

  // Pass 1: bounded refutation — exact per-input checks on small τ1 trees,
  // each checked as soon as the enumeration closes its size, so the first
  // violator ends the run before any larger tree is built.
  if (options.refutation_max_trees > 0) {
    size_t checked = 0;
    Status check_failed;
    const EnumerationEnd end = ForEachAcceptedTree(
        input_type, options.refutation_max_nodes, &ctx, [&](BinaryTree input) {
          std::optional<BinaryTree> violating;
          Result<bool> ok =
              CheckOnInputAntichain(input, tau2_idx, &ctx, &violating);
          if (!ok.ok()) {
            check_failed = ok.status();
            return false;
          }
          if (!*ok) {
            result.verdict = TypecheckVerdict::kCounterexample;
            result.counterexample_input = std::move(input);
            result.counterexample_output = std::move(violating);
            return false;
          }
          return ++checked < options.refutation_max_trees;
        });
    if (result.verdict == TypecheckVerdict::kCounterexample) {
      result.method = "bounded-refutation";
      result.op_counters = ctx.counters;
      return result;
    }
    // An interrupt inside the enumeration is named for this pass, not for
    // the next one to checkpoint.
    const Status stop =
        end == EnumerationEnd::kInterrupted ? ctx.interrupt() : check_failed;
    if (!stop.ok()) {
      if (!IsExhaustion(stop.code())) return stop;
      note_exhaustion("bounded-refutation", stop);
    } else if (end == EnumerationEnd::kStoreFull) {
      // A bound on the pre-pass like refutation_max_trees, not an
      // exhaustion: passes 2 and 3 decide as usual.
      result.notes += "bounded-refutation: enumeration stopped at its cap of " +
                      std::to_string(kMaxEnumeratedTrees) + " trees; ";
    }
  }

  // Passes 2/3 need the complement of τ2, so it is built only here: a
  // pass-1 refutation returns without ever determinizing τ2. Pass 2 searches
  // the DBTA as built; only pass 3 takes its NBTA view. If it exhausts its
  // budget, both passes are skipped with the exhaustion noted.
  std::optional<Dbta> not_tau2;
  if (IsDownwardTransducer(transducer_) || options.run_complete_decision) {
    Result<Dbta> complement = ComplementDbta(tau2_idx, output_alphabet_, &ctx);
    if (complement.ok()) {
      not_tau2.emplace(std::move(*complement));
    } else if (IsExhaustion(complement.status().code())) {
      note_exhaustion("output-complement", complement.status());
    } else {
      return complement.status();
    }
  }

  // Pass 2: complete decision for the downward fragment — the τ1-guided
  // search for an input whose image meets ¬τ2.
  if (IsDownwardTransducer(transducer_) && not_tau2.has_value()) {
    auto verdict = [&]() -> Result<TypecheckResult> {
      PEBBLETC_ASSIGN_OR_RETURN(
          std::optional<BinaryTree> witness,
          FindDownwardBadInput(transducer_, *not_tau2,
                               NbtaIndex(input_type, &ctx), input_alphabet_,
                               &ctx));
      TypecheckResult r;
      r.method = "downward-fastpath";
      if (!witness.has_value()) {
        // The search returns "none" only from an uninterrupted run, so this
        // is a proof; only a proof is cached.
        r.verdict = TypecheckVerdict::kTypechecks;
        if (proof_key.has_value()) {
          TaOpCache::Global().InsertProof(*proof_key, &ctx);
        }
        return r;
      }
      r.verdict = TypecheckVerdict::kCounterexample;
      // Recover a violating output for the witness input.
      std::optional<BinaryTree> violating;
      auto per_tree =
          CheckOnInputAntichain(*witness, tau2_idx, &ctx, &violating);
      if (per_tree.ok() && !*per_tree) {
        r.counterexample_output = std::move(violating);
      }
      r.counterexample_input = std::move(witness);
      return r;
    }();
    if (verdict.ok()) {
      verdict->notes = result.notes + verdict->notes;
      verdict->exhausted = result.exhausted;
      verdict->op_counters = ctx.counters;
      return verdict;
    }
    if (!IsExhaustion(verdict.status().code())) {
      return verdict.status();
    }
    note_exhaustion("downward-fastpath", verdict.status());
  }

  // Pass 3: the complete (non-elementary) decision.
  if (options.run_complete_decision && not_tau2.has_value()) {
    std::string method = "mso-complete";
    auto bad =
        BadInputsAutomaton(*not_tau2, &result.mso_stats, &method, &ctx);
    if (bad.ok()) {
      Nbta offending = IntersectNbta(NbtaIndex(input_type, &ctx),
                                     NbtaIndex(*bad, &ctx), &ctx);
      std::optional<BinaryTree> witness =
          WitnessTree(NbtaIndex(offending, &ctx), &ctx);
      result.method = method;
      if (!witness.has_value()) {
        Status interrupt = TaInterruptStatus(&ctx);
        if (interrupt.ok()) {
          result.verdict = TypecheckVerdict::kTypechecks;
          result.op_counters = ctx.counters;
          return result;
        }
        if (!IsExhaustion(interrupt.code())) return interrupt;
        note_exhaustion("complete-decision", interrupt);
      } else {
        result.verdict = TypecheckVerdict::kCounterexample;
        std::optional<BinaryTree> violating;
        auto per_tree =
            CheckOnInputAntichain(*witness, tau2_idx, &ctx, &violating);
        if (per_tree.ok() && !*per_tree) {
          result.counterexample_output = std::move(violating);
        }
        result.counterexample_input = std::move(witness);
        result.op_counters = ctx.counters;
        return result;
      }
    } else {
      if (!IsExhaustion(bad.status().code())) {
        return bad.status();
      }
      note_exhaustion("complete-decision", bad.status());
    }
  }

  // Every exact pass exhausted (or was disabled): try the salvage search,
  // which can still produce a concrete counterexample but never an
  // (unsound) kTypechecks.
  result.verdict = TypecheckVerdict::kUnknown;
  result.method = "none";
  if (result.exhausted.exhausted) {
    RunDegradedSearch(input_type, output_type, options, &result);
  }
  result.op_counters = ctx.counters;
  return result;
}

void Typechecker::RunDegradedSearch(const Nbta& input_type,
                                    const Nbta& output_type,
                                    const TypecheckOptions& options,
                                    TypecheckResult* result) const {
  if (!options.degrade_on_exhaustion) return;
  // Cancellation means the caller wants out now, not a best-effort answer.
  if (result->exhausted.code == StatusCode::kCancelled) return;
  // Fresh context: the main run's interrupt is sticky (its deadline has
  // already passed), so the salvage search gets its own small wall-clock
  // budget. The caller's cancel flag still applies.
  TaOpBudgets budgets;
  budgets.max_configs = options.max_configs;
  budgets.deadline = std::chrono::steady_clock::now() + kDegradedBudget;
  budgets.cancel = options.cancel;
  TaOpContext ctx(budgets);

  NbtaIndex tau1_idx(input_type, &ctx);
  NbtaIndex tau2_idx(output_type, &ctx);

  // Small τ1 inputs, smallest-first; top up with random τ1 samples so the
  // search is not limited to the enumeration's prefix.
  std::vector<BinaryTree> inputs = EnumerateAcceptedTrees(
      input_type, kDegradedMaxInputNodes, kDegradedMaxInputTrees, &ctx);
  const bool has_binary = !input_alphabet_.BinarySymbols().empty();
  Rng rng(0x70656262u);  // fixed seed: the search is deterministic
  for (size_t i = 0; i < kDegradedRandomSamples && has_binary; ++i) {
    if (!TaCheckpoint(&ctx).ok()) break;
    // A tree with k internal nodes has 2k + 1 nodes, so k ≤ (cap - 1) / 2
    // keeps every sample within the node cap.
    const size_t internal =
        1 + rng.NextBelow((kDegradedMaxInputNodes - 1) / 2);
    BinaryTree t = RandomBinaryTree(input_alphabet_, rng, internal);
    if (NbtaAccepts(tau1_idx, t)) inputs.push_back(std::move(t));
  }

  size_t tried = 0;
  for (const BinaryTree& input : inputs) {
    if (!TaCheckpoint(&ctx).ok()) break;
    auto outputs = EnumerateOutputs(transducer_, input,
                                    kDegradedMaxOutputNodes,
                                    kDegradedOutputsPerInput,
                                    options.max_configs, &ctx);
    if (!outputs.ok()) {
      // A per-input config blowup may not recur on the next input; anything
      // else (deadline, cancel, hard errors) ends the salvage attempt.
      if (outputs.status().code() == StatusCode::kResourceExhausted) continue;
      break;
    }
    ++tried;
    for (const BinaryTree& out : *outputs) {
      if (!NbtaAccepts(tau2_idx, out)) {
        result->verdict = TypecheckVerdict::kCounterexample;
        result->method = "degraded-enumeration";
        result->counterexample_input = input;
        result->counterexample_output = out;
        result->notes += "degraded-enumeration: violation found; ";
        return;
      }
    }
  }
  result->notes += "degraded-enumeration: no violation across " +
                   std::to_string(tried) + " inputs; ";
}

}  // namespace pebbletc
