// Unified budget + metrics + execution-control context for tree-automaton
// operations.
//
// Every potentially expensive automaton operation (determinization, subset
// constructions, products, trims, behavior composition) historically took its
// own loose `max_states`-style parameter and reported nothing back. A
// TaOpContext bundles all budgets in one place and accumulates counters as
// the operation pipeline runs, so a whole typechecking run (Theorem 4.4's
// three passes, dozens of chained automaton ops) shares one accounting
// surface: how many states were materialized, how many rules scanned, how
// many determinizations ran, and how much wall time the automaton layer
// consumed. TypecheckResult surfaces the counters to callers.
//
// Beyond budgets, the context is the pipeline's *execution-control* layer
// (the worst case is non-elementary — Theorem 4.8 — so runaway loops must be
// interruptible): a wall-clock `deadline`, an external cooperative `cancel`
// flag, and a deterministic fault injector all surface through one cheap
// call, `TaCheckpoint(ctx)`, placed inside every worklist fixpoint and
// subset-closure loop. Deadline/cancel/injected faults are *sticky*: once a
// checkpoint trips, every later checkpoint on the same context returns the
// same Status, so partially built structures drain quickly and the failure
// propagates to the pipeline boundary with its original code intact.
//
// Threading convention: operations take `TaOpContext*` (nullptr = default
// budgets, no accounting, no interruption). Budgets of 0 mean "unlimited".
//
// Thread-safety contract: a context is owned by exactly one thread — only
// the cancel flag it points at may be flipped from elsewhere. Every op and
// every batch runs serial on its caller's context; the diffcheck sweep's
// shards (docs/PARALLEL.md) each build their own. A plain copy carries the
// budgets, counters and sticky interrupt, so it drains like the original.

#ifndef PEBBLETC_TA_OP_CONTEXT_H_
#define PEBBLETC_TA_OP_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/status.h"

namespace pebbletc {

/// Memoization policy for the content-addressed op cache (docs/CACHING.md).
enum class TaMemoMode : uint8_t {
  /// Every op computes cold. The default: the serial oracle, the
  /// fault-injection harness, and all legacy callers see exactly the
  /// pre-cache behavior.
  kOff = 0,
  /// Probe/populate the in-process TaOpCache.
  kInMemory = 1,
};

/// All resource budgets consumed by the automaton layer. 0 = unlimited.
struct TaOpBudgets {
  /// States per determinization / subset construction (complementation
  /// determinizes internally; inclusion/equivalence instead run the
  /// antichain search bounded by `max_antichain_pairs` below).
  size_t max_det_states = 200000;
  /// Per-tree configuration space for the Prop. 3.8 output automaton.
  size_t max_configs = 1u << 20;
  /// Pairs interned by one run of the antichain engine (src/ta/antichain.h,
  /// docs/INCLUSION.md): (A-state, B-state-set) for inclusion, (τ1-state,
  /// S) for the typechecker's downward search (src/core/downward.h). The
  /// antichain prunes dominated pairs, so this is normally far below the
  /// subsets an explicit construction would intern — but the worst case is
  /// still exponential, and the search aborts with kResourceExhausted once
  /// the cap is crossed.
  size_t max_antichain_pairs = 200000;
  /// 1-pebble behavior composition: refuse automata beyond this many state
  /// bits (tables are 2^bits entries).
  uint32_t behavior_max_state_bits = 12;
  /// Absolute wall-clock deadline; checkpoints return kDeadlineExceeded once
  /// steady_clock::now() passes it. Unset = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// External cancellation flag, polled (relaxed) at every checkpoint. The
  /// pointee must outlive the context; may be flipped from another thread.
  const std::atomic<bool>* cancel = nullptr;
  /// Poll the clock only every `checkpoint_stride` checkpoints — clock reads
  /// dominate checkpoint cost, the counter bump is nearly free. Cancel and
  /// fault injection are checked every call regardless.
  uint32_t checkpoint_stride = 256;
  /// Ignored: every automaton op and every batch runs serial on its
  /// caller's context (docs/PARALLEL.md, "What stays serial"). Kept only so
  /// existing callers that assign it still compile.
  uint32_t num_threads = 0;
  /// Content-addressed memoization (docs/CACHING.md): compiled validation
  /// tables and downward typecheck proofs, in the op cache. Off by default;
  /// a context carrying a fault injector is always served cold regardless
  /// (TaMemoEnabled), so injection ordinals and unwind paths stay
  /// deterministic.
  TaMemoMode memo = TaMemoMode::kOff;
};

/// Counters accumulated across every operation run under one context.
struct TaOpCounters {
  /// States created across all result automata (determinization subsets,
  /// product pairs, trim survivors, ...).
  size_t states_materialized = 0;
  /// Transition rules visited while running operations (a proxy for work
  /// done; index construction counts each rule once).
  size_t rules_scanned = 0;
  /// Completed determinizations / subset constructions.
  size_t determinizations = 0;
  /// (left-subset, right-subset, symbol) frontier pairs expanded by subset
  /// constructions. With the frontier-driven engine each pair is expanded
  /// exactly once, so this is the construction's true work measure — the
  /// retired pass-rescan fixpoint revisited pairs every pass.
  size_t det_pairs_expanded = 0;
  /// Distinct subsets interned by subset constructions, counted as they are
  /// created (not just on success) so an exhausted run still reports how far
  /// the frontier got.
  size_t det_subsets_interned = 0;
  /// Complementations (each implies a determinization).
  size_t complementations = 0;
  /// Completed antichain searches (SearchAntichain runs, for NbtaIncludedIn
  /// or the downward search, that reached a verdict; exhausted/interrupted
  /// runs do not count).
  size_t inclusions = 0;
  /// Pairs interned by antichain searches — (A-state, B-state-set) for
  /// inclusion, (τ1-state, S) for the downward search — counted as they are
  /// created (not just on success) so an exhausted run still reports how
  /// far the frontier got.
  size_t incl_pairs_interned = 0;
  /// Candidate pairs discarded by antichain subsumption (a kept pair of the
  /// same automaton state already dominated them) — the savings the
  /// antichain buys over the explicit subset construction.
  size_t incl_pairs_pruned = 0;
  /// Product constructions (intersections and transducer products).
  size_t intersections = 0;
  /// TrimNbta runs.
  size_t trims = 0;
  /// NbtaIndex instances compiled.
  size_t indexes_built = 0;
  /// TaCheckpoint calls observed (the fault injector's ordinal space).
  uint64_t checkpoints = 0;
  /// Total wall time spent inside timed automaton operations.
  uint64_t op_nanos = 0;
  /// Content-addressed op cache traffic (docs/CACHING.md): probes answered
  /// from the cache, probes that fell through to a cold compute, entries
  /// evicted by inserts issued under this context, and payload bytes this
  /// context inserted.
  size_t memo_hits = 0;
  size_t memo_misses = 0;
  size_t memo_evictions = 0;
  size_t memo_bytes = 0;
  /// Validation fast path (docs/VALIDATION.md): membership queries answered
  /// by a compiled DBTA run table (streaming or tree pass), and queries that
  /// fell back to the NbtaAccepts reach-set route because the table could not
  /// be compiled within budget.
  size_t membership_fast_hits = 0;
  size_t membership_fallbacks = 0;
};

/// Deterministic fault injection: trips the `trip_at`-th checkpoint observed
/// on the context (0-based) with `code`, exactly once. Checkpoint ordinals
/// are deterministic for a fixed workload, so a test harness can sweep
/// `trip_at` across a whole pipeline run and prove every interruption point
/// unwinds cleanly. `seen`/`tripped` are filled in by the context.
struct TaFaultInjector {
  uint64_t trip_at = 0;
  StatusCode code = StatusCode::kDeadlineExceeded;
  /// Checkpoints observed so far (output).
  uint64_t seen = 0;
  /// Whether the fault fired (output).
  bool tripped = false;
};

/// Budgets + counters + interrupt state, threaded as a single pointer
/// through the pipeline.
class TaOpContext {
 public:
  TaOpContext() = default;
  explicit TaOpContext(const TaOpBudgets& budgets) : budgets(budgets) {}

  TaOpBudgets budgets;
  TaOpCounters counters;
  /// Optional deterministic fault hook; not owned.
  TaFaultInjector* fault = nullptr;

  /// Budget check helper: OK while `n <= budget` or budget is 0.
  static Status CheckBudget(size_t n, size_t budget, const char* what) {
    if (budget != 0 && n > budget) {
      return Status::ResourceExhausted(std::string(what) + " exceeded budget of " +
                                       std::to_string(budget) + " (needed " +
                                       std::to_string(n) + ")");
    }
    return Status::OK();
  }

  /// The cheap cooperative interruption point. Returns the sticky interrupt
  /// if one already tripped; otherwise checks (in order) the fault injector,
  /// the cancel flag, and — every `checkpoint_stride` calls — the deadline.
  /// Once non-OK, every subsequent call returns the same Status.
  Status Checkpoint() {
    if (interrupted_) return interrupt_;
    const uint64_t n = counters.checkpoints++;
    if (fault != nullptr) {
      fault->seen = counters.checkpoints;
      if (!fault->tripped && n == fault->trip_at) {
        fault->tripped = true;
        return SetInterrupt(Status(
            fault->code, "fault injected at checkpoint " + std::to_string(n)));
      }
    }
    if (budgets.cancel != nullptr &&
        budgets.cancel->load(std::memory_order_relaxed)) {
      return SetInterrupt(Status::Cancelled("operation cancelled by caller"));
    }
    if (budgets.deadline.has_value()) {
      const uint32_t stride =
          budgets.checkpoint_stride == 0 ? 1 : budgets.checkpoint_stride;
      if (n % stride == 0 &&
          std::chrono::steady_clock::now() >= *budgets.deadline) {
        return SetInterrupt(
            Status::DeadlineExceeded("pipeline deadline elapsed"));
      }
    }
    return Status::OK();
  }

  /// The sticky interrupt (OK if no checkpoint has tripped). Value-returning
  /// operations that bail out early on interruption leave the context in
  /// this state; callers consult it before trusting a "complete" result.
  const Status& interrupt() const { return interrupt_; }
  bool interrupted() const { return interrupted_; }

 private:
  Status SetInterrupt(Status s) {
    interrupted_ = true;
    interrupt_ = s;
    return s;
  }

  bool interrupted_ = false;
  Status interrupt_;
  friend class TaOpTimer;
  uint32_t timer_depth_ = 0;
};

/// Null-safe accessors: operations accept `TaOpContext* ctx = nullptr` and
/// fall back to default budgets / discard counters when absent.
inline size_t TaBudgetMaxDetStates(const TaOpContext* ctx) {
  return ctx != nullptr ? ctx->budgets.max_det_states
                        : TaOpBudgets{}.max_det_states;
}
inline size_t TaBudgetMaxAntichainPairs(const TaOpContext* ctx) {
  return ctx != nullptr ? ctx->budgets.max_antichain_pairs
                        : TaOpBudgets{}.max_antichain_pairs;
}

inline void TaCountStates(TaOpContext* ctx, size_t n) {
  if (ctx != nullptr) ctx->counters.states_materialized += n;
}
inline void TaCountRules(TaOpContext* ctx, size_t n) {
  if (ctx != nullptr) ctx->counters.rules_scanned += n;
}

/// Null-safe checkpoint: the call every long-running loop makes. OK when no
/// context is threaded.
inline Status TaCheckpoint(TaOpContext* ctx) {
  return ctx != nullptr ? ctx->Checkpoint() : Status::OK();
}

/// Null-safe sticky-interrupt read, for callers of value-returning
/// operations (IntersectNbta, TrimNbta, WitnessTree, ...) that drain early
/// instead of returning a Status. A non-OK value means the preceding results
/// may be partial; positive conclusions must not be drawn from them.
inline Status TaInterruptStatus(const TaOpContext* ctx) {
  return ctx != nullptr ? ctx->interrupt() : Status::OK();
}

/// RAII wall-clock scope: adds its lifetime to `counters.op_nanos`. Nested
/// scopes on the same context are tracked by depth so only the outermost
/// scope accumulates — nested timed ops no longer double-count wall time.
class TaOpTimer {
 public:
  explicit TaOpTimer(TaOpContext* ctx) : ctx_(ctx) {
    if (ctx_ == nullptr) return;
    outermost_ = (ctx_->timer_depth_++ == 0);
    if (outermost_) start_ = std::chrono::steady_clock::now();
  }
  ~TaOpTimer() {
    if (ctx_ == nullptr) return;
    --ctx_->timer_depth_;
    if (!outermost_) return;
    auto end = std::chrono::steady_clock::now();
    ctx_->counters.op_nanos +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count();
  }
  TaOpTimer(const TaOpTimer&) = delete;
  TaOpTimer& operator=(const TaOpTimer&) = delete;

 private:
  TaOpContext* ctx_;
  bool outermost_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pebbletc

#endif  // PEBBLETC_TA_OP_CONTEXT_H_
