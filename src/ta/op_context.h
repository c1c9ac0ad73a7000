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
// Thread-safety contract (the merge-on-join model, docs/PARALLEL.md): a
// context is owned by exactly one thread at a time — only the cancel flag it
// points at may be flipped from elsewhere. Parallel operations never share a
// context between workers; each worker share runs on its own Fork() child
// (same deadline/cancel/stride, zeroed counters, no fault injector), workers
// accumulate counters thread-locally into that child, and the joining thread
// calls MergeChild() once per worker — on every exit path, including
// interrupted drains — so the parent's counters and sticky interrupt reflect
// the whole fan-out. Debug builds assert that Checkpoint() is never invoked
// from two threads concurrently (see the owner-thread check below).

#ifndef PEBBLETC_TA_OP_CONTEXT_H_
#define PEBBLETC_TA_OP_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/check.h"
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
  /// (A-state, B-state-set) pairs interned by the antichain inclusion search
  /// (docs/INCLUSION.md). The antichain prunes dominated pairs, so this is
  /// normally far below the 2^|Q_B| subsets an explicit determinization would
  /// intern — but the worst case is still exponential, and the search aborts
  /// with kResourceExhausted once the cap is crossed.
  size_t max_antichain_pairs = 200000;
  /// Subset budget for the downward fast path's lazy construction.
  size_t fastpath_max_states = 100000;
  /// 1-pebble behavior composition: refuse automata beyond this many state
  /// bits (tables are 2^bits entries), and this many distinct behaviors.
  uint32_t behavior_max_state_bits = 12;
  size_t behavior_max_behaviors = 4096;
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
  /// Worker count for the one op that fans out across TaThreadPool,
  /// serve::ValidateBatch (docs/PARALLEL.md): 0 = hardware concurrency (the
  /// default), 1 = serial. Every automaton op — determinize, complement,
  /// intersect, inclusion, the typechecker's passes — is serial and ignores
  /// it. A context carrying a fault injector always runs serial (injection
  /// ordinals must stay deterministic); see TaEffectiveThreads in
  /// src/ta/thread_pool.h.
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
  /// Completed antichain inclusion checks (NbtaIncludedIn runs that reached
  /// a verdict; exhausted/interrupted runs do not count).
  size_t inclusions = 0;
  /// (A-state, B-state-set) pairs interned by antichain inclusion searches,
  /// counted as they are created (not just on success) so an exhausted run
  /// still reports how far the frontier got.
  size_t incl_pairs_interned = 0;
  /// Candidate pairs discarded by antichain subsumption (a kept pair with a
  /// ⊆-smaller B-set already dominated them) — the savings the antichain
  /// buys over the explicit subset construction.
  size_t incl_pairs_pruned = 0;
  /// Product constructions (intersections and transducer products).
  size_t intersections = 0;
  /// TrimNbta runs.
  size_t trims = 0;
  /// MinimizeDbta runs.
  size_t minimizations = 0;
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
  // Copies transfer budgets/counters/interrupt state but never the (debug-
  // only, non-copyable) concurrency guard — a copy starts unobserved.
  TaOpContext(const TaOpContext& other)
      : budgets(other.budgets),
        counters(other.counters),
        fault(other.fault),
        interrupted_(other.interrupted_),
        interrupt_(other.interrupt_),
        timer_depth_(other.timer_depth_) {}
  TaOpContext& operator=(const TaOpContext& other) {
    budgets = other.budgets;
    counters = other.counters;
    fault = other.fault;
    interrupted_ = other.interrupted_;
    interrupt_ = other.interrupt_;
    timer_depth_ = other.timer_depth_;
    return *this;
  }

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

  /// A worker-share child for the merge-on-join model: same budgets
  /// (deadline, cancel flag, stride, state caps), zeroed counters, no fault
  /// injector (injection ordinals are only deterministic on the serial
  /// path), and the parent's sticky interrupt if one already tripped — a
  /// share forked after cancellation drains immediately. The child is
  /// independently checkpointable from its worker thread.
  TaOpContext Fork() const {
    TaOpContext child(budgets);
    child.budgets.num_threads = 1;  // shares do not re-fan-out
    if (interrupted_) (void)child.SetInterrupt(interrupt_);
    // The fork region runs under the parent's (outermost) TaOpTimer; mark
    // the child's timer depth so nested timed ops never double-count wall
    // time into the merged op_nanos.
    child.timer_depth_ = 1;
    return child;
  }

  /// Folds a joined worker share back into this context: counters add, and
  /// the first child interrupt becomes the parent's sticky interrupt (so a
  /// deadline or cancellation observed by any worker propagates with its
  /// original code). Call exactly once per Fork(), after joining the worker.
  void MergeChild(const TaOpContext& child) {
    // One summed line per TaOpCounters field below: a counter added to the
    // struct without a line here fails the build instead of being dropped.
    static_assert(sizeof(TaOpCounters) == 21 * sizeof(uint64_t),
                  "TaOpCounters changed: update MergeChild");
    counters.states_materialized += child.counters.states_materialized;
    counters.rules_scanned += child.counters.rules_scanned;
    counters.determinizations += child.counters.determinizations;
    counters.det_pairs_expanded += child.counters.det_pairs_expanded;
    counters.det_subsets_interned += child.counters.det_subsets_interned;
    counters.complementations += child.counters.complementations;
    counters.inclusions += child.counters.inclusions;
    counters.incl_pairs_interned += child.counters.incl_pairs_interned;
    counters.incl_pairs_pruned += child.counters.incl_pairs_pruned;
    counters.intersections += child.counters.intersections;
    counters.trims += child.counters.trims;
    counters.minimizations += child.counters.minimizations;
    counters.indexes_built += child.counters.indexes_built;
    counters.checkpoints += child.counters.checkpoints;
    counters.op_nanos += child.counters.op_nanos;
    counters.memo_hits += child.counters.memo_hits;
    counters.memo_misses += child.counters.memo_misses;
    counters.memo_evictions += child.counters.memo_evictions;
    counters.memo_bytes += child.counters.memo_bytes;
    counters.membership_fast_hits += child.counters.membership_fast_hits;
    counters.membership_fallbacks += child.counters.membership_fallbacks;
    if (!interrupted_ && child.interrupted_) (void)SetInterrupt(child.interrupt_);
  }

  /// The cheap cooperative interruption point. Returns the sticky interrupt
  /// if one already tripped; otherwise checks (in order) the fault injector,
  /// the cancel flag, and — every `checkpoint_stride` calls — the deadline.
  /// Once non-OK, every subsequent call returns the same Status.
  Status Checkpoint() {
    AssertSingleThreaded();
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

  // Debug-only guard for the ownership contract above: Checkpoint() must
  // never run on two threads concurrently. Sequential hand-off between
  // threads (create on A, run the op on B, merge back on A) is legal, so
  // the check is entry/exit marking, not a pinned owner thread.
#ifndef NDEBUG
  void AssertSingleThreaded() {
    PEBBLETC_CHECK(!in_checkpoint_.exchange(true, std::memory_order_acquire))
        << "TaOpContext checkpointed from two threads concurrently; "
           "parallel workers must run on Fork() children (docs/PARALLEL.md)";
    in_checkpoint_.store(false, std::memory_order_release);
  }
  std::atomic<bool> in_checkpoint_{false};
#else
  void AssertSingleThreaded() {}
#endif

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
