// Differential / metamorphic oracle for the tree-automaton algebra.
//
// The typechecking pipeline (Theorem 4.4) is a chain of Boolean-algebra
// operations on tree automata; a single silent language-preservation bug in
// any link makes every verdict unsound. RunDiffcheck draws seeded random
// automata (src/ta/random_ta.h), enumerates every small well-ranked tree
// plus random deeper samples, and asserts, per tree,
//
//   * agreement of every optimized op (src/ta/nbta.h, built on NbtaIndex)
//     with its deliberately-naive reference twin (reference_ops.h), and
//   * the algebraic laws the paper's constructions rely on: De Morgan for
//     intersect/union/complement, complement involution relative to
//     well-ranked trees, determinization and trim/minimize language
//     preservation, top-down/bottom-up round-tripping, relabeling laws,
//     Encode∘Decode identity, count-vs-enumerate consistency,
//     typechecker verdict agreement against a full reference decision for
//     the copy transducer, and the downward search's verdict against the
//     reference subset closure (RefDownwardProduct).
//
// Failing witnesses are shrunk (shrink.h) to locally-minimal reproducers and
// rendered as ready-to-paste regression test bodies. Everything is
// deterministic in (seed, iteration): iteration i draws from an Rng derived
// from the seed and i alone, so a failure report can be replayed with
// --seed=S --start=I --iters=1.
//
// See docs/DIFFCHECK.md for the law catalogue and the shrinking strategy.

#ifndef PEBBLETC_CHECK_DIFFCHECK_H_
#define PEBBLETC_CHECK_DIFFCHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/ta/nbta.h"
#include "src/tree/binary_tree.h"

namespace pebbletc {

struct DiffcheckOptions {
  uint64_t seed = 0x20260806;
  /// First iteration index (for replaying a reported failure).
  size_t start = 0;
  size_t iters = 1000;
  /// Exhaustive tree enumeration covers every well-ranked tree with at most
  /// this many nodes (odd sizes only).
  size_t exhaustive_max_nodes = 5;
  /// Random sampled trees per iteration reach up to 2^max_depth - 1 internal
  /// nodes, probing shapes the exhaustive set cannot afford.
  size_t max_depth = 3;
  size_t samples_per_iter = 8;
  /// Stop after this many failures (each law reports at most one).
  size_t max_failures = 5;
  /// Run the typechecker-verdict laws every Nth iteration (0 = never); they
  /// drive the whole Theorem 4.4 pipeline and dominate runtime.
  size_t typecheck_every = 8;
  /// Run inverse-type-inference agreement every Nth iteration (0 = never).
  size_t infer_every = 0;
  /// Wall-clock deadline per typechecker / inference call (0 = none). A
  /// pathological instance then degrades to a tallied budget skip instead of
  /// stalling the sweep; verdicts reached within the deadline are still held
  /// to exactness.
  size_t typecheck_deadline_ms = 10000;
  /// Complement the 12-state union and 36-state intersection products every
  /// Nth iteration (0 = never). Their subset constructions are the most
  /// expensive artifacts in the catalogue, so they run on a cadence.
  size_t demorgan_every = 4;
  /// Shrink failing witnesses to minimal reproducers before reporting.
  bool shrink = true;
  /// Budget for each optimized determinization; exhaustion skips the law for
  /// that instance (counted in DiffcheckReport::budget_skips).
  size_t max_det_states = 50000;
  /// Sweep workers (docs/PARALLEL.md): 0 = hardware concurrency, 1 = serial.
  /// Above 1 the iteration range splits into contiguous per-worker shards.
  /// Iterations are deterministic in (seed, iteration) alone — ops *inside*
  /// an iteration always run serial — so any failure found by a sharded
  /// sweep replays exactly with --seed=S --start=I --iters=1 --threads=1.
  uint32_t num_threads = 1;
  /// Cached-vs-cold laws for the content-addressed op cache
  /// (docs/CACHING.md): compiling a schema twice through a fresh cache
  /// determinizes once, shares the table, and matches the cold table byte
  /// for byte; tables served through a harness-owned cache that lives across
  /// iterations accept exactly the operand's language; and two typechecks
  /// under TypecheckOptions::memo return the cold decision, the second
  /// served by the first's downward proof.
  bool memo = false;
  /// Capacity of the harness-owned cache, in MiB.
  size_t memo_mb = 64;
};

/// One law violation, with a shrunk, replayable reproducer.
struct DiffcheckFailure {
  /// Law identifier, e.g. "complement/lang" or "typecheck/verdict".
  std::string law;
  size_t iteration = 0;
  uint64_t seed = 0;
  /// One-line description of the mismatch.
  std::string detail;
  /// Ready-to-paste C++ test body reconstructing the shrunk witness.
  std::string repro;
};

struct DiffcheckReport {
  size_t iterations = 0;
  /// Individual law evaluations performed.
  size_t comparisons = 0;
  /// Instances skipped because an optimized op exhausted its budget.
  size_t budget_skips = 0;
  std::vector<DiffcheckFailure> failures;
  /// Occurrences per law beyond the first reported failure.
  size_t suppressed_failures = 0;
  /// The contiguous iteration shard each worker ran (empty for a serial
  /// sweep). Reported so a sharded sweep's summary pins down exactly which
  /// worker covered which --start/--iters window.
  struct WorkerRange {
    uint32_t worker = 0;
    size_t start = 0;
    size_t iters = 0;
  };
  std::vector<WorkerRange> worker_ranges;
  bool ok() const { return failures.empty(); }
};

/// Runs the whole law catalogue. Deterministic in `options`.
DiffcheckReport RunDiffcheck(const DiffcheckOptions& options);

/// The fixed alphabet the harness draws over: leaves a0,b0 and binaries
/// a2,b2; the extended variant appends u0 (leaf) and u2 (binary), which the
/// relabeling laws map back onto a0/a2 and which automata may leave entirely
/// ruleless (the MSO track-extension shape).
RankedAlphabet DiffcheckAlphabet(bool extended);

/// Renders C++ statements reconstructing `a` as variable `var` (symbol ids
/// annotated with their names from `sigma`). Used for repro emission.
std::string FormatNbtaConstruction(const Nbta& a, const RankedAlphabet& sigma,
                                   const std::string& var);

}  // namespace pebbletc

#endif  // PEBBLETC_CHECK_DIFFCHECK_H_
