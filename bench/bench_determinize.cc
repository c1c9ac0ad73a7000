// E13 close-out (docs/DETERMINIZE.md): the frontier-driven determinization
// engine on dense and on sparse automata, against the naive all-2^n bitmask
// reference on the dense ones, where that reference used to win.
//
// Dense series: the exact E13 configuration (DiffcheckAlphabet, seed 13,
// rule_density 0.3) at n = 4…10 input states — most subsets reachable, so
// the pass-rescan fixpoint this engine replaced lost to the reference by
// ~10× at n = 10. Sparse series: larger, thinner automata (n = 24…128, one
// and two 64-bit words per subset) that the reference refuses outright;
// here the regression bar is the engine's own recorded baseline, not the
// reference.
//
// CI runs this binary with tiny sizes (--benchmark_filter=dense-smoke
// equivalent, see the bench-smoke job) and uploads the JSON as the
// BENCH_determinize.json artifact; the checked-in BENCH_determinize.json
// records the before/after numbers of the rewrite.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "src/check/diffcheck.h"
#include "src/check/reference_ops.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"

namespace pebbletc {
namespace {

// The E13 instance family: the diffcheck alphabet (a0, b0, a2, b2) and the
// same seed/density bench_diffcheck uses, so numbers stay comparable with
// the EXPERIMENTS.md E13 rows.
Nbta DrawDense(const RankedAlphabet& sigma, uint32_t states) {
  Rng rng(13);
  RandomNbtaOptions opts;
  opts.num_states = states;
  opts.rule_density = 0.3;
  opts.leaf_density = 0.5;
  return RandomNbta(sigma, rng, opts);
}

// Sparse instances: many states at a density low enough that only a sliver
// of the 2^n subset space is reachable. In served traffic this is the shape
// of servebench's validation plans, the only determinizations with more
// than 16 input states (19–98); the MSO pipeline's have at most 8.
Nbta DrawSparse(const RankedAlphabet& sigma, uint32_t states) {
  Rng rng(29);
  RandomNbtaOptions opts;
  opts.num_states = states;
  // ~n expected rules per symbol: keeps the reachable-subset count near 50
  // at 24–64 states, so those sizes isolate the cost of wider bitsets; the
  // two-word sizes reach 306 (96) and 170 (128) subsets.
  opts.rule_density = 1.0 / states;
  opts.leaf_density = 0.25;
  return RandomNbta(sigma, rng, opts);
}

void ReportDetCounters(benchmark::State& state, const TaOpContext& ctx) {
  state.counters["det_states"] =
      static_cast<double>(ctx.counters.states_materialized);
  state.counters["pairs_expanded"] =
      static_cast<double>(ctx.counters.det_pairs_expanded);
  state.counters["subsets_interned"] =
      static_cast<double>(ctx.counters.det_subsets_interned);
}

void BM_DeterminizeDense(benchmark::State& state) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  Nbta a = DrawDense(sigma, static_cast<uint32_t>(state.range(0)));
  NbtaIndex idx(a);
  TaOpContext last;
  for (auto _ : state) {
    TaOpContext ctx;
    auto det = DeterminizeNbta(idx, sigma, &ctx);
    PEBBLETC_CHECK(det.ok());
    benchmark::DoNotOptimize(det);
    last = ctx;
  }
  ReportDetCounters(state, last);
}
BENCHMARK(BM_DeterminizeDense)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_DeterminizeDenseReference(benchmark::State& state) {
  // The all-2^n bitmask reference, in its own best regime. Capped at 10
  // input states (kRefMaxDeterminizeStates).
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  Nbta a = DrawDense(sigma, static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto det = RefDeterminize(a, sigma);
    PEBBLETC_CHECK(det.ok());
    benchmark::DoNotOptimize(det);
  }
}
BENCHMARK(BM_DeterminizeDenseReference)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_DeterminizeSparse(benchmark::State& state) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  Nbta a = DrawSparse(sigma, static_cast<uint32_t>(state.range(0)));
  NbtaIndex idx(a);
  TaOpContext last;
  for (auto _ : state) {
    TaOpContext ctx;
    auto det = DeterminizeNbta(idx, sigma, &ctx);
    PEBBLETC_CHECK(det.ok());
    benchmark::DoNotOptimize(det);
    last = ctx;
  }
  ReportDetCounters(state, last);
}
BENCHMARK(BM_DeterminizeSparse)
    ->Arg(24)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128);

// Complementation is determinize + flag flip + re-materialization: the op
// the typechecker pays for ¬τ2 before passes 2 and 3, end to end.
void BM_ComplementDense(benchmark::State& state) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  Nbta a = DrawDense(sigma, static_cast<uint32_t>(state.range(0)));
  NbtaIndex idx(a);
  for (auto _ : state) {
    TaOpContext ctx;
    auto comp = ComplementNbta(idx, sigma, &ctx);
    PEBBLETC_CHECK(comp.ok());
    benchmark::DoNotOptimize(comp);
  }
}
BENCHMARK(BM_ComplementDense)->Arg(6)->Arg(8)->Arg(10);

}  // namespace
}  // namespace pebbletc
