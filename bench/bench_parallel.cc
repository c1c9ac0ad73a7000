// E14 (docs/PARALLEL.md): the one workload that runs on threads, and the
// serial product construction any sharded op is measured against.
//
//  * Serial product: IntersectNbta's flat-memory construction (open-
//    addressing interner keyed on packed uint64 pairs, per-a-rule emitted
//    bitmap) on the dense diffcheck family — the bar any sharded product
//    must clear by 1.5x at 4 threads (docs/PARALLEL.md, "What stays
//    serial").
//  * Thread scaling of the sharded diffcheck sweep at 1/2/4/8 workers, read
//    as wall time (real_time): the shards run on their own threads, so the
//    calling thread's CPU column would miss them.
//
// CI runs this binary in the bench-smoke job with tiny sizes and uploads the
// JSON as the BENCH_parallel.json artifact; the checked-in
// BENCH_parallel.json records the measured rows.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "src/alphabet/alphabet.h"
#include "src/check/diffcheck.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"

namespace pebbletc {
namespace {

// The dense diffcheck instance family (bench_determinize's DrawDense shape):
// rules ≈ 2 * n^2 * 0.3, so at n = 48 the product frontier has thousands of
// live pairs.
Nbta DrawDense(const RankedAlphabet& sigma, uint32_t states, uint64_t seed) {
  Rng rng(seed);
  RandomNbtaOptions opts;
  opts.num_states = states;
  opts.rule_density = 0.3;
  opts.leaf_density = 0.5;
  return RandomNbta(sigma, rng, opts);
}

void BM_IntersectFlatSerial(benchmark::State& state) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Nbta a = DrawDense(sigma, n, 13);
  Nbta b = DrawDense(sigma, n, 17);
  NbtaIndex ia(a), ib(b);
  size_t product_states = 0;
  for (auto _ : state) {
    TaOpContext ctx;
    Nbta out = IntersectNbta(ia, ib, &ctx);
    product_states = out.num_states;
    benchmark::DoNotOptimize(out);
  }
  state.counters["product_states"] = static_cast<double>(product_states);
}
BENCHMARK(BM_IntersectFlatSerial)->Arg(16)->Arg(24)->Arg(32)->Arg(48);

void BM_DiffcheckSweepThreads(benchmark::State& state) {
  // The sharded oracle sweep: 32 iterations of the full law catalogue
  // split across workers. Deterministic in (seed, iteration), so every row
  // performs identical work.
  DiffcheckOptions opts;
  opts.seed = 42;
  opts.iters = 32;
  opts.num_threads = static_cast<uint32_t>(state.range(0));
  size_t comparisons = 0;
  for (auto _ : state) {
    DiffcheckReport report = RunDiffcheck(opts);
    PEBBLETC_CHECK(report.ok());
    comparisons = report.comparisons;
    benchmark::DoNotOptimize(report);
  }
  state.counters["comparisons"] = static_cast<double>(comparisons);
}
BENCHMARK(BM_DiffcheckSweepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pebbletc
