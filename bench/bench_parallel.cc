// E14 (docs/PARALLEL.md): the parallel execution layer, and the serial
// product construction it is measured against.
//
//  * Serial product: IntersectNbta's flat-memory construction (open-
//    addressing interner keyed on packed uint64 pairs, per-a-rule emitted
//    bitmap) on the dense diffcheck family — the bar any sharded product
//    must clear by 1.5x at 4 threads (docs/PARALLEL.md, "What stays
//    serial").
//  * Thread scaling of the two workloads that fan out across TaThreadPool:
//    the diffcheck sweep at 1/2/4/8 workers, and kValidateBatch's
//    per-document fan-out (serve::ValidateBatch) at 1/2/4 workers. Both
//    parallel rows are read as wall time (real_time); the CPU column only
//    counts the calling thread.
//
// CI runs this binary in the bench-smoke job with tiny sizes and uploads the
// JSON as the BENCH_parallel.json artifact; the checked-in
// BENCH_parallel.json records the measured rows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/check/diffcheck.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/dtd/dtd.h"
#include "src/serve/validate.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"
#include "src/tree/random_tree.h"
#include "src/xml/xml.h"

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
    ->Unit(benchmark::kMillisecond);

// 64 documents of 100 B - 4 KB for the batch fan-out, sizes spread evenly
// across the range: random p/q bodies under a <p> root, every fourth one
// made invalid by an <r> with a child (r := () below), so the rejection
// path's diagnostic is part of the measured work.
constexpr char kBatchDtd[] = "p := (p|q|r)*\nq := (p|q|r)*\nr := ()\n";

std::vector<std::string> BatchDocuments() {
  Alphabet body_tags;
  body_tags.Intern("p");
  body_tags.Intern("q");
  Rng rng(64);
  RandomUnrankedOptions uo;
  uo.target_size = 12;
  uo.max_children = 4;
  std::vector<std::string> docs;
  for (size_t i = 0; i < 64; ++i) {
    const size_t target = 100 + i * (3900 - 100) / 63;
    const std::string tail = i % 4 == 3 ? "<r><q/></r></p>" : "</p>";
    std::string doc = "<p>";
    while (doc.size() + tail.size() < target) {
      doc += XmlString(RandomUnrankedTree(body_tags, rng, uo), body_tags);
    }
    docs.push_back(doc + tail);
  }
  return docs;
}

void BM_ValidateBatchWorkers(benchmark::State& state) {
  auto dtd = std::make_shared<SpecializedDtd>(
      std::move(ParseDtd(kBatchDtd)).ValueOrDie());
  const serve::ValidationPlan plan =
      std::move(serve::CompileDtdPlan(dtd)).ValueOrDie();
  PEBBLETC_CHECK(plan.engine.fast());
  const std::vector<std::string> docs = BatchDocuments();
  size_t valid = 0;
  for (auto _ : state) {
    TaOpContext ctx;
    ctx.budgets.num_threads = static_cast<uint32_t>(state.range(0));
    serve::BatchResult r = serve::ValidateBatch(plan, docs, &ctx);
    valid = 0;
    for (const serve::DocVerdict& v : r.verdicts) {
      PEBBLETC_CHECK(v.code == StatusCode::kOk) << v.diagnostic;
      valid += v.valid ? 1 : 0;
    }
    benchmark::DoNotOptimize(r);
  }
  size_t bytes = 0, min_bytes = docs.front().size(), max_bytes = 0;
  for (const std::string& d : docs) {
    bytes += d.size();
    min_bytes = std::min(min_bytes, d.size());
    max_bytes = std::max(max_bytes, d.size());
  }
  state.counters["docs"] = static_cast<double>(docs.size());
  state.counters["valid_docs"] = static_cast<double>(valid);
  state.counters["batch_bytes"] = static_cast<double>(bytes);
  state.counters["min_doc_bytes"] = static_cast<double>(min_bytes);
  state.counters["max_doc_bytes"] = static_cast<double>(max_bytes);
}
BENCHMARK(BM_ValidateBatchWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pebbletc
