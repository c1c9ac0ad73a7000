// E15 (docs/CACHING.md): the content-addressed op cache measured cold vs
// warm.
//
//  * End-to-end: the same typecheck instance decided repeatedly with
//    TypecheckOptions::memo off (every op cold) and on (after the first
//    decision, every repeat is answered by its downward proof in
//    TaOpCache::Global()). The warm row is the service-shape workload — the
//    same transducer checked against the same schemas per request — and the
//    headline number is warm_speedup = time(cold) / time(warm).
//  * Refutation traffic: the same transducer against a tightened output
//    schema it violates. Refutations are never cached, so with memo on
//    every decision still runs pass 1 (the τ1 enumeration and a per-input
//    antichain check) — the served typecheck's most frequent work. The
//    Pass2 row turns pass 1 off, so pass 2's downward search refutes.
//  * Cache-size sensitivity: a working set of distinct schema tables (the
//    kDeterminize entry MembershipEngine::Compile probes) cycled through
//    caches from ample to starved; the starved rows measure the
//    recompute-under-thrash regime (hit_rate falls toward zero).
//
// CI smoke-runs this binary in the bench-smoke job and uploads the JSON as
// the BENCH_memo.json artifact; the checked-in BENCH_memo.json records the
// cold/warm and sensitivity rows.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/diffcheck.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/query/xslt.h"
#include "src/ta/membership.h"
#include "src/ta/nbta.h"
#include "src/ta/op_cache.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"
#include "src/tree/encode.h"

namespace pebbletc {
namespace {

// The dense diffcheck instance family (bench_parallel's DrawDense shape).
Nbta DrawDense(const RankedAlphabet& sigma, uint32_t states, uint64_t seed) {
  Rng rng(seed);
  RandomNbtaOptions opts;
  opts.num_states = states;
  opts.rule_density = 0.3;
  opts.leaf_density = 0.5;
  return RandomNbta(sigma, rng, opts);
}

// The downward rename pipeline instance (bench_parallel's end-to-end shape).
// A cold decision runs the whole chain (complement τ2, one determinization,
// then the downward search); a warm one is answered by the instance's
// downward proof, so it costs the structural hashes of τ1 and τ2 and one
// probe.
struct RenameFixture {
  Alphabet in_tags, out_tags;
  EncodedAlphabet in_enc, out_enc;
  PebbleTransducer t;
  Nbta tau1, tau2;
  // Every b must have a child, so <a/> ↦ <b/> violates it.
  Nbta tau2_refuting;

  RenameFixture() : t(1, 1, 1) {
    auto program =
        std::move(ParseXslt("template a { b { apply } }\ntemplate c { d }",
                            &in_tags, &out_tags))
            .ValueOrDie();
    in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
    out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
    t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
    auto in_dtd = std::move(ParseDtd("a := (a|c)*\nc := ()")).ValueOrDie();
    tau1 = std::move(CompileDtdToNbta(in_dtd, in_enc)).ValueOrDie();
    auto good_dtd = std::move(ParseDtd("b := (b|d)*\nd := ()")).ValueOrDie();
    tau2 = std::move(CompileDtdToNbta(good_dtd, out_enc)).ValueOrDie();
    auto tight_dtd =
        std::move(ParseDtd("b := (b|d).(b|d)*\nd := ()")).ValueOrDie();
    tau2_refuting =
        std::move(CompileDtdToNbta(tight_dtd, out_enc)).ValueOrDie();
  }

  TypecheckOptions Options(TaMemoMode memo) const {
    TypecheckOptions opts;
    // Complete decision only: the refutation pass is per-tree enumeration
    // work the cache deliberately never serves (docs/CACHING.md), so it
    // would dilute the cold/warm contrast with identical time on both rows.
    opts.refutation_max_trees = 0;
    opts.memo = memo;
    return opts;
  }
};

const RenameFixture& Rename() {
  static const RenameFixture* f = new RenameFixture();
  return *f;
}

void RunTypecheck(benchmark::State& state, TaMemoMode memo) {
  const RenameFixture* f = &Rename();
  Typechecker tc(f->t, f->in_enc.ranked, f->out_enc.ranked);
  const TypecheckOptions opts = f->Options(memo);
  TaOpCache::Global().Clear();
  if (memo != TaMemoMode::kOff) {
    // Prime once so the timed loop measures the steady warm state.
    PEBBLETC_CHECK(tc.Typecheck(f->tau1, f->tau2, opts).ok());
  }
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  size_t hits = 0, misses = 0;
  for (auto _ : state) {
    auto r = tc.Typecheck(f->tau1, f->tau2, opts);
    PEBBLETC_CHECK(r.ok());
    verdict = r->verdict;
    hits = r->op_counters.memo_hits;
    misses = r->op_counters.memo_misses;
    benchmark::DoNotOptimize(r);
  }
  state.counters["typechecks"] =
      verdict == TypecheckVerdict::kTypechecks ? 1 : 0;
  state.counters["memo_hits_per_run"] = static_cast<double>(hits);
  state.counters["memo_misses_per_run"] = static_cast<double>(misses);
}

void BM_TypecheckCold(benchmark::State& state) {
  RunTypecheck(state, TaMemoMode::kOff);
}
BENCHMARK(BM_TypecheckCold)->Unit(benchmark::kMillisecond);

void BM_TypecheckWarm(benchmark::State& state) {
  RunTypecheck(state, TaMemoMode::kInMemory);
}
BENCHMARK(BM_TypecheckWarm)->Unit(benchmark::kMillisecond);

// The refuting pair, served with memo on as the daemon runs it. Pass 1's
// bound comes from `refutation_max_trees`; at 0 the refutation is pass 2's:
// the complement of τ2, the downward search and the violating-output
// recovery.
void RunRefuted(benchmark::State& state, size_t refutation_max_trees) {
  const RenameFixture& f = Rename();
  Typechecker tc(f.t, f.in_enc.ranked, f.out_enc.ranked);
  TypecheckOptions opts;
  opts.memo = TaMemoMode::kInMemory;
  opts.refutation_max_trees = refutation_max_trees;
  TaOpCache::Global().Clear();
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  std::string method;
  for (auto _ : state) {
    auto r = tc.Typecheck(f.tau1, f.tau2_refuting, opts);
    PEBBLETC_CHECK(r.ok());
    verdict = r->verdict;
    method = r->method;
    benchmark::DoNotOptimize(r);
  }
  state.counters["refuted"] =
      verdict == TypecheckVerdict::kCounterexample ? 1 : 0;
  state.counters["bounded_refutation"] =
      method == "bounded-refutation" ? 1 : 0;
  state.SetLabel(method);
}

void BM_TypecheckRefuted(benchmark::State& state) {
  RunRefuted(state, TypecheckOptions{}.refutation_max_trees);
}
BENCHMARK(BM_TypecheckRefuted)->Unit(benchmark::kMicrosecond);

void BM_TypecheckRefutedPass2(benchmark::State& state) {
  RunRefuted(state, 0);
}
BENCHMARK(BM_TypecheckRefutedPass2)->Unit(benchmark::kMicrosecond);

void BM_WarmWorkingSet(benchmark::State& state) {
  // Cache-size sensitivity: cycle a working set of 8 distinct schemas
  // through MembershipEngine::Compile against a cache of state.range(0) KiB.
  // Ample capacity holds every table (hit_rate 1); starved capacities evict
  // mid-cycle and re-determinize.
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  constexpr size_t kWorkingSet = 8;
  std::vector<Nbta> as;
  as.reserve(kWorkingSet);
  for (size_t i = 0; i < kWorkingSet; ++i) {
    as.push_back(DrawDense(sigma, 8, 100 + i));
  }

  TaOpCache cache(static_cast<size_t>(state.range(0)) << 10);
  size_t hits = 0, misses = 0;
  for (auto _ : state) {
    for (const Nbta& a : as) {
      TaOpContext ctx;
      ctx.budgets.memo = TaMemoMode::kInMemory;
      auto r = MembershipEngine::Compile(a, sigma, &ctx, &cache);
      PEBBLETC_CHECK(r.ok() && r->fast());
      hits += ctx.counters.memo_hits;
      misses += ctx.counters.memo_misses;
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["capacity_kb"] = static_cast<double>(state.range(0));
  state.counters["hit_rate"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
}
BENCHMARK(BM_WarmWorkingSet)->Arg(65536)->Arg(8192)->Arg(2048);

}  // namespace
}  // namespace pebbletc
