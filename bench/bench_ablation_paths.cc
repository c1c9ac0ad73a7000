// Ablation: four typechecking paths on the *same* instances — the paper's
// Theorem 4.7 MSO pipeline, the 1-pebble behavior composition (this
// library's extension), the downward subset construction (for machines in
// that fragment; the all-pairs closure, kept as the oracle
// RefDownwardProduct), and the antichain bounded-refutation engine
// (docs/INCLUSION.md), which answers the question the first three build an
// automaton for without constructing anything. Same verdicts, wildly
// different costs: the ladder the typechecker's escalation is built on.

#include <benchmark/benchmark.h>

#include "src/check/reference_ops.h"
#include "src/common/check.h"
#include "src/core/typechecker.h"
#include "src/pa/behavior.h"
#include "src/pa/product.h"
#include "src/pa/to_mso.h"
#include "src/pt/paper_machines.h"
#include "src/ta/convert.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"

namespace pebbletc {
namespace {

RankedAlphabet SmallRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("l");
  (void)sigma.AddLeaf("m");
  (void)sigma.AddBinary("n");
  return sigma;
}

// Shared instance: copy transducer × complement("all leaves are l") — the
// product pebble automaton accepting {t | T(t) ⊄ τ2} = {t | t has an m
// leaf}, a non-trivial language all three paths must reproduce.
struct Instance {
  RankedAlphabet sigma;
  PebbleTransducer copy;
  Nbta tau2;
  PebbleAutomaton product;

  Instance()
      : sigma(SmallRanked()),
        copy(MakeCopyTransducer(sigma)),
        product(1, 3) {
    tau2.num_symbols = 3;
    StateId q = tau2.AddState();
    tau2.accepting[q] = true;
    tau2.AddLeafRule(sigma.Find("l"), q);
    tau2.AddRule(sigma.Find("n"), q, q, q);
    auto not_tau2 = std::move(ComplementNbta(tau2, sigma)).ValueOrDie();
    product = std::move(TransducerTimesTopDown(
                            copy, NbtaToTopDown(TrimNbta(not_tau2))))
                  .ValueOrDie();
  }
};

void BM_PathMso(benchmark::State& state) {
  static const Instance* inst = new Instance();
  size_t states = 0;
  for (auto _ : state) {
    auto nbta = PebbleAutomatonToNbta(inst->product, inst->sigma);
    PEBBLETC_CHECK(nbta.ok()) << nbta.status().ToString();
    states = nbta->num_states;
    benchmark::DoNotOptimize(nbta);
  }
  state.counters["product_states"] =
      static_cast<double>(inst->product.num_states());
  state.counters["result_states"] = static_cast<double>(states);
}
BENCHMARK(BM_PathMso)->Unit(benchmark::kMillisecond);

void BM_PathBehavior(benchmark::State& state) {
  static const Instance* inst = new Instance();
  size_t states = 0;
  for (auto _ : state) {
    auto nbta = OnePebbleToNbtaByBehavior(inst->product, inst->sigma);
    PEBBLETC_CHECK(nbta.ok()) << nbta.status().ToString();
    states = nbta->num_states;
    benchmark::DoNotOptimize(nbta);
  }
  state.counters["result_states"] = static_cast<double>(states);
}
BENCHMARK(BM_PathBehavior)->Unit(benchmark::kMicrosecond);

void BM_PathDownward(benchmark::State& state) {
  static const Instance* inst = new Instance();
  auto d = std::move(ComplementDbta(NbtaIndex(inst->tau2), inst->sigma))
               .ValueOrDie();
  size_t states = 0;
  for (auto _ : state) {
    auto nbta = RefDownwardProduct(inst->copy, d, inst->sigma);
    PEBBLETC_CHECK(nbta.ok());
    states = nbta->num_states;
    benchmark::DoNotOptimize(nbta);
  }
  state.counters["result_states"] = static_cast<double>(states);
}
BENCHMARK(BM_PathDownward)->Unit(benchmark::kMicrosecond);

void BM_PathAntichain(benchmark::State& state) {
  // Fourth path: no bad-inputs automaton at all. The bounded-refutation
  // pass with the antichain engine (docs/INCLUSION.md) decides the question
  // the other three paths build an automaton for — "is some τ1 input mapped
  // outside τ2?" — and exhibits a concrete witness. Complete-decision and
  // the downward fast path are disabled so the timing isolates pass 1.
  static const Instance* inst = new Instance();
  Typechecker tc(inst->copy, inst->sigma, inst->sigma);
  Nbta tau1;  // universal τ1: every tree over the shared alphabet
  tau1.num_symbols = 3;
  StateId u = tau1.AddState();
  tau1.accepting[u] = true;
  tau1.AddLeafRule(inst->sigma.Find("l"), u);
  tau1.AddLeafRule(inst->sigma.Find("m"), u);
  tau1.AddRule(inst->sigma.Find("n"), u, u, u);
  TypecheckOptions opts;
  opts.run_complete_decision = false;
  bool refuted = false;
  for (auto _ : state) {
    auto r = tc.Typecheck(tau1, inst->tau2, opts);
    PEBBLETC_CHECK(r.ok()) << r.status().ToString();
    refuted = r->verdict == TypecheckVerdict::kCounterexample;
    PEBBLETC_CHECK(refuted);
    benchmark::DoNotOptimize(r);
  }
  state.counters["found_counterexample"] = refuted ? 1 : 0;
}
BENCHMARK(BM_PathAntichain)->Unit(benchmark::kMicrosecond);

void BM_PathsAgree(benchmark::State& state) {
  // Not a timing series: asserts once per run that the three
  // automaton-building paths produce language-equivalent automata and that
  // the antichain path's verdict matches their (non-)emptiness, then
  // reports 1.
  static const Instance* inst = new Instance();
  bool agree = false;
  for (auto _ : state) {
    auto by_mso =
        std::move(PebbleAutomatonToNbta(inst->product, inst->sigma))
            .ValueOrDie();
    auto by_behavior =
        std::move(OnePebbleToNbtaByBehavior(inst->product, inst->sigma))
            .ValueOrDie();
    auto d = std::move(ComplementDbta(NbtaIndex(inst->tau2), inst->sigma))
                 .ValueOrDie();
    auto by_down =
        std::move(RefDownwardProduct(inst->copy, d, inst->sigma))
            .ValueOrDie();
    agree =
        std::move(NbtaEquivalent(by_mso, by_behavior, inst->sigma))
            .ValueOrDie() &&
        std::move(NbtaEquivalent(by_behavior, by_down, inst->sigma))
            .ValueOrDie();
    PEBBLETC_CHECK(agree);
    // Fourth path: the bad-inputs automaton is non-empty exactly when the
    // antichain bounded-refutation pass finds a counterexample.
    Typechecker tc(inst->copy, inst->sigma, inst->sigma);
    Nbta tau1;
    tau1.num_symbols = 3;
    StateId u = tau1.AddState();
    tau1.accepting[u] = true;
    tau1.AddLeafRule(inst->sigma.Find("l"), u);
    tau1.AddLeafRule(inst->sigma.Find("m"), u);
    tau1.AddRule(inst->sigma.Find("n"), u, u, u);
    TypecheckOptions opts;
    opts.run_complete_decision = false;
    auto tcr = tc.Typecheck(tau1, inst->tau2, opts);
    PEBBLETC_CHECK(tcr.ok()) << tcr.status().ToString();
    const bool bad_inputs_exist = !IsEmptyNbta(TrimNbta(by_mso));
    agree = agree && (tcr->verdict == TypecheckVerdict::kCounterexample) ==
                         bad_inputs_exist;
    PEBBLETC_CHECK(agree);
    benchmark::DoNotOptimize(agree);
  }
  state.counters["all_four_agree"] = agree ? 1 : 0;
}
BENCHMARK(BM_PathsAgree)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pebbletc
