// E8 (Theorem 4.8): the number of pebbles is the dominating cost of
// typechecking — the complete pipeline blows up hyperexponentially in k.
// We run the *same* tiny machine family at k = 1, 2, 3 pebbles: each level
// adds one place-pebble round, which nests another ∀S-block (and its
// complementations) in the Theorem 4.7 formula. Budget exhaustion is
// reported as saturation rather than an error.

#include <benchmark/benchmark.h>

#include "src/common/check.h"
#include "src/mso/compile.h"
#include "src/pa/automaton.h"
#include "src/pa/to_mso.h"

namespace pebbletc {
namespace {

RankedAlphabet MicroRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("l");
  (void)sigma.AddBinary("n");
  return sigma;
}

// k nested pebble rounds: place pebbles 1..k (each walking one step left
// when possible), then accept on an l-leaf under the last pebble.
PebbleAutomaton NestedPlaceFamily(const RankedAlphabet& sigma, uint32_t k) {
  PebbleAutomaton a(k, static_cast<uint32_t>(sigma.size()));
  using M = PebbleAutomaton::MoveKind;
  StateId prev = a.AddState(1);
  a.SetStart(prev);
  for (uint32_t level = 1; level < k; ++level) {
    StateId next = a.AddState(level + 1);
    a.AddMove({}, prev, M::kPlacePebble, next);
    prev = next;
  }
  StateId walked = a.AddState(k);
  a.AddMove({.symbol = sigma.Find("n")}, prev, M::kDownLeft, walked);
  a.AddAccept({.symbol = sigma.Find("l")}, prev);
  a.AddAccept({.symbol = sigma.Find("l")}, walked);
  return a;
}

void BM_BlowupInK(benchmark::State& state) {
  RankedAlphabet sigma = MicroRanked();
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  PebbleAutomaton a = NestedPlaceFamily(sigma, k);
  MsoCompileStats stats;
  MsoCompileOptions opts;
  opts.stats = &stats;
  bool saturated = false;
  size_t result_states = 0;
  for (auto _ : state) {
    stats = MsoCompileStats();
    TaOpContext ctx;
    ctx.budgets.max_det_states = 40000;
    opts.ctx = &ctx;
    auto nbta = PebbleAutomatonToNbta(a, sigma, opts);
    if (!nbta.ok()) {
      PEBBLETC_CHECK(nbta.status().code() == StatusCode::kResourceExhausted)
          << nbta.status().ToString();
      saturated = true;
    } else {
      result_states = nbta->num_states;
    }
    benchmark::DoNotOptimize(nbta);
  }
  state.counters["k"] = k;
  state.counters["pa_states"] = static_cast<double>(a.num_states());
  state.counters["mso_tracks"] =
      static_cast<double>(a.num_states() + 3 * k);
  state.counters["complementations"] =
      static_cast<double>(stats.complementations);
  state.counters["max_intermediate_states"] =
      static_cast<double>(stats.max_intermediate_states);
  state.counters["budget_saturated"] = saturated ? 1 : 0;
  state.counters["result_states"] = static_cast<double>(result_states);
}
BENCHMARK(BM_BlowupInK)->DenseRange(1, 3, 1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pebbletc
