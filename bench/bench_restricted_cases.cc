// E9 (Section 5, complexity of restricted cases): the downward fast path
// scales to realistic machines and DTDs — exponential rather than
// non-elementary. Series: complete typechecking time (the τ1-guided search of
// src/core/downward.h) and the size of the all-pairs subset closure it
// replaced (the oracle RefDownwardProduct) for rename-style XSLT programs
// against DTD families of growing width.

#include <benchmark/benchmark.h>

#include <string>

#include "src/check/reference_ops.h"
#include "src/common/check.h"
#include "src/core/downward.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/query/xslt.h"
#include "src/tree/encode.h"

namespace pebbletc {
namespace {

// A rename program over `width` element kinds a0..a{w-1} → b0..b{w-1},
// each template copying structure recursively.
struct Family {
  Alphabet in_tags, out_tags;
  EncodedAlphabet in_enc, out_enc;
  PebbleTransducer t;
  Nbta tau1, tau2;

  explicit Family(int width) : t(1, 1, 1) {
    std::string program_text, in_dtd_text, out_dtd_text;
    std::string any_in, any_out;
    for (int i = 0; i < width; ++i) {
      if (i) {
        any_in += "|";
        any_out += "|";
      }
      any_in += "a" + std::to_string(i);
      any_out += "b" + std::to_string(i);
    }
    for (int i = 0; i < width; ++i) {
      program_text += "template a" + std::to_string(i) + " { b" +
                      std::to_string(i) + " { apply } }\n";
      in_dtd_text +=
          "a" + std::to_string(i) + " := (" + any_in + ")*\n";
      out_dtd_text +=
          "b" + std::to_string(i) + " := (" + any_out + ")*\n";
    }
    auto program =
        std::move(ParseXslt(program_text, &in_tags, &out_tags)).ValueOrDie();
    in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
    out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
    t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
    PEBBLETC_CHECK(IsDownwardTransducer(t));
    auto in_dtd = std::move(ParseDtd(in_dtd_text)).ValueOrDie();
    tau1 = std::move(CompileDtdToNbta(in_dtd, in_enc)).ValueOrDie();
    auto out_dtd = std::move(ParseDtd(out_dtd_text)).ValueOrDie();
    tau2 = std::move(CompileDtdToNbta(out_dtd, out_enc)).ValueOrDie();
  }
};

void BM_DownwardTypecheckWidth(benchmark::State& state) {
  Family f(static_cast<int>(state.range(0)));
  Typechecker tc(f.t, f.in_enc.ranked, f.out_enc.ranked);
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  TaOpCounters counters;
  for (auto _ : state) {
    auto r = tc.Typecheck(f.tau1, f.tau2, opts);
    PEBBLETC_CHECK(r.ok());
    verdict = r->verdict;
    counters = r->op_counters;
    benchmark::DoNotOptimize(r);
  }
  state.counters["dtd_elements"] = static_cast<double>(state.range(0));
  state.counters["transducer_states"] =
      static_cast<double>(f.t.num_states());
  state.counters["typechecks"] =
      verdict == TypecheckVerdict::kTypechecks ? 1 : 0;
  // The downward search's (τ1-state, S) pairs: kept and pruned.
  state.counters["search_pairs"] =
      static_cast<double>(counters.incl_pairs_interned);
  state.counters["pairs_pruned"] =
      static_cast<double>(counters.incl_pairs_pruned);
}
BENCHMARK(BM_DownwardTypecheckWidth)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_DownwardSubsetConstruction(benchmark::State& state) {
  // The reference closure: subset-automaton size vs machine/DTD width.
  Family f(static_cast<int>(state.range(0)));
  auto not_tau2 =
      std::move(ComplementNbta(f.tau2, f.out_enc.ranked)).ValueOrDie();
  auto d = std::move(DeterminizeNbta(TrimNbta(not_tau2), f.out_enc.ranked))
               .ValueOrDie();
  size_t product_states = 0;
  for (auto _ : state) {
    auto product = RefDownwardProduct(f.t, d, f.in_enc.ranked);
    PEBBLETC_CHECK(product.ok());
    product_states = product->num_states;
    benchmark::DoNotOptimize(product);
  }
  state.counters["dtd_elements"] = static_cast<double>(state.range(0));
  state.counters["dbta_states"] = static_cast<double>(d.num_states());
  state.counters["subset_states"] = static_cast<double>(product_states);
}
BENCHMARK(BM_DownwardSubsetConstruction)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pebbletc
