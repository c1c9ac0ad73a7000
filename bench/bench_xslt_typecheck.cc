// E6 (Example 4.3): typechecking XSLT-fragment programs. Two series:
//  * Q2 (maps a^n to b a^n b a^n b a^n): exact per-input checks against the
//    correct and an incorrect output DTD, plus refutation latency;
//  * a downward rename program: the *complete* fast-path decision, timed
//    against growing input sizes.

#include <benchmark/benchmark.h>

#include <string>

#include "src/common/check.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/query/xslt.h"
#include "src/tree/encode.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

struct Q2Fixture {
  Alphabet in_tags, out_tags;
  EncodedAlphabet in_enc, out_enc;
  PebbleTransducer t;
  Nbta tau1, tau2_good, tau2_bad;

  Q2Fixture() : t(1, 1, 1) {
    auto program = std::move(ParseXslt(
                                 "template root { result { b; apply; b; "
                                 "apply; b; apply } }\n"
                                 "template a { a }",
                                 &in_tags, &out_tags))
                       .ValueOrDie();
    in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
    out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
    t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
    auto in_dtd = std::move(ParseDtd("root := a*\na := ()")).ValueOrDie();
    tau1 = std::move(CompileDtdToNbta(in_dtd, in_enc)).ValueOrDie();
    auto good = std::move(ParseDtd(
                              "result := b.a*.b.a*.b.a*\nb := ()\na := ()"))
                    .ValueOrDie();
    tau2_good = Align(good);
    auto bad =
        std::move(ParseDtd("result := b.a*.b.a*.b\nb := ()\na := ()"))
            .ValueOrDie();
    tau2_bad = Align(bad);
  }

  Nbta Align(const SpecializedDtd& dtd) {
    auto enc = std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
    auto raw = std::move(CompileDtdToNbta(dtd, enc)).ValueOrDie();
    std::vector<SymbolId> map(enc.ranked.size());
    for (SymbolId s = 0; s < enc.ranked.size(); ++s) {
      map[s] = out_enc.ranked.Find(enc.ranked.Name(s));
      PEBBLETC_CHECK(map[s] != kNoSymbol) << enc.ranked.Name(s);
    }
    return RelabelNbta(raw, map,
                       static_cast<uint32_t>(out_enc.ranked.size()));
  }
};

void BM_Q2PerInputCheck(benchmark::State& state) {
  static const Q2Fixture* f = new Q2Fixture();
  const int n = static_cast<int>(state.range(0));
  std::string text = "root";
  if (n > 0) {
    text += "(a";
    for (int i = 1; i < n; ++i) text += ",a";
    text += ")";
  }
  Alphabet tags = f->in_tags;
  auto doc = std::move(ParseUnrankedTerm(text, &tags)).ValueOrDie();
  auto input = std::move(EncodeTree(doc, f->in_enc)).ValueOrDie();
  Typechecker tc(f->t, f->in_enc.ranked, f->out_enc.ranked);
  bool good_ok = false, bad_ok = true;
  for (auto _ : state) {
    auto g = tc.CheckOnInput(input, f->tau2_good);
    auto b = tc.CheckOnInput(input, f->tau2_bad);
    PEBBLETC_CHECK(g.ok() && b.ok());
    good_ok = *g;
    bad_ok = *b;
    benchmark::DoNotOptimize(g);
  }
  state.counters["n"] = n;
  state.counters["conforms_good_dtd"] = good_ok ? 1 : 0;
  state.counters["violates_bad_dtd"] = bad_ok ? 0 : 1;
}
BENCHMARK(BM_Q2PerInputCheck)->DenseRange(0, 8, 2)->Arg(16)->Arg(32);

void BM_Q2Refutation(benchmark::State& state) {
  // How fast does the bounded refutation find the bad-DTD counterexample?
  static const Q2Fixture* f = new Q2Fixture();
  Typechecker tc(f->t, f->in_enc.ranked, f->out_enc.ranked);
  TypecheckOptions opts;
  opts.run_complete_decision = false;
  opts.refutation_max_trees = 20;
  opts.refutation_max_nodes = 31;
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  for (auto _ : state) {
    auto r = tc.Typecheck(f->tau1, f->tau2_bad, opts);
    PEBBLETC_CHECK(r.ok());
    verdict = r->verdict;
    benchmark::DoNotOptimize(r);
  }
  state.counters["found_counterexample"] =
      verdict == TypecheckVerdict::kCounterexample ? 1 : 0;
}
BENCHMARK(BM_Q2Refutation)->Unit(benchmark::kMillisecond);

void BM_RenameCompleteFastPath(benchmark::State& state) {
  // The downward rename program: complete decision via the subset fast
  // path, both verdicts.
  Alphabet in_tags, out_tags;
  auto program =
      std::move(ParseXslt("template a { b { apply } }\ntemplate c { d }",
                          &in_tags, &out_tags))
          .ValueOrDie();
  auto in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
  auto t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
  auto in_dtd = std::move(ParseDtd("a := (a|c)*\nc := ()")).ValueOrDie();
  auto tau1 = std::move(CompileDtdToNbta(in_dtd, in_enc)).ValueOrDie();
  auto good_dtd = std::move(ParseDtd("b := (b|d)*\nd := ()")).ValueOrDie();
  auto tau2 = std::move(CompileDtdToNbta(good_dtd, out_enc)).ValueOrDie();
  Typechecker tc(t, in_enc.ranked, out_enc.ranked);
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;
  TypecheckVerdict verdict = TypecheckVerdict::kUnknown;
  for (auto _ : state) {
    auto r = tc.Typecheck(tau1, tau2, opts);
    PEBBLETC_CHECK(r.ok());
    verdict = r->verdict;
    benchmark::DoNotOptimize(r);
  }
  state.counters["typechecks"] =
      verdict == TypecheckVerdict::kTypechecks ? 1 : 0;
}
BENCHMARK(BM_RenameCompleteFastPath)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pebbletc
