// E5 (Example 4.2): inverse type inference. The Q1-style pair query maps
// a^n to n² items — not a regular image — yet the inverse of the output
// type "(item.item)*" is the regular (a.a)*. Series: (a) per-input exact
// conformance checks across n (even n conform, odd n violate), (b) the
// complete MSO inverse-inference pipeline on a small machine.

#include <benchmark/benchmark.h>

#include <string>

#include "src/common/check.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/pt/paper_machines.h"
#include "src/query/selection.h"
#include "src/ta/inclusion.h"
#include "src/tree/encode.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

struct Q1Fixture {
  Alphabet in_tags;
  Alphabet out_tags;
  SelectionOutputTags tags;
  EncodedAlphabet in_enc;
  EncodedAlphabet out_enc;
  PebbleTransducer t;
  Nbta tau2;

  Q1Fixture() : t(1, 1, 1), tau2() {
    in_tags.Intern("root");
    in_tags.Intern("a");
    SelectionQuery q1;
    q1.pattern = std::move(ParsePattern("[root]([root.a],[root.a])",
                                        &in_tags))
                     .ValueOrDie();
    q1.selected = 1;
    tags = ExtendAlphabetForSelection(in_tags, &out_tags);
    in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
    out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
    t = std::move(CompileSelectionQuery(q1, in_enc, out_enc, tags))
            .ValueOrDie();

    // τ2: an even number of items.
    auto dtd = std::move(ParseDtd("result := (item.item)*.end\n"
                                  "item := a\na := ()\nend := ()"))
                   .ValueOrDie();
    auto dtd_enc = std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
    auto raw = std::move(CompileDtdToNbta(dtd, dtd_enc)).ValueOrDie();
    std::vector<SymbolId> map(dtd_enc.ranked.size());
    for (SymbolId s = 0; s < dtd_enc.ranked.size(); ++s) {
      map[s] = out_enc.ranked.Find(dtd_enc.ranked.Name(s));
      PEBBLETC_CHECK(map[s] != kNoSymbol);
    }
    tau2 = RelabelNbta(raw, map,
                       static_cast<uint32_t>(out_enc.ranked.size()));
  }

  BinaryTree Input(int n) const {
    std::string text = "root";
    if (n > 0) {
      text += "(a";
      for (int i = 1; i < n; ++i) text += ",a";
      text += ")";
    }
    Alphabet copy = in_tags;
    auto doc = std::move(ParseUnrankedTerm(text, &copy)).ValueOrDie();
    return std::move(EncodeTree(doc, in_enc)).ValueOrDie();
  }
};

void BM_Q1PerInputCheck(benchmark::State& state) {
  static const Q1Fixture* fixture = new Q1Fixture();
  const int n = static_cast<int>(state.range(0));
  BinaryTree input = fixture->Input(n);
  Typechecker tc(fixture->t, fixture->in_enc.ranked,
                 fixture->out_enc.ranked);
  bool conforms = false;
  for (auto _ : state) {
    auto ok = tc.CheckOnInput(input, fixture->tau2);
    PEBBLETC_CHECK(ok.ok());
    conforms = *ok;
    benchmark::DoNotOptimize(ok);
  }
  state.counters["n"] = n;
  state.counters["items"] = n * n;
  state.counters["conforms"] = conforms ? 1 : 0;
  // The paper's claim: conforms ⟺ n even (inverse type (a.a)*).
  state.counters["matches_inverse_type_claim"] =
      (conforms == (n % 2 == 0)) ? 1 : 0;
}
BENCHMARK(BM_Q1PerInputCheck)->DenseRange(0, 6, 1);

void BM_CompleteInverseInference(benchmark::State& state) {
  // The full complete pipeline (Prop. 4.6 product + regularization — the
  // typechecker picks behavior composition here since the product is a
  // 1-pebble machine) on the identity transducer over a 2-symbol alphabet;
  // the inferred inverse must equal τ2 itself.
  RankedAlphabet micro;
  (void)micro.AddLeaf("l");
  (void)micro.AddBinary("n");
  PebbleTransducer copy = MakeCopyTransducer(micro);
  Nbta tau2;
  tau2.num_symbols = 2;
  StateId any = tau2.AddState();
  StateId top = tau2.AddState();
  tau2.accepting[top] = true;
  tau2.AddLeafRule(0, any);
  tau2.AddRule(1, any, any, any);
  tau2.AddRule(1, any, any, top);
  Typechecker tc(copy, micro, micro);
  size_t inferred_states = 0;
  for (auto _ : state) {
    auto inverse = tc.InferInverseType(tau2);
    PEBBLETC_CHECK(inverse.ok());
    inferred_states = inverse->num_states;
    benchmark::DoNotOptimize(inverse);
  }
  auto inverse = std::move(tc.InferInverseType(tau2)).ValueOrDie();
  state.counters["inferred_states"] = static_cast<double>(inferred_states);
  state.counters["inverse_equals_tau2"] =
      std::move(NbtaEquivalent(inverse, tau2, micro)).ValueOrDie() ? 1 : 0;
}
BENCHMARK(BM_CompleteInverseInference)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pebbletc
