// Tests for src/core: the Theorem 4.4 typechecker — bounded refutation, the
// downward fast path, the complete MSO pipeline, inverse type inference, and
// counterexample extraction.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>

#include "src/alphabet/alphabet.h"
#include "src/common/rng.h"
#include "src/check/reference_ops.h"
#include "src/core/downward.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/pt/eval.h"
#include "src/pt/paper_machines.h"
#include "src/query/selection.h"
#include "src/query/xslt.h"
#include "src/ta/enumerate.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/ta/op_cache.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

RankedAlphabet TinyRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("a0");
  (void)sigma.AddLeaf("b0");
  (void)sigma.AddBinary("a2");
  (void)sigma.AddBinary("b2");
  return sigma;
}

RankedAlphabet MicroRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("l");
  (void)sigma.AddBinary("n");
  return sigma;
}

// All leaves labelled `leaf`, any internal structure.
Nbta AllLeaves(const RankedAlphabet& sigma, SymbolId leaf) {
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId q = a.AddState();
  a.accepting[q] = true;
  a.AddLeafRule(leaf, q);
  for (SymbolId s : sigma.BinarySymbols()) a.AddRule(s, q, q, q);
  return a;
}

TEST(DownwardTest, FragmentDetection) {
  RankedAlphabet sigma = TinyRanked();
  EXPECT_TRUE(IsDownwardTransducer(MakeCopyTransducer(sigma)));
  PebbleTransducer t(1, 4, 4);
  StateId q = t.AddState(1);
  t.SetStart(q);
  t.AddMove({}, q, PebbleTransducer::MoveKind::kUpLeft, q);
  EXPECT_FALSE(IsDownwardTransducer(t));
  PebbleTransducer t2(2, 4, 4);
  StateId p1 = t2.AddState(1);
  StateId p2 = t2.AddState(2);
  t2.SetStart(p1);
  t2.AddMove({}, p1, PebbleTransducer::MoveKind::kPlacePebble, p2);
  EXPECT_FALSE(IsDownwardTransducer(t2));
}

TEST(TypecheckTest, CopyTypechecksAgainstItsOwnType) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta tau = AllLeaves(sigma, sigma.Find("a0"));
  auto r = std::move(tc.Typecheck(tau, tau)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(r.method, "downward-fastpath");
}

TEST(TypecheckTest, ResultCarriesUnifiedOpCounters) {
  // Every pass runs under one TaOpContext; the result's cost profile must
  // reflect the run (complement of τ2, indexes, trims, wall time).
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta tau = AllLeaves(sigma, sigma.Find("a0"));
  auto r = std::move(tc.Typecheck(tau, tau)).ValueOrDie();
  EXPECT_GT(r.op_counters.complementations, 0u);
  EXPECT_GT(r.op_counters.determinizations, 0u);
  EXPECT_GT(r.op_counters.indexes_built, 0u);
  EXPECT_GT(r.op_counters.trims, 0u);
  EXPECT_GT(r.op_counters.rules_scanned, 0u);
  EXPECT_GT(r.op_counters.states_materialized, 0u);
  EXPECT_GT(r.op_counters.op_nanos, 0u);
}


TEST(TypecheckTest, CopyCounterexampleWhenTypesDiffer) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta tau1 = AllLeaves(sigma, sigma.Find("a0"));
  Nbta tau2 = AllLeaves(sigma, sigma.Find("b0"));
  auto r = std::move(tc.Typecheck(tau1, tau2)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kCounterexample);
  ASSERT_TRUE(r.counterexample_input.has_value());
  ASSERT_TRUE(r.counterexample_output.has_value());
  // The counterexample is genuine: input ∈ τ1, output ∈ T(input), ∉ τ2.
  EXPECT_TRUE(tau1.Accepts(*r.counterexample_input));
  EXPECT_FALSE(tau2.Accepts(*r.counterexample_output));
  auto member = OutputContains(copy, *r.counterexample_input,
                               *r.counterexample_output);
  ASSERT_TRUE(member.ok());
  EXPECT_TRUE(*member);
}

TEST(TypecheckTest, FastPathAndRefutationAgree) {
  // Disable the refutation pre-pass; the fast path alone must find the same
  // verdicts on a family of type pairs.
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta a0 = AllLeaves(sigma, sigma.Find("a0"));
  Nbta b0 = AllLeaves(sigma, sigma.Find("b0"));
  Nbta uni = UniversalNbta(sigma);
  TypecheckOptions no_refute;
  no_refute.refutation_max_trees = 0;
  struct Case {
    const Nbta* t1;
    const Nbta* t2;
    TypecheckVerdict want;
  };
  for (const Case& c : std::initializer_list<Case>{
           {&a0, &a0, TypecheckVerdict::kTypechecks},
           {&a0, &uni, TypecheckVerdict::kTypechecks},
           {&uni, &a0, TypecheckVerdict::kCounterexample},
           {&b0, &a0, TypecheckVerdict::kCounterexample}}) {
    auto fast = std::move(tc.Typecheck(*c.t1, *c.t2, no_refute)).ValueOrDie();
    EXPECT_EQ(fast.verdict, c.want);
    EXPECT_EQ(fast.method, "downward-fastpath");
    auto refuted = std::move(tc.Typecheck(*c.t1, *c.t2)).ValueOrDie();
    EXPECT_EQ(refuted.verdict, c.want);
  }
}

TEST(TypecheckTest, AntichainPathAgreesWithExplicit) {
  // The antichain inclusion route (docs/INCLUSION.md) must reach the verdict
  // of the explicit decision, here the reference complement + product +
  // emptiness (src/check/reference_ops.h): for the copy transducer,
  // T(τ1) ⊆ τ2 iff τ1 ∩ complement(τ2) is empty. A pass-1 refutation must
  // name the first enumerated τ1 tree that τ2 rejects, with a genuine (if
  // not size-minimal) violating output.
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta a0 = AllLeaves(sigma, sigma.Find("a0"));
  Nbta b0 = AllLeaves(sigma, sigma.Find("b0"));
  Nbta uni = UniversalNbta(sigma);
  const TypecheckOptions opts;
  struct Case {
    const Nbta* t1;
    const Nbta* t2;
  };
  for (const Case& c : std::initializer_list<Case>{
           {&a0, &a0}, {&a0, &uni}, {&uni, &a0}, {&b0, &a0}, {&uni, &uni}}) {
    auto not_t2 = std::move(RefComplement(*c.t2, sigma)).ValueOrDie();
    const bool included = RefIsEmpty(RefIntersect(*c.t1, not_t2));
    auto r = std::move(tc.Typecheck(*c.t1, *c.t2, opts)).ValueOrDie();
    EXPECT_EQ(r.verdict, included ? TypecheckVerdict::kTypechecks
                                  : TypecheckVerdict::kCounterexample);
    EXPECT_EQ(r.counterexample_input.has_value(), !included);
    if (r.verdict != TypecheckVerdict::kCounterexample) continue;
    ASSERT_TRUE(r.counterexample_input.has_value());
    if (r.method == "bounded-refutation") {
      std::optional<BinaryTree> first;
      for (BinaryTree& t :
           EnumerateAcceptedTrees(*c.t1, opts.refutation_max_nodes,
                                  opts.refutation_max_trees)) {
        if (!RefAccepts(*c.t2, t)) {
          first = std::move(t);
          break;
        }
      }
      ASSERT_TRUE(first.has_value());
      EXPECT_TRUE(*r.counterexample_input == *first);
    }
    ASSERT_TRUE(r.counterexample_output.has_value());
    EXPECT_TRUE(c.t1->Accepts(*r.counterexample_input));
    EXPECT_FALSE(c.t2->Accepts(*r.counterexample_output));
    auto member = OutputContains(copy, *r.counterexample_input,
                                 *r.counterexample_output);
    ASSERT_TRUE(member.ok());
    EXPECT_TRUE(*member);
  }
}

TEST(TypecheckTest, AntichainRefutationSkipsComplement) {
  // A pass-1 refutation must return without ever complementing (or
  // determinizing) τ2 — that is the point of the antichain route.
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta uni = UniversalNbta(sigma);
  Nbta a0 = AllLeaves(sigma, sigma.Find("a0"));
  auto r = std::move(tc.Typecheck(uni, a0)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(r.method, "bounded-refutation");
  EXPECT_EQ(r.op_counters.complementations, 0u);
  EXPECT_EQ(r.op_counters.determinizations, 0u);
  EXPECT_GT(r.op_counters.inclusions, 0u);
}

TEST(TypecheckTest, EmptyInputTypeAlwaysTypechecks) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta none = EmptyLanguageNbta(sigma);
  Nbta tau2 = AllLeaves(sigma, sigma.Find("a0"));
  auto r = std::move(tc.Typecheck(none, tau2)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kTypechecks);
}

TEST(TypecheckTest, CheckOnInputIsExact) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta tau2 = AllLeaves(sigma, sigma.Find("a0"));
  auto good = std::move(ParseBinaryTerm("a2(a0,a0)", sigma)).ValueOrDie();
  auto bad = std::move(ParseBinaryTerm("a2(a0,b0)", sigma)).ValueOrDie();
  EXPECT_TRUE(std::move(tc.CheckOnInput(good, tau2)).ValueOrDie());
  std::optional<BinaryTree> violating;
  auto r = tc.CheckOnInput(bad, tau2, {}, &violating);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  ASSERT_TRUE(violating.has_value());
  EXPECT_TRUE(*violating == bad);  // copy: the violating output is the input
}

TEST(TypecheckTest, CheckOnInputSearchesOnlyUsefulConfigurations) {
  // Example 4.2's Q1 on root(a,a,a): A_t has about 71,000 configurations,
  // and only a few dozen of them reach an output. The antichain search
  // interns a pair per inhabited state of the automaton it is given, so it
  // must run on the trimmed A_t to decide within a 1,000-pair budget.
  Alphabet in_tags;
  in_tags.Intern("root");
  in_tags.Intern("a");
  SelectionQuery q1;
  q1.pattern = std::move(ParsePattern("[root]([root.a],[root.a])", &in_tags))
                   .ValueOrDie();
  q1.selected = 1;
  Alphabet out_tags;
  SelectionOutputTags tags = ExtendAlphabetForSelection(in_tags, &out_tags);
  auto in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
  auto t = std::move(CompileSelectionQuery(q1, in_enc, out_enc, tags))
               .ValueOrDie();
  auto doc = std::move(ParseUnrankedTerm("root(a,a,a)", &in_tags)).ValueOrDie();
  auto input = std::move(EncodeTree(doc, in_enc)).ValueOrDie();
  Typechecker tc(t, in_enc.ranked, out_enc.ranked);
  TypecheckOptions opts;
  opts.max_antichain_pairs = 1000;
  auto r = tc.CheckOnInput(input, UniversalNbta(out_enc.ranked), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
}

TEST(TypecheckTest, MismatchedOutputTypeIsInvalidArgument) {
  // An output type over the wrong alphabet is a caller error: CheckOnInput
  // and InferInverseType must reject it like Typecheck does, before any
  // automaton op sees the mismatched operands.
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta narrow;  // over 3 symbols; the typechecker's alphabet has 4
  narrow.num_symbols = 3;
  auto input = std::move(ParseBinaryTerm("a2(a0,a0)", sigma)).ValueOrDie();
  auto checked = tc.CheckOnInput(input, narrow);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument);
  auto inferred = tc.InferInverseType(narrow);
  ASSERT_FALSE(inferred.ok());
  EXPECT_EQ(inferred.status().code(), StatusCode::kInvalidArgument);
}

// A non-downward transducer small enough for the complete MSO pipeline:
// outputs the single leaf `l` when the input root is a leaf (and produces
// nothing otherwise); an unreachable up-move pushes it out of the downward
// fragment.
PebbleTransducer TinyNonDownward(const RankedAlphabet& sigma) {
  PebbleTransducer t(1, static_cast<uint32_t>(sigma.size()),
                     static_cast<uint32_t>(sigma.size()));
  StateId q = t.AddState(1);
  StateId dead = t.AddState(1);
  t.SetStart(q);
  t.AddOutputLeaf({.symbol = sigma.Find("l")}, q, sigma.Find("l"));
  t.AddMove({}, dead, PebbleTransducer::MoveKind::kUpLeft, dead);
  return t;
}

TEST(TypecheckTest, CompleteMsoPipelinePositive) {
  RankedAlphabet sigma = MicroRanked();
  PebbleTransducer t = TinyNonDownward(sigma);
  ASSERT_FALSE(IsDownwardTransducer(t));
  Typechecker tc(t, sigma, sigma);
  Nbta tau2 = AllLeaves(sigma, sigma.Find("l"));
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;  // force the complete pipeline
  auto r = std::move(tc.Typecheck(UniversalNbta(sigma), tau2, opts))
               .ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(r.method, "behavior-complete");

  // Force the Theorem 4.7 MSO route; the verdict must not change.
  opts.behavior_max_state_bits = 0;
  auto r2 = std::move(tc.Typecheck(UniversalNbta(sigma), tau2, opts))
                .ValueOrDie();
  EXPECT_EQ(r2.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(r2.method, "mso-complete");
  EXPECT_GT(r2.mso_stats.automata_built, 0u);
}

TEST(TypecheckTest, CompleteMsoPipelineNegative) {
  RankedAlphabet sigma = MicroRanked();
  PebbleTransducer t = TinyNonDownward(sigma);
  Typechecker tc(t, sigma, sigma);
  // τ2 = trees rooted at `n` — the produced leaf `l` violates it.
  Nbta tau2;
  tau2.num_symbols = 2;
  {
    StateId any = tau2.AddState();
    StateId top = tau2.AddState();
    tau2.accepting[top] = true;
    tau2.AddLeafRule(sigma.Find("l"), any);
    tau2.AddRule(sigma.Find("n"), any, any, any);
    tau2.AddRule(sigma.Find("n"), any, any, top);
  }
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;
  opts.behavior_max_state_bits = 0;  // force the MSO route
  auto r = std::move(tc.Typecheck(UniversalNbta(sigma), tau2, opts))
               .ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(r.method, "mso-complete");
  ASSERT_TRUE(r.counterexample_input.has_value());
  // The counterexample input must be the single leaf (the only input with
  // an output at all).
  EXPECT_EQ(r.counterexample_input->size(), 1u);
  ASSERT_TRUE(r.counterexample_output.has_value());
  EXPECT_FALSE(tau2.Accepts(*r.counterexample_output));
}

TEST(TypecheckTest, BoundedRefutationFindsBugBeforeCompletePipeline) {
  RankedAlphabet sigma = MicroRanked();
  PebbleTransducer t = TinyNonDownward(sigma);
  Typechecker tc(t, sigma, sigma);
  Nbta tau2;  // empty output type: any produced output is a violation
  tau2.num_symbols = 2;
  tau2.AddState();
  auto r = std::move(tc.Typecheck(UniversalNbta(sigma), tau2)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(r.method, "bounded-refutation");
}

// Every tree over TinyRanked() except the leaf b0: a0 is state 0, b0 state
// 1, and every binary node state 2.
Nbta AllButLeafB0(const RankedAlphabet& sigma) {
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  for (int q = 0; q < 3; ++q) a.AddState();
  a.accepting[0] = a.accepting[2] = true;
  a.AddLeafRule(sigma.Find("a0"), 0);
  a.AddLeafRule(sigma.Find("b0"), 1);
  for (SymbolId s : sigma.BinarySymbols()) {
    for (StateId l = 0; l < 3; ++l) {
      for (StateId r = 0; r < 3; ++r) a.AddRule(s, l, r, 2);
    }
  }
  return a;
}

TEST(TypecheckTest, RefutationStopsAtTheFirstViolator) {
  // τ1 holds every tree, 15.2 million of them within pass 1's 15 nodes. The
  // second tree enumerated, the leaf b0, already violates τ2, so pass 1
  // must check it before building a single binary tree.
  const RankedAlphabet sigma = TinyRanked();
  const PebbleTransducer copy = MakeCopyTransducer(sigma);
  const Typechecker tc(copy, sigma, sigma);
  TypecheckOptions opts;
  opts.deadline = std::chrono::seconds(2);
  auto r = std::move(tc.Typecheck(UniversalNbta(sigma), AllButLeafB0(sigma),
                                  opts))
               .ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(r.method, "bounded-refutation");
  EXPECT_FALSE(r.exhausted.exhausted) << r.notes;
  ASSERT_TRUE(r.counterexample_input.has_value());
  EXPECT_EQ(BinaryTermString(*r.counterexample_input, sigma), "b0");
  ASSERT_TRUE(r.counterexample_output.has_value());
  EXPECT_EQ(BinaryTermString(*r.counterexample_output, sigma), "b0");
  EXPECT_LT(r.op_counters.checkpoints, 100u);
}

// τ1 = τ2 whose smallest tree has 17 nodes: state 0 holds every tree, b2(i,
// 0) climbs from state i to i + 1 up to 8, and a2(0, 8) accepts. Pass 1's
// 15-node enumeration visits nothing and would build 15.2 million trees of
// state 0.
Nbta LongSpineType() {
  Nbta a;
  a.num_symbols = 4;
  for (int q = 0; q < 10; ++q) a.AddState();
  a.accepting[9] = true;
  constexpr SymbolId kA0 = 0, kB0 = 1, kA2 = 2, kB2 = 3;
  a.AddLeafRule(kA0, 0);
  a.AddLeafRule(kB0, 0);
  a.AddLeafRule(kA0, 1);
  a.AddRule(kA2, 0, 0, 0);
  a.AddRule(kB2, 0, 0, 0);
  a.AddRule(kA2, 0, 8, 9);
  for (StateId i = 1; i <= 7; ++i) a.AddRule(kB2, i, 0, i + 1);
  return a;
}

TEST(TypecheckTest, WideInputStopsAtTheEnumerationStoreCap) {
  // No deadline: the enumeration store's cap, not the clock, ends pass 1,
  // and the downward fast path then proves the instance.
  const RankedAlphabet sigma = TinyRanked();
  const PebbleTransducer copy = MakeCopyTransducer(sigma);
  const Typechecker tc(copy, sigma, sigma);
  const Nbta tau = LongSpineType();
  auto r = std::move(tc.Typecheck(tau, tau)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(r.method, "downward-fastpath");
  EXPECT_FALSE(r.exhausted.exhausted) << r.notes;
  EXPECT_NE(r.notes.find(std::to_string(kMaxEnumeratedTrees)),
            std::string::npos)
      << r.notes;
  // One checkpoint per built tree: pass 1 passes fewer than the cap.
  TypecheckOptions no_pass1;
  no_pass1.refutation_max_trees = 0;
  auto pass2 = std::move(tc.Typecheck(tau, tau, no_pass1)).ValueOrDie();
  EXPECT_EQ(pass2.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_LE(r.op_counters.checkpoints,
            kMaxEnumeratedTrees + pass2.op_counters.checkpoints);
}

TEST(TypecheckTest, InconclusiveWhenEverythingDisabled) {
  RankedAlphabet sigma = MicroRanked();
  PebbleTransducer t = TinyNonDownward(sigma);
  Typechecker tc(t, sigma, sigma);
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;
  opts.run_complete_decision = false;
  auto r = std::move(tc.Typecheck(UniversalNbta(sigma),
                                  AllLeaves(sigma, sigma.Find("l")), opts))
               .ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kUnknown);
}

TEST(InverseInferenceTest, VacuousOutputsMakeEverythingConform) {
  // T produces an output only on the single-leaf input; on every other tree
  // T(t) = ∅ ⊆ τ2 vacuously, so the inverse type is *universal*.
  RankedAlphabet sigma = MicroRanked();
  PebbleTransducer t = TinyNonDownward(sigma);
  Typechecker tc(t, sigma, sigma);
  Nbta tau2 = AllLeaves(sigma, sigma.Find("l"));
  auto inverse = std::move(tc.InferInverseType(tau2)).ValueOrDie();
  auto eq = NbtaEquivalent(inverse, UniversalNbta(sigma), sigma);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(InverseInferenceTest, CopyInverseIsTheOutputType) {
  // For the identity transformation the inverse type of τ2 is τ2 itself.
  RankedAlphabet sigma = MicroRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  // τ2: the root is the binary symbol n.
  Nbta tau2;
  tau2.num_symbols = 2;
  {
    StateId any = tau2.AddState();
    StateId top = tau2.AddState();
    tau2.accepting[top] = true;
    tau2.AddLeafRule(sigma.Find("l"), any);
    tau2.AddRule(sigma.Find("n"), any, any, any);
    tau2.AddRule(sigma.Find("n"), any, any, top);
  }
  auto inverse = std::move(tc.InferInverseType(tau2)).ValueOrDie();
  auto eq = NbtaEquivalent(inverse, tau2, sigma);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(DownwardProductTest, AgreesWithPerInputChecks) {
  // Cross-validation: the reference downward closure's language must equal
  // {t | T(t) ∩ inst(D) ≠ ∅}, checked per-tree on random inputs.
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Nbta d_lang = AllLeaves(sigma, sigma.Find("a0"));
  auto d = std::move(DeterminizeNbta(d_lang, sigma)).ValueOrDie();
  auto product =
      std::move(RefDownwardProduct(copy, d, sigma)).ValueOrDie();
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(10));
    // For copy, T(t) ∩ inst(D) ≠ ∅ iff t ∈ inst(D).
    EXPECT_EQ(product.Accepts(t), d_lang.Accepts(t))
        << BinaryTermString(t, sigma);
  }
}

// Root must be the binary symbol `n`; subtrees are unconstrained. Used to
// give the degraded salvage search a violation it can find on a leaf input.
Nbta RootIsBinary(const RankedAlphabet& sigma) {
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  StateId any = a.AddState();
  StateId root = a.AddState();
  a.accepting[root] = true;
  for (SymbolId s : sigma.LeafSymbols()) a.AddLeafRule(s, any);
  for (SymbolId s : sigma.BinarySymbols()) {
    a.AddRule(s, any, any, any);
    a.AddRule(s, root, any, any);
  }
  return a;
}

// Accepts exactly the trees with `k` internal nodes: state i counts the
// internal nodes below a node, and a count past k has no state.
Nbta ExactlyInternalNodes(const RankedAlphabet& sigma, StateId k) {
  Nbta a;
  a.num_symbols = static_cast<uint32_t>(sigma.size());
  for (StateId i = 0; i <= k; ++i) a.AddState();
  a.accepting[k] = true;
  for (SymbolId s : sigma.LeafSymbols()) a.AddLeafRule(s, 0);
  for (SymbolId s : sigma.BinarySymbols()) {
    for (StateId l = 0; l < k; ++l) {
      for (StateId r = 0; l + r < k; ++r) a.AddRule(s, l, r, l + r + 1);
    }
  }
  return a;
}

TEST(TypecheckTest, VerdictLadderTable) {
  // One scenario per rung of the degradation ladder:
  //  1. exact pass decides, nothing exhausted;
  //  2. an early pass exhausts but a later exact pass still proves the
  //     instance (exhausted=true yet the verdict is exact);
  //  3. every exact pass is starved, the degraded enumeration salvages a
  //     concrete counterexample;
  //  4. everything is starved and no violation exists within the salvage
  //     budget — kUnknown, never a fake kTypechecks;
  //  5. everything is starved and every τ1 tree has 11 nodes (all of them
  //     violations), past the salvage search's 9-node cap: its random
  //     samples must stay within the cap too, so the answer is kUnknown.
  RankedAlphabet tiny = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(tiny);
  Typechecker copy_tc(copy, tiny, tiny);
  Nbta tau_a0 = AllLeaves(tiny, tiny.Find("a0"));

  RankedAlphabet micro = MicroRanked();
  PebbleTransducer nd = TinyNonDownward(micro);
  Typechecker nd_tc(nd, micro, micro);
  Nbta uni = UniversalNbta(micro);
  Nbta root_n = RootIsBinary(micro);
  Nbta all_l = AllLeaves(micro, micro.Find("l"));
  // One symbol per rank keeps the salvage enumeration of τ1 cheap, so the
  // random samples run well inside the salvage budget.
  PebbleTransducer micro_copy = MakeCopyTransducer(micro);
  Typechecker micro_copy_tc(micro_copy, micro, micro);
  Nbta five_internal = ExactlyInternalNodes(micro, 5);
  Nbta three_nodes = ExactlyInternalNodes(micro, 1);

  TypecheckOptions exact;  // defaults: every pass fully budgeted

  TypecheckOptions tight_configs;  // pass 1's per-tree config spaces blow
  tight_configs.max_configs = 1;

  TypecheckOptions no_exact;  // complement(τ2) exhausts before any pass
  no_exact.refutation_max_trees = 0;
  no_exact.max_det_states = 1;

  struct Case {
    const char* name;
    const Typechecker* tc;
    const Nbta* tau1;
    const Nbta* tau2;
    const TypecheckOptions* opts;
    TypecheckVerdict want_verdict;
    const char* want_method;
    bool want_exhausted;
    const char* want_pass;  // ExhaustionReport::pass when exhausted
  };
  const Case kCases[] = {
      {"exact-decides", &copy_tc, &tau_a0, &tau_a0, &exact,
       TypecheckVerdict::kTypechecks, "downward-fastpath", false, ""},
      {"later-pass-rescues-exhausted-refutation", &copy_tc, &tau_a0, &tau_a0,
       &tight_configs, TypecheckVerdict::kTypechecks, "downward-fastpath",
       true, "bounded-refutation"},
      {"degraded-search-salvages-witness", &nd_tc, &uni, &root_n, &no_exact,
       TypecheckVerdict::kCounterexample, "degraded-enumeration", true,
       "output-complement"},
      {"unknown-when-everything-exhausts", &nd_tc, &uni, &all_l, &no_exact,
       TypecheckVerdict::kUnknown, "none", true, "output-complement"},
      {"salvage-samples-stay-within-node-cap", &micro_copy_tc, &five_internal,
       &three_nodes, &no_exact, TypecheckVerdict::kUnknown, "none", true,
       "output-complement"},
  };

  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    auto r =
        std::move(c.tc->Typecheck(*c.tau1, *c.tau2, *c.opts)).ValueOrDie();
    EXPECT_EQ(r.verdict, c.want_verdict);
    EXPECT_EQ(r.method, c.want_method);
    EXPECT_EQ(r.exhausted.exhausted, c.want_exhausted);
    if (c.want_exhausted) {
      EXPECT_EQ(r.exhausted.pass, c.want_pass);
      EXPECT_NE(r.exhausted.code, StatusCode::kOk);
      EXPECT_FALSE(r.exhausted.detail.empty());
      EXPECT_FALSE(r.notes.empty());
    } else {
      EXPECT_EQ(r.exhausted.code, StatusCode::kOk);
    }
    // kUnknown must never masquerade as proof: a kTypechecks verdict may
    // only come from an exact pass, and the salvage search only ever
    // upgrades kUnknown to kCounterexample.
    if (r.verdict == TypecheckVerdict::kTypechecks) {
      EXPECT_NE(r.method, "none");
      EXPECT_NE(r.method, "degraded-enumeration");
    }
    if (r.verdict == TypecheckVerdict::kCounterexample) {
      // Witnesses are genuine even when produced by the salvage pass.
      ASSERT_TRUE(r.counterexample_input.has_value());
      ASSERT_TRUE(r.counterexample_output.has_value());
      EXPECT_TRUE(c.tau1->Accepts(*r.counterexample_input));
      EXPECT_FALSE(c.tau2->Accepts(*r.counterexample_output));
    }
    if (r.verdict == TypecheckVerdict::kUnknown) {
      EXPECT_NE(r.notes.find("degraded-enumeration: no violation"),
                std::string::npos)
          << r.notes;
    }
  }
}

// The rename fixture of tests/serve_test.cc: <a>→<b>, <c>→<d>. Against
// good_out it typechecks by the downward fast path; against bad_out the only
// document <a><c/></a> maps to <b><d/></b>, which is not in the type.
constexpr char kRenameXslt[] = R"(
  template a { b { apply } }
  template c { d }
)";
constexpr char kInDtd[] = "a := c\nc := ()\n";
constexpr char kGoodOutDtd[] = "b := d\nd := ()\n";
constexpr char kBadOutDtd[] = "b := e\ne := ()\n";

// The rename fixture compiled over one output alphabet for both types.
struct RenameInstance {
  Alphabet in_tags, out_tags;
  EncodedAlphabet in_enc, out_enc;
  PebbleTransducer t{1, 1, 1};
  Nbta tau1, good_out, bad_out;

  RenameInstance() {
    auto program =
        std::move(ParseXslt(kRenameXslt, &in_tags, &out_tags)).ValueOrDie();
    out_tags.Intern("e");  // bad_out's extra tag
    in_enc = std::move(MakeEncodedAlphabet(in_tags)).ValueOrDie();
    out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
    t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
    auto compile = [](const char* text, const EncodedAlphabet& enc) {
      auto dtd = std::move(ParseDtd(text)).ValueOrDie();
      return std::move(CompileDtdOver(dtd, enc)).ValueOrDie();
    };
    tau1 = compile(kInDtd, in_enc);
    good_out = compile(kGoodOutDtd, out_enc);
    bad_out = compile(kBadOutDtd, out_enc);
  }
};

// A cold downward decision determinizes τ2 once: pass 2 searches
// ComplementDbta(τ2) as built, and only pass 3 would trim its NBTA view.
TEST(TypecheckTest, ColdDownwardDecisionDeterminizesTau2Once) {
  const RenameInstance f;
  ASSERT_TRUE(IsDownwardTransducer(f.t));
  const Typechecker tc(f.t, f.in_enc.ranked, f.out_enc.ranked);
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;  // pass 1 off: every count is pass 2's

  auto proof = std::move(tc.Typecheck(f.tau1, f.good_out, opts)).ValueOrDie();
  EXPECT_EQ(proof.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(proof.method, "downward-fastpath");
  EXPECT_EQ(proof.op_counters.determinizations, 1u);
  EXPECT_EQ(proof.op_counters.complementations, 1u);
  EXPECT_EQ(proof.op_counters.trims, 0u);
  EXPECT_EQ(proof.op_counters.indexes_built, 2u) << "one of τ2, one of τ1";

  // The witness's violating output is recovered by a per-input check, which
  // trims and indexes its own automaton but determinizes nothing.
  auto refuted =
      std::move(tc.Typecheck(f.tau1, f.bad_out, opts)).ValueOrDie();
  EXPECT_EQ(refuted.verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(refuted.method, "downward-fastpath");
  EXPECT_EQ(refuted.op_counters.determinizations, 1u);
  EXPECT_EQ(refuted.op_counters.complementations, 1u);
}

// The op cache's census under a typecheck workload (docs/CACHING.md): a
// proven downward triple adds exactly one entry and serves its repeats, and
// nothing else — no intermediate of the decision, no refutation, no
// exhausted pass 2 — adds any.
TEST(TypecheckTest, OpCacheHoldsOnlyDownwardProofs) {
  const RenameInstance f;
  ASSERT_TRUE(IsDownwardTransducer(f.t));
  const Typechecker tc(f.t, f.in_enc.ranked, f.out_enc.ranked);

  TaOpCache& cache = TaOpCache::Global();
  cache.Clear();
  TypecheckOptions opts;
  opts.memo = TaMemoMode::kInMemory;

  auto proof = std::move(tc.Typecheck(f.tau1, f.good_out, opts)).ValueOrDie();
  EXPECT_EQ(proof.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(proof.method, "downward-fastpath");
  EXPECT_EQ(cache.entries(), 1u) << "a proof adds exactly one entry";

  auto repeat = std::move(tc.Typecheck(f.tau1, f.good_out, opts)).ValueOrDie();
  EXPECT_EQ(repeat.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(repeat.method, "downward-fastpath");
  EXPECT_EQ(repeat.op_counters.memo_hits, 1u);
  EXPECT_EQ(repeat.op_counters.memo_misses, 0u);
  EXPECT_EQ(repeat.op_counters.states_materialized, 0u)
      << "a repeat is answered by the proof, not recomputed";

  const size_t before = cache.entries();
  auto refuted = std::move(tc.Typecheck(f.tau1, f.bad_out, opts)).ValueOrDie();
  EXPECT_EQ(refuted.verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(cache.entries(), before) << "a refutation is not cached";
  // The same pair refuted by pass 2's witness instead of pass 1.
  TypecheckOptions no_pass1 = opts;
  no_pass1.refutation_max_trees = 0;
  auto witnessed =
      std::move(tc.Typecheck(f.tau1, f.bad_out, no_pass1)).ValueOrDie();
  EXPECT_EQ(witnessed.verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(witnessed.method, "downward-fastpath");
  EXPECT_EQ(cache.entries(), before) << "a pass-2 refutation is not cached";

  // On an empty cache, so no entry of the runs above can mask an insert.
  // Pass 1 off, so the one-pair budget starves pass 2's search.
  cache.Clear();
  TypecheckOptions starved = opts;
  starved.refutation_max_trees = 0;
  starved.max_antichain_pairs = 1;
  auto exhausted =
      std::move(tc.Typecheck(f.tau1, f.good_out, starved)).ValueOrDie();
  EXPECT_TRUE(exhausted.exhausted.exhausted);
  EXPECT_EQ(exhausted.exhausted.pass, "downward-fastpath");
  EXPECT_EQ(cache.entries(), 0u) << "an exhausted pass 2 proves nothing";
  cache.Clear();
}

}  // namespace
}  // namespace pebbletc
