// Deterministic fault-injection harness for the typechecking pipeline.
//
// The TaOpContext checkpoint layer counts every cooperative yield point of a
// run; a TaFaultInjector trips the Nth one with a chosen Status code. Because
// the pipeline is deterministic, a clean run's checkpoint total lets us sweep
// injection points across the *whole* run and assert that every single one
// unwinds cleanly: Ok() result, correctly-coded ExhaustionReport, no unsound
// kTypechecks, and counters that stop exactly at the injection point.
//
// Run these under ASan/UBSan (ctest -L fault-injection) to also prove the
// unwind paths leak nothing and free nothing twice.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/status.h"
#include "src/core/downward.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/pa/behavior.h"
#include "src/pa/product.h"
#include "src/pt/paper_machines.h"
#include "src/pt/transducer.h"
#include "src/ta/convert.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"

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

// A 1-pebble machine outside the downward fragment (it has an up-move on an
// unreachable state), forcing the complete decision. Emits leaf l on a
// leaf-l input and nothing otherwise, so T(τ) ⊆ AllLeaves(l) for every τ.
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

// A genuinely 2-pebble machine: park pebble 1 on the root, then copy the
// input tree with pebble 2 as the reading head. Semantically identical to
// MakeCopyTransducer, but k = 2 rules out both the downward fast path
// (kPlacePebble) and the 1-pebble behavior route, so typechecking it must
// take the full non-elementary pipeline.
PebbleTransducer PlaceAndCopy(const RankedAlphabet& sigma) {
  using M = PebbleTransducer::MoveKind;
  PebbleTransducer t(/*max_pebbles=*/2, static_cast<uint32_t>(sigma.size()),
                     static_cast<uint32_t>(sigma.size()));
  StateId p = t.AddState(1);
  StateId q = t.AddState(2);
  StateId q1 = t.AddState(2);
  StateId q2 = t.AddState(2);
  t.SetStart(p);
  t.AddMove({}, p, M::kPlacePebble, q);
  for (SymbolId a : sigma.BinarySymbols()) {
    t.AddOutputBinary({.symbol = a}, q, a, q1, q2);
  }
  for (SymbolId a : sigma.LeafSymbols()) {
    t.AddOutputLeaf({.symbol = a}, q, a);
  }
  t.AddMove({}, q1, M::kDownLeft, q);
  t.AddMove({}, q2, M::kDownRight, q);
  return t;
}

// Pass 1 enumeration instances over TinyRanked(), for the copy transducer.
// An NBTA with one accepting state, from {symbol, state} leaf rules and
// {symbol, left, right, state} binary rules.
constexpr SymbolId kA0 = 0, kB0 = 1, kA2 = 2, kB2 = 3;
Nbta TinyNbta(uint32_t states, StateId accepting,
              std::initializer_list<std::array<uint32_t, 2>> leaves,
              std::initializer_list<std::array<uint32_t, 4>> rules) {
  Nbta a;
  a.num_symbols = 4;
  for (uint32_t i = 0; i < states; ++i) a.AddState();
  a.accepting[accepting] = true;
  for (const auto& [sym, to] : leaves) a.AddLeafRule(sym, to);
  for (const auto& [sym, l, r, to] : rules) a.AddRule(sym, l, r, to);
  return a;
}

// Instance A: only the leaves reach τ1's accepting state 0, so
// L(τ1) = {a0, b0}, while every binary rule feeds state 1, which holds
// almost every tree. τ2 accepts a0 but not b0.
Nbta DeadStateInput() {
  return TinyNbta(2, 0, {{kA0, 0}, {kA0, 1}, {kB0, 0}, {kB0, 1}},
                  {{kA2, 0, 1, 1}, {kA2, 1, 1, 1}, {kB2, 1, 0, 1},
                   {kB2, 1, 1, 1}});
}
Nbta DeadStateOutput() {
  return TinyNbta(2, 1, {{kA0, 0}, {kA0, 1}, {kB0, 0}},
                  {{kA2, 0, 0, 1}, {kA2, 0, 1, 0}, {kA2, 1, 0, 1},
                   {kA2, 1, 1, 0}, {kB2, 0, 1, 1}, {kB2, 1, 1, 1}});
}

// Instance B (τ1 = τ2): state 0 holds every tree, state 1 is a0, b2(i, 0)
// climbs from state i to i + 1 up to 8, and a2(0, 8) reaches the accepting
// state 9. No accepted tree has fewer than 17 nodes, so pass 1's 15-node
// enumeration finds nothing while building every state-0 tree.
Nbta LongSpineType() {
  Nbta a = TinyNbta(10, 9, {{kA0, 0}, {kB0, 0}, {kA0, 1}},
                    {{kA2, 0, 0, 0}, {kB2, 0, 0, 0}, {kA2, 0, 8, 9}});
  for (StateId i = 1; i <= 7; ++i) a.AddRule(kB2, i, 0, i + 1);
  return a;
}

// Runs `tc.Typecheck(tau1, tau2, opts)` once cleanly to learn the total
// checkpoint count, then sweeps injection points across [0, total), cycling
// the three exhaustion codes. The instances used with this helper typecheck
// and admit no counterexample, so a tripped run must degrade to kUnknown —
// anything else (a crash, a hard error, or a claimed proof) is a bug.
void SweepInjectionPoints(const Typechecker& tc, const Nbta& tau1,
                          const Nbta& tau2, TypecheckOptions opts) {
  // Salvage off: the sweep checks the exact passes' unwind paths, and the
  // injected run must stay byte-for-byte identical to the clean prefix.
  opts.degrade_on_exhaustion = false;
  auto clean = tc.Typecheck(tau1, tau2, opts);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->verdict, TypecheckVerdict::kTypechecks);
  const uint64_t total = clean->op_counters.checkpoints;
  ASSERT_GT(total, 0u);

  const StatusCode codes[] = {StatusCode::kDeadlineExceeded,
                              StatusCode::kCancelled,
                              StatusCode::kResourceExhausted};
  std::vector<uint64_t> trips = {0, 1, 2, 3, total - 1};
  constexpr uint64_t kSamples = 43;
  for (uint64_t i = 0; i < kSamples; ++i) {
    trips.push_back(i * total / kSamples);
  }
  size_t which = 0;
  for (uint64_t n : trips) {
    if (n >= total) continue;
    TaFaultInjector fault;
    fault.trip_at = n;
    fault.code = codes[which++ % 3];
    TypecheckOptions injected = opts;
    injected.fault_injector = &fault;
    auto r = tc.Typecheck(tau1, tau2, injected);
    ASSERT_TRUE(r.ok()) << "trip_at=" << n << ": " << r.status().ToString();
    // The run is deterministic, so every checkpoint the clean run reached
    // must be reachable — and trippable.
    ASSERT_TRUE(fault.tripped) << "trip_at=" << n << " of " << total;
    EXPECT_NE(r->verdict, TypecheckVerdict::kTypechecks)
        << "unsound proof under injection at checkpoint " << n;
    EXPECT_TRUE(r->exhausted.exhausted) << "trip_at=" << n;
    EXPECT_EQ(r->exhausted.code, fault.code) << "trip_at=" << n;
    EXPECT_FALSE(r->exhausted.pass.empty()) << "trip_at=" << n;
    // The interrupt is sticky and checkpoints stop counting once it is set,
    // so exactly n + 1 checkpoints ran — both in the final counters and in
    // the report's snapshot. This also proves the unwind left the shared
    // context intact.
    EXPECT_EQ(r->op_counters.checkpoints, n + 1) << "trip_at=" << n;
    EXPECT_EQ(r->exhausted.counters.checkpoints, n + 1) << "trip_at=" << n;
  }

  // Past the end of the run the injector must never fire, and the verdict
  // must match the clean run exactly.
  TaFaultInjector fault;
  fault.trip_at = total + 1000;
  TypecheckOptions injected = opts;
  injected.fault_injector = &fault;
  auto r = tc.Typecheck(tau1, tau2, injected);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(fault.tripped);
  EXPECT_EQ(fault.seen, total);
  EXPECT_EQ(r->verdict, clean->verdict);
  EXPECT_FALSE(r->exhausted.exhausted);
  EXPECT_EQ(r->op_counters.checkpoints, total);
}

TEST(FaultInjectionTest, SweepAcrossDownwardFastPath) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta tau = AllLeaves(sigma, sigma.Find("a0"));
  // Default options: bounded refutation runs (and finds nothing), then the
  // downward fast path proves the instance.
  SweepInjectionPoints(tc, tau, tau, TypecheckOptions{});
}

TEST(FaultInjectionTest, SweepAcrossMsoPipeline) {
  RankedAlphabet sigma = MicroRanked();
  PebbleTransducer t = TinyNonDownward(sigma);
  ASSERT_FALSE(IsDownwardTransducer(t));
  Typechecker tc(t, sigma, sigma);
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;
  opts.behavior_max_state_bits = 0;  // force the Theorem 4.7 MSO route
  SweepInjectionPoints(tc, UniversalNbta(sigma), AllLeaves(sigma, sigma.Find("l")),
                       opts);
}

TEST(FaultInjectionTest, HardErrorCodesPropagateAsErrors) {
  // Exhaustion codes degrade; anything else is a hard failure and must
  // surface as the Result's error with the injected code, not be masked.
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta tau = AllLeaves(sigma, sigma.Find("a0"));
  for (uint64_t n : {uint64_t{0}, uint64_t{7}, uint64_t{100}}) {
    TaFaultInjector fault;
    fault.trip_at = n;
    fault.code = StatusCode::kInternal;
    TypecheckOptions opts;
    opts.fault_injector = &fault;
    auto r = tc.Typecheck(tau, tau, opts);
    ASSERT_TRUE(fault.tripped);
    ASSERT_FALSE(r.ok()) << "trip_at=" << n;
    EXPECT_EQ(r.status().code(), StatusCode::kInternal) << "trip_at=" << n;
  }
}

TEST(FaultInjectionTest, PresetCancelFlagAbortsWholeRun) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Typechecker tc(copy, sigma, sigma);
  Nbta tau = AllLeaves(sigma, sigma.Find("a0"));
  std::atomic<bool> cancel{true};
  TypecheckOptions opts;
  opts.cancel = &cancel;
  // Salvage deliberately left on: cancellation means "stop now", so the
  // degraded search must be skipped too.
  auto r = tc.Typecheck(tau, tau, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, TypecheckVerdict::kUnknown);
  EXPECT_EQ(r->method, "none");
  EXPECT_TRUE(r->exhausted.exhausted);
  EXPECT_EQ(r->exhausted.code, StatusCode::kCancelled);
  EXPECT_EQ(r->notes.find("degraded-enumeration"), std::string::npos)
      << r->notes;
}

TEST(FaultInjectionTest, DeadlineOnTwoPebbleBlowupReturnsUnknownWithReport) {
  // A 50 ms deadline against the k = 2 pipeline (non-elementary: Theorem
  // 4.8) cannot finish; the run must come back quickly as a clean kUnknown
  // carrying a populated exhaustion report, not hang or crash.
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer t = PlaceAndCopy(sigma);
  ASSERT_FALSE(IsDownwardTransducer(t));
  ASSERT_TRUE(t.Validate(sigma, sigma).ok());
  Typechecker tc(t, sigma, sigma);
  Nbta tau = AllLeaves(sigma, sigma.Find("a0"));
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;
  opts.max_det_states = 0;  // let the clock, not the state budget, fire
  opts.deadline = std::chrono::milliseconds(50);
  const auto start = std::chrono::steady_clock::now();
  auto r = tc.Typecheck(tau, tau, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, TypecheckVerdict::kUnknown);
  EXPECT_TRUE(r->exhausted.exhausted);
  EXPECT_EQ(r->exhausted.code, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(r->exhausted.pass.empty());
  EXPECT_FALSE(r->exhausted.detail.empty());
  EXPECT_GT(r->exhausted.counters.checkpoints, 0u);
  // The deadline (50 ms) plus the salvage budget plus unwind overhead must
  // stay well under this bound even in sanitizer builds.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(FaultInjectionTest, DeadlineInBehaviorCompositionSkipsTheMsoRoute) {
  // A deadline that fires inside 1-pebble behavior composition ends the
  // inverse inference there. Falling through to the Theorem 4.7 MSO route
  // would first run its context-free prelude (the automaton-to-MSO
  // translation and track-alphabet setup) before any checkpoint could
  // return the sticky code.
  const SpecializedDtd dtd = std::move(ParseDtd("m := ()\n")).ValueOrDie();
  const EncodedAlphabet enc =
      std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
  const RankedAlphabet& sigma = enc.ranked;
  const PebbleTransducer copy = MakeCopyTransducer(sigma);
  const Nbta tau = std::move(CompileDtdOver(dtd, enc)).ValueOrDie();
  const Typechecker tc(copy, sigma, sigma);

  // Counting run: replay InferInverseType's prelude (complement τ2, trim,
  // the Prop. 4.6 product) to pin the ordinal of behavior composition's
  // first checkpoint.
  TaOpContext count;
  const Nbta not_tau =
      std::move(ComplementNbta(NbtaIndex(tau, &count), sigma, &count))
          .ValueOrDie();
  const TopDownTA b =
      NbtaToTopDown(TrimNbta(NbtaIndex(not_tau, &count), &count), &count);
  const PebbleAutomaton product =
      std::move(TransducerTimesTopDown(copy, b, &count)).ValueOrDie();
  const uint64_t first_in_behavior = count.counters.checkpoints;
  TaFaultInjector probe;
  probe.trip_at = first_in_behavior;
  count.fault = &probe;
  EXPECT_FALSE(OnePebbleToNbtaByBehavior(product, sigma, &count).ok());
  ASSERT_TRUE(probe.tripped) << "behavior composition has no checkpoint";

  TaFaultInjector fault;
  fault.trip_at = first_in_behavior;
  fault.code = StatusCode::kDeadlineExceeded;
  TypecheckOptions opts;
  opts.fault_injector = &fault;
  const auto start = std::chrono::steady_clock::now();
  Result<Nbta> r = tc.InferInverseType(tau, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(fault.tripped);
  EXPECT_EQ(fault.seen, first_in_behavior + 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
}

TEST(FaultInjectionTest, InverseInferenceMeetsItsDeadline) {
  // A real 5 ms deadline at the default checkpoint stride. Behavior
  // composition of the copy × ¬τ2 product (12 states) summarizes each
  // subtree with 2·2^12 accessibility fixpoints; it must poll the clock
  // between them, not only between summaries.
  const SpecializedDtd dtd = std::move(ParseDtd("m := ()\n")).ValueOrDie();
  const EncodedAlphabet enc =
      std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
  const RankedAlphabet& sigma = enc.ranked;
  const PebbleTransducer copy = MakeCopyTransducer(sigma);
  const Nbta tau = std::move(CompileDtdOver(dtd, enc)).ValueOrDie();
  const Typechecker tc(copy, sigma, sigma);

  TypecheckOptions opts;
  opts.deadline = std::chrono::milliseconds(5);
  const auto start = std::chrono::steady_clock::now();
  Result<Nbta> r = tc.InferInverseType(tau, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
}

TEST(FaultInjectionTest, RefutationSkipsTreesOfDeadStates) {
  // Instance A: pass 1 must not build the trees of state 1, which never
  // sits below an accepting root.
  const RankedAlphabet sigma = TinyRanked();
  const PebbleTransducer copy = MakeCopyTransducer(sigma);
  const Typechecker tc(copy, sigma, sigma);
  const Nbta tau1 = DeadStateInput();
  const Nbta tau2 = DeadStateOutput();
  const auto start = std::chrono::steady_clock::now();
  auto r = tc.Typecheck(tau1, tau2);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(r->method, "bounded-refutation");
  ASSERT_TRUE(r->counterexample_input.has_value());
  EXPECT_EQ(r->counterexample_input->symbol(r->counterexample_input->root()),
            sigma.Find("b0"));
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(FaultInjectionTest, RefutationEnumerationMeetsItsDeadline) {
  // Instance B under a real 50 ms deadline at the default checkpoint
  // stride: the enumeration must poll the clock per built tree, not once
  // per (size, rule, split). Salvage off: it would add its own fixed 25 ms
  // budget after the deadline, which is not what this pins.
  const RankedAlphabet sigma = TinyRanked();
  const PebbleTransducer copy = MakeCopyTransducer(sigma);
  const Typechecker tc(copy, sigma, sigma);
  const Nbta tau = LongSpineType();
  TypecheckOptions opts;
  opts.deadline = std::chrono::milliseconds(50);
  opts.degrade_on_exhaustion = false;
  const auto start = std::chrono::steady_clock::now();
  auto r = tc.Typecheck(tau, tau, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, TypecheckVerdict::kUnknown);
  EXPECT_EQ(r->exhausted.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r->exhausted.pass, "bounded-refutation");
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(FaultInjectionTest, FaultInRefutationEnumerationNamesThatPass) {
  // A fault at instance B's first checkpoint trips inside pass 1's
  // enumeration; the report must name that pass, not the τ2 complement
  // that would otherwise be the first to notice the sticky interrupt.
  const RankedAlphabet sigma = TinyRanked();
  const PebbleTransducer copy = MakeCopyTransducer(sigma);
  const Typechecker tc(copy, sigma, sigma);
  const Nbta tau = LongSpineType();
  TaFaultInjector fault;
  fault.trip_at = 0;
  fault.code = StatusCode::kDeadlineExceeded;
  TypecheckOptions opts;
  opts.fault_injector = &fault;
  opts.degrade_on_exhaustion = false;
  auto r = tc.Typecheck(tau, tau, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(fault.tripped);
  EXPECT_EQ(r->verdict, TypecheckVerdict::kUnknown);
  EXPECT_TRUE(r->exhausted.exhausted);
  EXPECT_EQ(r->exhausted.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r->exhausted.pass, "bounded-refutation");
  EXPECT_EQ(r->exhausted.counters.checkpoints, 1u);
}

}  // namespace
}  // namespace pebbletc
