// Tests for src/pa/behavior.h: the 1-pebble behavior-composition
// regularization, cross-validated against direct simulation and the
// Theorem 4.7 MSO route, plus its integration in the typechecker on
// machines beyond the MSO route's reach.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/typechecker.h"
#include "src/pa/automaton.h"
#include "src/pa/behavior.h"
#include "src/pa/to_mso.h"
#include "src/pt/paper_machines.h"
#include "src/pt/transducer.h"
#include "src/ta/inclusion.h"
#include "src/ta/nbta.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

using M = PebbleAutomaton::MoveKind;

RankedAlphabet MicroRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("l");
  (void)sigma.AddBinary("n");
  return sigma;
}

RankedAlphabet TinyRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("a0");
  (void)sigma.AddLeaf("b0");
  (void)sigma.AddBinary("a2");
  (void)sigma.AddBinary("b2");
  return sigma;
}

// Random 1-pebble automata — same generator family as the Theorem 4.7 tests
// but larger, since behavior composition scales further than MSO.
PebbleAutomaton RandomWalker(Rng& rng, const RankedAlphabet& sigma,
                             uint32_t num_states, uint32_t num_transitions) {
  PebbleAutomaton a(1, static_cast<uint32_t>(sigma.size()));
  for (uint32_t q = 0; q < num_states; ++q) a.AddState(1);
  a.SetStart(0);
  for (uint32_t i = 0; i < num_transitions; ++i) {
    PebbleGuard g;
    if (rng.NextBool(0.7)) {
      g.symbol = static_cast<SymbolId>(rng.NextBelow(sigma.size()));
    }
    StateId from = static_cast<StateId>(rng.NextBelow(num_states));
    StateId to = static_cast<StateId>(rng.NextBelow(num_states));
    switch (rng.NextBelow(7)) {
      case 0:
        a.AddAccept(g, from);
        break;
      case 1:
        a.AddBranch(g, from, to,
                    static_cast<StateId>(rng.NextBelow(num_states)));
        break;
      case 2:
        a.AddMove(g, from, M::kStay, to);
        break;
      case 3:
        a.AddMove(g, from, M::kDownLeft, to);
        break;
      case 4:
        a.AddMove(g, from, M::kDownRight, to);
        break;
      case 5:
        a.AddMove(g, from, M::kUpLeft, to);
        break;
      default:
        a.AddMove(g, from, M::kUpRight, to);
        break;
    }
  }
  return a;
}

class BehaviorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BehaviorProperty, AgreesWithDirectSimulation) {
  Rng rng(GetParam());
  RankedAlphabet sigma = TinyRanked();
  // Up to 6 states and 12 transitions — beyond what the MSO route handles
  // comfortably, easy for behavior tables.
  PebbleAutomaton a =
      RandomWalker(rng, sigma, 2 + rng.NextBelow(5), 4 + rng.NextBelow(9));
  ASSERT_TRUE(a.Validate(sigma).ok());
  auto nbta = OnePebbleToNbtaByBehavior(a, sigma);
  ASSERT_TRUE(nbta.ok()) << nbta.status().ToString();
  for (int i = 0; i < 30; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(10));
    auto direct = PebbleAutomatonAccepts(a, t);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(nbta->Accepts(t), *direct) << BinaryTermString(t, sigma);
  }
}

TEST_P(BehaviorProperty, AgreesWithMsoRoute) {
  Rng rng(GetParam() + 777);
  RankedAlphabet sigma = MicroRanked();
  PebbleAutomaton a = RandomWalker(rng, sigma, 2, 4);
  auto by_behavior = OnePebbleToNbtaByBehavior(a, sigma);
  ASSERT_TRUE(by_behavior.ok());
  auto by_mso = PebbleAutomatonToNbta(a, sigma);
  ASSERT_TRUE(by_mso.ok()) << by_mso.status().ToString();
  auto eq = NbtaEquivalent(*by_behavior, *by_mso, sigma);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BehaviorProperty,
                         ::testing::Range<uint64_t>(0, 25));

TEST(BehaviorTest, RejectsMultiplePebbles) {
  RankedAlphabet sigma = MicroRanked();
  PebbleAutomaton a(2, 2);
  a.AddState(1);
  a.SetStart(0);
  auto r = OnePebbleToNbtaByBehavior(a, sigma);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BehaviorTest, StateBudgetEnforced) {
  RankedAlphabet sigma = MicroRanked();
  PebbleAutomaton a(1, 2);
  for (int i = 0; i < 20; ++i) a.AddState(1);
  a.SetStart(0);
  TaOpContext ctx;
  ctx.budgets.behavior_max_state_bits = 12;
  auto r = OnePebbleToNbtaByBehavior(a, sigma, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// The payoff: complete typechecking of a machine with up-moves that the MSO
// route cannot reach — the frontier (yield) machine from the pre-order
// subroutine has ~8 states; its product with a small output type stays
// within behavior range.
TEST(BehaviorTest, TypechecksFrontierMachineCompletely) {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("p");
  (void)sigma.AddLeaf("q");
  (void)sigma.AddBinary("x");
  (void)sigma.AddBinary("r");
  RankedAlphabet out_sigma = sigma;
  SymbolId cons = std::move(out_sigma.AddBinary("cons")).ValueOrDie();
  SymbolId nil = std::move(out_sigma.AddLeaf("nil")).ValueOrDie();

  // The frontier machine (see pt_test.cc): emits the yield as a cons-list.
  PebbleTransducer t(1, static_cast<uint32_t>(sigma.size()),
                     static_cast<uint32_t>(out_sigma.size()));
  StateId v = t.AddState(1);
  StateId w = t.AddState(1);
  StateId enter = t.AddState(1);
  StateId z = t.AddState(1);
  t.SetStart(v);
  for (SymbolId a : sigma.LeafSymbols()) {
    t.AddOutputBinary({.symbol = a}, v, cons, w, enter);
    t.AddOutputLeaf({.symbol = a}, w, a);
  }
  for (SymbolId a : sigma.BinarySymbols()) {
    t.AddMove({.symbol = a}, v, PebbleTransducer::MoveKind::kStay, enter);
  }
  t.AddOutputLeaf({}, z, nil);
  AttachPreorderAdvance(&t, 1, sigma, sigma.Find("r"), enter, v, z);

  // τ2: outputs are cons-rooted (every input has ≥1 leaf, so the frontier
  // list is never bare nil... for single-leaf inputs the output is
  // cons(leaf, nil), still cons-rooted).
  Nbta tau2;
  tau2.num_symbols = static_cast<uint32_t>(out_sigma.size());
  {
    StateId any = tau2.AddState();
    StateId top = tau2.AddState();
    tau2.accepting[top] = true;
    for (SymbolId s : out_sigma.LeafSymbols()) tau2.AddLeafRule(s, any);
    for (SymbolId s : out_sigma.BinarySymbols()) {
      tau2.AddRule(s, any, any, any);
    }
    tau2.AddRule(cons, any, any, top);
  }
  // τ1: trees whose root is labelled r (the machine's contract).
  Nbta tau1;
  tau1.num_symbols = static_cast<uint32_t>(sigma.size());
  {
    StateId any = tau1.AddState();
    StateId top = tau1.AddState();
    tau1.accepting[top] = true;
    for (SymbolId s : sigma.LeafSymbols()) tau1.AddLeafRule(s, any);
    for (SymbolId s : sigma.BinarySymbols()) {
      if (s != sigma.Find("r")) tau1.AddRule(s, any, any, any);
    }
    tau1.AddRule(sigma.Find("r"), any, any, top);
  }

  Typechecker tc(t, sigma, out_sigma);
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;  // force the complete path
  opts.behavior_max_state_bits = 14;
  auto r = std::move(tc.Typecheck(tau1, tau2, opts)).ValueOrDie();
  EXPECT_EQ(r.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(r.method, "behavior-complete");

  // And a refutable claim: "outputs are rooted at p" is wrong.
  Nbta tau2_p;
  tau2_p.num_symbols = static_cast<uint32_t>(out_sigma.size());
  StateId acc = tau2_p.AddState();
  tau2_p.accepting[acc] = true;
  tau2_p.AddLeafRule(sigma.Find("p"), acc);
  auto r2 = std::move(tc.Typecheck(tau1, tau2_p, opts)).ValueOrDie();
  EXPECT_EQ(r2.verdict, TypecheckVerdict::kCounterexample);
  EXPECT_EQ(r2.method, "behavior-complete");
  ASSERT_TRUE(r2.counterexample_input.has_value());
  EXPECT_TRUE(tau1.Accepts(*r2.counterexample_input));
}

}  // namespace
}  // namespace pebbletc
