// Tests for src/pa: k-pebble automata (Def. 4.5), direct AGAP acceptance,
// the Prop. 4.6 transducer × top-down-automaton product, and the Theorem 4.7
// MSO translation — cross-validated: for random pebble automata the compiled
// regular tree automaton must agree with direct simulation on random trees.

#include <gtest/gtest.h>

#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/rng.h"
#include "src/pa/automaton.h"
#include "src/pa/product.h"
#include "src/pa/to_mso.h"
#include "src/pt/paper_machines.h"
#include "src/pt/transducer.h"
#include "src/ta/convert.h"
#include "src/ta/nbta.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

using M = PebbleAutomaton::MoveKind;

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

TEST(PebbleAutomatonTest, RootLabelCheck) {
  RankedAlphabet sigma = TinyRanked();
  PebbleAutomaton a(1, 4);
  StateId q = a.AddState(1);
  a.SetStart(q);
  a.AddAccept({.symbol = sigma.Find("a2")}, q);
  ASSERT_TRUE(a.Validate(sigma).ok());
  auto yes = std::move(ParseBinaryTerm("a2(a0,a0)", sigma)).ValueOrDie();
  auto no = std::move(ParseBinaryTerm("b2(a0,a0)", sigma)).ValueOrDie();
  EXPECT_TRUE(*PebbleAutomatonAccepts(a, yes));
  EXPECT_FALSE(*PebbleAutomatonAccepts(a, no));
}

TEST(PebbleAutomatonTest, BranchRequiresBothSides) {
  RankedAlphabet sigma = TinyRanked();
  // Both children of the root must be a0 leaves.
  PebbleAutomaton a(1, 4);
  StateId q = a.AddState(1);
  StateId pl = a.AddState(1);
  StateId pr = a.AddState(1);
  StateId tl = a.AddState(1);
  StateId tr = a.AddState(1);
  a.SetStart(q);
  a.AddBranch({}, q, pl, pr);
  a.AddMove({}, pl, M::kDownLeft, tl);
  a.AddMove({}, pr, M::kDownRight, tr);
  a.AddAccept({.symbol = sigma.Find("a0")}, tl);
  a.AddAccept({.symbol = sigma.Find("a0")}, tr);
  ASSERT_TRUE(a.Validate(sigma).ok());
  EXPECT_TRUE(*PebbleAutomatonAccepts(
      a, std::move(ParseBinaryTerm("a2(a0,a0)", sigma)).ValueOrDie()));
  EXPECT_FALSE(*PebbleAutomatonAccepts(
      a, std::move(ParseBinaryTerm("a2(a0,b0)", sigma)).ValueOrDie()));
  EXPECT_FALSE(*PebbleAutomatonAccepts(
      a, std::move(ParseBinaryTerm("a2(b0,a0)", sigma)).ValueOrDie()));
  EXPECT_FALSE(*PebbleAutomatonAccepts(
      a, std::move(ParseBinaryTerm("a0", sigma)).ValueOrDie()));
}

// A 1-pebble tree-walk automaton accepting trees whose left spine ends in a
// `target` leaf.
PebbleAutomaton LeftSpineAutomaton(const RankedAlphabet& sigma,
                                   SymbolId target) {
  PebbleAutomaton a(1, static_cast<uint32_t>(sigma.size()));
  StateId walk = a.AddState(1);
  a.SetStart(walk);
  for (SymbolId s : sigma.BinarySymbols()) {
    a.AddMove({.symbol = s}, walk, M::kDownLeft, walk);
  }
  a.AddAccept({.symbol = target}, walk);
  return a;
}

TEST(PebbleAutomatonTest, WalkDownLeftSpine) {
  RankedAlphabet sigma = TinyRanked();
  PebbleAutomaton a = LeftSpineAutomaton(sigma, sigma.Find("b0"));
  EXPECT_TRUE(*PebbleAutomatonAccepts(
      a, std::move(ParseBinaryTerm("a2(b2(b0,a0),a0)", sigma)).ValueOrDie()));
  EXPECT_FALSE(*PebbleAutomatonAccepts(
      a, std::move(ParseBinaryTerm("a2(b2(a0,b0),b0)", sigma)).ValueOrDie()));
}

TEST(PebbleAutomatonTest, ConfigBudgetEnforced) {
  RankedAlphabet sigma = TinyRanked();
  PebbleAutomaton a = LeftSpineAutomaton(sigma, sigma.Find("b0"));
  // The walk visits three configurations: the root, a2's left child, b0.
  auto tree =
      std::move(ParseBinaryTerm("a2(b2(b0,a0),a0)", sigma)).ValueOrDie();
  EXPECT_TRUE(*PebbleAutomatonAccepts(a, tree, /*max_configs=*/3));
  auto r = PebbleAutomatonAccepts(a, tree, /*max_configs=*/2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// --- Theorem 4.7: MSO translation agrees with direct simulation ---

TEST(Theorem47Test, LeftSpineAutomatonCompiles) {
  RankedAlphabet sigma = TinyRanked();
  PebbleAutomaton a = LeftSpineAutomaton(sigma, sigma.Find("b0"));
  auto nbta = std::move(PebbleAutomatonToNbta(a, sigma)).ValueOrDie();
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(8));
    EXPECT_EQ(nbta.Accepts(t), *PebbleAutomatonAccepts(a, t))
        << BinaryTermString(t, sigma);
  }
}

TEST(Theorem47Test, TwoPebblePlaceAndPick) {
  RankedAlphabet sigma = MicroRanked();
  // Pebble 1 walks to the leftmost leaf; pebble 2 is then placed and walks
  // to the *rightmost* leaf; accept (after picking pebble 2 up again) iff
  // the two pebbles meet — i.e. iff the tree is a single leaf... no: iff the
  // leftmost and rightmost leaves coincide, which for binary trees means a
  // single-node tree. The machine exercises place, presence guards, and pick.
  PebbleAutomaton a(2, 2);
  SymbolId leaf = sigma.Find("l");
  SymbolId node = sigma.Find("n");
  StateId w1 = a.AddState(1);   // walk pebble 1 left
  StateId w2 = a.AddState(2);   // walk pebble 2 right
  StateId met = a.AddState(2);  // pebble 2 on pebble 1's node
  StateId done = a.AddState(1);
  a.SetStart(w1);
  a.AddMove({.symbol = node}, w1, M::kDownLeft, w1);
  a.AddMove({.symbol = leaf}, w1, M::kPlacePebble, w2);
  a.AddMove({.symbol = node}, w2, M::kDownRight, w2);
  a.AddMove({.symbol = leaf, .presence_mask = 1, .presence_value = 1}, w2,
            M::kStay, met);
  a.AddMove({}, met, M::kPickPebble, done);
  a.AddAccept({}, done);
  ASSERT_TRUE(a.Validate(sigma).ok());

  auto single = std::move(ParseBinaryTerm("l", sigma)).ValueOrDie();
  auto three = std::move(ParseBinaryTerm("n(l,l)", sigma)).ValueOrDie();
  EXPECT_TRUE(*PebbleAutomatonAccepts(a, single));
  EXPECT_FALSE(*PebbleAutomatonAccepts(a, three));

  auto nbta = std::move(PebbleAutomatonToNbta(a, sigma)).ValueOrDie();
  EXPECT_TRUE(nbta.Accepts(single));
  EXPECT_FALSE(nbta.Accepts(three));
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(5));
    EXPECT_EQ(nbta.Accepts(t), *PebbleAutomatonAccepts(a, t))
        << BinaryTermString(t, sigma);
  }
}

// Random 1-pebble automata: the paper's Theorem 4.7 property test.
PebbleAutomaton RandomPebbleAutomaton(Rng& rng, const RankedAlphabet& sigma,
                                      uint32_t num_states,
                                      uint32_t num_transitions) {
  PebbleAutomaton a(1, static_cast<uint32_t>(sigma.size()));
  for (uint32_t q = 0; q < num_states; ++q) a.AddState(1);
  a.SetStart(0);
  for (uint32_t i = 0; i < num_transitions; ++i) {
    PebbleGuard g;
    if (rng.NextBool(0.7)) {
      g.symbol = static_cast<SymbolId>(rng.NextBelow(sigma.size()));
    }
    StateId from = static_cast<StateId>(rng.NextBelow(num_states));
    switch (rng.NextBelow(7)) {
      case 0:
        a.AddAccept(g, from);
        break;
      case 1:
        a.AddBranch(g, from, static_cast<StateId>(rng.NextBelow(num_states)),
                    static_cast<StateId>(rng.NextBelow(num_states)));
        break;
      case 2:
        a.AddMove(g, from, M::kStay,
                  static_cast<StateId>(rng.NextBelow(num_states)));
        break;
      case 3:
        a.AddMove(g, from, M::kDownLeft,
                  static_cast<StateId>(rng.NextBelow(num_states)));
        break;
      case 4:
        a.AddMove(g, from, M::kDownRight,
                  static_cast<StateId>(rng.NextBelow(num_states)));
        break;
      case 5:
        a.AddMove(g, from, M::kUpLeft,
                  static_cast<StateId>(rng.NextBelow(num_states)));
        break;
      default:
        a.AddMove(g, from, M::kUpRight,
                  static_cast<StateId>(rng.NextBelow(num_states)));
        break;
    }
  }
  return a;
}

class Theorem47Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem47Property, CompiledAutomatonAgreesWithSimulation) {
  Rng rng(GetParam());
  RankedAlphabet sigma = MicroRanked();
  PebbleAutomaton a = RandomPebbleAutomaton(rng, sigma, 2, 4);
  ASSERT_TRUE(a.Validate(sigma).ok());
  auto nbta_or = PebbleAutomatonToNbta(a, sigma);
  ASSERT_TRUE(nbta_or.ok()) << nbta_or.status().ToString();
  for (int i = 0; i < 25; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(6));
    auto direct = PebbleAutomatonAccepts(a, t);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(nbta_or->Accepts(t), *direct) << BinaryTermString(t, sigma);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem47Property,
                         ::testing::Range<uint64_t>(0, 30));

// --- Proposition 4.6: the product construction ---

TEST(Proposition46Test, CopyTransducerProductIsIntersectionCheck) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  // B: accepts trees whose leaves are all a0.
  Nbta leaves_a0;
  leaves_a0.num_symbols = 4;
  {
    StateId q = leaves_a0.AddState();
    leaves_a0.accepting[q] = true;
    leaves_a0.AddLeafRule(sigma.Find("a0"), q);
    leaves_a0.AddRule(sigma.Find("a2"), q, q, q);
    leaves_a0.AddRule(sigma.Find("b2"), q, q, q);
  }
  TopDownTA b = NbtaToTopDown(leaves_a0);
  auto product = std::move(TransducerTimesTopDown(copy, b)).ValueOrDie();
  ASSERT_TRUE(product.Validate(sigma).ok());
  // T = identity, so inst(product) = inst(B).
  Rng rng(21);
  for (int i = 0; i < 40; ++i) {
    BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(10));
    auto got = PebbleAutomatonAccepts(product, t);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, leaves_a0.Accepts(t)) << BinaryTermString(t, sigma);
  }
}

TEST(Proposition46Test, NondeterministicOutputsIntersect) {
  RankedAlphabet sigma = TinyRanked();
  // T outputs either leaf a0 or leaf b0, regardless of input.
  PebbleTransducer t(1, 4, 4);
  StateId q = t.AddState(1);
  t.SetStart(q);
  t.AddOutputLeaf({}, q, sigma.Find("a0"));
  t.AddOutputLeaf({}, q, sigma.Find("b0"));

  // B1 accepts exactly the single-leaf tree b0: T(t) ∩ inst(B1) ≠ ∅ always.
  Nbta only_b0;
  only_b0.num_symbols = 4;
  StateId s1 = only_b0.AddState();
  only_b0.accepting[s1] = true;
  only_b0.AddLeafRule(sigma.Find("b0"), s1);
  auto p1 = std::move(TransducerTimesTopDown(t, NbtaToTopDown(only_b0)))
                .ValueOrDie();

  // B2 accepts only trees rooted at a2: T(t) ∩ inst(B2) = ∅ always.
  Nbta a2_rooted;
  a2_rooted.num_symbols = 4;
  {
    StateId any = a2_rooted.AddState();
    StateId top = a2_rooted.AddState();
    a2_rooted.accepting[top] = true;
    for (SymbolId s : sigma.LeafSymbols()) a2_rooted.AddLeafRule(s, any);
    for (SymbolId s : sigma.BinarySymbols()) {
      a2_rooted.AddRule(s, any, any, any);
    }
    a2_rooted.AddRule(sigma.Find("a2"), any, any, top);
  }
  auto p2 = std::move(TransducerTimesTopDown(t, NbtaToTopDown(a2_rooted)))
                .ValueOrDie();

  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    BinaryTree input = RandomBinaryTree(sigma, rng, rng.NextBelow(6));
    EXPECT_TRUE(*PebbleAutomatonAccepts(p1, input));
    EXPECT_FALSE(*PebbleAutomatonAccepts(p2, input));
  }
}

TEST(Proposition46Test, ProductAlphabetMismatchRejected) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  TopDownTA b;
  b.num_symbols = 2;  // wrong alphabet
  b.AddState();
  EXPECT_FALSE(TransducerTimesTopDown(copy, b).ok());
}

}  // namespace
}  // namespace pebbletc
