// Tests for src/pt: the k-pebble transducer model (Def. 3.1), deterministic
// evaluation, the Prop. 3.8 output automaton A_t, and the paper's example
// machines (3.3 copy, 3.4 pre-order, 3.6 doubling, 3.7 rotation).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/rng.h"
#include "src/pt/eval.h"
#include "src/pt/paper_machines.h"
#include "src/pt/transducer.h"
#include "src/query/pattern.h"
#include "src/query/selection.h"
#include "src/ta/convert.h"
#include "src/ta/nbta.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

using M = PebbleTransducer::MoveKind;

RankedAlphabet TinyRanked() {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("a0");
  (void)sigma.AddLeaf("b0");
  (void)sigma.AddBinary("a2");
  (void)sigma.AddBinary("b2");
  return sigma;
}

// --- model validation ---

TEST(PebbleTransducerTest, ValidateChecksStackDiscipline) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer t(2, 4, 4);
  StateId q1 = t.AddState(1);
  StateId q2 = t.AddState(2);
  t.SetStart(q1);
  // Place must raise level by exactly one.
  t.AddMove({}, q1, M::kPlacePebble, q2);
  EXPECT_TRUE(t.Validate(sigma, sigma).ok());

  PebbleTransducer bad(2, 4, 4);
  StateId b1 = bad.AddState(1);
  bad.SetStart(b1);
  bad.AddMove({}, b1, M::kPlacePebble, b1);  // stays level 1
  EXPECT_FALSE(bad.Validate(sigma, sigma).ok());

  PebbleTransducer bad2(2, 4, 4);
  StateId c1 = bad2.AddState(1);
  StateId c2 = bad2.AddState(2);
  bad2.SetStart(c1);
  bad2.AddMove({}, c2, M::kPickPebble, c2);  // pick must lower level
  EXPECT_FALSE(bad2.Validate(sigma, sigma).ok());

  PebbleTransducer bad3(2, 4, 4);
  StateId d2 = bad3.AddState(2);
  bad3.SetStart(d2);  // start must be level 1
  EXPECT_FALSE(bad3.Validate(sigma, sigma).ok());
}

TEST(PebbleTransducerTest, ValidateChecksOutputRanks) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer t(1, 4, 4);
  StateId q = t.AddState(1);
  t.SetStart(q);
  t.AddOutputLeaf({}, q, sigma.Find("a2"));  // binary symbol as leaf output
  EXPECT_FALSE(t.Validate(sigma, sigma).ok());
}

TEST(PebbleTransducerTest, PresenceGuardsObservePebbleStack) {
  RankedAlphabet sigma = TinyRanked();
  // Pebble 1 stays at the root; pebble 2 is placed and possibly moved; then
  // the machine emits a0 if both pebbles share a node, b0 otherwise.
  auto build = [&](bool move_second) {
    PebbleTransducer t(2, 4, 4);
    StateId q1 = t.AddState(1);
    StateId p = t.AddState(2);
    StateId check = t.AddState(2);
    t.SetStart(q1);
    t.AddMove({}, q1, M::kPlacePebble, p);
    if (move_second) {
      t.AddMove({}, p, M::kDownLeft, check);
    } else {
      t.AddMove({}, p, M::kStay, check);
    }
    t.AddOutputLeaf({.presence_mask = 1, .presence_value = 1}, check,
                    sigma.Find("a0"));
    t.AddOutputLeaf({.presence_mask = 1, .presence_value = 0}, check,
                    sigma.Find("b0"));
    return t;
  };
  auto tree = std::move(ParseBinaryTerm("a2(a0,b0)", sigma)).ValueOrDie();
  auto together = std::move(EvalDeterministic(build(false), tree)).ValueOrDie();
  auto apart = std::move(EvalDeterministic(build(true), tree)).ValueOrDie();
  EXPECT_EQ(BinaryTermString(together, sigma), "a0");
  EXPECT_EQ(BinaryTermString(apart, sigma), "b0");
}

// --- Example 3.3: copy ---

class CopyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CopyPropertyTest, CopyIsIdentity) {
  Rng rng(GetParam());
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  ASSERT_TRUE(copy.Validate(sigma, sigma).ok());
  EXPECT_TRUE(copy.IsDeterministic());
  BinaryTree input = RandomBinaryTree(sigma, rng, rng.NextBelow(30));
  auto out = std::move(EvalDeterministic(copy, input)).ValueOrDie();
  EXPECT_TRUE(out == input);
  // Prop. 3.8 membership agrees.
  auto member = OutputContains(copy, input, input);
  ASSERT_TRUE(member.ok());
  EXPECT_TRUE(*member);
  BinaryTree other = RandomBinaryTree(sigma, rng, rng.NextBelow(30) + 1);
  auto member2 = OutputContains(copy, input, other);
  ASSERT_TRUE(member2.ok());
  EXPECT_EQ(*member2, other == input);
  // Exactly one output.
  auto outputs = EnumerateOutputs(copy, input, input.size(), 10);
  ASSERT_TRUE(outputs.ok());
  ASSERT_EQ(outputs->size(), 1u);
  EXPECT_TRUE((*outputs)[0] == input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CopyPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// --- nondeterminism ---

TEST(PebbleTransducerTest, NondeterministicOutputsEnumerated) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer t(1, 4, 4);
  StateId q = t.AddState(1);
  t.SetStart(q);
  t.AddOutputLeaf({}, q, sigma.Find("a0"));
  t.AddOutputLeaf({}, q, sigma.Find("b0"));
  EXPECT_FALSE(t.IsDeterministic());
  EXPECT_FALSE(EvalDeterministic(t, std::move(ParseBinaryTerm("a0", sigma))
                                        .ValueOrDie())
                   .ok());
  auto tree = std::move(ParseBinaryTerm("a2(a0,b0)", sigma)).ValueOrDie();
  auto outputs = std::move(EnumerateOutputs(t, tree, 3, 10)).ValueOrDie();
  ASSERT_EQ(outputs.size(), 2u);
}

TEST(PebbleTransducerTest, DivergenceDetected) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer t(1, 4, 4);
  StateId q = t.AddState(1);
  t.SetStart(q);
  t.AddMove({}, q, M::kStay, q);  // spin forever
  auto tree = std::move(ParseBinaryTerm("a0", sigma)).ValueOrDie();
  auto r = EvalDeterministic(t, tree);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// Pebble 2 walks down the left spine and, on the right-hand machine, back
// up: the configurations share the state and pebble 1 and differ only in
// pebble 2, so the divergence check must read every pebble slot.
TEST(PebbleTransducerTest, DivergenceSeesEveryPebble) {
  RankedAlphabet sigma = TinyRanked();
  auto build = [&](bool climb) {
    PebbleTransducer t(2, 4, 4);
    StateId q1 = t.AddState(1);
    StateId walk = t.AddState(2);
    t.SetStart(q1);
    t.AddMove({}, q1, M::kPlacePebble, walk);
    for (SymbolId s : sigma.BinarySymbols()) {
      t.AddMove({.symbol = s}, walk, M::kDownLeft, walk);
    }
    for (SymbolId s : sigma.LeafSymbols()) {
      if (climb) {
        t.AddMove({.symbol = s}, walk, M::kUpLeft, walk);
      } else {
        t.AddOutputLeaf({.symbol = s}, walk, s);
      }
    }
    return t;
  };
  auto tree =
      std::move(ParseBinaryTerm("a2(b2(b0,a0),a0)", sigma)).ValueOrDie();
  auto walked = EvalDeterministic(build(false), tree);
  ASSERT_TRUE(walked.ok()) << walked.status().ToString();
  EXPECT_EQ(BinaryTermString(*walked, sigma), "b0");
  auto r = EvalDeterministic(build(true), tree);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PebbleTransducerTest, StuckBranchReported) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer t(1, 4, 4);
  StateId q = t.AddState(1);
  t.SetStart(q);  // no transitions at all
  auto tree = std::move(ParseBinaryTerm("a0", sigma)).ValueOrDie();
  auto r = EvalDeterministic(t, tree);
  ASSERT_FALSE(r.ok());
  // And the output language is empty.
  auto outputs = std::move(EnumerateOutputs(t, tree, 20, 10)).ValueOrDie();
  EXPECT_TRUE(outputs.empty());
}

// --- Example 3.6: doubling ---

// Reference implementation of f from Example 3.6.
BinaryTree DoubleRef(const RankedAlphabet& sigma, const BinaryTree& t,
                     SymbolId x);
NodeId DoubleRefNode(const BinaryTree& t, NodeId n, SymbolId x,
                     BinaryTree* out) {
  if (t.IsLeaf(n)) {
    NodeId l = out->AddLeaf(t.symbol(n));
    NodeId r = out->AddLeaf(t.symbol(n));
    return out->AddInternal(x, l, r);
  }
  auto copy_child = [&]() {
    NodeId fl = DoubleRefNode(t, t.left(n), x, out);
    NodeId fr = DoubleRefNode(t, t.right(n), x, out);
    return out->AddInternal(t.symbol(n), fl, fr);
  };
  NodeId c1 = copy_child();
  NodeId c2 = copy_child();
  return out->AddInternal(x, c1, c2);
}
BinaryTree DoubleRef(const RankedAlphabet&, const BinaryTree& t, SymbolId x) {
  BinaryTree out;
  out.SetRoot(DoubleRefNode(t, t.root(), x, &out));
  return out;
}

TEST(DoublingTest, MatchesReferenceAndIsExponential) {
  RankedAlphabet sigma = TinyRanked();
  RankedAlphabet out_sigma = TinyRanked();
  SymbolId x = std::move(out_sigma.AddBinary("x")).ValueOrDie();
  auto t =
      std::move(MakeDoublingTransducer(sigma, out_sigma, x)).ValueOrDie();
  ASSERT_TRUE(t.Validate(sigma, out_sigma).ok());
  EXPECT_TRUE(t.IsDeterministic());

  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    BinaryTree input = RandomBinaryTree(sigma, rng, rng.NextBelow(5));
    BinaryTree want = DoubleRef(sigma, input, x);
    auto got = std::move(EvalDeterministic(t, input)).ValueOrDie();
    EXPECT_TRUE(got == want) << BinaryTermString(input, sigma);
  }

  // Exponential output, polynomial DAG (Prop. 3.8 / Example 3.6): on a full
  // tree of depth d the output has >2^d nodes but A_t stays linear-ish.
  Alphabet dummy;
  BinaryTree full;
  std::vector<NodeId> layer;
  for (int i = 0; i < 64; ++i) layer.push_back(full.AddLeaf(0));
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(full.AddInternal(2, layer[i], layer[i + 1]));
    }
    layer = next;
  }
  full.SetRoot(layer[0]);
  auto direct = std::move(EvalDeterministic(t, full)).ValueOrDie();
  auto dag = std::move(BuildOutputAutomaton(t, full)).ValueOrDie();
  EXPECT_GT(direct.size(), 100u * full.size());  // exponential blowup
  EXPECT_LT(dag.num_configs, 10u * full.size());  // DAG stays linear
  // The DAG recognizes exactly the direct output.
  EXPECT_TRUE(TopDownAccepts(dag.automaton, direct));
}

// --- Example 3.7: rotation ---

struct RotationFixture {
  RankedAlphabet sigma;
  RankedAlphabet out_sigma;
  RotationSymbols syms;
  PebbleTransducer t;

  RotationFixture() : t(1, 1, 1) {
    (void)sigma.AddLeaf("e");
    (void)sigma.AddLeaf("s");
    (void)sigma.AddBinary("x");
    (void)sigma.AddBinary("y");
    (void)sigma.AddBinary("r");
    out_sigma = sigma;
    syms.s_leaf = sigma.Find("s");
    syms.root_symbol = sigma.Find("r");
    syms.new_root = std::move(out_sigma.AddBinary("r2")).ValueOrDie();
    syms.m_leaf = std::move(out_sigma.AddLeaf("m")).ValueOrDie();
    syms.n_leaf = std::move(out_sigma.AddLeaf("n")).ValueOrDie();
    t = std::move(MakeRotationTransducer(sigma, out_sigma, syms)).ValueOrDie();
  }
};

TEST(RotationTest, HandTracedExample) {
  RotationFixture f;
  ASSERT_TRUE(f.t.Validate(f.sigma, f.out_sigma).ok());
  auto input = std::move(ParseBinaryTerm("r(x(e,s),e)", f.sigma)).ValueOrDie();
  auto out = std::move(EvalDeterministic(f.t, input)).ValueOrDie();
  EXPECT_EQ(BinaryTermString(out, f.out_sigma), "r2(m,x(r(e,n),e))");
  EXPECT_EQ(out.size(), input.size() + 2);
}

TEST(RotationTest, DeeperRotationKeepsSizeLinear) {
  RotationFixture f;
  auto input = std::move(ParseBinaryTerm(
                             "r(x(y(x(s,e),e),y(e,e)),x(e,e))", f.sigma))
                   .ValueOrDie();
  auto out = std::move(EvalDeterministic(f.t, input)).ValueOrDie();
  EXPECT_EQ(out.size(), input.size() + 2);
  // New root on top, m as its first child (counterclockwise reading).
  EXPECT_EQ(out.symbol(out.root()), f.syms.new_root);
  EXPECT_EQ(out.symbol(out.left(out.root())), f.syms.m_leaf);
  // Membership via A_t agrees with direct evaluation.
  auto member = OutputContains(f.t, input, out);
  ASSERT_TRUE(member.ok());
  EXPECT_TRUE(*member);
}

TEST(RotationTest, ReversesRightLinearString) {
  // A string w encoded as a right-linear tree r(e, c1(e, c2(e, ... s)))
  // comes back reversed along the left spine — the paper's remark that a
  // 1-pebble transducer can reverse a string.
  RotationFixture f;
  auto input = std::move(ParseBinaryTerm("r(e,x(e,y(e,s)))", f.sigma))
                   .ValueOrDie();
  auto out = std::move(EvalDeterministic(f.t, input)).ValueOrDie();
  // Spine from the new root reads y, x, r — the reverse of r, x, y.
  ASSERT_EQ(BinaryTermString(out, f.out_sigma),
            "r2(m,y(x(r(n,e),e),e))");
}

// --- Example 3.4: pre-order advance (frontier machine) ---

// A transducer that emits the yield (left-to-right leaf word) of its input
// as a cons-list, driven by the pre-order subroutine.
PebbleTransducer MakeFrontierMachine(const RankedAlphabet& sigma,
                                     const RankedAlphabet& out_sigma,
                                     SymbolId root_symbol, SymbolId cons,
                                     SymbolId nil) {
  PebbleTransducer t(1, static_cast<uint32_t>(sigma.size()),
                     static_cast<uint32_t>(out_sigma.size()));
  StateId v = t.AddState(1);      // inspect the current node
  StateId w = t.AddState(1);      // emit the current (leaf) symbol
  StateId enter = t.AddState(1);  // pre-order advance entry
  StateId z = t.AddState(1);      // traversal exhausted
  t.SetStart(v);
  for (SymbolId a : sigma.LeafSymbols()) {
    t.AddOutputBinary({.symbol = a}, v, cons, w, enter);
    t.AddOutputLeaf({.symbol = a}, w, a);
  }
  for (SymbolId a : sigma.BinarySymbols()) {
    t.AddMove({.symbol = a}, v, PebbleTransducer::MoveKind::kStay, enter);
  }
  t.AddOutputLeaf({}, z, nil);
  AttachPreorderAdvance(&t, 1, sigma, root_symbol, enter, v, z);
  return t;
}

TEST(PreorderTest, FrontierIsLeftToRightLeafWord) {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("p");
  (void)sigma.AddLeaf("q");
  (void)sigma.AddBinary("x");
  (void)sigma.AddBinary("r");
  RankedAlphabet out_sigma = sigma;
  SymbolId cons = std::move(out_sigma.AddBinary("cons")).ValueOrDie();
  SymbolId nil = std::move(out_sigma.AddLeaf("nil")).ValueOrDie();
  PebbleTransducer t =
      MakeFrontierMachine(sigma, out_sigma, sigma.Find("r"), cons, nil);
  ASSERT_TRUE(t.Validate(sigma, out_sigma).ok());
  EXPECT_TRUE(t.IsDeterministic());

  auto input =
      std::move(ParseBinaryTerm("r(x(p,q),x(q,x(p,p)))", sigma)).ValueOrDie();
  auto out = std::move(EvalDeterministic(t, input)).ValueOrDie();
  EXPECT_EQ(BinaryTermString(out, out_sigma),
            "cons(p,cons(q,cons(q,cons(p,cons(p,nil)))))");
}

TEST(PreorderTest, SingleLeafInput) {
  // The traversal must also terminate on the degenerate one-node tree when
  // the root symbol is the leaf itself.
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("r");
  (void)sigma.AddLeaf("p");
  (void)sigma.AddBinary("x");
  RankedAlphabet out_sigma = sigma;
  SymbolId cons = std::move(out_sigma.AddBinary("cons")).ValueOrDie();
  SymbolId nil = std::move(out_sigma.AddLeaf("nil")).ValueOrDie();
  PebbleTransducer t =
      MakeFrontierMachine(sigma, out_sigma, sigma.Find("r"), cons, nil);
  auto input = std::move(ParseBinaryTerm("r", sigma)).ValueOrDie();
  auto out = std::move(EvalDeterministic(t, input)).ValueOrDie();
  EXPECT_EQ(BinaryTermString(out, out_sigma), "cons(r,nil)");
}

// --- Prop. 3.8: configuration counts scale as O(n^k) ---

TEST(OutputAutomatonTest, ConfigCountPolynomialInPebbles) {
  RankedAlphabet sigma = TinyRanked();
  // The copy machine has Θ(n) configurations; PinnedForSelectionQuery
  // below pins a 3-pebble machine's Θ(n²).
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Rng rng(11);
  size_t prev = 0;
  for (size_t m : {4u, 8u, 16u, 32u}) {
    BinaryTree input = RandomBinaryTree(sigma, rng, m);
    auto dag = std::move(BuildOutputAutomaton(copy, input)).ValueOrDie();
    EXPECT_LE(dag.num_configs, 3 * input.size() + 3);
    EXPECT_GT(dag.num_configs, prev);
    prev = dag.num_configs;
  }
}

// --- Prop. 3.8: A_t pinned rule for rule ---

// A_t's sizes, its trimmed NBTA's, and an FNV-1a hash over both automata's
// rule lists in order, which any change to the configuration numbering or
// to the rule order moves.
std::string PinOf(const PebbleTransducer& t, const BinaryTree& input) {
  const OutputAutomaton dag =
      std::move(BuildOutputAutomaton(t, input)).ValueOrDie();
  const TopDownTA& a = dag.automaton;
  const Nbta trimmed = std::move(BuildOutputNbta(t, input)).ValueOrDie();
  uint64_t h = 0xcbf29ce484222325ull;
  auto add = [&h](std::initializer_list<uint32_t> words) {
    for (uint32_t w : words) h = (h ^ w) * 0x100000001b3ull;
  };
  add({a.start});
  for (const auto& r : a.rules) add({r.symbol, r.from, r.left, r.right});
  for (const auto& s : a.silent) add({s.symbol, s.from, s.to});
  for (const auto& f : a.final_pairs) add({f.symbol, f.state});
  for (const auto& r : trimmed.leaf_rules) add({r.symbol, r.to});
  for (const auto& r : trimmed.rules) add({r.symbol, r.left, r.right, r.to});
  for (bool acc : trimmed.accepting) add({acc ? 1u : 0u});
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(h));
  return "configs=" + std::to_string(dag.num_configs) +
         " states=" + std::to_string(a.num_states) +
         " binary=" + std::to_string(a.rules.size()) +
         " silent=" + std::to_string(a.silent.size()) +
         " finals=" + std::to_string(a.final_pairs.size()) +
         " trimmed=" + std::to_string(trimmed.num_states) + "/" +
         std::to_string(trimmed.rules.size()) + "/" +
         std::to_string(trimmed.leaf_rules.size()) + " hash=" + hash;
}

TEST(OutputAutomatonTest, PinnedForPaperMachines) {
  RankedAlphabet sigma = TinyRanked();
  auto input = std::move(ParseBinaryTerm(
                             "a2(b2(a0,b2(b0,a0)),a2(a2(b0,b0),a0))", sigma))
                   .ValueOrDie();
  EXPECT_EQ(PinOf(MakeCopyTransducer(sigma), input),
            "configs=21 states=22 binary=5 silent=46 finals=4 "
            "trimmed=11/5/6 hash=a73e646710927e88");
  RankedAlphabet out_sigma = TinyRanked();
  SymbolId x = std::move(out_sigma.AddBinary("x")).ValueOrDie();
  auto doubling =
      std::move(MakeDoublingTransducer(sigma, out_sigma, x)).ValueOrDie();
  EXPECT_EQ(PinOf(doubling, input),
            "configs=32 states=33 binary=16 silent=56 finals=5 "
            "trimmed=22/16/6 hash=fc673f7ec25f7932");
  RotationFixture f;
  auto rot_input = std::move(ParseBinaryTerm(
                                 "r(x(y(x(s,e),e),y(e,e)),x(e,e))", f.sigma))
                       .ValueOrDie();
  EXPECT_EQ(PinOf(f.t, rot_input),
            "configs=36 states=37 binary=7 silent=176 finals=8 "
            "trimmed=15/7/8 hash=14a24868aa15f518");
}

// The 3-pebble selection query of E2 (bench_eval) on its inputs, r with n
// children a, a, b, a, b, ...: the configurations grow as Θ(n²), about
// fourfold per doubling of n.
TEST(OutputAutomatonTest, PinnedForSelectionQuery) {
  Alphabet tags;
  for (const char* n : {"r", "a", "b"}) tags.Intern(n);
  SelectionQuery q;
  q.pattern = std::move(ParsePattern("[r.(a|b)*.a]", &tags)).ValueOrDie();
  q.selected = 0;
  Alphabet out_tags;
  SelectionOutputTags ot = ExtendAlphabetForSelection(tags, &out_tags);
  auto in_enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out_tags)).ValueOrDie();
  auto t = std::move(CompileSelectionQuery(q, in_enc, out_enc, ot))
               .ValueOrDie();
  ASSERT_EQ(t.max_pebbles(), 3u);
  const std::vector<std::pair<int, std::string>> pins = {
      {2, "configs=242 states=243 binary=8 silent=1823 finals=8 "
          "trimmed=15/8/7 hash=9eadc3f89b432a6c"},
      {4, "configs=726 states=727 binary=11 silent=5650 finals=8 "
          "trimmed=21/11/10 hash=f33763e2c52b6fb9"},
      {8, "configs=2492 states=2493 binary=17 silent=19688 finals=8 "
          "trimmed=33/17/16 hash=7f2e896c8aa9ae1b"},
      {16, "configs=9216 states=9217 binary=29 silent=73300 finals=8 "
           "trimmed=57/29/28 hash=2923f8d4452a4fc3"},
  };
  for (const auto& [n, pin] : pins) {
    std::string text = "r(a";
    for (int i = 1; i < n; ++i) text += i % 2 ? ",a" : ",b";
    text += ")";
    auto doc = std::move(ParseUnrankedTerm(text, &tags)).ValueOrDie();
    auto input = std::move(EncodeTree(doc, in_enc)).ValueOrDie();
    EXPECT_EQ(PinOf(t, input), pin) << text;
  }
}

TEST(OutputAutomatonTest, BudgetEnforced) {
  RankedAlphabet sigma = TinyRanked();
  PebbleTransducer copy = MakeCopyTransducer(sigma);
  Rng rng(12);
  BinaryTree input = RandomBinaryTree(sigma, rng, 50);
  auto r = BuildOutputAutomaton(copy, input, /*max_configs=*/5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace pebbletc
