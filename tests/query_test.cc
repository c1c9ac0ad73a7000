// Tests for src/query: tree patterns (Section 2.2) and the XSLT fragment
// (Example 4.3), including end-to-end typechecking of compiled programs.

#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/core/downward.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/pt/eval.h"
#include "src/query/pattern.h"
#include "src/query/xslt.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

// --- patterns ---

TEST(PatternTest, ParseShapes) {
  Alphabet sigma;
  auto p = std::move(ParsePattern("[a.b]([c.(a|b)],[c*.a])", &sigma))
               .ValueOrDie();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.nodes[0].children.size(), 2u);
  EXPECT_EQ(p.nodes[1].parent, 0u);
  EXPECT_EQ(p.nodes[2].parent, 0u);
  EXPECT_FALSE(ParsePattern("", &sigma).ok());
  EXPECT_FALSE(ParsePattern("[a", &sigma).ok());
  EXPECT_FALSE(ParsePattern("[a](b)", &sigma).ok());
}

TEST(PatternTest, SingleNodeMatches) {
  Alphabet sigma;
  auto tree = std::move(ParseUnrankedTerm("a(b,b,c(b))", &sigma)).ValueOrDie();
  auto p = std::move(ParsePattern("[a.(b|c)*.b]", &sigma)).ValueOrDie();
  auto matches =
      MatchPattern(p, tree, static_cast<uint32_t>(sigma.size()));
  EXPECT_EQ(matches.size(), 3u);  // all three b nodes
  for (const auto& m : matches) {
    EXPECT_EQ(sigma.Name(tree.tag(m[0])), "b");
  }
}

TEST(PatternTest, ParentChildConditions) {
  Alphabet sigma;
  auto tree =
      std::move(ParseUnrankedTerm("r(a(x,y),a(x),b(x))", &sigma)).ValueOrDie();
  // Pattern: an `a` child of the root with an `x` below it.
  auto p = std::move(ParsePattern("[r.a]([a.x])", &sigma)).ValueOrDie();
  auto matches =
      MatchPattern(p, tree, static_cast<uint32_t>(sigma.size()));
  // Two a-nodes each with one x child: 2 matches.
  ASSERT_EQ(matches.size(), 2u);
  for (const auto& m : matches) {
    EXPECT_EQ(sigma.Name(tree.tag(m[0])), "a");
    EXPECT_EQ(sigma.Name(tree.tag(m[1])), "x");
    EXPECT_EQ(tree.parent(m[1]), m[0]);
  }
}

TEST(PatternTest, PaperStylePatternEnumerationOrder) {
  Alphabet sigma;
  auto tree = std::move(ParseUnrankedTerm("r(a,a)", &sigma)).ValueOrDie();
  auto p = std::move(ParsePattern("[r]([r.a],[r.a])", &sigma)).ValueOrDie();
  auto matches =
      MatchPattern(p, tree, static_cast<uint32_t>(sigma.size()));
  // Both children bind independently: 2×2 = 4 tuples (the Example 4.2
  // square!), ordered lexicographically.
  ASSERT_EQ(matches.size(), 4u);
  EXPECT_LE(matches[0][1], matches[1][1]);
}

// --- XSLT fragment ---

constexpr char kQ2[] = R"(
  # Example 4.3, query Q2
  template root { result { b; apply; b; apply; b; apply } }
  template a    { a }
)";

TEST(XsltTest, ParseQ2) {
  Alphabet in, out;
  auto program = std::move(ParseXslt(kQ2, &in, &out)).ValueOrDie();
  ASSERT_EQ(program.templates.size(), 2u);
  EXPECT_EQ(program.templates[0].items.size(), 6u);
  EXPECT_TRUE(program.templates[0].items[1].is_apply);
  EXPECT_FALSE(program.templates[0].items[0].is_apply);
  EXPECT_EQ(program.templates[1].items.size(), 0u);
}

TEST(XsltTest, ReferenceSemanticsQ2) {
  Alphabet in, out;
  auto program = std::move(ParseXslt(kQ2, &in, &out)).ValueOrDie();
  auto doc = std::move(ParseUnrankedTerm("root(a,a)", &in)).ValueOrDie();
  auto result = std::move(ApplyXsltReference(program, doc, in)).ValueOrDie();
  EXPECT_EQ(UnrankedTermString(result, out), "result(b,a,a,b,a,a,b,a,a)");
  auto empty_doc = std::move(ParseUnrankedTerm("root", &in)).ValueOrDie();
  auto empty_result =
      std::move(ApplyXsltReference(program, empty_doc, in)).ValueOrDie();
  EXPECT_EQ(UnrankedTermString(empty_result, out), "result(b,b,b)");
}

TEST(XsltTest, CompiledQ2MatchesReference) {
  Alphabet in, out;
  auto program = std::move(ParseXslt(kQ2, &in, &out)).ValueOrDie();
  auto in_enc = std::move(MakeEncodedAlphabet(in)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out)).ValueOrDie();
  auto t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
  ASSERT_TRUE(t.Validate(in_enc.ranked, out_enc.ranked).ok());
  EXPECT_TRUE(t.IsDeterministic());
  // Q2 re-walks the child list, so it needs up-moves.
  EXPECT_FALSE(IsDownwardTransducer(t));

  std::string doc = "root";
  for (int n = 0; n <= 5; ++n) {
    std::string text = n == 0 ? "root" : doc + "(" + [&] {
      std::string kids;
      for (int i = 0; i < n; ++i) kids += (i ? ",a" : "a");
      return kids;
    }() + ")";
    auto unranked = std::move(ParseUnrankedTerm(text, &in)).ValueOrDie();
    auto want =
        std::move(ApplyXsltReference(program, unranked, in)).ValueOrDie();
    auto encoded = std::move(EncodeTree(unranked, in_enc)).ValueOrDie();
    auto got_bin = std::move(EvalDeterministic(t, encoded)).ValueOrDie();
    auto got = std::move(DecodeTree(got_bin, out_enc)).ValueOrDie();
    EXPECT_TRUE(got == want)
        << text << ": got " << UnrankedTermString(got, out) << ", want "
        << UnrankedTermString(want, out);
  }
}

constexpr char kRename[] = R"(
  template a { b { apply } }
  template c { d }
)";

TEST(XsltTest, RecursiveRenameIsDownward) {
  Alphabet in, out;
  auto program = std::move(ParseXslt(kRename, &in, &out)).ValueOrDie();
  auto in_enc = std::move(MakeEncodedAlphabet(in)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out)).ValueOrDie();
  auto t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
  EXPECT_TRUE(IsDownwardTransducer(t));  // apply only in tail position
}

class XsltRenameProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XsltRenameProperty, CompiledMachineMatchesReference) {
  Rng rng(GetParam());
  Alphabet in, out;
  auto program = std::move(ParseXslt(kRename, &in, &out)).ValueOrDie();
  auto in_enc = std::move(MakeEncodedAlphabet(in)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out)).ValueOrDie();
  auto t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();

  // Random documents over {a, c} where c nodes are leaves (template c
  // ignores children anyway, but keep the doc shapes tame).
  RandomUnrankedOptions opts;
  opts.target_size = 1 + rng.NextBelow(20);
  opts.max_children = 3;
  UnrankedTree doc = RandomUnrankedTree(in, rng, opts);
  auto want = std::move(ApplyXsltReference(program, doc, in)).ValueOrDie();
  auto encoded = std::move(EncodeTree(doc, in_enc)).ValueOrDie();
  auto got_bin = std::move(EvalDeterministic(t, encoded)).ValueOrDie();
  auto got = std::move(DecodeTree(got_bin, out_enc)).ValueOrDie();
  EXPECT_TRUE(got == want) << UnrankedTermString(doc, in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XsltRenameProperty,
                         ::testing::Range<uint64_t>(0, 25));

TEST(XsltTest, TotalityEnforced) {
  Alphabet in, out;
  auto program =
      std::move(ParseXslt("template a { b { apply } }", &in, &out))
          .ValueOrDie();
  in.Intern("uncovered");
  auto in_enc = std::move(MakeEncodedAlphabet(in)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out)).ValueOrDie();
  EXPECT_FALSE(CompileXslt(program, in_enc, out_enc).ok());
}

TEST(XsltTest, NestedApplyRejected) {
  Alphabet in, out;
  EXPECT_FALSE(
      ParseXslt("template a { b { c { apply } } }", &in, &out).ok());
}

// End-to-end: typecheck the rename program against DTDs (the realistic
// XSLT-typechecking workflow; completes through the downward fast path).
TEST(XsltTypecheckTest, RenameAgainstDtds) {
  Alphabet in, out;
  auto program = std::move(ParseXslt(kRename, &in, &out)).ValueOrDie();
  auto in_enc = std::move(MakeEncodedAlphabet(in)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out)).ValueOrDie();
  auto t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();

  // Input DTD: a := (a|c)*; c := ().  (Tag ids in `in` match by name.)
  auto in_dtd = std::move(ParseDtd("a := (a|c)*\nc := ()")).ValueOrDie();
  ASSERT_EQ(in_dtd.tags().Find("a"), in.Find("a"));
  ASSERT_EQ(in_dtd.tags().Find("c"), in.Find("c"));
  auto tau1 = std::move(CompileDtdToNbta(in_dtd, in_enc)).ValueOrDie();

  auto out_dtd_good =
      std::move(ParseDtd("b := (b|d)*\nd := ()")).ValueOrDie();
  ASSERT_EQ(out_dtd_good.tags().Find("b"), out.Find("b"));
  auto tau2_good =
      std::move(CompileDtdToNbta(out_dtd_good, out_enc)).ValueOrDie();

  auto out_dtd_bad = std::move(ParseDtd("b := d*\nd := ()")).ValueOrDie();
  auto tau2_bad =
      std::move(CompileDtdToNbta(out_dtd_bad, out_enc)).ValueOrDie();

  Typechecker tc(t, in_enc.ranked, out_enc.ranked);
  TypecheckOptions opts;
  opts.refutation_max_trees = 0;  // rely on the complete fast path
  auto good = std::move(tc.Typecheck(tau1, tau2_good, opts)).ValueOrDie();
  EXPECT_EQ(good.verdict, TypecheckVerdict::kTypechecks);
  EXPECT_EQ(good.method, "downward-fastpath");

  auto bad = std::move(tc.Typecheck(tau1, tau2_bad, opts)).ValueOrDie();
  EXPECT_EQ(bad.verdict, TypecheckVerdict::kCounterexample);
  ASSERT_TRUE(bad.counterexample_input.has_value());
  // The counterexample decodes to a valid input document whose image
  // violates the bad output DTD.
  auto doc = std::move(DecodeTree(*bad.counterexample_input, in_enc))
                 .ValueOrDie();
  EXPECT_TRUE(std::move(in_dtd.Accepts(doc)).ValueOrDie());
  auto image = std::move(ApplyXsltReference(program, doc, in)).ValueOrDie();
  EXPECT_FALSE(std::move(out_dtd_bad.Accepts(image)).ValueOrDie());
}

// Example 4.3's typechecking story for Q2 under default options. Q2 needs
// up-moves, so the downward fast path is out; the complete decision's MSO
// route needs far more than the 20 tracks TrackAlphabet supports. That cap
// is a structural limit the ladder degrades on: the good pair reports an
// honest kUnknown after the salvage search, not a hard error, and the bad
// pair is still refuted.
TEST(XsltTypecheckTest, Q2GoodPairDegradesAtTheTrackLimit) {
  Alphabet in, out;
  auto program = std::move(ParseXslt(kQ2, &in, &out)).ValueOrDie();
  auto in_enc = std::move(MakeEncodedAlphabet(in)).ValueOrDie();
  auto out_enc = std::move(MakeEncodedAlphabet(out)).ValueOrDie();
  auto t = std::move(CompileXslt(program, in_enc, out_enc)).ValueOrDie();
  auto in_dtd = std::move(ParseDtd("root := a*\na := ()")).ValueOrDie();
  auto tau1 = std::move(CompileDtdOver(in_dtd, in_enc)).ValueOrDie();
  auto good = std::move(ParseDtd("result := b.a*.b.a*.b.a*\n"
                                 "b := ()\na := ()"))
                  .ValueOrDie();
  auto tau2_good = std::move(CompileDtdOver(good, out_enc)).ValueOrDie();
  auto bad =
      std::move(ParseDtd("result := b.a*.b.a*.b\nb := ()\na := ()"))
          .ValueOrDie();
  auto tau2_bad = std::move(CompileDtdOver(bad, out_enc)).ValueOrDie();
  Typechecker tc(t, in_enc.ranked, out_enc.ranked);

  Result<TypecheckResult> r_good = tc.Typecheck(tau1, tau2_good);
  ASSERT_TRUE(r_good.ok()) << r_good.status().ToString();
  EXPECT_EQ(r_good->verdict, TypecheckVerdict::kUnknown);
  EXPECT_TRUE(r_good->exhausted.exhausted);
  EXPECT_EQ(r_good->exhausted.code, StatusCode::kLimitExceeded);
  EXPECT_EQ(r_good->exhausted.pass, "complete-decision");
  EXPECT_NE(r_good->notes.find("degraded-enumeration"), std::string::npos)
      << r_good->notes;

  Result<TypecheckResult> r_bad = tc.Typecheck(tau1, tau2_bad);
  ASSERT_TRUE(r_bad.ok()) << r_bad.status().ToString();
  EXPECT_EQ(r_bad->verdict, TypecheckVerdict::kCounterexample);
}

}  // namespace
}  // namespace pebbletc
