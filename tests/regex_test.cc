// Tests for src/regex: parsing, Thompson NFA, DFA operations, minimization,
// and the Section 2.1 path-expression translation. Property tests
// cross-validate NFA against DFA and translation against brute-force
// evaluation on random trees.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/check/reference_ops.h"
#include "src/common/rng.h"
#include "src/regex/dfa.h"
#include "src/regex/nfa.h"
#include "src/regex/path_expr.h"
#include "src/regex/regex.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"

namespace pebbletc {
namespace {

// Helper: compile `text` over a fresh alphabet of a,b,c and test membership
// of words given as strings of those letters.
struct Lang {
  Alphabet sigma;
  Dfa dfa;

  explicit Lang(const std::string& text) : dfa(1, 1) {
    sigma.Intern("a");
    sigma.Intern("b");
    sigma.Intern("c");
    auto r = ParseRegex(text, &sigma);
    PEBBLETC_CHECK(r.ok()) << r.status().ToString();
    dfa = CompileRegexToDfa(*r, static_cast<uint32_t>(sigma.size()));
  }

  bool Accepts(const std::string& word) const {
    std::vector<SymbolId> w;
    for (char c : word) {
      SymbolId s = sigma.Find(std::string(1, c));
      PEBBLETC_CHECK(s != kNoSymbol) << "unknown letter " << c;
      w.push_back(s);
    }
    return dfa.Accepts(w);
  }
};

TEST(RegexParseTest, BasicForms) {
  Alphabet sigma;
  EXPECT_TRUE(ParseRegex("a", &sigma).ok());
  EXPECT_TRUE(ParseRegex("a.b*.c", &sigma).ok());
  EXPECT_TRUE(ParseRegex("(a|b)+", &sigma).ok());
  EXPECT_TRUE(ParseRegex("a?", &sigma).ok());
  EXPECT_TRUE(ParseRegex("()", &sigma).ok());
  EXPECT_TRUE(ParseRegex("a.(b|(c.a))*.b", &sigma).ok());
  EXPECT_FALSE(ParseRegex("", &sigma).ok());
  EXPECT_FALSE(ParseRegex("a|", &sigma).ok());
  EXPECT_FALSE(ParseRegex("(a", &sigma).ok());
  EXPECT_FALSE(ParseRegex("a)", &sigma).ok());
  EXPECT_FALSE(ParseRegex("*a", &sigma).ok());
}

TEST(RegexParseTest, ClosedAlphabetRejectsUnknown) {
  Alphabet sigma;
  sigma.Intern("a");
  EXPECT_TRUE(ParseRegexClosed("a.a", sigma).ok());
  EXPECT_FALSE(ParseRegexClosed("a.b", sigma).ok());
}

TEST(RegexParseTest, PrintReparseStable) {
  Alphabet sigma;
  for (const char* text :
       {"a", "a.b*.c", "(a|b).c", "a.(b|c.a)*.b", "a?", "(a.b)*"}) {
    auto r = std::move(ParseRegex(text, &sigma)).ValueOrDie();
    std::string printed = RegexString(r, sigma);
    auto r2 = std::move(ParseRegex(printed, &sigma)).ValueOrDie();
    Dfa d1 = CompileRegexToDfa(r, static_cast<uint32_t>(sigma.size()));
    Dfa d2 = CompileRegexToDfa(r2, static_cast<uint32_t>(sigma.size()));
    EXPECT_TRUE(EquivalentLanguages(d1, d2)) << text << " vs " << printed;
  }
}

TEST(RegexSemanticsTest, Star) {
  Lang l("a*");
  EXPECT_TRUE(l.Accepts(""));
  EXPECT_TRUE(l.Accepts("a"));
  EXPECT_TRUE(l.Accepts("aaaa"));
  EXPECT_FALSE(l.Accepts("ab"));
}

TEST(RegexSemanticsTest, PaperDtdContentModel) {
  // The Figure 1 DTD: a := b*.c.e
  Lang l("b*.c.c");  // using only a,b,c here: b*.c.c
  EXPECT_TRUE(l.Accepts("cc"));
  EXPECT_TRUE(l.Accepts("bbcc"));
  EXPECT_FALSE(l.Accepts("bc"));
  EXPECT_FALSE(l.Accepts("ccb"));
}

TEST(RegexSemanticsTest, UnionConcatPrecedence) {
  // a|b.c parses as a | (b.c)
  Lang l("a|b.c");
  EXPECT_TRUE(l.Accepts("a"));
  EXPECT_TRUE(l.Accepts("bc"));
  EXPECT_FALSE(l.Accepts("ac"));
}

TEST(RegexSemanticsTest, PlusAndOptional) {
  Lang l("a+.b?");
  EXPECT_TRUE(l.Accepts("a"));
  EXPECT_TRUE(l.Accepts("aab"));
  EXPECT_FALSE(l.Accepts(""));
  EXPECT_FALSE(l.Accepts("b"));
  EXPECT_FALSE(l.Accepts("abb"));
}

TEST(RegexSemanticsTest, EpsilonAndEvenLanguage) {
  // (a.a)* — the Example 4.2 inverse type.
  Lang l("(a.a)*");
  EXPECT_TRUE(l.Accepts(""));
  EXPECT_FALSE(l.Accepts("a"));
  EXPECT_TRUE(l.Accepts("aa"));
  EXPECT_FALSE(l.Accepts("aaa"));
  EXPECT_TRUE(l.Accepts("aaaa"));
}

TEST(RegexTest, IsNullable) {
  Alphabet sigma;
  auto r = [&](const char* t) {
    return std::move(ParseRegex(t, &sigma)).ValueOrDie();
  };
  EXPECT_TRUE(r("a*")->IsNullable());
  EXPECT_TRUE(r("()")->IsNullable());
  EXPECT_FALSE(r("a")->IsNullable());
  EXPECT_TRUE(r("a|()")->IsNullable());
  EXPECT_FALSE(r("a.b*")->IsNullable());
  EXPECT_TRUE(r("a*.b*")->IsNullable());
  EXPECT_FALSE(Regex::EmptySet()->IsNullable());
}

TEST(RegexTest, ReverseSemantics) {
  Alphabet sigma;
  auto r = std::move(ParseRegex("a.b*.c", &sigma)).ValueOrDie();
  auto rev = Regex::Reverse(r);
  Dfa d = CompileRegexToDfa(rev, static_cast<uint32_t>(sigma.size()));
  SymbolId a = sigma.Find("a"), b = sigma.Find("b"), c = sigma.Find("c");
  EXPECT_TRUE(d.Accepts({c, b, b, a}));
  EXPECT_TRUE(d.Accepts({c, a}));
  EXPECT_FALSE(d.Accepts({a, b, c}));
}

TEST(DfaTest, MinimizeIsMinimalAndEquivalent) {
  Alphabet sigma;
  // (a|b)*.a.(a|b) has a 4-state minimal DFA... (classic: second-to-last is a)
  auto r = std::move(ParseRegex("(a|b)*.a.(a|b)", &sigma)).ValueOrDie();
  Nfa nfa = CompileRegexToNfa(r, 2);
  Dfa det = Determinize(nfa);
  Dfa min = Minimize(det);
  EXPECT_TRUE(EquivalentLanguages(det, min));
  EXPECT_LE(min.num_states(), det.num_states());
  EXPECT_EQ(min.num_states(), 4u);
  // Minimization is idempotent.
  Dfa min2 = Minimize(min);
  EXPECT_EQ(min2.num_states(), min.num_states());
}

TEST(DfaTest, ComplementAndProduct) {
  Lang even("(a.a)*");
  Lang all("a*");
  Dfa odd = Product(all.dfa, Complement(even.dfa), BoolOp::kAnd);
  SymbolId a = all.sigma.Find("a");
  EXPECT_FALSE(odd.Accepts({}));
  EXPECT_TRUE(odd.Accepts({a}));
  EXPECT_FALSE(odd.Accepts({a, a}));
  // kDiff agrees with kAnd-with-complement.
  Dfa odd2 = Product(all.dfa, even.dfa, BoolOp::kDiff);
  EXPECT_TRUE(EquivalentLanguages(odd, odd2));
  // kOr.
  Dfa anything = Product(even.dfa, odd, BoolOp::kOr);
  EXPECT_TRUE(EquivalentLanguages(anything, all.dfa));
}

TEST(DfaTest, EmptinessAndWitness) {
  Lang l("a.b");
  EXPECT_FALSE(IsEmptyLanguage(l.dfa));
  Dfa none = Product(l.dfa, Complement(l.dfa), BoolOp::kAnd);
  EXPECT_TRUE(IsEmptyLanguage(none));
  auto w = ShortestAccepted(l.dfa);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->size(), 2u);
  EXPECT_FALSE(ShortestAccepted(none).has_value());
  // Witness of a nullable language is the empty word.
  Lang star("a*");
  auto w2 = ShortestAccepted(star.dfa);
  ASSERT_TRUE(w2.has_value());
  EXPECT_TRUE(w2->empty());
}

TEST(DfaTest, InclusionAndEquivalence) {
  Lang even("(a.a)*"), all("a*"), ab("a.b");
  EXPECT_TRUE(Includes(all.dfa, even.dfa));   // even ⊆ all
  EXPECT_FALSE(Includes(even.dfa, all.dfa));  // all ⊄ even
  EXPECT_FALSE(EquivalentLanguages(even.dfa, all.dfa));
  EXPECT_TRUE(EquivalentLanguages(even.dfa, even.dfa));
  EXPECT_FALSE(Includes(even.dfa, ab.dfa));
}

TEST(NfaTest, DirectSimulationAgreesWithDfa) {
  Rng rng(101);
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  auto r = std::move(ParseRegex("(a.b|b)*.a?", &sigma)).ValueOrDie();
  Nfa nfa = CompileRegexToNfa(r, 2);
  Dfa dfa = Minimize(Determinize(nfa));
  for (int i = 0; i < 300; ++i) {
    size_t len = rng.NextBelow(10);
    std::vector<SymbolId> word;
    for (size_t j = 0; j < len; ++j) {
      word.push_back(static_cast<SymbolId>(rng.NextBelow(2)));
    }
    EXPECT_EQ(nfa.Accepts(word), dfa.Accepts(word));
  }
}

TEST(RegexTest, WordFactory) {
  Alphabet sigma;
  SymbolId a = sigma.Intern("a"), b = sigma.Intern("b");
  Dfa d = CompileRegexToDfa(Regex::Word({a, b, a}),
                            static_cast<uint32_t>(sigma.size()));
  EXPECT_TRUE(d.Accepts({a, b, a}));
  EXPECT_FALSE(d.Accepts({a, b}));
  EXPECT_FALSE(d.Accepts({a, b, a, a}));
  // The empty word.
  Dfa e = CompileRegexToDfa(Regex::Word({}), 2);
  EXPECT_TRUE(e.Accepts({}));
  EXPECT_FALSE(e.Accepts({a}));
}

TEST(DfaTest, LiveStatesPruneDeadEnds) {
  Lang l("a.b");
  std::vector<bool> live = l.dfa.LiveStates();
  EXPECT_TRUE(live[l.dfa.start()]);
  // The sink after a wrong letter must be dead.
  SymbolId b = l.sigma.Find("b");
  StateId sink = l.dfa.Next(l.dfa.start(), b);
  EXPECT_FALSE(live[sink]);
}

TEST(NfaTest, RemapSymbolsPreservesLanguageShape) {
  Alphabet sigma;
  SymbolId a = sigma.Intern("a");
  auto r = std::move(ParseRegexClosed("a.a", sigma)).ValueOrDie();
  Nfa nfa = CompileRegexToNfa(r, 1);
  // Map symbol 0 → 5 in a 6-symbol alphabet.
  Nfa remapped = RemapSymbols(nfa, {5}, 6);
  EXPECT_TRUE(remapped.Accepts({5, 5}));
  EXPECT_FALSE(remapped.Accepts({5}));
  EXPECT_FALSE(remapped.Accepts({0, 0}));
  (void)a;
}

// Random regex generator for property testing.
RegexPtr RandomRegex(Rng& rng, uint32_t num_symbols, int depth) {
  if (depth == 0 || rng.NextBool(0.35)) {
    switch (rng.NextBelow(4)) {
      case 0:
        return Regex::Epsilon();
      default:
        return Regex::Symbol(
            static_cast<SymbolId>(rng.NextBelow(num_symbols)));
    }
  }
  switch (rng.NextBelow(3)) {
    case 0:
      return Regex::Concat(RandomRegex(rng, num_symbols, depth - 1),
                           RandomRegex(rng, num_symbols, depth - 1));
    case 1:
      return Regex::Union(RandomRegex(rng, num_symbols, depth - 1),
                          RandomRegex(rng, num_symbols, depth - 1));
    default:
      return Regex::Star(RandomRegex(rng, num_symbols, depth - 1));
  }
}

class RegexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexPropertyTest, NfaDfaMinimizeAgree) {
  Rng rng(GetParam());
  RegexPtr r = RandomRegex(rng, 2, 4);
  Nfa nfa = CompileRegexToNfa(r, 2);
  Dfa det = Determinize(nfa);
  Dfa min = Minimize(det);
  // Exhaustive agreement over all words up to length 6.
  std::vector<SymbolId> word;
  for (uint32_t len = 0; len <= 6; ++len) {
    for (uint32_t mask = 0; mask < (1u << len); ++mask) {
      word.clear();
      for (uint32_t i = 0; i < len; ++i) word.push_back((mask >> i) & 1);
      bool n = nfa.Accepts(word);
      EXPECT_EQ(n, det.Accepts(word));
      EXPECT_EQ(n, min.Accepts(word));
    }
  }
}

TEST_P(RegexPropertyTest, ReverseOfReverseIsIdentity) {
  Rng rng(GetParam() + 1000);
  RegexPtr r = RandomRegex(rng, 2, 4);
  Dfa d1 = CompileRegexToDfa(r, 2);
  Dfa d2 = CompileRegexToDfa(Regex::Reverse(Regex::Reverse(r)), 2);
  EXPECT_TRUE(EquivalentLanguages(d1, d2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

void ExpectSameTable(const Dfa& got, const Dfa& want, const std::string& what) {
  ASSERT_EQ(got.num_states(), want.num_states()) << what;
  ASSERT_EQ(got.num_symbols(), want.num_symbols()) << what;
  EXPECT_EQ(got.start(), want.start()) << what;
  for (StateId q = 0; q < got.num_states(); ++q) {
    EXPECT_EQ(got.accepting(q), want.accepting(q)) << what << " state " << q;
    for (SymbolId a = 0; a < got.num_symbols(); ++a) {
      EXPECT_EQ(got.Next(q, a), want.Next(q, a))
          << what << " state " << q << " symbol " << a;
    }
  }
}

TEST(DfaTest, HopcroftTablesMatchMooreOracle) {
  // Minimize (Hopcroft) against RefMinimizeDfa (Moore), table for table: on
  // this file's regexes, on 600 seeded random regexes, and on 200 random
  // complete DFAs, which also have unreachable states.
  for (const char* text :
       {"a", "a.b*.c", "(a|b)+", "a?", "()", "a.(b|(c.a))*.b", "(a|b).c",
        "a.(b|c.a)*.b", "(a.b)*", "a*", "b*.c.c", "a|b.c", "a+.b?",
        "a|()", "(a.a)*", "(a|b)*.a.(a|b)", "a*.b*", "(a.b|b)*.a?",
        "a.(b|c)*.b", "a.c.d", "a.b*"}) {
    Alphabet sigma;
    for (const char* letter : {"a", "b", "c", "d"}) sigma.Intern(letter);
    const RegexPtr r = std::move(ParseRegex(text, &sigma)).ValueOrDie();
    const Dfa det = Determinize(CompileRegexToNfa(r, 4));
    ExpectSameTable(Minimize(det), RefMinimizeDfa(det), text);
  }
  for (uint64_t seed = 0; seed < 600; ++seed) {
    Rng rng(seed + 7000);
    const uint32_t symbols = 1 + static_cast<uint32_t>(seed % 4);
    const RegexPtr r =
        RandomRegex(rng, symbols, 2 + static_cast<int>(seed % 5));
    const Dfa det = Determinize(CompileRegexToNfa(r, symbols));
    ExpectSameTable(Minimize(det), RefMinimizeDfa(det),
                    "regex seed " + std::to_string(seed));
  }
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed + 9000);
    const uint32_t states = 1 + static_cast<uint32_t>(rng.NextBelow(30));
    const uint32_t symbols = 1 + static_cast<uint32_t>(rng.NextBelow(3));
    Dfa d(states, symbols);
    d.set_start(static_cast<StateId>(rng.NextBelow(states)));
    for (StateId q = 0; q < states; ++q) {
      d.set_accepting(q, rng.NextBool(0.3));
      for (SymbolId a = 0; a < symbols; ++a) {
        d.SetNext(q, a, static_cast<StateId>(rng.NextBelow(states)));
      }
    }
    ExpectSameTable(Minimize(d), RefMinimizeDfa(d),
                    "dfa seed " + std::to_string(seed));
  }
}

// --- Path expressions ---

TEST(PathExprTest, EvalOnUnrankedTree) {
  Alphabet sigma;
  auto tree =
      std::move(ParseUnrankedTerm("a(b,b,c(d),e)", &sigma)).ValueOrDie();
  auto r = std::move(ParseRegexClosed("a.c.d", sigma)).ValueOrDie();
  Dfa dfa = CompileRegexToDfa(r, static_cast<uint32_t>(sigma.size()));
  std::vector<NodeId> hits = EvalPath(tree, dfa);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(sigma.Name(tree.tag(hits[0])), "d");
}

TEST(PathExprTest, EvalMatchesMultiple) {
  Alphabet sigma;
  auto tree = std::move(ParseUnrankedTerm("a(b,b,c(b))", &sigma)).ValueOrDie();
  // All b-nodes anywhere below the root: a.(b|c)*.b
  auto r = std::move(ParseRegexClosed("a.(b|c)*.b", sigma)).ValueOrDie();
  Dfa dfa = CompileRegexToDfa(r, static_cast<uint32_t>(sigma.size()));
  std::vector<NodeId> hits = EvalPath(tree, dfa);
  EXPECT_EQ(hits.size(), 3u);
}

TEST(PathExprTest, NullableRegexMatchesNothingWithoutRoot) {
  // eval requires the path to include the root's own label, so even a
  // nullable regex only matches if a full word matches.
  Alphabet sigma;
  auto tree = std::move(ParseUnrankedTerm("a(b)", &sigma)).ValueOrDie();
  auto r = std::move(ParseRegexClosed("b*", sigma)).ValueOrDie();
  Dfa dfa = CompileRegexToDfa(r, static_cast<uint32_t>(sigma.size()));
  EXPECT_TRUE(EvalPath(tree, dfa).empty());
}

TEST(PathExprTest, PaperTranslationExample) {
  // translate(a.c.d) accepts a (-)* c (-)* d.
  Alphabet sigma;
  SymbolId a = sigma.Intern("a");
  SymbolId c = sigma.Intern("c");
  SymbolId d = sigma.Intern("d");
  auto enc = std::move(MakeEncodedAlphabet(sigma)).ValueOrDie();
  auto r = std::move(ParseRegexClosed("a.c.d", sigma)).ValueOrDie();
  Dfa t = std::move(TranslatePathExpression(r, enc)).ValueOrDie();
  SymbolId A = enc.tag_symbol[a], C = enc.tag_symbol[c],
           D = enc.tag_symbol[d], S = enc.cons;
  EXPECT_TRUE(t.Accepts({A, C, D}));
  EXPECT_TRUE(t.Accepts({A, S, C, S, S, D}));
  EXPECT_FALSE(t.Accepts({S, A, C, D}));     // no leading separators
  EXPECT_FALSE(t.Accepts({A, C, D, S}));     // no trailing separators
  EXPECT_FALSE(t.Accepts({A, C}));
}

// Property (Section 2.1): eval(translate(r), encode(t)) = encode(eval(r,t)).
class PathTranslationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathTranslationTest, TranslationCommutesWithEncoding) {
  Rng rng(GetParam());
  Alphabet sigma;
  for (const char* n : {"a", "b", "c"}) sigma.Intern(n);
  RandomUnrankedOptions opts;
  opts.target_size = 1 + rng.NextBelow(60);
  opts.max_children = 4;
  UnrankedTree tree = RandomUnrankedTree(sigma, rng, opts);
  RegexPtr r = RandomRegex(rng, static_cast<uint32_t>(sigma.size()), 4);

  auto enc = std::move(MakeEncodedAlphabet(sigma)).ValueOrDie();
  std::vector<NodeId> node_map;
  auto bin = std::move(EncodeTree(tree, enc, &node_map)).ValueOrDie();

  Dfa dfa = CompileRegexToDfa(r, static_cast<uint32_t>(sigma.size()));
  std::vector<NodeId> unranked_hits = EvalPath(tree, dfa);

  Dfa tdfa = std::move(TranslatePathExpression(r, enc)).ValueOrDie();
  std::vector<NodeId> binary_hits = EvalPathBinary(bin, tdfa);

  std::set<NodeId> expected;
  for (NodeId n : unranked_hits) expected.insert(node_map[n]);
  std::set<NodeId> actual(binary_hits.begin(), binary_hits.end());
  EXPECT_EQ(expected, actual);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathTranslationTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace pebbletc
