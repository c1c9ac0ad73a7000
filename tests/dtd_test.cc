// Tests for src/dtd and src/xml: DTD parsing, validation, specialized DTDs,
// and the compilation to tree automata over the encoded alphabet
// (cross-validated against direct validation on random trees).

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "src/common/rng.h"
#include "src/dtd/dtd.h"
#include "src/ta/nbta.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/tree/term.h"
#include "src/xml/xml.h"

namespace pebbletc {
namespace {

// The Figure 1 DTD: a := b*.c.e; b,d,e := ε; c := d*.
constexpr char kFigure1Dtd[] = R"(
  a := b*.c.e
  b := ()
  c := d*
  d := ()
  e := ()
)";

TEST(DtdTest, ParseAndValidateFigure1) {
  auto dtd = std::move(ParseDtd(kFigure1Dtd)).ValueOrDie();
  EXPECT_TRUE(dtd.IsPlain());
  EXPECT_EQ(dtd.num_types(), 5u);
  auto tree = std::move(ParseUnrankedTerm("a(b,b,c(d),e)",
                                          dtd.mutable_tags()))
                  .ValueOrDie();
  auto ok = dtd.Accepts(tree);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  EXPECT_TRUE(dtd.Validate(tree).ok());
}

TEST(DtdTest, RejectsContentViolations) {
  auto dtd = std::move(ParseDtd(kFigure1Dtd)).ValueOrDie();
  for (const char* bad : {"a(b,b)",        // missing c.e
                          "a(c(d),e,b)",   // b after c
                          "a(b,c(b),e)",   // b inside c
                          "b",             // wrong root
                          "a(b,c(d),e,e)"}) {
    auto tree =
        std::move(ParseUnrankedTerm(bad, dtd.mutable_tags())).ValueOrDie();
    auto ok = dtd.Accepts(tree);
    ASSERT_TRUE(ok.ok()) << bad;
    EXPECT_FALSE(*ok) << bad;
    EXPECT_FALSE(dtd.Validate(tree).ok()) << bad;
  }
}

TEST(DtdTest, ValidateDiagnosesOffendingElement) {
  auto dtd = std::move(ParseDtd(kFigure1Dtd)).ValueOrDie();
  auto tree = std::move(ParseUnrankedTerm("a(b,c(b),e)", dtd.mutable_tags()))
                  .ValueOrDie();
  Status s = dtd.Validate(tree);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("'c'"), std::string::npos) << s.ToString();
}

TEST(DtdTest, UndeclaredElementRejected) {
  auto dtd = std::move(ParseDtd("a := b*\nb := ()")).ValueOrDie();
  auto tree =
      std::move(ParseUnrankedTerm("a(z)", dtd.mutable_tags())).ValueOrDie();
  auto ok = dtd.Accepts(tree);
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);
  Status s = dtd.Validate(tree);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not declared"), std::string::npos)
      << s.ToString();
}

TEST(DtdTest, ParseErrors) {
  EXPECT_FALSE(ParseDtd("").ok());
  EXPECT_FALSE(ParseDtd("a = b*").ok());
  EXPECT_FALSE(ParseDtd("a := b*").ok());         // b undeclared
  EXPECT_FALSE(ParseDtd("a := ()\na := ()").ok());  // duplicate
  EXPECT_FALSE(ParseDtd("a[b] := ()").ok());      // specialized form in plain
}

// Compiling content models is bounded: a few bytes of DTD text cannot make
// ParseDtd determinize for minutes or allocate gigabytes of dense tables.
TEST(DtdTest, ContentModelCapsRefuseWithLimitExceeded) {
  // (a|b)*.a.(a|b)^k needs 2^(k+1) subset states: k = 12 loads, k = 20 passes
  // kMaxContentModelStates.
  auto exponential = [](int k) {
    std::string text = "r := (a|b)*.a";
    for (int i = 0; i < k; ++i) text += ".(a|b)";
    return text + "\na := ()\nb := ()\n";
  };
  EXPECT_TRUE(ParseDtd(exponential(12)).ok());
  Result<SpecializedDtd> refused = ParseDtd(exponential(20));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kLimitExceeded);

  // n empty types cost 2n² dense table entries: 1,000 types load, 20,000
  // pass kMaxContentTableEntries.
  auto empty_types = [](int n) {
    std::string text;
    for (int i = 0; i < n; ++i) text += "c" + std::to_string(i) + " := ()\n";
    return text;
  };
  EXPECT_TRUE(ParseDtd(empty_types(1000)).ok());
  refused = ParseDtd(empty_types(20000));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kLimitExceeded);

  // A content model chaining 20,000 children is an AST past
  // kMaxRegexAstDepth.
  std::string chain = "r := c";
  for (int i = 1; i < 20000; ++i) chain += ".c";
  refused = ParseDtd(chain + "\nc := ()\n");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kLimitExceeded);
}

TEST(DtdTest, LongSequenceMinimizesInUnderASecond) {
  // 8,000 sequenced children make a 8,002-state content DFA that Moore's
  // refinement split one state per round (8.7 s); Hopcroft's takes
  // O(n log n). Groups of 1,000 keep the AST under kMaxRegexAstDepth.
  std::string text = "r := ";
  for (int g = 0; g < 8; ++g) {
    text += g == 0 ? "(c" : ".(c";
    for (int i = 1; i < 1000; ++i) text += ".c";
    text += ")";
  }
  text += "\nc := ()\n";
  const auto start = std::chrono::steady_clock::now();
  Result<SpecializedDtd> dtd = ParseDtd(text);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  auto doc = [&](int children) {
    std::string term = "r(c";
    for (int i = 1; i < children; ++i) term += ",c";
    return std::move(ParseUnrankedTerm(term + ")", dtd->mutable_tags()))
        .ValueOrDie();
  };
  const UnrankedTree valid = doc(8000), invalid = doc(7999);
  // Validation follows the content DFA's live states, not all 8,002 of its
  // states per child.
  const auto validate_start = std::chrono::steady_clock::now();
  const Status accepted = dtd->Validate(valid);
  const Status rejected = dtd->Validate(invalid);
  EXPECT_LT(std::chrono::steady_clock::now() - validate_start,
            std::chrono::milliseconds(50));
  EXPECT_TRUE(accepted.ok()) << accepted;
  EXPECT_EQ(rejected.ToString(),
            "invalid-argument: content of element 'r' (node 7999) violates "
            "its content model");
}

TEST(DtdTest, SpecializedDistinguishesSameTag) {
  // The paper's example: t = a(b(c), b(d)) needs the two b's to have
  // different types — impossible for a plain DTD, expressible specialized.
  constexpr char kSpec[] = R"(
    r[a] := b1.b2
    b1[b] := c0
    b2[b] := d0
    c0[c] := ()
    d0[d] := ()
  )";
  auto dtd = std::move(ParseSpecializedDtd(kSpec)).ValueOrDie();
  EXPECT_FALSE(dtd.IsPlain());
  auto yes = std::move(ParseUnrankedTerm("a(b(c),b(d))", dtd.mutable_tags()))
                 .ValueOrDie();
  auto no1 = std::move(ParseUnrankedTerm("a(b(d),b(c))", dtd.mutable_tags()))
                 .ValueOrDie();
  auto no2 = std::move(ParseUnrankedTerm("a(b(c),b(c))", dtd.mutable_tags()))
                 .ValueOrDie();
  EXPECT_TRUE(*dtd.Accepts(yes));
  EXPECT_FALSE(*dtd.Accepts(no1));
  EXPECT_FALSE(*dtd.Accepts(no2));
}

TEST(DtdCompileTest, AutomatonMatchesFigure1Examples) {
  auto dtd = std::move(ParseDtd(kFigure1Dtd)).ValueOrDie();
  auto enc = std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
  auto nbta = std::move(CompileDtdToNbta(dtd, enc)).ValueOrDie();
  EXPECT_TRUE(nbta.Validate(enc.ranked).ok());
  for (const char* text : {"a(b,b,c(d),e)", "a(c,e)", "a(b,c(d,d,d),e)"}) {
    auto tree =
        std::move(ParseUnrankedTerm(text, dtd.mutable_tags())).ValueOrDie();
    auto bin = std::move(EncodeTree(tree, enc)).ValueOrDie();
    EXPECT_TRUE(nbta.Accepts(bin)) << text;
  }
  for (const char* text : {"a(b)", "a(c(d),b,e)", "c(d)", "a(b,c(c),e)"}) {
    auto tree =
        std::move(ParseUnrankedTerm(text, dtd.mutable_tags())).ValueOrDie();
    auto bin = std::move(EncodeTree(tree, enc)).ValueOrDie();
    EXPECT_FALSE(nbta.Accepts(bin)) << text;
  }
}

// Property: for random trees, direct DTD validation agrees with the compiled
// automaton on the encoding. Exercises plain and specialized DTDs.
class DtdCompileProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DtdCompileProperty, CompiledAutomatonAgreesWithValidation) {
  Rng rng(GetParam());
  const char* dtd_text = (GetParam() % 2 == 0) ? kFigure1Dtd : R"(
    r[a] := x*.y?
    x[b] := r*
    y[b] := ()
  )";
  auto dtd = std::move(ParseSpecializedDtd(dtd_text)).ValueOrDie();
  auto enc = std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
  auto nbta = std::move(CompileDtdToNbta(dtd, enc)).ValueOrDie();

  RandomUnrankedOptions opts;
  opts.target_size = 1 + rng.NextBelow(25);
  opts.max_children = 4;
  for (int i = 0; i < 40; ++i) {
    UnrankedTree t = RandomUnrankedTree(dtd.tags(), rng, opts);
    auto direct = dtd.Accepts(t);
    ASSERT_TRUE(direct.ok());
    auto bin = std::move(EncodeTree(t, enc)).ValueOrDie();
    EXPECT_EQ(*direct, nbta.Accepts(bin))
        << UnrankedTermString(t, dtd.tags());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtdCompileProperty,
                         ::testing::Range<uint64_t>(0, 30));

TEST(DtdCompileTest, WitnessOfCompiledDtdDecodesToValidDocument) {
  auto dtd = std::move(ParseDtd(kFigure1Dtd)).ValueOrDie();
  auto enc = std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
  auto nbta = std::move(CompileDtdToNbta(dtd, enc)).ValueOrDie();
  auto witness = WitnessTree(TrimNbta(nbta));
  ASSERT_TRUE(witness.has_value());
  auto doc = std::move(DecodeTree(*witness, enc)).ValueOrDie();
  EXPECT_TRUE(*dtd.Accepts(doc));
}

// --- XML ---

TEST(XmlTest, ParsePaperExample) {
  Alphabet sigma;
  auto tree = std::move(ParseXml(
                            "<a> <b></b> <b></b> <c><d></d></c> <e></e> </a>",
                            &sigma))
                  .ValueOrDie();
  EXPECT_EQ(UnrankedTermString(tree, sigma), "a(b,b,c(d),e)");
}

TEST(XmlTest, SelfClosingAndComments) {
  Alphabet sigma;
  auto tree =
      std::move(ParseXml("<root><!-- doc --><a/><a/></root>", &sigma))
          .ValueOrDie();
  EXPECT_EQ(UnrankedTermString(tree, sigma), "root(a,a)");
}

TEST(XmlTest, RoundTrip) {
  Alphabet sigma;
  auto tree =
      std::move(ParseUnrankedTerm("a(b,c(d,e),f)", &sigma)).ValueOrDie();
  std::string xml = XmlString(tree, sigma);
  EXPECT_EQ(xml, "<a><b/><c><d/><e/></c><f/></a>");
  auto back = std::move(ParseXml(xml, &sigma)).ValueOrDie();
  EXPECT_TRUE(back == tree);
  // Pretty printing parses back too.
  auto back2 =
      std::move(ParseXml(XmlString(tree, sigma, /*indent=*/true), &sigma))
          .ValueOrDie();
  EXPECT_TRUE(back2 == tree);
}

TEST(XmlTest, Errors) {
  Alphabet sigma;
  EXPECT_FALSE(ParseXml("", &sigma).ok());
  EXPECT_FALSE(ParseXml("<a>", &sigma).ok());
  EXPECT_FALSE(ParseXml("<a></b>", &sigma).ok());
  EXPECT_FALSE(ParseXml("<a>text</a>", &sigma).ok());
  EXPECT_FALSE(ParseXml("<a x='1'/>", &sigma).ok());
  EXPECT_FALSE(ParseXml("<a/><b/>", &sigma).ok());
  // An unterminated comment is an error wherever it occurs, after the root
  // included, and the error names the comment's offset.
  for (const char* text : {"<a/><!-- unterminated", "<a/><!--", "<!-- x",
                           "<a><!-- x</a>"}) {
    Result<UnrankedTree> doc = ParseXml(text, &sigma);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(doc.status().message().find("unterminated comment at offset"),
              std::string::npos)
        << doc.status().ToString();
  }
}

}  // namespace
}  // namespace pebbletc
