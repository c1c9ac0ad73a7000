// Robustness ("fuzz-lite") tests: every text parser in the library must
// return a clean Status on arbitrary input — never crash, never hang — and
// parsers must accept what the printers produce (round-trip closure under
// random valid structures is covered in the per-module suites; here we
// hammer the error paths).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/dtd/dtd.h"
#include "src/query/pattern.h"
#include "src/query/xslt.h"
#include "src/regex/dfa.h"
#include "src/regex/regex.h"
#include "src/tree/term.h"
#include "src/xml/xml.h"

namespace pebbletc {
namespace {

// Random strings over a hostile character set (parser metacharacters heavy).
std::string RandomText(Rng& rng, size_t max_len) {
  static constexpr char kChars[] =
      "abcxyz01_ ()[]{}<>|*+?.,;:=\t\n\\\"'/-#";
  size_t len = rng.NextBelow(max_len + 1);
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += kChars[rng.NextBelow(sizeof(kChars) - 1)];
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, NoParserCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::string text = RandomText(rng, 60);
    {
      Alphabet sigma;
      auto r = ParseRegex(text, &sigma);
      if (r.ok()) {
        // Whatever parsed must print and re-parse equivalently-shaped.
        std::string printed = RegexString(*r, sigma);
        EXPECT_TRUE(ParseRegex(printed, &sigma).ok()) << printed;
      }
    }
    {
      Alphabet sigma;
      auto r = ParseUnrankedTerm(text, &sigma);
      if (r.ok()) {
        EXPECT_TRUE(r->Validate(sigma).ok());
      }
    }
    {
      Alphabet sigma;
      auto r = ParseXml(text, &sigma);
      if (r.ok()) {
        EXPECT_TRUE(r->Validate(sigma).ok());
      }
    }
    {
      auto r = ParseSpecializedDtd(text);
      (void)r;  // ok-or-error, no crash
    }
    {
      Alphabet sigma;
      auto r = ParsePattern(text, &sigma);
      (void)r;
    }
    {
      Alphabet in, out;
      auto r = ParseXslt(text, &in, &out);
      (void)r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<uint64_t>(0, 10));

TEST(ParserFuzz, DeeplyNestedInputsDoNotOverflow) {
  // The term and XML parsers keep their own explicit stacks, so nesting
  // depth is bounded by heap only: a million levels must parse. The regex
  // parser is recursive-descent with a depth cap and must refuse cleanly
  // with kLimitExceeded (this also covers DTD content models, which parse
  // through ParseRegexClosed).
  constexpr size_t kDepth = 1000000;

  std::string deep;
  deep.reserve(3 * kDepth + 1);
  for (size_t i = 0; i < kDepth; ++i) deep += "a(";
  deep += "b";
  for (size_t i = 0; i < kDepth; ++i) deep += ")";
  Alphabet sigma;
  auto r = ParseUnrankedTerm(deep, &sigma);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), kDepth + 1);
  EXPECT_EQ(r->Depth(), kDepth + 1);

  std::string deep_xml;
  deep_xml.reserve(7 * kDepth + 4);
  for (size_t i = 0; i < kDepth; ++i) deep_xml += "<a>";
  deep_xml += "<b/>";
  for (size_t i = 0; i < kDepth; ++i) deep_xml += "</a>";
  Alphabet sigma2;
  auto x = ParseXml(deep_xml, &sigma2);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->size(), kDepth + 1);

  std::string deep_bin;
  deep_bin.reserve(5 * kDepth + 1);
  for (size_t i = 0; i < kDepth; ++i) deep_bin += "f(";
  deep_bin += "a";
  for (size_t i = 0; i < kDepth; ++i) deep_bin += ",a)";
  RankedAlphabet ranked;
  (void)ranked.AddBinary("f");
  (void)ranked.AddLeaf("a");
  auto b = ParseBinaryTerm(deep_bin, ranked);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), 2 * kDepth + 1);
  EXPECT_EQ(b->Depth(), kDepth + 1);

  std::string deep_regex;
  deep_regex.reserve(2 * kDepth + 1);
  for (size_t i = 0; i < kDepth; ++i) deep_regex += "(";
  deep_regex += "a";
  for (size_t i = 0; i < kDepth; ++i) deep_regex += ")";
  Alphabet sigma3;
  auto re = ParseRegex(deep_regex, &sigma3);
  ASSERT_FALSE(re.ok());
  EXPECT_EQ(re.status().code(), StatusCode::kLimitExceeded);

  // The cap is exact: 256 levels of "a.(" parse and compile to a DFA for
  // a^256 b; 257 are refused.
  auto nested = [](size_t levels) {
    std::string s;
    for (size_t i = 0; i < levels; ++i) s += "a.(";
    return s + "b" + std::string(levels, ')');
  };
  Alphabet sigma4;
  auto at_cap = ParseRegex(nested(256), &sigma4);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  Dfa dfa = CompileRegexToDfa(*at_cap, static_cast<uint32_t>(sigma4.size()));
  std::vector<SymbolId> word(256, sigma4.Find("a"));
  word.push_back(sigma4.Find("b"));
  EXPECT_TRUE(dfa.Accepts(word));
  word.erase(word.begin());
  EXPECT_FALSE(dfa.Accepts(word));
  auto past_cap = ParseRegex(nested(257), &sigma4);
  ASSERT_FALSE(past_cap.ok());
  EXPECT_EQ(past_cap.status().code(), StatusCode::kLimitExceeded);

  // Chains need no parentheses to be deep: n terms joined by '.' or '|'
  // parse left-deep to an AST n levels deep, which every AST walk recurses
  // through. 20,000 terms are refused; a chain at kMaxRegexAstDepth parses
  // and compiles.
  auto chain = [](size_t terms, char op) {
    std::string s = "a";
    for (size_t i = 1; i < terms; ++i) s += std::string(1, op) + "a";
    return s;
  };
  for (char op : {'.', '|'}) {
    Alphabet sigma5;
    auto long_chain = ParseRegex(chain(20000, op), &sigma5);
    ASSERT_FALSE(long_chain.ok()) << op;
    EXPECT_EQ(long_chain.status().code(), StatusCode::kLimitExceeded) << op;
    auto just_past = ParseRegex(chain(kMaxRegexAstDepth + 1, op), &sigma5);
    EXPECT_EQ(just_past.status().code(), StatusCode::kLimitExceeded) << op;

    auto at_depth_cap = ParseRegex(chain(kMaxRegexAstDepth, op), &sigma5);
    ASSERT_TRUE(at_depth_cap.ok()) << at_depth_cap.status().ToString();
    EXPECT_EQ((*at_depth_cap)->depth(), kMaxRegexAstDepth);
    Dfa chain_dfa =
        CompileRegexToDfa(*at_depth_cap, static_cast<uint32_t>(sigma5.size()));
    const std::vector<SymbolId> a_word(op == '.' ? kMaxRegexAstDepth : 1,
                                       sigma5.Find("a"));
    EXPECT_TRUE(chain_dfa.Accepts(a_word)) << op;
  }

  // r+ is r.r* over one shared r, so each postfix '+' doubles the expanded
  // AST that the NFA construction walks. Twenty of them pass kMaxRegexNodes
  // and are refused at once; eight still compile, to c+.
  auto plus_dtd = [](size_t pluses) {
    return "r := c" + std::string(pluses, '+') + "\nc := ()\n";
  };
  const auto start = std::chrono::steady_clock::now();
  auto refused = ParseDtd(plus_dtd(20));
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kLimitExceeded);
  auto compiled = ParseDtd(plus_dtd(8));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  for (const char* doc : {"r(c)", "r(c,c,c)"}) {
    auto t = std::move(ParseUnrankedTerm(doc, compiled->mutable_tags()))
                 .ValueOrDie();
    EXPECT_TRUE(compiled->Validate(t).ok()) << doc;
  }
  auto empty =
      std::move(ParseUnrankedTerm("r", compiled->mutable_tags())).ValueOrDie();
  EXPECT_FALSE(compiled->Validate(empty).ok());
}

// Applies 1-4 random byte edits to `text`: a bit flip, an overwrite, an
// insert, a delete or a truncation each.
std::string Mutate(std::string text, Rng& rng) {
  const uint64_t edits = 1 + rng.NextBelow(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t n = text.size();
    const char byte = static_cast<char>(rng.NextBelow(256));
    switch (rng.NextBelow(5)) {
      case 0:
        if (n > 0) {
          text[rng.NextBelow(n)] ^= static_cast<char>(1 << rng.NextBelow(8));
        }
        break;
      case 1:
        if (n > 0) text[rng.NextBelow(n)] = byte;
        break;
      case 2:
        text.insert(text.begin() + rng.NextBelow(n + 1), byte);
        break;
      case 3:
        if (n > 0) text.erase(rng.NextBelow(n), 1);
        break;
      default:
        text.resize(rng.NextBelow(n + 1));
        break;
    }
  }
  return text;
}

// A parser under test, reduced to its Status; a tree it accepts must also
// validate.
using ParseFn = std::function<Status(std::string_view)>;

template <typename TreeResult, typename Alpha>
Status ValidTree(const TreeResult& r, const Alpha& alphabet) {
  if (!r.ok()) return r.status();
  return r->Validate(alphabet).ok() ? Status::OK()
                                    : Status::Internal("parsed tree invalid");
}

Status ParseXmlStatus(std::string_view text) {
  Alphabet sigma;
  return ValidTree(ParseXml(text, &sigma), sigma);
}

Status ParseDtdStatus(std::string_view text) {
  return ParseDtd(text).status();
}

Status ParseSpecializedDtdStatus(std::string_view text) {
  return ParseSpecializedDtd(text).status();
}

Status ParseXsltStatus(std::string_view text) {
  Alphabet in, out;
  return ParseXslt(text, &in, &out).status();
}

Status ParseUnrankedTermStatus(std::string_view text) {
  Alphabet sigma;
  return ValidTree(ParseUnrankedTerm(text, &sigma), sigma);
}

Status ParseBinaryTermStatus(std::string_view text) {
  RankedAlphabet sigma;
  (void)sigma.AddLeaf("a");
  (void)sigma.AddLeaf("b");
  (void)sigma.AddBinary("f");
  (void)sigma.AddBinary("g");
  return ValidTree(ParseBinaryTerm(text, sigma), sigma);
}

Status ParsePatternStatus(std::string_view text) {
  Alphabet sigma;
  return ParsePattern(text, &sigma).status();
}

Status ParseRegexStatus(std::string_view text) {
  Alphabet sigma;
  return ParseRegex(text, &sigma).status();
}

TEST(ParserFuzz, SeededByteMutantsEndWithAStatusInTime) {
  // Valid inputs of every text format, each mutated 2,000 times and fed to
  // its parser: every call must end with OK or an error Status (no crash,
  // no sanitizer report) and within the time bound below.
  struct Seed {
    const char* name;
    std::string text;
    ParseFn parse;
  };
  const std::vector<Seed> seeds = {
      {"catalog.xml",
       "<catalog>\n  <article> <author/> <author/> </article>\n"
       "  <article> <author/> </article>\n</catalog>",
       ParseXmlStatus},
      {"q2_input.xml", "<root><a/><a/><a/></root>", ParseXmlStatus},
      {"catalog.dtd",
       "catalog := article*\narticle := author*\nauthor  := ()\n",
       ParseDtdStatus},
      {"q2_output.dtd", "result := b.a*.b.a*.b.a*\nb := ()\na := ()",
       ParseDtdStatus},
      {"specialized.dtd",
       "r[a] := b1.b2\nb1[b] := c0\nb2[b] := d0\nc0[c] := ()\n"
       "d0[d] := ()\n",
       ParseSpecializedDtdStatus},
      {"catalog.xslt",
       "template catalog { list  { apply } }\n"
       "template article { item  { apply } }\n"
       "template author  { byline }\n",
       ParseXsltStatus},
      {"q2.xslt",
       "# Example 4.3 (query Q2)\n"
       "template root { result { b; apply; b; apply; b; apply } }\n"
       "template a    { a }\n",
       ParseXsltStatus},
      {"rename.xslt", "template a { b { apply } }\ntemplate c { d }\n",
       ParseXsltStatus},
      {"unranked.term", "a(b(c,d),b(d),e)", ParseUnrankedTermStatus},
      {"binary.term", "f(g(a,b),f(a,g(b,b)))", ParseBinaryTermStatus},
      {"pattern", "[a.b]([c.(a|b)],[c*.a])", ParsePatternStatus},
      {"regex", "(a.b*|c)*.(d|e.f)+", ParseRegexStatus},
  };
  constexpr int kMutantsPerSeed = 2000;
  constexpr auto kBound = std::chrono::milliseconds(500);
  for (size_t k = 0; k < seeds.size(); ++k) {
    const Seed& seed = seeds[k];
    SCOPED_TRACE(seed.name);
    ASSERT_TRUE(seed.parse(seed.text).ok()) << "seed must parse";
    Rng rng(k + 1);
    int refused = 0;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant = Mutate(seed.text, rng);
      const auto start = std::chrono::steady_clock::now();
      const Status status = seed.parse(mutant);
      const auto took = std::chrono::steady_clock::now() - start;
      refused += status.ok() ? 0 : 1;
      EXPECT_NE(status.code(), StatusCode::kInternal)
          << status << " on mutant " << i << ": " << mutant;
      EXPECT_LT(took, kBound) << "mutant " << i << ": " << mutant;
    }
    // The mutants reach the error paths, not only the accepting ones.
    EXPECT_GT(refused, kMutantsPerSeed / 4);
  }
}

TEST(ParserFuzz, PathologicalRegexesStayPolynomial) {
  // Nested stars and unions must compile without blowup at these sizes.
  Alphabet sigma;
  std::string nasty = "a";
  for (int i = 0; i < 12; ++i) nasty = "(" + nasty + "|b)*";
  auto r = ParseRegex(nasty, &sigma);
  ASSERT_TRUE(r.ok());
  Dfa dfa = CompileRegexToDfa(*r, static_cast<uint32_t>(sigma.size()));
  EXPECT_LE(dfa.num_states(), 8u);  // minimal DFA is tiny
}

}  // namespace
}  // namespace pebbletc
