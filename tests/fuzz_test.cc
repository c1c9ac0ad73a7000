// Robustness ("fuzz-lite") tests: every text parser in the library must
// return a clean Status on arbitrary input — never crash, never hang — and
// parsers must accept what the printers produce (round-trip closure under
// random valid structures is covered in the per-module suites; here we
// hammer the error paths).

#include <gtest/gtest.h>

#include <string>
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
