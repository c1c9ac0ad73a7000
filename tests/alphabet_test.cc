// Tests for src/alphabet: interning, ranked alphabets, the Σ′ encoding.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/alphabet/alphabet.h"

namespace pebbletc {
namespace {

TEST(AlphabetTest, InternAssignsDenseIds) {
  Alphabet sigma;
  EXPECT_EQ(sigma.Intern("a"), 0u);
  EXPECT_EQ(sigma.Intern("b"), 1u);
  EXPECT_EQ(sigma.Intern("a"), 0u);  // idempotent
  EXPECT_EQ(sigma.size(), 2u);
  EXPECT_EQ(sigma.Name(0), "a");
  EXPECT_EQ(sigma.Name(1), "b");
}

TEST(AlphabetTest, FindMissingReturnsSentinel) {
  Alphabet sigma;
  sigma.Intern("a");
  EXPECT_EQ(sigma.Find("a"), 0u);
  EXPECT_EQ(sigma.Find("zz"), kNoSymbol);
  EXPECT_FALSE(sigma.Contains(kNoSymbol));
}

TEST(AlphabetTest, FindsLongNameThroughAStringViewSlice) {
  // 24 characters: past the small-string buffer, so a lookup that built a
  // temporary std::string would allocate.
  const std::string name = "purchase-order-line-item";
  ASSERT_EQ(name.size(), 24u);
  Alphabet sigma;
  sigma.Intern("a");
  const SymbolId id = sigma.Intern(name);
  const std::string buffer = "<" + name + "><" + name + "-x/></" + name + ">";
  const std::string_view slice = std::string_view(buffer).substr(1, 24);
  EXPECT_EQ(sigma.Find(slice), id);
  EXPECT_EQ(sigma.Intern(slice), id);
  EXPECT_EQ(sigma.Find(std::string_view(buffer).substr(1, 23)), kNoSymbol);
  EXPECT_EQ(sigma.Find(std::string_view(buffer).substr(27, 26)), kNoSymbol);

  RankedAlphabet ranked;
  const SymbolId rid = std::move(ranked.AddBinary(name)).ValueOrDie();
  EXPECT_EQ(ranked.Find(slice), rid);
  EXPECT_EQ(std::move(ranked.AddBinary(slice)).ValueOrDie(), rid);
  EXPECT_FALSE(ranked.AddLeaf(slice).ok()) << "rank conflict still detected";
}

TEST(RankedAlphabetTest, PartitionsByRank) {
  RankedAlphabet sigma;
  SymbolId a0 = std::move(sigma.AddLeaf("a0")).ValueOrDie();
  SymbolId a2 = std::move(sigma.AddBinary("a2")).ValueOrDie();
  SymbolId b2 = std::move(sigma.AddBinary("b2")).ValueOrDie();
  EXPECT_EQ(sigma.Rank(a0), 0);
  EXPECT_EQ(sigma.Rank(a2), 2);
  EXPECT_TRUE(sigma.IsLeaf(a0));
  EXPECT_TRUE(sigma.IsBinary(b2));
  EXPECT_EQ(sigma.LeafSymbols().size(), 1u);
  EXPECT_EQ(sigma.BinarySymbols().size(), 2u);
  EXPECT_EQ(sigma.size(), 3u);
}

TEST(RankedAlphabetTest, ReAddingSameRankIsIdempotent) {
  RankedAlphabet sigma;
  SymbolId first = std::move(sigma.AddLeaf("x")).ValueOrDie();
  SymbolId second = std::move(sigma.AddLeaf("x")).ValueOrDie();
  EXPECT_EQ(first, second);
  EXPECT_EQ(sigma.size(), 1u);
}

TEST(RankedAlphabetTest, RankConflictFails) {
  RankedAlphabet sigma;
  ASSERT_TRUE(sigma.AddLeaf("x").ok());
  auto conflict = sigma.AddBinary("x");
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
}

TEST(RankedAlphabetTest, EmptyNameFails) {
  RankedAlphabet sigma;
  EXPECT_FALSE(sigma.AddLeaf("").ok());
  EXPECT_FALSE(sigma.AddBinary("").ok());
}

TEST(EncodedAlphabetTest, BuildsSigmaPrime) {
  Alphabet tags;
  SymbolId a = tags.Intern("a");
  SymbolId b = tags.Intern("b");
  auto enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
  // Every tag is a binary symbol; plus cons (binary) and nil (leaf).
  EXPECT_EQ(enc.ranked.size(), 4u);
  EXPECT_TRUE(enc.ranked.IsBinary(enc.tag_symbol[a]));
  EXPECT_TRUE(enc.ranked.IsBinary(enc.tag_symbol[b]));
  EXPECT_TRUE(enc.ranked.IsBinary(enc.cons));
  EXPECT_TRUE(enc.ranked.IsLeaf(enc.nil));
  EXPECT_EQ(enc.ranked.Name(enc.cons), "-");
  EXPECT_EQ(enc.ranked.Name(enc.nil), "|");
  EXPECT_EQ(enc.TagOf(enc.tag_symbol[b]), b);
  EXPECT_EQ(enc.TagOf(enc.cons), kNoSymbol);
  EXPECT_EQ(enc.TagOf(enc.nil), kNoSymbol);
}

TEST(EncodedAlphabetTest, RejectsCollidingTagNames) {
  Alphabet tags;
  tags.Intern("-");
  auto enc = MakeEncodedAlphabet(tags);
  EXPECT_FALSE(enc.ok());
}

}  // namespace
}  // namespace pebbletc
