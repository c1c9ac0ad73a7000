// Tests for the compiled-membership validation fast path
// (docs/VALIDATION.md): DBTA-table agreement with NbtaAccepts on random
// instances, the budget-exhaustion fallback ladder, fast-hit / fallback
// counter accounting, memoization of the compiled table, interrupt
// propagation, streaming XML validation against the tree-materializing
// route, and the serve-layer ValidationPlan (per-document verdicts, batch
// vs sequential equality, cancellation honesty).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/alphabet/alphabet.h"
#include "src/check/diffcheck.h"
#include "src/common/rng.h"
#include "src/serve/validate.h"
#include "src/ta/membership.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_cache.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"
#include "src/ta/serialize.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/xml/xml.h"

namespace pebbletc {
namespace {

Nbta SampleNbta(const RankedAlphabet& sigma, uint64_t seed) {
  Rng rng(seed);
  RandomNbtaOptions o;
  o.num_states = 1 + static_cast<uint32_t>(rng.NextBelow(6));
  o.rule_density = 0.4;
  o.leaf_density = 0.6;
  o.accepting_density = 0.4;
  return RandomNbta(sigma, rng, o);
}

struct DocAlphabet {
  Alphabet tags;
  EncodedAlphabet enc;
};

DocAlphabet MakeDocAlphabet() {
  DocAlphabet d;
  d.tags.Intern("p");
  d.tags.Intern("q");
  d.tags.Intern("r");
  d.enc = std::move(MakeEncodedAlphabet(d.tags)).ValueOrDie();
  return d;
}

TEST(MembershipEngine, AgreesWithNbtaAcceptsOnRandomInstances) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Nbta a = SampleNbta(sigma, seed);
    Result<MembershipEngine> engine = MembershipEngine::Compile(a, sigma);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_TRUE(engine->fast()) << "small instances always fit the budget";
    NbtaIndex idx(a);
    Rng rng(seed * 977);
    for (int k = 0; k < 40; ++k) {
      const BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(12));
      Result<bool> got = engine->Accepts(t);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, NbtaAccepts(idx, t));
    }
  }
}

TEST(MembershipEngine, FastPathBumpsFastHitCounter) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = SampleNbta(sigma, 7);
  TaOpContext ctx;
  Result<MembershipEngine> engine = MembershipEngine::Compile(a, sigma, &ctx);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->fast());
  Rng rng(42);
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(
        engine->Accepts(RandomBinaryTree(sigma, rng, 4), &ctx).ok());
  }
  EXPECT_EQ(ctx.counters.membership_fast_hits, 5u);
  EXPECT_EQ(ctx.counters.membership_fallbacks, 0u);
}

TEST(MembershipEngine, BudgetExhaustionDegradesToFallback) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = SampleNbta(sigma, 11);
  TaOpContext ctx;
  ctx.budgets.max_det_states = 1;  // nothing real determinizes in one state
  Result<MembershipEngine> engine = MembershipEngine::Compile(a, sigma, &ctx);
  ASSERT_TRUE(engine.ok()) << "budget blowup degrades, it does not fail";
  EXPECT_FALSE(engine->fast());
  EXPECT_EQ(engine->table(), nullptr);
  NbtaIndex idx(a);
  Rng rng(43);
  for (int k = 0; k < 10; ++k) {
    const BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(10));
    Result<bool> got = engine->Accepts(t, &ctx);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, NbtaAccepts(idx, t)) << "fallback stays correct";
  }
  EXPECT_EQ(ctx.counters.membership_fallbacks, 10u);
  EXPECT_EQ(ctx.counters.membership_fast_hits, 0u);
}

TEST(MembershipEngine, EmptyTreeIsInvalidArgument) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  Result<MembershipEngine> engine =
      MembershipEngine::Compile(SampleNbta(sigma, 3), sigma);
  ASSERT_TRUE(engine.ok());
  Result<bool> got = engine->Accepts(BinaryTree{});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(MembershipEngine, CompiledTableIsMemoizedPerArtifact) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = SampleNbta(sigma, 5);
  TaOpCache cache(1 << 20);
  TaOpContext ctx;
  ctx.budgets.memo = TaMemoMode::kInMemory;
  Result<MembershipEngine> first =
      MembershipEngine::Compile(a, sigma, &ctx, &cache);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->fast());
  const size_t misses_after_first = ctx.counters.memo_misses;
  EXPECT_GE(misses_after_first, 1u);
  Result<MembershipEngine> second =
      MembershipEngine::Compile(a, sigma, &ctx, &cache);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(ctx.counters.memo_hits, 1u) << "second compile is a warm fetch";
  EXPECT_EQ(ctx.counters.memo_misses, misses_after_first);
}

TEST(MembershipEngine, FaultInterruptPropagates) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  Result<MembershipEngine> engine =
      MembershipEngine::Compile(SampleNbta(sigma, 9), sigma);
  ASSERT_TRUE(engine.ok());
  TaFaultInjector fault;
  fault.trip_at = 0;
  fault.code = StatusCode::kDeadlineExceeded;
  TaOpContext ctx;
  ctx.fault = &fault;
  Rng rng(17);
  Result<bool> got =
      engine->Accepts(RandomBinaryTree(sigma, rng, 6), &ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(fault.tripped);
}

TEST(MembershipEngine, RepeatedQueriesOnOneEngineAgreeWithNbtaAccepts) {
  const RankedAlphabet sigma = DiffcheckAlphabet(false);
  const Nbta a = SampleNbta(sigma, 13);
  Result<MembershipEngine> engine = MembershipEngine::Compile(a, sigma);
  ASSERT_TRUE(engine.ok());
  NbtaIndex idx(a);
  Rng rng(99);
  for (int k = 0; k < 50; ++k) {
    const BinaryTree t = RandomBinaryTree(sigma, rng, rng.NextBelow(20));
    Result<bool> got = engine->Accepts(t);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, NbtaAccepts(idx, t));
  }
}

TEST(StreamingValidateXml, AgreesWithTreeMaterializingRoute) {
  const DocAlphabet d = MakeDocAlphabet();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Nbta m = SampleNbta(d.enc.ranked, seed * 31);
    Result<MembershipEngine> engine =
        MembershipEngine::Compile(m, d.enc.ranked);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->fast());
    NbtaIndex idx(m);
    Rng rng(seed);
    for (int k = 0; k < 20; ++k) {
      RandomUnrankedOptions uo;
      uo.target_size = 1 + rng.NextBelow(25);
      uo.max_children = 4;
      const UnrankedTree u = RandomUnrankedTree(d.tags, rng, uo);
      const std::string xml = XmlString(u, d.tags);
      Result<StreamVerdict> stream =
          StreamingValidateXml(xml, *engine->table(), d.enc, d.tags);
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      EXPECT_TRUE(stream->unknown_tag.empty());
      Result<BinaryTree> encoded = EncodeTree(u, d.enc);
      ASSERT_TRUE(encoded.ok());
      EXPECT_EQ(stream->accepted, NbtaAccepts(idx, *encoded))
          << "document: " << xml;
    }
  }
}

TEST(StreamingValidateXml, ReportsFirstUnknownTagAndStillDrains) {
  const DocAlphabet d = MakeDocAlphabet();
  const Nbta m = SampleNbta(d.enc.ranked, 21);
  Result<MembershipEngine> engine = MembershipEngine::Compile(m, d.enc.ranked);
  ASSERT_TRUE(engine.ok());
  Result<StreamVerdict> v = StreamingValidateXml(
      "<p><zz/><yy/></p>", *engine->table(), d.enc, d.tags);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->unknown_tag, "zz") << "first unknown tag in document order";
  EXPECT_FALSE(v->accepted);
}

TEST(StreamingValidateXml, ParseErrorWinsOverUnknownTag) {
  const DocAlphabet d = MakeDocAlphabet();
  const Nbta m = SampleNbta(d.enc.ranked, 23);
  Result<MembershipEngine> engine = MembershipEngine::Compile(m, d.enc.ranked);
  ASSERT_TRUE(engine.ok());
  // The unknown tag shows up before the mismatched close, but a parse error
  // must win — the document is not well-formed at all.
  Result<StreamVerdict> v = StreamingValidateXml(
      "<p><zz></p>", *engine->table(), d.enc, d.tags);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

TEST(StreamingValidateXml, UnterminatedCommentAfterRootIsParseError) {
  const DocAlphabet d = MakeDocAlphabet();
  const Nbta m = SampleNbta(d.enc.ranked, 25);
  Result<MembershipEngine> engine = MembershipEngine::Compile(m, d.enc.ranked);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->fast());
  Result<StreamVerdict> v = StreamingValidateXml(
      "<p/><!-- unterminated", *engine->table(), d.enc, d.tags);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
  EXPECT_NE(v.status().message().find("unterminated comment at offset 4"),
            std::string::npos)
      << v.status().ToString();
}

serve::ValidationPlan SamplePlan(const DocAlphabet& d, uint64_t seed) {
  SchemaArtifact schema{d.enc.ranked, SampleNbta(d.enc.ranked, seed)};
  return std::move(serve::CompileSchemaPlan(schema)).ValueOrDie();
}

TEST(ValidateDoc, MalformedDocumentIsParseErrorVerdict) {
  const DocAlphabet d = MakeDocAlphabet();
  const serve::ValidationPlan plan = SamplePlan(d, 1);
  serve::DocVerdict v = serve::ValidateDoc(plan, "not xml");
  EXPECT_EQ(v.code, StatusCode::kInvalidArgument);
  EXPECT_FALSE(v.valid);
  EXPECT_EQ(v.diagnostic.rfind("document: ", 0), 0u)
      << "diagnostic: " << v.diagnostic;
}

TEST(ValidateDoc, UnknownTagDiagnosticNamesTheTag) {
  const DocAlphabet d = MakeDocAlphabet();
  const serve::ValidationPlan plan = SamplePlan(d, 2);
  serve::DocVerdict v = serve::ValidateDoc(plan, "<p><zz/></p>");
  EXPECT_EQ(v.code, StatusCode::kOk) << "invalid, not an error";
  EXPECT_FALSE(v.valid);
  EXPECT_NE(v.diagnostic.find("'zz'"), std::string::npos)
      << "diagnostic: " << v.diagnostic;
}

TEST(ValidateBatch, MatchesSequentialValidation) {
  const DocAlphabet d = MakeDocAlphabet();
  const serve::ValidationPlan plan = SamplePlan(d, 3);
  Rng rng(77);
  std::vector<std::string> docs;
  for (int k = 0; k < 12; ++k) {
    RandomUnrankedOptions uo;
    uo.target_size = 1 + rng.NextBelow(15);
    uo.max_children = 4;
    docs.push_back(XmlString(RandomUnrankedTree(d.tags, rng, uo), d.tags));
  }
  docs.push_back("not xml");
  docs.push_back("<p><zz/></p>");
  std::vector<serve::DocVerdict> seq;
  for (const std::string& doc : docs) seq.push_back(serve::ValidateDoc(plan, doc));
  TaOpContext ctx;
  serve::BatchResult batch = serve::ValidateBatch(plan, docs, &ctx);
  ASSERT_EQ(batch.verdicts.size(), seq.size());
  for (size_t k = 0; k < seq.size(); ++k) {
    EXPECT_EQ(batch.verdicts[k].code, seq[k].code) << "doc " << k;
    EXPECT_EQ(batch.verdicts[k].valid, seq[k].valid) << "doc " << k;
    EXPECT_EQ(batch.verdicts[k].diagnostic, seq[k].diagnostic) << "doc " << k;
  }
  // Every well-formed document over the schema alphabet was answered by the
  // compiled table (the malformed and unknown-tag documents never reach a
  // table verdict).
  EXPECT_EQ(batch.fast_path_docs, docs.size() - 2);
  EXPECT_EQ(batch.fallback_docs, 0u);
}

TEST(ValidateBatch, CancelledContextReportsCancelledPerDocument) {
  const DocAlphabet d = MakeDocAlphabet();
  const serve::ValidationPlan plan = SamplePlan(d, 4);
  std::vector<std::string> docs(8, "<p/>");
  std::atomic<bool> cancel{true};
  TaOpContext ctx;
  ctx.budgets.cancel = &cancel;
  serve::BatchResult batch = serve::ValidateBatch(plan, docs, &ctx);
  ASSERT_EQ(batch.verdicts.size(), docs.size());
  for (size_t k = 0; k < batch.verdicts.size(); ++k) {
    EXPECT_EQ(batch.verdicts[k].code, StatusCode::kCancelled) << "doc " << k;
    EXPECT_FALSE(batch.verdicts[k].valid);
  }
  EXPECT_EQ(batch.fast_path_docs, 0u);
}

}  // namespace
}  // namespace pebbletc
