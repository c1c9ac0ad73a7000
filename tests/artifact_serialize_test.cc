// Tests for the self-contained artifact formats in src/ta/serialize.{h,cc}:
// ranked alphabets, transducer artifacts, DTD artifacts, schema artifacts,
// and the versioned "PTAR" container. These formats sit on the serving trust
// boundary (docs/SERVING.md), so beyond bit-exact round trips the suite
// drives corrupted, truncated, and non-canonical byte streams through every
// deserializer and asserts a structured kParseError — never a crash and
// never a structurally invalid object.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <string_view>

#include "src/alphabet/alphabet.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/dtd/dtd.h"
#include "src/pt/paper_machines.h"
#include "src/pt/transducer.h"
#include "src/ta/nbta.h"
#include "src/ta/serialize.h"
#include "src/tree/term.h"
#include "src/tree/unranked_tree.h"

namespace pebbletc {
namespace {

RankedAlphabet SampleAlphabet() {
  RankedAlphabet sigma;
  (void)*sigma.AddBinary("a2");
  (void)*sigma.AddBinary("b2");
  (void)*sigma.AddLeaf("a0");
  (void)*sigma.AddLeaf("b0");
  return sigma;
}

std::string AlphabetBytesOf(const RankedAlphabet& sigma) {
  std::string bytes;
  SerializeRankedAlphabet(sigma, &bytes);
  return bytes;
}

std::string TransducerBytesOf(const TransducerArtifact& artifact) {
  std::string bytes;
  SerializeTransducerArtifact(artifact, &bytes);
  return bytes;
}

std::string DtdBytesOf(const SpecializedDtd& dtd) {
  std::string bytes;
  SerializeDtdArtifact(dtd, &bytes);
  return bytes;
}

std::string SchemaBytesOf(const SchemaArtifact& artifact) {
  std::string bytes;
  SerializeSchemaArtifact(artifact, &bytes);
  return bytes;
}

constexpr char kFigure1Dtd[] = R"(
  a := b*.c.e
  b := ()
  c := d*
  d := ()
  e := ()
)";

// Types decoupled from tags: the two `b` children carry different types.
constexpr char kSpecializedDtd[] = R"(
  a[a] := bc.bd
  bc[b] := c0*
  bd[b] := d0*
  c0[c] := ()
  d0[d] := ()
)";

// A 2-pebble machine exercising every transition kind, guard masks, and
// multi-level state discipline.
TransducerArtifact SampleTransducerArtifact() {
  using M = PebbleTransducer::MoveKind;
  TransducerArtifact artifact;
  artifact.input_alphabet = SampleAlphabet();
  artifact.output_alphabet = SampleAlphabet();
  PebbleTransducer t(2, 4, 4);
  StateId q1 = t.AddState(1);
  StateId p = t.AddState(2);
  StateId check = t.AddState(2);
  t.SetStart(q1);
  t.AddMove({}, q1, M::kPlacePebble, p);
  t.AddMove({.symbol = 0}, p, M::kDownLeft, check);
  t.AddMove({.symbol = 1}, p, M::kStay, check);
  t.AddOutputLeaf({.presence_mask = 1, .presence_value = 1}, check, 2);
  t.AddOutputBinary({.presence_mask = 1, .presence_value = 0}, check, 0,
                    check, check);
  artifact.transducer = std::move(t);
  return artifact;
}

// ---------------------------------------------------------------------------
// Ranked alphabets.
// ---------------------------------------------------------------------------

TEST(ArtifactSerializeTest, AlphabetRoundTripIsBitExact) {
  const RankedAlphabet sigma = SampleAlphabet();
  const std::string bytes = AlphabetBytesOf(sigma);
  Result<RankedAlphabet> back = DeserializeRankedAlphabet(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(AlphabetBytesOf(*back), bytes);
  ASSERT_EQ(back->size(), sigma.size());
  for (SymbolId s = 0; s < sigma.size(); ++s) {
    EXPECT_EQ(back->Name(s), sigma.Name(s));
    EXPECT_EQ(back->Rank(s), sigma.Rank(s));
  }
}

TEST(ArtifactSerializeTest, EmptyAlphabetRoundTrips) {
  RankedAlphabet empty;
  const std::string bytes = AlphabetBytesOf(empty);
  Result<RankedAlphabet> back = DeserializeRankedAlphabet(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
}

TEST(ArtifactSerializeTest, AlphabetRejectsEveryTruncationAndTrailing) {
  const std::string bytes = AlphabetBytesOf(SampleAlphabet());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<RankedAlphabet> r =
        DeserializeRankedAlphabet(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  EXPECT_FALSE(DeserializeRankedAlphabet(bytes + '\0').ok());
}

TEST(ArtifactSerializeTest, AlphabetRejectsBadRankAndDuplicates) {
  std::string bytes = AlphabetBytesOf(SampleAlphabet());
  // Layout: u32 count, then per symbol {u8 rank, u32 len, name}. Symbol 0
  // ("a2", binary) has its rank byte at offset 4.
  std::string bad_rank = bytes;
  bad_rank[4] = 1;  // rank 1 is not a valid tree-symbol rank
  EXPECT_FALSE(DeserializeRankedAlphabet(bad_rank).ok());

  RankedAlphabet dup_source = SampleAlphabet();
  std::string dup = AlphabetBytesOf(dup_source);
  // Rename symbol 1 ("b2", offset 4+1+4+2 = 11 for its rank byte, name at
  // offset 16) to "a2", colliding with symbol 0.
  ASSERT_EQ(dup.substr(16, 2), "b2");
  dup[16] = 'a';
  Result<RankedAlphabet> r = DeserializeRankedAlphabet(dup);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("a2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Transducer artifacts.
// ---------------------------------------------------------------------------

TEST(ArtifactSerializeTest, TransducerRoundTripIsBitExact) {
  const TransducerArtifact artifact = SampleTransducerArtifact();
  const std::string bytes = TransducerBytesOf(artifact);
  Result<TransducerArtifact> back = DeserializeTransducerArtifact(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(TransducerBytesOf(*back), bytes);
  EXPECT_EQ(back->transducer.num_states(), artifact.transducer.num_states());
  EXPECT_EQ(back->transducer.transitions().size(),
            artifact.transducer.transitions().size());
  EXPECT_EQ(back->transducer.max_pebbles(), 2u);
  EXPECT_TRUE(back->transducer
                  .Validate(back->input_alphabet, back->output_alphabet)
                  .ok());
}

TEST(ArtifactSerializeTest, CopyTransducerRoundTrips) {
  TransducerArtifact artifact;
  artifact.input_alphabet = SampleAlphabet();
  artifact.output_alphabet = SampleAlphabet();
  artifact.transducer = MakeCopyTransducer(artifact.input_alphabet);
  const std::string bytes = TransducerBytesOf(artifact);
  Result<TransducerArtifact> back = DeserializeTransducerArtifact(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(TransducerBytesOf(*back), bytes);
}

TEST(ArtifactSerializeTest, TransducerRejectsEveryTruncation) {
  const std::string bytes = TransducerBytesOf(SampleTransducerArtifact());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<TransducerArtifact> r =
        DeserializeTransducerArtifact(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  EXPECT_FALSE(DeserializeTransducerArtifact(bytes + '\0').ok());
}

TEST(ArtifactSerializeTest, TransducerRejectsBadHeaderFields) {
  const std::string bytes = TransducerBytesOf(SampleTransducerArtifact());
  // max_pebbles is the first u32.
  std::string zero_pebbles = bytes;
  zero_pebbles[0] = 0;
  EXPECT_FALSE(DeserializeTransducerArtifact(zero_pebbles).ok());
  std::string huge_pebbles = bytes;
  huge_pebbles[0] = 31;
  EXPECT_FALSE(DeserializeTransducerArtifact(huge_pebbles).ok());
}

TEST(ArtifactSerializeTest, TransducerRejectsNonCanonicalPadding) {
  // A leaf-output transition must carry zeroed move/to/branch fields; a
  // hand-crafted stream that sets them is rejected even though the mutators
  // would have silently canonicalized the same values.
  using M = PebbleTransducer::MoveKind;
  TransducerArtifact artifact;
  artifact.input_alphabet = SampleAlphabet();
  artifact.output_alphabet = SampleAlphabet();
  PebbleTransducer t(1, 4, 4);
  StateId q = t.AddState(1);
  t.SetStart(q);
  t.AddMove({}, q, M::kStay, q);
  t.AddOutputLeaf({}, q, 2);
  artifact.transducer = std::move(t);
  const std::string bytes = TransducerBytesOf(artifact);

  // Transition records are 34 bytes ({u8 kind, u32 guard×3, u32 from,
  // u8 move, u32 to, u32 out×3}); the leaf output is the last record, and
  // its `move` byte sits 17 bytes in.
  const size_t record = bytes.size() - 34;
  ASSERT_EQ(static_cast<unsigned char>(bytes[record]), 1u);  // kOutputLeaf
  std::string dirty = bytes;
  dirty[record + 17] = 2;  // move = kDownLeft on an output transition
  Result<TransducerArtifact> r = DeserializeTransducerArtifact(dirty);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("canonical"), std::string::npos);
}

TEST(ArtifactSerializeTest, TransducerRejectsOutOfRangeStates) {
  const std::string bytes = TransducerBytesOf(SampleTransducerArtifact());
  // Flip the `from` field of the final 34-byte transition record (u32 at
  // offset 13, after the kind byte and the three guard words).
  const size_t record = bytes.size() - 34;
  std::string bad = bytes;
  bad[record + 13] = 0x7f;  // from-state far beyond num_states
  EXPECT_FALSE(DeserializeTransducerArtifact(bad).ok());
}

// ---------------------------------------------------------------------------
// DTD artifacts.
// ---------------------------------------------------------------------------

TEST(ArtifactSerializeTest, PlainDtdRoundTripPreservesBehavior) {
  SpecializedDtd dtd = std::move(ParseDtd(kFigure1Dtd)).ValueOrDie();
  const std::string bytes = DtdBytesOf(dtd);
  Result<SpecializedDtd> back = DeserializeDtdArtifact(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(DtdBytesOf(*back), bytes);
  EXPECT_TRUE(back->IsPlain());
  EXPECT_EQ(back->num_types(), dtd.num_types());

  for (const char* term : {"a(b,b,c(d),e)", "a(c,e)", "a(b,c(d),e,e)", "b"}) {
    auto original =
        std::move(ParseUnrankedTerm(term, dtd.mutable_tags())).ValueOrDie();
    auto reloaded =
        std::move(ParseUnrankedTerm(term, back->mutable_tags())).ValueOrDie();
    EXPECT_EQ(*dtd.Accepts(original), *back->Accepts(reloaded)) << term;
  }
}

TEST(ArtifactSerializeTest, SpecializedDtdRoundTripPreservesBehavior) {
  SpecializedDtd dtd =
      std::move(ParseSpecializedDtd(kSpecializedDtd)).ValueOrDie();
  const std::string bytes = DtdBytesOf(dtd);
  Result<SpecializedDtd> back = DeserializeDtdArtifact(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(DtdBytesOf(*back), bytes);
  EXPECT_FALSE(back->IsPlain());

  for (const char* term : {"a(b(c),b(d))", "a(b(d),b(c))", "a(b(c),b(c))"}) {
    auto original =
        std::move(ParseUnrankedTerm(term, dtd.mutable_tags())).ValueOrDie();
    auto reloaded =
        std::move(ParseUnrankedTerm(term, back->mutable_tags())).ValueOrDie();
    EXPECT_EQ(*dtd.Accepts(original), *back->Accepts(reloaded)) << term;
  }
}

TEST(ArtifactSerializeTest, LongContentModelRoundTripsPastTheParserDepthCap) {
  // A sequence of 300 children nests one '(' level, but its concat chain is
  // an AST 300 deep, past the parser's '(' cap of 256. The artifact of a DTD
  // the parser accepts must read back.
  std::string seq, children;
  for (int i = 0; i < 300; ++i) {
    seq += i ? ".c" : "c";
    children += i ? ",c" : "c";
  }
  SpecializedDtd dtd =
      std::move(ParseDtd("r := (" + seq + ")\nc := ()\n")).ValueOrDie();
  const std::string bytes = DtdBytesOf(dtd);
  Result<SpecializedDtd> back = DeserializeDtdArtifact(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(DtdBytesOf(*back), bytes);
  auto full = std::move(ParseUnrankedTerm("r(" + children + ")",
                                          back->mutable_tags()))
                  .ValueOrDie();
  EXPECT_TRUE(*back->Accepts(full));
  auto short_by_one = std::move(ParseUnrankedTerm(
                                    "r(" + children.substr(2) + ")",
                                    back->mutable_tags()))
                          .ValueOrDie();
  EXPECT_FALSE(*back->Accepts(short_by_one));
}

// r := (c0|…|c299)* over 300 empty types: the subset construction reaches
// 302 states of about 900 NFA states each, which took seconds while every
// symbol rescanned the subset and re-closed its successor.
TEST(ArtifactSerializeTest, WideUnionDtdCompilesAndRoundTripsInUnderASecond) {
  constexpr int kTypes = 300;
  std::string text = "r := (";
  for (int i = 0; i < kTypes; ++i) {
    text += (i ? "|c" : "c") + std::to_string(i);
  }
  text += ")*\n";
  for (int i = 0; i < kTypes; ++i) text += "c" + std::to_string(i) + " := ()\n";

  const auto start = std::chrono::steady_clock::now();
  SpecializedDtd dtd = std::move(ParseDtd(text)).ValueOrDie();
  const std::string bytes = DtdBytesOf(dtd);
  Result<SpecializedDtd> back = DeserializeDtdArtifact(bytes);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(DtdBytesOf(*back), bytes);
  auto doc = std::move(ParseUnrankedTerm("r(c0,c299,c7,c0)",
                                         back->mutable_tags()))
                 .ValueOrDie();
  EXPECT_TRUE(*back->Accepts(doc));
  auto nested = std::move(ParseUnrankedTerm("r(r)", back->mutable_tags()))
                    .ValueOrDie();
  EXPECT_FALSE(*back->Accepts(nested));
}

// The content-model caps hold on the artifact path, where a refusal is
// kParseError: a content model whose DFA passes kMaxContentModelStates and
// a DTD whose dense content tables pass kMaxContentTableEntries. Neither was
// built by ParseDtd, which applies the same caps.
TEST(ArtifactSerializeTest, DtdPastTheContentModelCapsIsAParseError) {
  // r := (a|b)*.a.(a|b)^20 needs 2^21 subset states in a 114-byte DTD.
  SpecializedDtd exponential;
  const RegexPtr ab = Regex::Union(Regex::Symbol(1), Regex::Symbol(2));
  RegexPtr r = Regex::Concat(Regex::Star(ab), Regex::Symbol(1));
  for (int i = 0; i < 20; ++i) r = Regex::Concat(r, ab);
  ASSERT_TRUE(exponential.AddType("r", "r", r).ok());
  ASSERT_TRUE(exponential.AddType("a", "a", Regex::Epsilon()).ok());
  ASSERT_TRUE(exponential.AddType("b", "b", Regex::Epsilon()).ok());
  ASSERT_TRUE(exponential.AddRootType(0).ok());
  Result<SpecializedDtd> refused =
      DeserializeDtdArtifact(DtdBytesOf(exponential));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kParseError);
  EXPECT_NE(refused.status().message().find("DFA states"), std::string::npos)
      << refused.status().message();

  // n empty types cost 2n² dense table entries: 1,000 load, 20,000 do not.
  auto empty_types = [](int n) {
    SpecializedDtd dtd;
    for (int i = 0; i < n; ++i) {
      const std::string name = "c" + std::to_string(i);
      EXPECT_TRUE(dtd.AddType(name, name, Regex::Epsilon()).ok());
    }
    EXPECT_TRUE(dtd.AddRootType(0).ok());
    return dtd;
  };
  EXPECT_TRUE(DeserializeDtdArtifact(DtdBytesOf(empty_types(1000))).ok());
  refused = DeserializeDtdArtifact(DtdBytesOf(empty_types(20000)));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kParseError);
  EXPECT_NE(refused.status().message().find("table entries"),
            std::string::npos)
      << refused.status().message();
}

TEST(ArtifactSerializeTest, DtdRejectsEveryTruncation) {
  SpecializedDtd dtd =
      std::move(ParseSpecializedDtd(kSpecializedDtd)).ValueOrDie();
  const std::string bytes = DtdBytesOf(dtd);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<SpecializedDtd> r =
        DeserializeDtdArtifact(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  EXPECT_FALSE(DeserializeDtdArtifact(bytes + '\0').ok());
}

TEST(ArtifactSerializeTest, DtdRejectsMalformedRegexStreams) {
  // Hand-build the smallest well-formed prefix: one tag "a", one type "a".
  auto put_u32 = [](uint32_t v, std::string* out) {
    for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
  };
  auto put_str = [&](std::string_view s, std::string* out) {
    put_u32(static_cast<uint32_t>(s.size()), out);
    out->append(s);
  };
  auto header = [&]() {
    std::string b;
    put_u32(1, &b);       // one tag
    put_str("a", &b);
    put_u32(1, &b);       // one type
    put_str("a", &b);
    put_u32(0, &b);       // tag id
    return b;
  };

  {
    std::string b = header();
    put_u32(0, &b);  // regex with zero nodes
    EXPECT_FALSE(DeserializeDtdArtifact(b).ok());
  }
  {
    std::string b = header();
    put_u32(1, &b);
    b.push_back(5);  // star with an empty stack
    EXPECT_FALSE(DeserializeDtdArtifact(b).ok());
  }
  {
    std::string b = header();
    put_u32(1, &b);
    b.push_back(3);  // concat with an empty stack
    EXPECT_FALSE(DeserializeDtdArtifact(b).ok());
  }
  {
    std::string b = header();
    put_u32(2, &b);
    b.push_back(1);  // epsilon
    b.push_back(1);  // second root left on the stack
    EXPECT_FALSE(DeserializeDtdArtifact(b).ok());
  }
  {
    std::string b = header();
    put_u32(1, &b);
    b.push_back(2);      // symbol...
    put_u32(7, &b);      // ...out of the 1-type range
    EXPECT_FALSE(DeserializeDtdArtifact(b).ok());
  }
  {
    std::string b = header();
    put_u32(1, &b);
    b.push_back(9);  // unknown node kind
    EXPECT_FALSE(DeserializeDtdArtifact(b).ok());
  }
  // A chain a.a.….a rebuilds left-deep; kMaxRegexAstDepth levels load and
  // one more is refused.
  for (size_t terms : {kMaxRegexAstDepth, kMaxRegexAstDepth + 1}) {
    std::string b = header();
    put_u32(static_cast<uint32_t>(2 * terms - 1), &b);
    for (size_t i = 0; i < terms; ++i) {
      b.push_back(2);  // symbol 0
      put_u32(0, &b);
      if (i > 0) b.push_back(3);  // concat
    }
    put_u32(1, &b);  // one root type: type 0
    put_u32(0, &b);
    Result<SpecializedDtd> chain = DeserializeDtdArtifact(b);
    EXPECT_EQ(chain.ok(), terms == kMaxRegexAstDepth)
        << terms << " terms: " << chain.status().message();
  }
}

TEST(ArtifactSerializeTest, DtdRejectsOutOfRangeReferences) {
  SpecializedDtd dtd = std::move(ParseDtd(kFigure1Dtd)).ValueOrDie();
  const std::string bytes = DtdBytesOf(dtd);
  // Tag table: u32 count=5, then 5×{u32 len=1, name}. The first type's tag-id
  // u32 sits after the type-name ("a") that follows the u32 type count.
  const size_t tag_table = 4 + 5 * (4 + 1);
  const size_t first_tag_id = tag_table + 4 + (4 + 1);
  std::string bad = bytes;
  bad[first_tag_id] = 0x7f;
  EXPECT_FALSE(DeserializeDtdArtifact(bad).ok());
}

// ---------------------------------------------------------------------------
// Schema artifacts.
// ---------------------------------------------------------------------------

SchemaArtifact SampleSchemaArtifact() {
  SpecializedDtd dtd = std::move(ParseDtd(kFigure1Dtd)).ValueOrDie();
  EncodedAlphabet enc = std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
  SchemaArtifact artifact;
  artifact.automaton = std::move(CompileDtdToNbta(dtd, enc)).ValueOrDie();
  artifact.alphabet = std::move(enc.ranked);
  return artifact;
}

TEST(ArtifactSerializeTest, SchemaRoundTripIsBitExact) {
  const SchemaArtifact artifact = SampleSchemaArtifact();
  const std::string bytes = SchemaBytesOf(artifact);
  Result<SchemaArtifact> back = DeserializeSchemaArtifact(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(SchemaBytesOf(*back), bytes);
  EXPECT_EQ(back->automaton.num_states, artifact.automaton.num_states);
  EXPECT_TRUE(back->automaton.Validate(back->alphabet).ok());
}

TEST(ArtifactSerializeTest, SchemaRejectsEveryTruncation) {
  const std::string bytes = SchemaBytesOf(SampleSchemaArtifact());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        DeserializeSchemaArtifact(std::string_view(bytes).substr(0, cut)).ok())
        << "prefix of " << cut << " bytes parsed";
  }
  EXPECT_FALSE(DeserializeSchemaArtifact(bytes + '\0').ok());
}

// A schema of `states` states over `symbols` leaf symbols; state 0 accepts
// the first leaf.
SchemaArtifact WideSchema(uint32_t symbols, uint32_t states) {
  SchemaArtifact artifact;
  for (uint32_t i = 0; i < symbols; ++i) {
    EXPECT_TRUE(artifact.alphabet.AddLeaf("l" + std::to_string(i)).ok());
  }
  artifact.automaton.num_symbols = symbols;
  for (uint32_t q = 0; q < states; ++q) (void)artifact.automaton.AddState();
  artifact.automaton.accepting[0] = true;
  artifact.automaton.AddLeafRule(0, 0);
  return artifact;
}

TEST(ArtifactSerializeTest, SchemaWidthIsCapped) {
  const auto load = [](uint32_t symbols, uint32_t states) {
    return DeserializeSchemaArtifact(
        SchemaBytesOf(WideSchema(symbols, states)));
  };
  Result<SchemaArtifact> at_cap = load(1, kMaxSchemaStates);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().message();
  EXPECT_EQ(at_cap->automaton.num_states, kMaxSchemaStates);
  Result<SchemaArtifact> over = load(1, kMaxSchemaStates + 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);

  // Symbols × states, the size of the NbtaIndex row offsets.
  constexpr uint32_t kSymbols = 1024;
  constexpr auto kStates =
      static_cast<uint32_t>(kMaxSchemaIndexEntries / kSymbols);
  EXPECT_TRUE(load(kSymbols, kStates).ok());
  over = load(kSymbols, kStates + 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// The versioned container.
// ---------------------------------------------------------------------------

TEST(ArtifactSerializeTest, ContainerRoundTrip) {
  const std::string payload = DtdBytesOf(
      std::move(ParseDtd(kFigure1Dtd)).ValueOrDie());
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kDtd, payload, &wrapped);
  Result<TaArtifactView> view = UnwrapTaArtifact(wrapped);
  ASSERT_TRUE(view.ok()) << view.status().message();
  EXPECT_EQ(view->kind, TaArtifactKind::kDtd);
  EXPECT_EQ(view->payload, payload);
  EXPECT_TRUE(DeserializeDtdArtifact(view->payload).ok());
}

TEST(ArtifactSerializeTest, ContainerRejectsHeaderTampering) {
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kSchema, "payload-bytes", &wrapped);

  std::string bad_magic = wrapped;
  bad_magic[0] = 'X';
  EXPECT_FALSE(UnwrapTaArtifact(bad_magic).ok());

  std::string bad_version = wrapped;
  bad_version[4] = 99;
  EXPECT_FALSE(UnwrapTaArtifact(bad_version).ok());

  std::string bad_kind = wrapped;
  bad_kind[5] = 17;
  EXPECT_FALSE(UnwrapTaArtifact(bad_kind).ok());

  std::string bad_checksum = wrapped;
  bad_checksum[6] ^= 0x01;
  EXPECT_FALSE(UnwrapTaArtifact(bad_checksum).ok());

  for (size_t cut = 0; cut < 14; ++cut) {
    EXPECT_FALSE(
        UnwrapTaArtifact(std::string_view(wrapped).substr(0, cut)).ok());
  }
}

// Every single-byte corruption of a wrapped artifact is caught somewhere:
// header flips by magic/version/kind validation, payload flips by the
// checksum, checksum flips by the re-computation. A flip that survives
// unwrapping may only change the *kind* label — never the payload.
TEST(ArtifactSerializeTest, EveryBitFlipIsCaughtOrChangesOnlyTheKind) {
  const std::string payload = TransducerBytesOf(SampleTransducerArtifact());
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kTransducer, payload, &wrapped);
  for (size_t i = 0; i < wrapped.size(); ++i) {
    std::string dirty = wrapped;
    dirty[i] ^= 0x04;
    Result<TaArtifactView> view = UnwrapTaArtifact(dirty);
    if (!view.ok()) continue;
    EXPECT_EQ(i, 5u) << "flip at offset " << i << " survived unwrapping";
    EXPECT_NE(view->kind, TaArtifactKind::kTransducer);
    EXPECT_EQ(view->payload, payload);
  }
}

// ---------------------------------------------------------------------------
// Golden encodings: the exact bytes of each layout in docs/FORMATS.md. A
// drift of a serializer and its deserializer in step would pass every round
// trip above; these pins would not.
// ---------------------------------------------------------------------------

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  return hex;
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// Nine states over SampleAlphabet's symbols, so the accepting bitset ends in
// a padded second byte.
Nbta SampleNbta() {
  Nbta a;
  a.num_symbols = 4;
  for (int q = 0; q < 9; ++q) (void)a.AddState();
  a.accepting[0] = true;
  a.accepting[8] = true;
  a.AddLeafRule(2, 3);
  a.AddLeafRule(3, 8);
  a.AddRule(0, 3, 8, 0);
  a.AddRule(1, 8, 3, 8);
  return a;
}

TEST(ArtifactSerializeTest, PayloadsEncodeToPinnedBytes) {
  std::string nbta;
  SerializeNbta(SampleNbta(), &nbta);
  const std::string dtd =
      DtdBytesOf(std::move(ParseSpecializedDtd(kSpecializedDtd)).ValueOrDie());
  SchemaArtifact schema;
  schema.alphabet = SampleAlphabet();
  schema.automaton = SampleNbta();
  const struct {
    const char* kind;
    std::string bytes;
    std::string_view hex;
    std::function<Status(std::string_view)> decode_and_reencode;
  } cases[] = {
      {"alphabet", AlphabetBytesOf(SampleAlphabet()),
       "0400000002020000006132020200000062320002000000613000020000006230",
       [](std::string_view in) -> Status {
         PEBBLETC_ASSIGN_OR_RETURN(RankedAlphabet a,
                                   DeserializeRankedAlphabet(in));
         return AlphabetBytesOf(a) == in ? Status::OK()
                                         : Status::Internal("re-encoding");
       }},
      {"nbta", nbta,
       "0900000004000000010102000000020000000300000003000000080000000200"
       "0000000000000300000008000000000000000100000008000000030000000800"
       "0000",
       [](std::string_view in) -> Status {
         PEBBLETC_ASSIGN_OR_RETURN(Nbta a, DeserializeNbta(in));
         std::string again;
         SerializeNbta(a, &again);
         return again == in ? Status::OK() : Status::Internal("re-encoding");
       }},
      {"transducer", TransducerBytesOf(SampleTransducerArtifact()),
       "0200000004000000020200000061320202000000623200020000006130000200"
       "0000623004000000020200000061320202000000623200020000006130000200"
       "0000623003000000010000000200000002000000000000000500000000ffffff"
       "ff0000000000000000000000000501000000ffffffff00000000000000000000"
       "0000000000000000000000010000000102000000ffffffff0000000000000000"
       "00010000000000000000000000010000000002000000ffffffff000000000000"
       "000001ffffffff01000000010000000200000000000000000200000000000000"
       "0000000002ffffffff0100000000000000020000000000000000000000000200"
       "000002000000",
       [](std::string_view in) -> Status {
         PEBBLETC_ASSIGN_OR_RETURN(TransducerArtifact t,
                                   DeserializeTransducerArtifact(in));
         return TransducerBytesOf(t) == in ? Status::OK()
                                           : Status::Internal("re-encoding");
       }},
      {"dtd", dtd,
       "0400000001000000610100000062010000006301000000640500000001000000"
       "6100000000030000000201000000020200000003020000006263010000000200"
       "0000020300000005020000006264010000000200000002040000000502000000"
       "6330020000000100000001020000006430030000000100000001010000000000"
       "0000",
       [](std::string_view in) -> Status {
         PEBBLETC_ASSIGN_OR_RETURN(SpecializedDtd d,
                                   DeserializeDtdArtifact(in));
         return DtdBytesOf(d) == in ? Status::OK()
                                    : Status::Internal("re-encoding");
       }},
      {"schema", SchemaBytesOf(schema),
       "0400000002020000006132020200000062320002000000613000020000006230"
       "0900000004000000010102000000020000000300000003000000080000000200"
       "0000000000000300000008000000000000000100000008000000030000000800"
       "0000",
       [](std::string_view in) -> Status {
         PEBBLETC_ASSIGN_OR_RETURN(SchemaArtifact a,
                                   DeserializeSchemaArtifact(in));
         return SchemaBytesOf(a) == in ? Status::OK()
                                       : Status::Internal("re-encoding");
       }},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ToHex(c.bytes), c.hex) << c.kind;
    Status back = c.decode_and_reencode(FromHex(c.hex));
    EXPECT_TRUE(back.ok()) << c.kind << ": " << back;
  }
}

TEST(ArtifactSerializeTest, ContainerEncodesToPinnedBytes) {
  constexpr std::string_view kHex = "505441520104ffc3c6ea87cee92b010278797a";
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kSchema, "\x01\x02xyz", &wrapped);
  EXPECT_EQ(ToHex(wrapped), kHex);
  const std::string bytes = FromHex(kHex);
  Result<TaArtifactView> view = UnwrapTaArtifact(bytes);
  ASSERT_TRUE(view.ok()) << view.status().message();
  EXPECT_EQ(view->kind, TaArtifactKind::kSchema);
  EXPECT_EQ(view->payload, "\x01\x02xyz");
}

// ---------------------------------------------------------------------------
// Seeded payload mutation: hostile bytes past the container checksum.
// ---------------------------------------------------------------------------

// One to three mutations in sequence: a bit flip, a byte overwrite, a
// one-byte insert, a short delete, a truncation, or a u32 overwritten with
// 0xFFFFFFFF (the value that turns a count or length field hostile). The
// stream is the seeded Rng, so every failure replays.
std::string MutatePayload(std::string bytes, Rng& rng) {
  const uint64_t rounds = 1 + rng.NextBelow(3);
  for (uint64_t i = 0; i < rounds; ++i) {
    const uint64_t r = rng.NextU64();
    const size_t pos = bytes.empty() ? 0 : (r >> 8) % bytes.size();
    switch (r % 6) {
      case 0:
        if (!bytes.empty()) {
          bytes[pos] ^= static_cast<char>(1u << ((r >> 5) % 8));
        }
        break;
      case 1:
        if (!bytes.empty()) bytes[pos] = static_cast<char>(r >> 48);
        break;
      case 2:
        bytes.insert(pos, 1, static_cast<char>(r >> 48));
        break;
      case 3:
        if (!bytes.empty()) bytes.erase(pos, 1 + (r >> 40) % 8);
        break;
      case 4:
        bytes.resize(pos);
        break;
      case 5:
        if (bytes.size() >= 4) {
          bytes.replace((r >> 8) % (bytes.size() - 3), 4, 4, '\xff');
        }
        break;
    }
  }
  return bytes;
}

// Every payload decoder a .ptar container can reach, fed 2,000 seeded
// mutants of a valid payload each: every result is a value or kParseError,
// never a crash, another status code or (under ASan/UBSan) a memory error.
TEST(ArtifactSerializeTest, EveryMutatedPayloadParsesOrIsAParseError) {
  std::string nbta;
  SerializeNbta(SampleNbta(), &nbta);
  const std::string dtd =
      DtdBytesOf(std::move(ParseSpecializedDtd(kSpecializedDtd)).ValueOrDie());
  SchemaArtifact schema;
  schema.alphabet = SampleAlphabet();
  schema.automaton = SampleNbta();
  const struct {
    const char* kind;
    std::string payload;
    std::function<Status(std::string_view)> decode;
  } kinds[] = {
      {"alphabet", AlphabetBytesOf(SampleAlphabet()),
       [](std::string_view in) {
         return DeserializeRankedAlphabet(in).status();
       }},
      {"nbta", nbta,
       [](std::string_view in) { return DeserializeNbta(in).status(); }},
      {"transducer", TransducerBytesOf(SampleTransducerArtifact()),
       [](std::string_view in) {
         return DeserializeTransducerArtifact(in).status();
       }},
      {"dtd", dtd,
       [](std::string_view in) { return DeserializeDtdArtifact(in).status(); }},
      {"schema", SchemaBytesOf(schema),
       [](std::string_view in) {
         return DeserializeSchemaArtifact(in).status();
       }},
  };
  Rng rng(20261019);
  size_t accepted = 0, rejected = 0;
  for (const auto& k : kinds) {
    ASSERT_TRUE(k.decode(k.payload).ok()) << k.kind;
    for (int i = 0; i < 2000; ++i) {
      const std::string mutant = MutatePayload(k.payload, rng);
      const Status s = k.decode(mutant);
      if (s.ok()) {
        ++accepted;
      } else {
        ++rejected;
        EXPECT_EQ(s.code(), StatusCode::kParseError)
            << k.kind << " mutant " << i << ": " << s;
      }
    }
  }
  EXPECT_EQ(accepted + rejected, 10000u);
  EXPECT_GT(rejected, accepted);
}

}  // namespace
}  // namespace pebbletc
