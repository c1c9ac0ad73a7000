// Tests for the serving layer (src/serve/, docs/SERVING.md): wire protocol
// round trips, the fuzz-style malformed-frame table, the validity shape
// checks, registry resolution, end-to-end typecheck/validate/infer dispatch,
// single-vs-batch agreement on generated documents, and admission control /
// overload shedding. Label `serve`; CI runs the suite under ASan/UBSan so
// every malformed-byte path is proven leak- and UB-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/dtd/dtd.h"
#include "src/pt/paper_machines.h"
#include "src/serve/admission.h"
#include "src/serve/protocol.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/validity.h"
#include "src/ta/enumerate.h"
#include "src/ta/op_cache.h"
#include "src/ta/serialize.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/xml/xml.h"

namespace pebbletc::serve {
namespace {

// The worked example from the repo docs: rename <a>→<b>, <c>→<d>. Against
// `good_out` it typechecks (downward fast path); against `bad_out` the only
// document <a><c/></a> maps to <b><d/></b>, which is not in the type.
constexpr char kRenameXslt[] = R"(
  template a { b { apply } }
  template c { d }
)";
constexpr char kInDtd[] = "a := c\nc := ()\n";
constexpr char kGoodOutDtd[] = "b := d\nd := ()\n";
constexpr char kBadOutDtd[] = "b := e\ne := ()\n";

ServeOptions TestOptions() {
  ServeOptions options;
  options.admission_wait = std::chrono::milliseconds(20);
  return options;
}

void LoadExampleRegistry(ServerCore* server) {
  ASSERT_TRUE(server->registry().PutXsltText("rename", kRenameXslt).ok());
  ASSERT_TRUE(server->registry().PutDtdText("in", kInDtd).ok());
  ASSERT_TRUE(server->registry().PutDtdText("good_out", kGoodOutDtd).ok());
  ASSERT_TRUE(server->registry().PutDtdText("bad_out", kBadOutDtd).ok());
  // A pre-compiled identity (copy) transducer over a one-tag DTD's encoded
  // alphabet — small enough for exact inverse inference.
  ASSERT_TRUE(server->registry().PutDtdText("micro", "m := ()\n").ok());
  SpecializedDtd dtd =
      std::move(ParseSpecializedDtd("m := ()\n")).ValueOrDie();
  EncodedAlphabet enc =
      std::move(MakeEncodedAlphabet(dtd.tags())).ValueOrDie();
  auto artifact = std::make_shared<TransducerArtifact>();
  artifact->transducer = MakeCopyTransducer(enc.ranked);
  artifact->input_alphabet = enc.ranked;
  artifact->output_alphabet = enc.ranked;
  RegistryEntry entry;
  entry.kind = RegistryEntry::Kind::kTransducer;
  entry.transducer = std::move(artifact);
  server->registry().Put("copy", std::move(entry));
}

Request MakeTypecheck(uint32_t id, const std::string& transducer,
                      const std::string& tau1, const std::string& tau2) {
  Request request;
  request.header.opcode = Opcode::kTypecheck;
  request.header.request_id = id;
  request.body = TypecheckRequest{transducer, tau1, tau2};
  return request;
}

Request MakeValidate(uint32_t id, const std::string& schema,
                     const std::string& document) {
  Request request;
  request.header.opcode = Opcode::kValidate;
  request.header.request_id = id;
  request.body = ValidateRequest{schema, document};
  return request;
}

Request MakeBatch(uint32_t id, const std::string& schema,
                  std::vector<std::string> documents) {
  Request request;
  request.header.opcode = Opcode::kValidateBatch;
  request.header.request_id = id;
  request.body = ValidateBatchRequest{schema, std::move(documents)};
  return request;
}

// ---------------------------------------------------------------------------
// Protocol round trips.
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripsEveryOpcode) {
  Request requests[8];
  requests[0].body = PingRequest{};
  requests[0].header.opcode = Opcode::kPing;
  requests[1].body = ValidateRequest{"schema", "<a/>"};
  requests[1].header.opcode = Opcode::kValidate;
  requests[2].body = TypecheckRequest{"t", "in", "out"};
  requests[2].header.opcode = Opcode::kTypecheck;
  requests[3].body = InferInverseRequest{"t", "out"};
  requests[3].header.opcode = Opcode::kInferInverse;
  requests[4].body = LoadArtifactRequest{"name", std::string("\x00\x01", 2)};
  requests[4].header.opcode = Opcode::kLoadArtifact;
  requests[5].body = ListArtifactsRequest{};
  requests[5].header.opcode = Opcode::kListArtifacts;
  requests[6].body = StatsRequest{};
  requests[6].header.opcode = Opcode::kStats;
  requests[7].body = ValidateBatchRequest{"schema", {"<a/>", "", "<b/>"}};
  requests[7].header.opcode = Opcode::kValidateBatch;

  uint32_t id = 100;
  for (Request& request : requests) {
    request.header.request_id = id;
    request.header.deadline_ms = id * 3;
    std::string bytes;
    EncodeRequest(request, &bytes);
    Result<Request> back = DecodeRequest(bytes);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(back->header.request_id, id);
    EXPECT_EQ(back->header.deadline_ms, id * 3);
    EXPECT_EQ(back->header.opcode, request.header.opcode);
    EXPECT_EQ(back->body.index(), request.body.index());
    std::string again;
    EncodeRequest(*back, &again);
    EXPECT_EQ(again, bytes);
    ++id;
  }
}

TEST(ServeProtocolTest, ResponseRoundTripsTypecheckBody) {
  Response response;
  response.header.opcode = Opcode::kTypecheck;
  response.header.request_id = 7;
  TypecheckResponse body;
  body.verdict = 1;
  body.method = "downward-fastpath";
  body.exhausted = true;
  body.exhaustion_code = static_cast<uint8_t>(StatusCode::kDeadlineExceeded);
  body.exhaustion_pass = "complete-decision";
  body.exhaustion_detail = "deadline";
  body.checkpoints = 12345;
  body.states_materialized = 678;
  body.counterexample_input_xml = "<a><c/></a>";
  body.counterexample_output_xml = "<b><d/></b>";
  response.body = body;

  std::string bytes;
  EncodeResponse(response, &bytes);
  Result<Response> back = DecodeResponse(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  const auto& b = std::get<TypecheckResponse>(back->body);
  EXPECT_EQ(b.verdict, 1);
  EXPECT_EQ(b.method, "downward-fastpath");
  EXPECT_TRUE(b.exhausted);
  EXPECT_EQ(b.checkpoints, 12345u);
  EXPECT_EQ(b.counterexample_input_xml, "<a><c/></a>");
}

TEST(ServeProtocolTest, ErrorResponseCarriesNoBody) {
  Response err = MakeErrorResponse(Opcode::kTypecheck, 9,
                                   WireStatus::kOverloaded, "busy");
  std::string bytes;
  EncodeResponse(err, &bytes);
  Result<Response> back = DecodeResponse(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->header.status, WireStatus::kOverloaded);
  EXPECT_EQ(back->header.detail, "busy");
  EXPECT_EQ(back->header.request_id, 9u);
}

// A hostile or buggy server could declare millions of artifact-list entries
// in a tiny payload; the client must reject the count before reserving
// (~40 bytes per claimed entry) rather than after a huge allocation.
TEST(ServeProtocolTest, ListArtifactsCountBeyondPayloadIsRejected) {
  std::string bytes;
  auto put_u8 = [&bytes](uint8_t v) {
    bytes.push_back(static_cast<char>(v));
  };
  auto put_u32 = [&bytes](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put_u8(kWireVersion);
  put_u8(static_cast<uint8_t>(Opcode::kListArtifacts));
  put_u32(/*request_id=*/1);
  put_u8(static_cast<uint8_t>(WireStatus::kOk));
  put_u32(/*detail length=*/0);
  put_u32(/*count=*/4u << 20);  // ~4M entries declared, zero entries present
  Result<Response> r = DecodeResponse(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(ServeProtocolTest, BatchResponseRoundTripsMixedVerdicts) {
  Response response;
  response.header.opcode = Opcode::kValidateBatch;
  response.header.request_id = 12;
  ValidateBatchResponse body;
  body.verdicts.push_back(
      {static_cast<uint8_t>(WireStatus::kOk), true, ""});
  body.verdicts.push_back(
      {static_cast<uint8_t>(WireStatus::kOk), false, "rejected"});
  body.verdicts.push_back({static_cast<uint8_t>(WireStatus::kInvalidArgument),
                           false, "document: parse error"});
  body.verdicts.push_back(
      {static_cast<uint8_t>(WireStatus::kCancelled), false, "cancelled"});
  body.fast_path_docs = 2;
  body.fallback_docs = 1;
  response.body = std::move(body);

  std::string bytes;
  EncodeResponse(response, &bytes);
  Result<Response> back = DecodeResponse(bytes);
  ASSERT_TRUE(back.ok()) << back.status().message();
  const auto& got = std::get<ValidateBatchResponse>(back->body);
  ASSERT_EQ(got.verdicts.size(), 4u);
  EXPECT_EQ(got.verdicts[0].status, static_cast<uint8_t>(WireStatus::kOk));
  EXPECT_TRUE(got.verdicts[0].valid);
  EXPECT_FALSE(got.verdicts[1].valid);
  EXPECT_EQ(got.verdicts[1].diagnostic, "rejected");
  EXPECT_EQ(got.verdicts[3].status,
            static_cast<uint8_t>(WireStatus::kCancelled));
  EXPECT_EQ(got.fast_path_docs, 2u);
  EXPECT_EQ(got.fallback_docs, 1u);
}

// Same hostile-count shape as the artifact list, on both batch directions:
// a declared count far beyond the remaining payload must be rejected before
// any reserve.
TEST(ServeProtocolTest, BatchCountsBeyondPayloadAreRejected) {
  auto put_u8 = [](std::string* bytes, uint8_t v) {
    bytes->push_back(static_cast<char>(v));
  };
  auto put_u32 = [](std::string* bytes, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };

  std::string request;
  put_u8(&request, kWireVersion);
  put_u8(&request, static_cast<uint8_t>(Opcode::kValidateBatch));
  put_u32(&request, /*request_id=*/1);
  put_u32(&request, /*deadline_ms=*/0);
  put_u32(&request, /*schema length=*/1);
  request += "s";
  put_u32(&request, /*document count=*/8u << 20);  // millions declared
  Result<Request> r = DecodeRequest(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);

  std::string response;
  put_u8(&response, kWireVersion);
  put_u8(&response, static_cast<uint8_t>(Opcode::kValidateBatch));
  put_u32(&response, /*request_id=*/1);
  put_u8(&response, static_cast<uint8_t>(WireStatus::kOk));
  put_u32(&response, /*detail length=*/0);
  put_u32(&response, /*verdict count=*/8u << 20);
  Result<Response> b = DecodeResponse(response);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Golden encodings: the exact bytes of the wire layout (docs/SERVING.md). A
// drift of the encoder and the decoder in step would pass every round trip
// above, and so would servebench's client, which shares this codec; these
// pins would not.
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

// One request per opcode, with header fields whose bytes all differ so the
// byte order shows.
TEST(ServeGoldenTest, RequestsEncodeToPinnedBytes) {
  const std::pair<decltype(Request::body), std::string_view> cases[] = {
      {PingRequest{}, "01000d0c0b0a34120000"},
      {ValidateRequest{"s", "<a/>"},
       "01010d0c0b0a341200000100000073040000003c612f3e"},
      {TypecheckRequest{"t", "in", "out"},
       "01020d0c0b0a34120000010000007402000000696e030000006f7574"},
      {InferInverseRequest{"t", "out"},
       "01030d0c0b0a341200000100000074030000006f7574"},
      {LoadArtifactRequest{"n", std::string("\x00\xff", 2)},
       "01040d0c0b0a34120000010000006e0200000000ff"},
      {ListArtifactsRequest{}, "01050d0c0b0a34120000"},
      {StatsRequest{}, "01060d0c0b0a34120000"},
      {ValidateBatchRequest{"s", {"<a/>", ""}},
       "01070d0c0b0a34120000010000007302000000040000003c612f3e00"
       "000000"},
  };
  for (const auto& [body, hex] : cases) {
    Request request;
    request.header.opcode = static_cast<Opcode>(body.index());
    request.header.request_id = 0x0a0b0c0d;
    request.header.deadline_ms = 0x1234;
    request.body = body;
    std::string bytes;
    EncodeRequest(request, &bytes);
    EXPECT_EQ(ToHex(bytes), hex) << "opcode " << body.index();
    Result<Request> back = DecodeRequest(FromHex(hex));
    ASSERT_TRUE(back.ok()) << back.status().message();
    std::string again;
    EncodeRequest(*back, &again);
    EXPECT_EQ(ToHex(again), hex) << "opcode " << body.index();
  }
}

// One OK response per opcode, every field set to a distinct value.
TEST(ServeGoldenTest, OkResponsesEncodeToPinnedBytes) {
  TypecheckResponse typecheck;
  typecheck.verdict = 1;
  typecheck.method = "m";
  typecheck.exhausted = true;
  typecheck.exhaustion_code = 8;
  typecheck.exhaustion_pass = "p";
  typecheck.exhaustion_detail = "d";
  typecheck.checkpoints = 0x0102030405060708;
  typecheck.states_materialized = 0x1112131415161718;
  typecheck.counterexample_input_xml = "<a/>";
  typecheck.counterexample_output_xml = "<b/>";
  StatsResponse stats{1, 2, 3, 4, 5, 6, 7, 0x0807060504030201, 9};
  ValidateBatchResponse batch;
  batch.verdicts = {{0, true, ""}, {13, false, "x"}};
  batch.fast_path_docs = 0x100;
  batch.fallback_docs = 0x200;
  const std::pair<decltype(Response::body), std::string_view> cases[] = {
      {PingResponse{}, "01000d0c0b0a0000000000"},
      {ValidateResponse{false, "bad"},
       "01010d0c0b0a00000000000003000000626164"},
      {typecheck,
       "01020d0c0b0a000000000001010000006d0108010000007001000000"
       "6408070605040302011817161514131211040000003c612f3e040000"
       "003c622f3e"},
      {InferInverseResponse{0x11, 0x22, 0x33, 0x4455667788},
       "01030d0c0b0a00000000001100000022000000330000008877665544"
       "000000"},
      {LoadArtifactResponse{3}, "01040d0c0b0a000000000003"},
      {ListArtifactsResponse{{{"a", 2}, {"bc", 4}}},
       "01050d0c0b0a00000000000200000001000000610202000000626304"},
      {stats,
       "01060d0c0b0a00000000000100000000000000020000000000000003"
       "00000000000000040000000000000005000000000000000600000000"
       "0000000700000000000000010203040506070809000000"},
      {batch,
       "01070d0c0b0a0000000000020000000001000000000d000100000078"
       "00010000000000000002000000000000"},
  };
  for (const auto& [body, hex] : cases) {
    Response response;
    response.header.opcode = static_cast<Opcode>(body.index());
    response.header.request_id = 0x0a0b0c0d;
    response.body = body;
    std::string bytes;
    EncodeResponse(response, &bytes);
    EXPECT_EQ(ToHex(bytes), hex) << "opcode " << body.index();
    Result<Response> back = DecodeResponse(FromHex(hex));
    ASSERT_TRUE(back.ok()) << back.status().message();
    std::string again;
    EncodeResponse(*back, &again);
    EXPECT_EQ(ToHex(again), hex) << "opcode " << body.index();
  }
}

TEST(ServeGoldenTest, ErrorResponseAndFrameEncodeToPinnedBytes) {
  constexpr std::string_view kErrorHex = "01020d0c0b0a070400000062757379";
  std::string bytes;
  EncodeResponse(MakeErrorResponse(Opcode::kTypecheck, 0x0a0b0c0d,
                                   WireStatus::kOverloaded, "busy"),
                 &bytes);
  EXPECT_EQ(ToHex(bytes), kErrorHex);
  Result<Response> back = DecodeResponse(FromHex(kErrorHex));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->header.status, WireStatus::kOverloaded);
  EXPECT_EQ(back->header.detail, "busy");

  constexpr std::string_view kFrameHex = "05000000010278797a";
  std::string frame;
  EncodeFrame("\x01\x02xyz", &frame);
  EXPECT_EQ(ToHex(frame), kFrameHex);
  FrameDecoder decoder;
  decoder.Append(FromHex(kFrameHex));
  Result<std::optional<std::string>> next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ(**next, "\x01\x02xyz");
}

// ---------------------------------------------------------------------------
// Frame decoding.
// ---------------------------------------------------------------------------

TEST(ServeFrameTest, IncrementalDecodingAcrossArbitrarySplits) {
  std::string stream;
  EncodeFrame("first", &stream);
  EncodeFrame("", &stream);
  EncodeFrame("third-payload", &stream);

  for (size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameDecoder decoder;
    std::vector<std::string> frames;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      decoder.Append(std::string_view(stream).substr(
          off, std::min(chunk, stream.size() - off)));
      while (true) {
        Result<std::optional<std::string>> next = decoder.Next();
        ASSERT_TRUE(next.ok());
        if (!next->has_value()) break;
        frames.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(frames.size(), 3u) << "chunk size " << chunk;
    EXPECT_EQ(frames[0], "first");
    EXPECT_EQ(frames[1], "");
    EXPECT_EQ(frames[2], "third-payload");
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

TEST(ServeFrameTest, TruncatedPrefixAndMidFrameEofLeavePendingBytes) {
  FrameDecoder decoder;
  decoder.Append("\x02");  // one byte of a four-byte length prefix
  Result<std::optional<std::string>> r = decoder.Next();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
  EXPECT_EQ(decoder.pending_bytes(), 1u);  // EOF now = torn frame, detectable

  FrameDecoder decoder2;
  std::string frame;
  EncodeFrame("payload", &frame);
  decoder2.Append(std::string_view(frame).substr(0, frame.size() - 3));
  r = decoder2.Next();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
  EXPECT_GT(decoder2.pending_bytes(), 0u);
}

TEST(ServeFrameTest, OversizedDeclaredLengthPoisonsTheStream) {
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  std::string huge;
  EncodeFrame(std::string(10, 'x'), &huge);     // fine
  huge[0] = '\xff'; huge[1] = '\xff';           // now declares ~4 GiB
  huge[2] = '\xff'; huge[3] = '\xff';
  decoder.Append(huge);
  Result<std::optional<std::string>> r = decoder.Next();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // Poisoned: even a now-valid frame cannot be trusted.
  std::string fine;
  EncodeFrame("ok", &fine);
  decoder.Append(fine);
  EXPECT_FALSE(decoder.Next().ok());
}

// ---------------------------------------------------------------------------
// The malformed-frame table: every hostile payload yields a structured
// error response and the server stays alive. No malformed byte reaches an
// automata op (they would CHECK-crash under ASan if one did).
// ---------------------------------------------------------------------------

TEST(ServeMalformedTest, EveryMalformedPayloadGetsAStructuredError) {
  ServerCore server(TestOptions());
  LoadExampleRegistry(&server);

  std::string valid_typecheck;
  EncodeRequest(MakeTypecheck(1, "rename", "in", "good_out"),
                &valid_typecheck);

  struct Case {
    const char* name;
    std::string payload;
    WireStatus want;
  };
  std::vector<Case> table;
  table.push_back({"empty payload", "", WireStatus::kMalformedFrame});
  table.push_back({"header torn after one byte", std::string(1, '\x01'),
                   WireStatus::kMalformedFrame});
  table.push_back({"header torn mid request-id",
                   std::string("\x01\x02\x01\x02", 4),
                   WireStatus::kMalformedFrame});
  table.push_back({"future wire version",
                   [] {
                     Request r;
                     r.header.version = 9;
                     r.body = PingRequest{};
                     std::string bytes;
                     EncodeRequest(r, &bytes);
                     return bytes;
                   }(),
                   WireStatus::kUnsupportedVersion});
  table.push_back({"unknown opcode",
                   [] {
                     std::string bytes = "\x01\x63";  // version 1, opcode 99
                     bytes.append(8, '\0');
                     return bytes;
                   }(),
                   WireStatus::kUnknownOpcode});
  table.push_back({"typecheck body truncated mid string",
                   valid_typecheck.substr(0, valid_typecheck.size() - 3),
                   WireStatus::kMalformedFrame});
  table.push_back({"trailing bytes after a valid body",
                   valid_typecheck + "xx", WireStatus::kMalformedFrame});
  table.push_back({"string length larger than the frame",
                   [] {
                     std::string bytes = "\x01\x01";  // validate
                     bytes.append(8, '\0');           // id, deadline
                     bytes += std::string("\xff\xff\xff\x7f", 4);  // schema len
                     bytes += "abc";
                     return bytes;
                   }(),
                   WireStatus::kMalformedFrame});
  table.push_back({"random garbage",
                   std::string("\x01\x02garbage-not-a-frame\x00\x17", 22),
                   WireStatus::kMalformedFrame});

  uint64_t malformed_seen = 0;
  for (const Case& c : table) {
    std::string encoded = server.HandleFrame(c.payload);
    Result<Response> response = DecodeResponse(encoded);
    ASSERT_TRUE(response.ok())
        << c.name << ": response failed to decode: "
        << response.status().message();
    EXPECT_EQ(response->header.status, c.want) << c.name;
    EXPECT_FALSE(response->header.detail.empty()) << c.name;
    ++malformed_seen;
    EXPECT_EQ(server.SnapshotStats().malformed_rejected, malformed_seen)
        << c.name;
  }

  // The server is still fully functional afterwards.
  std::string ok = server.HandleFrame(valid_typecheck);
  Result<Response> response = DecodeResponse(ok);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->header.status, WireStatus::kOk);
  EXPECT_EQ(std::get<TypecheckResponse>(response->body).verdict, 0);
}

// ---------------------------------------------------------------------------
// Validity checks.
// ---------------------------------------------------------------------------

// CheckRequest checks shape only: names, sizes, batch count and deadline.
// A document's bytes are parsed once, by the dispatch that validates it, so
// malformed XML passes CheckRequest and answers kInvalidArgument from
// ValidateDoc.
TEST(ServeValidityTest, ShapeChecksRejectNamesAndDeadlinesNotXml) {
  Request bad_name = MakeTypecheck(1, "../../etc/passwd", "in", "out");
  Request huge_deadline = MakeTypecheck(2, "rename", "in", "out");
  huge_deadline.header.deadline_ms = 1u << 30;
  Request bad_xml = MakeValidate(3, "in", "<a><unclosed></a>");

  const ValidityOptions defaults;
  EXPECT_FALSE(CheckRequest(bad_name, defaults).ok());
  EXPECT_FALSE(CheckRequest(huge_deadline, defaults).ok());
  EXPECT_TRUE(CheckRequest(bad_xml, defaults).ok()) << "XML is dispatch's job";

  ServerCore server(TestOptions());
  LoadExampleRegistry(&server);
  EXPECT_EQ(server.Handle(bad_name).header.status,
            WireStatus::kValidationFailed);
  EXPECT_EQ(server.Handle(huge_deadline).header.status,
            WireStatus::kValidationFailed);
  Request unterminated_comment = MakeValidate(4, "in", "<a/><!--");
  for (const Request* request : {&bad_xml, &unterminated_comment}) {
    Response malformed = server.Handle(*request);
    EXPECT_EQ(malformed.header.status, WireStatus::kInvalidArgument);
    EXPECT_NE(malformed.header.detail.find("document: "), std::string::npos)
        << malformed.header.detail;
  }
  EXPECT_EQ(server.SnapshotStats().validation_rejected, 2u)
      << "only shape and cap rejections count";
}

TEST(ServeValidityTest, BasicCapsDocumentAndArtifactSizes) {
  ValidityOptions caps;
  caps.max_document_bytes = 64;
  Request big_doc = MakeValidate(1, "in", std::string(65, 'x'));
  EXPECT_FALSE(CheckRequest(big_doc, caps).ok());

  caps.max_artifact_bytes = 16;
  Request big_artifact;
  big_artifact.header.opcode = Opcode::kLoadArtifact;
  big_artifact.body = LoadArtifactRequest{"name", std::string(17, 'x')};
  EXPECT_FALSE(CheckRequest(big_artifact, caps).ok());
}

// ---------------------------------------------------------------------------
// End-to-end dispatch.
// ---------------------------------------------------------------------------

class ServeDispatchTest : public ::testing::Test {
 protected:
  // The process-wide op cache outlives each case: a proof cached by an
  // earlier case would answer a later case's typecheck before it reaches the
  // checkpoint that case is about.
  ServeDispatchTest() : server_(TestOptions()) {
    TaOpCache::Global().Clear();
    LoadExampleRegistry(&server_);
  }
  ServerCore server_;
};

TEST_F(ServeDispatchTest, TypecheckGoodAndBadPairs) {
  Response good = server_.Handle(MakeTypecheck(1, "rename", "in", "good_out"));
  ASSERT_EQ(good.header.status, WireStatus::kOk) << good.header.detail;
  EXPECT_EQ(std::get<TypecheckResponse>(good.body).verdict, 0);

  Response bad = server_.Handle(MakeTypecheck(2, "rename", "in", "bad_out"));
  ASSERT_EQ(bad.header.status, WireStatus::kOk) << bad.header.detail;
  const auto& body = std::get<TypecheckResponse>(bad.body);
  EXPECT_EQ(body.verdict, 1);
  EXPECT_EQ(body.counterexample_input_xml, "<a><c/></a>");
  EXPECT_EQ(body.counterexample_output_xml, "<b><d/></b>");
}

TEST_F(ServeDispatchTest, ValidateAgainstDtd) {
  Response valid = server_.Handle(MakeValidate(1, "in", "<a><c/></a>"));
  ASSERT_EQ(valid.header.status, WireStatus::kOk);
  EXPECT_TRUE(std::get<ValidateResponse>(valid.body).valid);

  Response invalid = server_.Handle(MakeValidate(2, "in", "<a/>"));
  ASSERT_EQ(invalid.header.status, WireStatus::kOk);
  const auto& body = std::get<ValidateResponse>(invalid.body);
  EXPECT_FALSE(body.valid);
  EXPECT_FALSE(body.diagnostic.empty());

  // A tag the DTD has never declared must read as invalid — and must not
  // mutate the shared registry entry's alphabet.
  Response unknown = server_.Handle(MakeValidate(3, "in", "<a><z/></a>"));
  ASSERT_EQ(unknown.header.status, WireStatus::kOk);
  EXPECT_FALSE(std::get<ValidateResponse>(unknown.body).valid);
  const size_t dtd_tags = server_.registry().Get("in")->dtd->tags().size();
  EXPECT_EQ(dtd_tags, 2u);
}

TEST_F(ServeDispatchTest, UnknownNamesAndWrongKinds) {
  Response missing = server_.Handle(MakeTypecheck(1, "nope", "in", "good_out"));
  EXPECT_EQ(missing.header.status, WireStatus::kNotFound);

  Response wrong_kind = server_.Handle(MakeTypecheck(2, "in", "in",
                                                     "good_out"));
  EXPECT_EQ(wrong_kind.header.status, WireStatus::kFailedPrecondition);

  Response schema_is_xslt = server_.Handle(MakeValidate(3, "rename", "<a/>"));
  EXPECT_EQ(schema_is_xslt.header.status, WireStatus::kFailedPrecondition);
}

TEST_F(ServeDispatchTest, InferInverseReturnsAnAutomatonSummary) {
  Request request;
  request.header.opcode = Opcode::kInferInverse;
  request.header.request_id = 4;
  request.body = InferInverseRequest{"copy", "micro"};
  request.header.deadline_ms = 30000;  // inference is seconds-scale
  Response response = server_.Handle(request);
  ASSERT_EQ(response.header.status, WireStatus::kOk) << response.header.detail;
  EXPECT_GT(std::get<InferInverseResponse>(response.body).num_states, 0u);
}

TEST_F(ServeDispatchTest, LoadArtifactInstallsAndServes) {
  SpecializedDtd dtd = std::move(ParseSpecializedDtd(kInDtd)).ValueOrDie();
  std::string payload;
  SerializeDtdArtifact(dtd, &payload);
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kDtd, payload, &wrapped);

  Request load;
  load.header.opcode = Opcode::kLoadArtifact;
  load.header.request_id = 1;
  load.body = LoadArtifactRequest{"loaded-in", wrapped};
  Response response = server_.Handle(load);
  ASSERT_EQ(response.header.status, WireStatus::kOk) << response.header.detail;

  Response valid = server_.Handle(MakeValidate(2, "loaded-in", "<a><c/></a>"));
  ASSERT_EQ(valid.header.status, WireStatus::kOk);
  EXPECT_TRUE(std::get<ValidateResponse>(valid.body).valid);

  Response typecheck =
      server_.Handle(MakeTypecheck(3, "rename", "loaded-in", "good_out"));
  ASSERT_EQ(typecheck.header.status, WireStatus::kOk);
  EXPECT_EQ(std::get<TypecheckResponse>(typecheck.body).verdict, 0);
}

// A corrupt container is rejected where it is deserialized, by PutWrapped
// in dispatch: kParseError maps to kValidationFailed, and nothing is
// installed under the name.
TEST_F(ServeDispatchTest, CorruptArtifactLoadIsRejectedAndInstallsNothing) {
  SpecializedDtd dtd = std::move(ParseSpecializedDtd(kInDtd)).ValueOrDie();
  std::string payload;
  SerializeDtdArtifact(dtd, &payload);
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kDtd, payload, &wrapped);
  std::string corrupt = wrapped;
  corrupt[wrapped.size() - 1] ^= 0x10;

  Request load;
  load.header.opcode = Opcode::kLoadArtifact;
  load.header.request_id = 1;
  load.body = LoadArtifactRequest{"loaded", corrupt};
  EXPECT_TRUE(CheckRequest(load, ValidityOptions{}).ok())
      << "the payload's bytes are dispatch's job";
  Response rejected = server_.Handle(load);
  EXPECT_EQ(rejected.header.status, WireStatus::kValidationFailed)
      << rejected.header.detail;
  EXPECT_EQ(server_.registry().Get("loaded"), nullptr);
  EXPECT_EQ(server_.SnapshotStats().validation_rejected, 0u)
      << "a dispatch rejection is not a shape rejection";

  load.header.request_id = 2;
  load.body = LoadArtifactRequest{"loaded", wrapped};
  Response installed = server_.Handle(load);
  EXPECT_EQ(installed.header.status, WireStatus::kOk)
      << installed.header.detail;
  EXPECT_NE(server_.registry().Get("loaded"), nullptr);

  // An intact container of a bare automaton has no alphabet to serve with.
  std::string bare;
  WrapTaArtifact(TaArtifactKind::kNbta, payload, &bare);
  load.header.request_id = 3;
  load.body = LoadArtifactRequest{"bare", bare};
  EXPECT_EQ(server_.Handle(load).header.status,
            WireStatus::kFailedPrecondition);
  EXPECT_EQ(server_.registry().Get("bare"), nullptr);
}

// Artifacts whose load would cost far more than their bytes are refused
// inside the request, through the whole frame path, with a structured error
// and nothing installed: a 114-byte DTD whose content model needs 2^21
// subset states, a DTD of 20,000 types whose dense content tables would
// take about 3 GB, and a schema one state past kMaxSchemaStates.
TEST_F(ServeDispatchTest, CostlyArtifactsAreRefusedQuicklyAndInstallNothing) {
  struct Case {
    std::string name;
    TaArtifactKind kind;
    std::string payload;
  };
  std::vector<Case> cases;
  {
    SpecializedDtd dtd;
    const RegexPtr ab = Regex::Union(Regex::Symbol(1), Regex::Symbol(2));
    RegexPtr r = Regex::Concat(Regex::Star(ab), Regex::Symbol(1));
    for (int i = 0; i < 20; ++i) r = Regex::Concat(r, ab);
    ASSERT_TRUE(dtd.AddType("r", "r", r).ok());
    ASSERT_TRUE(dtd.AddType("a", "a", Regex::Epsilon()).ok());
    ASSERT_TRUE(dtd.AddType("b", "b", Regex::Epsilon()).ok());
    ASSERT_TRUE(dtd.AddRootType(0).ok());
    cases.push_back({"exponential", TaArtifactKind::kDtd, ""});
    SerializeDtdArtifact(dtd, &cases.back().payload);
  }
  {
    SpecializedDtd dtd;
    for (int i = 0; i < 20000; ++i) {
      const std::string name = "c" + std::to_string(i);
      ASSERT_TRUE(dtd.AddType(name, name, Regex::Epsilon()).ok());
    }
    ASSERT_TRUE(dtd.AddRootType(0).ok());
    cases.push_back({"wide", TaArtifactKind::kDtd, ""});
    SerializeDtdArtifact(dtd, &cases.back().payload);
  }
  {
    SchemaArtifact schema;
    ASSERT_TRUE(schema.alphabet.AddLeaf("l").ok());
    schema.automaton.num_symbols = 1;
    for (uint32_t q = 0; q <= kMaxSchemaStates; ++q) {
      (void)schema.automaton.AddState();
    }
    cases.push_back({"schema", TaArtifactKind::kSchema, ""});
    SerializeSchemaArtifact(schema, &cases.back().payload);
  }

  uint32_t request_id = 1;
  for (const Case& c : cases) {
    Request load;
    load.header.opcode = Opcode::kLoadArtifact;
    load.header.request_id = request_id++;
    std::string wrapped;
    WrapTaArtifact(c.kind, c.payload, &wrapped);
    load.body = LoadArtifactRequest{c.name, wrapped};
    std::string frame;
    EncodeRequest(load, &frame);

    const auto start = std::chrono::steady_clock::now();
    Result<Response> response = DecodeResponse(server_.HandleFrame(frame));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(response.ok()) << c.name;
    EXPECT_EQ(response->header.status, WireStatus::kValidationFailed)
        << c.name << ": " << response->header.detail;
    EXPECT_FALSE(response->header.detail.empty()) << c.name;
    EXPECT_LT(elapsed, std::chrono::seconds(1)) << c.name;
    EXPECT_EQ(server_.registry().Get(c.name), nullptr) << c.name;

    Response next = server_.Handle(MakeValidate(request_id++, "in",
                                                "<a><c/></a>"));
    ASSERT_EQ(next.header.status, WireStatus::kOk) << next.header.detail;
    EXPECT_TRUE(std::get<ValidateResponse>(next.body).valid) << c.name;
  }
}

TEST_F(ServeDispatchTest, LoadCanBeDisabled) {
  ServeOptions options = TestOptions();
  options.allow_load = false;
  ServerCore locked(options);
  Request load;
  load.header.opcode = Opcode::kLoadArtifact;
  load.body = LoadArtifactRequest{"x", "irrelevant"};
  // The garbage payload passes the shape checks and reaches the
  // dispatch-level gate before anything parses it.
  Response response = locked.Handle(load);
  EXPECT_EQ(response.header.status, WireStatus::kFailedPrecondition);
}

TEST_F(ServeDispatchTest, ListAndStatsAndPing) {
  Request list;
  list.header.opcode = Opcode::kListArtifacts;
  Response response = server_.Handle(list);
  ASSERT_EQ(response.header.status, WireStatus::kOk);
  const auto& body = std::get<ListArtifactsResponse>(response.body);
  ASSERT_EQ(body.artifacts.size(), 6u);
  EXPECT_EQ(body.artifacts[0].name, "bad_out");  // sorted by name
  EXPECT_EQ(body.artifacts[1].name, "copy");
  EXPECT_EQ(body.artifacts[5].name, "rename");

  Request ping;
  ping.header.opcode = Opcode::kPing;
  EXPECT_EQ(server_.Handle(ping).header.status, WireStatus::kOk);

  Request stats;
  stats.header.opcode = Opcode::kStats;
  Response stats_response = server_.Handle(stats);
  ASSERT_EQ(stats_response.header.status, WireStatus::kOk);
  EXPECT_GE(std::get<StatsResponse>(stats_response.body).requests_total, 3u);
}

TEST_F(ServeDispatchTest, CancellationDegradesGracefully) {
  std::atomic<bool> cancel{true};  // cancelled before the first checkpoint
  Response response =
      server_.Handle(MakeTypecheck(1, "rename", "in", "good_out"), &cancel);
  ASSERT_EQ(response.header.status, WireStatus::kOk) << response.header.detail;
  const auto& body = std::get<TypecheckResponse>(response.body);
  EXPECT_EQ(body.verdict, 2);  // kUnknown — degraded, not dropped
  EXPECT_TRUE(body.exhausted);
  EXPECT_EQ(body.exhaustion_code,
            static_cast<uint8_t>(StatusCode::kCancelled));
}

// ---------------------------------------------------------------------------
// Batch dispatch (docs/VALIDATION.md).
// ---------------------------------------------------------------------------

TEST_F(ServeDispatchTest, ValidateBatchAgainstDtd) {
  Response response = server_.Handle(
      MakeBatch(1, "in", {"<a><c/></a>", "<a/>", "<a><z/></a>"}));
  ASSERT_EQ(response.header.status, WireStatus::kOk) << response.header.detail;
  const auto& body = std::get<ValidateBatchResponse>(response.body);
  ASSERT_EQ(body.verdicts.size(), 3u);
  EXPECT_EQ(body.verdicts[0].status, static_cast<uint8_t>(WireStatus::kOk));
  EXPECT_TRUE(body.verdicts[0].valid);
  EXPECT_EQ(body.verdicts[1].status, static_cast<uint8_t>(WireStatus::kOk));
  EXPECT_FALSE(body.verdicts[1].valid);
  EXPECT_FALSE(body.verdicts[1].diagnostic.empty())
      << "rejections carry a diagnostic";
  EXPECT_FALSE(body.verdicts[2].valid);
  EXPECT_NE(body.verdicts[2].diagnostic.find("'z'"), std::string::npos)
      << "unknown-tag diagnostic names the tag: "
      << body.verdicts[2].diagnostic;
  // The unknown-tag document never reaches a table verdict; the other two
  // were answered by the engine.
  EXPECT_EQ(body.fast_path_docs + body.fallback_docs, 2u);
}

TEST_F(ServeDispatchTest, BatchVerdictsMatchSingleValidateVerdicts) {
  const std::vector<std::string> docs = {"<a><c/></a>", "<a/>",
                                         "<a><z/></a>"};
  Response batch = server_.Handle(MakeBatch(1, "in", docs));
  ASSERT_EQ(batch.header.status, WireStatus::kOk);
  const auto& body = std::get<ValidateBatchResponse>(batch.body);
  ASSERT_EQ(body.verdicts.size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    Response single = server_.Handle(
        MakeValidate(static_cast<uint32_t>(10 + i), "in", docs[i]));
    ASSERT_EQ(single.header.status, WireStatus::kOk);
    const auto& v = std::get<ValidateResponse>(single.body);
    EXPECT_EQ(body.verdicts[i].valid, v.valid) << "doc " << i;
    EXPECT_EQ(body.verdicts[i].diagnostic, v.diagnostic) << "doc " << i;
  }
}

TEST_F(ServeDispatchTest, BatchUnknownNameAndWrongKindFailWhole) {
  Response missing = server_.Handle(MakeBatch(1, "nope", {"<a/>"}));
  EXPECT_EQ(missing.header.status, WireStatus::kNotFound);
  Response wrong_kind = server_.Handle(MakeBatch(2, "rename", {"<a/>"}));
  EXPECT_EQ(wrong_kind.header.status, WireStatus::kFailedPrecondition);
}

TEST_F(ServeDispatchTest, EmptyBatchIsRejectedByValidity) {
  Response empty = server_.Handle(MakeBatch(1, "in", {}));
  EXPECT_EQ(empty.header.status, WireStatus::kValidationFailed);
}

TEST_F(ServeDispatchTest, BatchOverDocLimitIsRejectedByValidity) {
  ServeOptions options = TestOptions();
  options.validity.max_batch_docs = 4;
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());
  std::vector<std::string> docs(5, "<a><c/></a>");
  Response over = server.Handle(MakeBatch(1, "in", docs));
  EXPECT_EQ(over.header.status, WireStatus::kValidationFailed);
  EXPECT_NE(over.header.detail.find("exceeds the limit"), std::string::npos)
      << over.header.detail;
  docs.pop_back();
  Response at_limit = server.Handle(MakeBatch(2, "in", docs));
  EXPECT_EQ(at_limit.header.status, WireStatus::kOk);
}

// A malformed document reaches the engine and must surface as a
// per-document kInvalidArgument verdict while the rest of the batch
// completes normally.
TEST(ServeBatchTest, MalformedDocumentGetsHonestPerDocVerdict) {
  ServerCore server(TestOptions());
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());
  Response response = server.Handle(
      MakeBatch(1, "in", {"<a><c/></a>", "not xml", "<a/>"}));
  ASSERT_EQ(response.header.status, WireStatus::kOk)
      << response.header.detail;
  const auto& body = std::get<ValidateBatchResponse>(response.body);
  ASSERT_EQ(body.verdicts.size(), 3u);
  EXPECT_TRUE(body.verdicts[0].valid);
  EXPECT_EQ(body.verdicts[1].status,
            static_cast<uint8_t>(WireStatus::kInvalidArgument));
  EXPECT_EQ(body.verdicts[1].diagnostic.rfind("document: ", 0), 0u)
      << body.verdicts[1].diagnostic;
  EXPECT_EQ(body.verdicts[2].status, static_cast<uint8_t>(WireStatus::kOk));
  EXPECT_FALSE(body.verdicts[2].valid);
}

// A disconnect mid-batch cancels the remaining documents: each unprocessed
// verdict reports kCancelled honestly instead of a fabricated answer, and
// the response itself still decodes as kOk.
TEST(ServeBatchTest, DisconnectCancelsRemainingDocuments) {
  ServeOptions options = TestOptions();
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());
  // Warm the plan cache: a disconnect during plan *compilation* fails the
  // whole request (the response is never sent anyway); this test pins the
  // mid-batch story, where the plan exists and documents are in flight.
  ASSERT_EQ(server.Handle(MakeBatch(1, "in", {"<a/>"})).header.status,
            WireStatus::kOk);
  std::atomic<bool> cancel{true};  // "client gone" before the first doc
  std::vector<std::string> docs(6, "<a><c/></a>");
  Response response = server.Handle(MakeBatch(2, "in", docs), &cancel);
  ASSERT_EQ(response.header.status, WireStatus::kOk)
      << response.header.detail;
  const auto& body = std::get<ValidateBatchResponse>(response.body);
  ASSERT_EQ(body.verdicts.size(), docs.size());
  for (size_t i = 0; i < body.verdicts.size(); ++i) {
    EXPECT_EQ(body.verdicts[i].status,
              static_cast<uint8_t>(WireStatus::kCancelled))
        << "doc " << i;
    EXPECT_FALSE(body.verdicts[i].valid);
  }
  EXPECT_EQ(body.fast_path_docs, 0u);
}

// The whole batch is ONE heavy request: it needs (and holds) exactly one
// admission slot, so a saturated server sheds it with a single kOverloaded
// response, and a max_in_flight=1 server still serves any batch size.
TEST(ServeBatchTest, BatchHoldsExactlyOneAdmissionSlot) {
  ServeOptions options = TestOptions();
  options.max_in_flight = 1;
  options.max_queued = 1;
  options.admission_wait = std::chrono::milliseconds(5);
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());

  std::vector<std::string> docs(16, "<a><c/></a>");
  Response served = server.Handle(MakeBatch(1, "in", docs));
  ASSERT_EQ(served.header.status, WireStatus::kOk) << served.header.detail;
  EXPECT_EQ(std::get<ValidateBatchResponse>(served.body).verdicts.size(),
            docs.size());
  EXPECT_EQ(server.admission().in_flight(), 0u) << "slot released";

  auto held = server.admission().Admit(std::chrono::milliseconds(1));
  ASSERT_TRUE(held.ok());
  Response shed = server.Handle(MakeBatch(2, "in", docs));
  EXPECT_EQ(shed.header.status, WireStatus::kOverloaded);
  EXPECT_EQ(server.SnapshotStats().overload_rejected, 1u)
      << "one shed, not one per document";
  held->Release();
}

// ---------------------------------------------------------------------------
// Served-path agreement under default options.
// ---------------------------------------------------------------------------

// A document as a mutable tag tree, for tree-level tag swaps, inserts and
// deletes.
struct DocNode {
  SymbolId tag;
  std::vector<DocNode> kids;
};

DocNode ToDocNode(const UnrankedTree& tree, NodeId n) {
  DocNode node{tree.tag(n), {}};
  for (NodeId c : tree.children(n)) node.kids.push_back(ToDocNode(tree, c));
  return node;
}

NodeId AddDocNode(const DocNode& node, UnrankedTree* out) {
  std::vector<NodeId> kids;
  for (const DocNode& kid : node.kids) kids.push_back(AddDocNode(kid, out));
  return out->AddNode(node.tag, std::move(kids));
}

UnrankedTree FromDocNode(const DocNode& node) {
  UnrankedTree tree;
  tree.SetRoot(AddDocNode(node, &tree));
  return tree;
}

void CollectNodes(DocNode* node, std::vector<DocNode*>* out) {
  out->push_back(node);
  for (DocNode& kid : node->kids) CollectNodes(&kid, out);
}

// One random tag swap, insert or delete somewhere in `tree`.
UnrankedTree Mutate(const UnrankedTree& tree, size_t num_tags, Rng& rng) {
  DocNode root = ToDocNode(tree, tree.root());
  std::vector<DocNode*> nodes;
  CollectNodes(&root, &nodes);
  DocNode* at = nodes[rng.NextBelow(nodes.size())];
  const SymbolId tag = static_cast<SymbolId>(rng.NextBelow(num_tags));
  switch (rng.NextBelow(3)) {
    case 0:
      at->tag = tag;
      break;
    case 1:
      at->kids.insert(at->kids.begin() + rng.NextBelow(at->kids.size() + 1),
                      DocNode{tag, {}});
      break;
    default:
      if (at->kids.empty()) {
        at->tag = tag;
      } else {
        at->kids.erase(at->kids.begin() + rng.NextBelow(at->kids.size()));
      }
      break;
  }
  return FromDocNode(root);
}

// Every document gets the same answer alone (kValidate) and in its batch
// slot (kValidateBatch); a well-formed document's verdict is the DTD's own
// Accepts, and a malformed one, which ParseXml also rejects, answers
// kInvalidArgument with a "document: " diagnostic in both forms.
TEST(ServeAgreementTest, ValidateAndBatchSlotAgreeWithDtdAccepts) {
  const std::vector<std::pair<std::string, std::string>> dtds = {
      {"star", "r := a* . b?\na := b | c\nb := ()\nc := c*\n"},
      {"choice", "doc := head . sec*\nhead := ()\nsec := (para | list)*\n"
                 "para := ()\nlist := item . item*\nitem := para?\n"},
      {"long", "purchase_order_document := purchase_order_line_item*\n"
               "purchase_order_line_item := (quantity | note)?\n"
               "quantity := ()\nnote := ()\n"}};
  ServerCore server{ServeOptions{}};
  Rng rng(20261017);
  uint32_t id = 1;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t malformed_docs = 0;
  for (const auto& [name, text] : dtds) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(server.registry().PutDtdText(name, text).ok());
    const SpecializedDtd& dtd = *server.registry().Get(name)->dtd;
    const Alphabet& tags = dtd.tags();
    EncodedAlphabet enc = std::move(MakeEncodedAlphabet(tags)).ValueOrDie();
    Nbta nbta = std::move(CompileDtdToNbta(dtd, enc)).ValueOrDie();

    std::vector<UnrankedTree> trees;
    for (const BinaryTree& t : EnumerateAcceptedTrees(nbta, 31, 12)) {
      trees.push_back(std::move(DecodeTree(t, enc)).ValueOrDie());
    }
    ASSERT_FALSE(trees.empty());
    const size_t conforming = trees.size();
    for (size_t k = 0; k < conforming; ++k) {
      trees.push_back(Mutate(trees[k], tags.size(), rng));
    }
    for (int k = 0; k < 12; ++k) {
      RandomUnrankedOptions options;
      options.target_size = 1 + rng.NextBelow(12);
      options.max_children = 3;
      trees.push_back(RandomUnrankedTree(tags, rng, options));
    }
    std::vector<std::string> docs;
    std::vector<bool> expect_valid;
    for (const UnrankedTree& tree : trees) {
      docs.push_back(XmlString(tree, tags));
      expect_valid.push_back(std::move(dtd.Accepts(tree)).ValueOrDie());
    }
    const size_t well_formed = docs.size();
    for (int k = 0; k < 4; ++k) {
      const std::string& xml = docs[rng.NextBelow(well_formed)];
      docs.push_back(xml.substr(0, 1 + rng.NextBelow(xml.size() - 1)));
    }
    docs.push_back(docs[rng.NextBelow(well_formed)] + "<!--");
    ASSERT_LE(docs.size(), ValidityOptions{}.max_batch_docs);

    Response batch = server.Handle(MakeBatch(id++, name, docs));
    ASSERT_EQ(batch.header.status, WireStatus::kOk) << batch.header.detail;
    const auto& slots = std::get<ValidateBatchResponse>(batch.body).verdicts;
    ASSERT_EQ(slots.size(), docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      SCOPED_TRACE(docs[i]);
      const BatchDocVerdict& slot = slots[i];
      Response single = server.Handle(MakeValidate(id++, name, docs[i]));
      if (i < well_formed) {
        ASSERT_EQ(single.header.status, WireStatus::kOk)
            << single.header.detail;
        const auto& body = std::get<ValidateResponse>(single.body);
        EXPECT_EQ(slot.status, static_cast<uint8_t>(WireStatus::kOk));
        EXPECT_EQ(slot.valid, body.valid);
        EXPECT_EQ(slot.diagnostic, body.diagnostic);
        EXPECT_EQ(body.valid, expect_valid[i]);
        ++(body.valid ? accepted : rejected);
        continue;
      }
      ++malformed_docs;
      Alphabet any_tags;
      EXPECT_FALSE(ParseXml(docs[i], &any_tags).ok());
      EXPECT_EQ(single.header.status, WireStatus::kInvalidArgument);
      EXPECT_EQ(slot.status,
                static_cast<uint8_t>(WireStatus::kInvalidArgument));
      EXPECT_FALSE(slot.valid);
      EXPECT_EQ(slot.diagnostic.rfind("document: ", 0), 0u) << slot.diagnostic;
      // The single response carries the same diagnostic behind its status
      // code, like every error response.
      EXPECT_EQ(single.header.detail,
                Status::InvalidArgument(slot.diagnostic).ToString());
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(malformed_docs, 15u);
  EXPECT_EQ(server.SnapshotStats().validation_rejected, 0u);
}

// ---------------------------------------------------------------------------
// Seeded byte mutation of the wire decoders.
// ---------------------------------------------------------------------------

// One to four bit flips, byte overwrites (biased toward the boundary values
// that turn a length or count field hostile), single-byte inserts, short
// deletes and truncations, applied in sequence. The stream is the seeded
// Rng, so every failure replays.
std::string MutateBytes(std::string bytes, Rng& rng) {
  static constexpr char kBoundary[] = {'\x00', '\x01', '\x7f', '\x80',
                                       '\xff'};
  const uint64_t rounds = 1 + rng.NextBelow(4);
  for (uint64_t i = 0; i < rounds; ++i) {
    const uint64_t r = rng.NextU64();
    const size_t pos = bytes.empty() ? 0 : (r >> 8) % bytes.size();
    switch (r % 5) {
      case 0:
        if (!bytes.empty()) {
          bytes[pos] ^= static_cast<char>(1u << ((r >> 5) % 8));
        }
        break;
      case 1:
        if (!bytes.empty()) {
          bytes[pos] = (r >> 40) % 2 == 0 ? kBoundary[(r >> 41) % 5]
                                          : static_cast<char>(r >> 48);
        }
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
    }
  }
  return bytes;
}

// One well-formed encoded request per opcode, against the example registry.
// The inverse-inference seed pairs the one-tag copy transducer with a schema
// over other tags, so it fails fast in dispatch (kFailedPrecondition)
// instead of running a full inference per surviving mutant.
std::vector<std::string> WireSeedCorpus() {
  SpecializedDtd dtd = std::move(ParseSpecializedDtd(kInDtd)).ValueOrDie();
  std::string dtd_payload;
  SerializeDtdArtifact(dtd, &dtd_payload);
  std::string wrapped;
  WrapTaArtifact(TaArtifactKind::kDtd, dtd_payload, &wrapped);

  std::vector<Request> requests(kMaxOpcode + 1);
  requests[0].body = PingRequest{};
  requests[1].body = ValidateRequest{"in", "<a><c/></a>"};
  requests[2].body = TypecheckRequest{"copy", "micro", "micro"};
  requests[3].body = InferInverseRequest{"copy", "in"};
  requests[4].body = LoadArtifactRequest{"loaded", wrapped};
  requests[5].body = ListArtifactsRequest{};
  requests[6].body = StatsRequest{};
  requests[7].body = ValidateBatchRequest{"in", {"<a><c/></a>", "<a/>"}};
  std::vector<std::string> corpus;
  for (size_t op = 0; op < requests.size(); ++op) {
    requests[op].header.opcode = static_cast<Opcode>(op);
    requests[op].header.request_id = static_cast<uint32_t>(1000 + op);
    EXPECT_EQ(requests[op].body.index(), op) << "corpus order = opcode order";
    std::string bytes;
    EncodeRequest(requests[op], &bytes);
    corpus.push_back(std::move(bytes));
  }
  return corpus;
}

// The reply to any payload decodes to a structured status, echoing the
// request id whenever the payload's fixed header was readable. Returns the
// status, or nullopt when the reply is not a well-formed response.
std::optional<WireStatus> CheckStructuredReply(std::string_view request,
                                               const std::string& reply) {
  Result<Response> decoded = DecodeResponse(reply);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return std::nullopt;
  const ResponseHeader& header = decoded->header;
  if (header.status != WireStatus::kOk) {
    EXPECT_FALSE(header.detail.empty());
  }
  Result<RawRequestHeader> raw = PeekRequestHeader(request);
  if (raw.ok()) {
    EXPECT_EQ(header.request_id, raw->request_id);
  }
  return header.status;
}

// Hostile bytes at the wire decoders: every mutated request payload, and
// every frame a FrameDecoder cuts from a mutated byte stream, must come back
// from ServerCore::HandleFrame as a decodable, structured response — never a
// crash, hang or undecodable reply. The small deadline ceiling keeps any
// mutant that still dispatches short.
TEST(WireMutationTest, EveryMutatedFrameGetsAStructuredReply) {
  ServeOptions options = TestOptions();
  options.validity.max_deadline_ms = 5;
  options.default_deadline_ms = 5;
  ASSERT_TRUE(ValidateServeOptions(options).ok());
  ServerCore server(options);
  LoadExampleRegistry(&server);
  const std::vector<std::string> corpus = WireSeedCorpus();
  // Every seed decodes, passes the shape checks and reaches dispatch.
  for (const std::string& seed : corpus) {
    std::optional<WireStatus> status =
        CheckStructuredReply(seed, server.HandleFrame(seed));
    ASSERT_TRUE(status.has_value());
    EXPECT_NE(*status, WireStatus::kMalformedFrame);
    EXPECT_NE(*status, WireStatus::kValidationFailed);
  }

  constexpr int kMutantsPerSeed = 1000;
  Rng rng(0x5eed0f1e5ull);
  size_t served = 0, rejected = 0, frames = 0;
  for (size_t op = 0; op < corpus.size(); ++op) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      SCOPED_TRACE("opcode " + std::to_string(op) + ", mutant " +
                   std::to_string(i));
      const std::string payload = MutateBytes(corpus[op], rng);
      std::optional<WireStatus> status =
          CheckStructuredReply(payload, server.HandleFrame(payload));
      ASSERT_TRUE(status.has_value());
      ++(*status == WireStatus::kOk ? served : rejected);

      std::string stream;
      EncodeFrame(corpus[op], &stream);
      stream = MutateBytes(std::move(stream), rng);
      FrameDecoder decoder(options.max_frame_bytes);
      decoder.Append(stream);
      // Each frame consumes its 4-byte prefix, so a decoder that keeps
      // yielding past that bound is looping.
      size_t cut = 0;
      for (;;) {
        Result<std::optional<std::string>> frame = decoder.Next();
        if (!frame.ok() || !frame->has_value()) break;
        ASSERT_LE(++cut, stream.size() / 4) << "frame decoder does not advance";
        ASSERT_TRUE(CheckStructuredReply(**frame, server.HandleFrame(**frame))
                        .has_value());
      }
      frames += cut;
    }
  }
  // The mutants reach both the rejection paths and dispatch.
  EXPECT_GT(served, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(frames, 0u);
}

// ---------------------------------------------------------------------------
// Serve configuration (the frame cap and the default deadline).
// ---------------------------------------------------------------------------

TEST(ServeConfigTest, ValidateServeOptionsRejectsOutOfWindowFrameCaps) {
  ServeOptions options = TestOptions();
  EXPECT_TRUE(ValidateServeOptions(options).ok()) << "default is valid";

  options.max_frame_bytes = kMinFrameBytes;
  EXPECT_TRUE(ValidateServeOptions(options).ok());
  options.max_frame_bytes = kMaxFrameBytesCeiling;
  EXPECT_TRUE(ValidateServeOptions(options).ok());

  options.max_frame_bytes = 0;
  Status zero = ValidateServeOptions(options);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.code(), StatusCode::kInvalidArgument);

  options.max_frame_bytes = kMinFrameBytes - 1;
  EXPECT_FALSE(ValidateServeOptions(options).ok()) << "below the floor";
  options.max_frame_bytes = kMaxFrameBytesCeiling + 1;
  EXPECT_FALSE(ValidateServeOptions(options).ok()) << "above the ceiling";
}

// The default deadline obeys the same ceiling a client's deadline does, and
// is rejected above it rather than silently clamped per request.
TEST(ServeConfigTest, ValidateServeOptionsRejectsDefaultDeadlineAboveCeiling) {
  ServeOptions options = TestOptions();
  options.validity.max_deadline_ms = 500;
  options.default_deadline_ms = 500;
  EXPECT_TRUE(ValidateServeOptions(options).ok()) << "at the ceiling";

  options.default_deadline_ms = 501;
  Status over = ValidateServeOptions(options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.message().find("default_deadline_ms"), std::string::npos)
      << over.ToString();
}

// A frame declaring more than the *configured* cap (not the compile-time
// default) poisons the stream at exactly the configured boundary.
TEST(ServeConfigTest, FrameDecoderEnforcesTheConfiguredBoundary) {
  constexpr uint32_t kCap = 128;
  {
    FrameDecoder decoder(kCap);
    std::string stream;
    EncodeFrame(std::string(kCap, 'x'), &stream);  // exactly at the cap
    decoder.Append(stream);
    Result<std::optional<std::string>> r = decoder.Next();
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ((*r)->size(), kCap);
  }
  {
    FrameDecoder decoder(kCap);
    std::string stream;
    EncodeFrame(std::string(kCap + 1, 'x'), &stream);  // one past the cap
    decoder.Append(stream);
    Result<std::optional<std::string>> r = decoder.Next();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

// ---------------------------------------------------------------------------
// Admission control and overload shedding.
// ---------------------------------------------------------------------------

TEST(ServeAdmissionTest, SlotAccountingAndRelease) {
  AdmissionController admission(2, 1);
  auto a = admission.Admit(std::chrono::milliseconds(1));
  auto b = admission.Admit(std::chrono::milliseconds(1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(admission.in_flight(), 2u);
  auto c = admission.Admit(std::chrono::milliseconds(1));
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  a->Release();
  EXPECT_EQ(admission.in_flight(), 1u);
  auto d = admission.Admit(std::chrono::milliseconds(1));
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(admission.total_rejected(), 1u);
}

TEST(ServeAdmissionTest, QueuedWaiterGetsTheFreedSlot) {
  AdmissionController admission(1, 4);
  auto held = admission.Admit(std::chrono::milliseconds(1));
  ASSERT_TRUE(held.ok());

  std::atomic<bool> waiter_admitted{false};
  std::thread waiter([&] {
    auto slot = admission.Admit(std::chrono::seconds(5));
    waiter_admitted.store(slot.ok());
  });
  // Give the waiter time to park in the queue, then free the slot.
  while (admission.queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  held->Release();
  waiter.join();
  EXPECT_TRUE(waiter_admitted.load());
  // The waiter's slot died with its scope; nothing may leak.
  EXPECT_EQ(admission.in_flight(), 0u);
}

TEST(ServeAdmissionTest, SaturatedServerShedsWithOverloaded) {
  ServeOptions options = TestOptions();
  options.max_in_flight = 1;
  options.max_queued = 1;
  options.admission_wait = std::chrono::milliseconds(5);
  ServerCore server(options);
  ASSERT_TRUE(server.registry().PutDtdText("in", kInDtd).ok());

  // Hold the only slot directly, so dispatch cannot run.
  auto held = server.admission().Admit(std::chrono::milliseconds(1));
  ASSERT_TRUE(held.ok());

  // Grace-period shed: the request queues, waits 5ms, then is rejected with
  // a structured kOverloaded — not queued forever, not a dropped connection.
  Response shed = server.Handle(MakeValidate(1, "in", "<a><c/></a>"));
  EXPECT_EQ(shed.header.status, WireStatus::kOverloaded);
  EXPECT_FALSE(shed.header.detail.empty());
  EXPECT_EQ(server.SnapshotStats().overload_rejected, 1u);

  // Queue-full shed: park one waiter in the queue, then a second concurrent
  // request must be rejected immediately (no waiting).
  std::atomic<bool> queued_result{false};
  std::thread queued([&] {
    auto slot = server.admission().Admit(std::chrono::seconds(5));
    queued_result.store(slot.ok());
  });
  while (server.admission().queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto start = std::chrono::steady_clock::now();
  Response instant = server.Handle(MakeValidate(2, "in", "<a><c/></a>"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(instant.header.status, WireStatus::kOverloaded);
  EXPECT_LT(elapsed, std::chrono::seconds(1)) << "queue-full must shed fast";

  held->Release();
  queued.join();
  EXPECT_TRUE(queued_result.load());
  // The waiter's slot was released when its scope ended; nothing leaks.
  EXPECT_EQ(server.admission().in_flight(), 0u);
}

TEST(ServeAdmissionTest, RequestsReleaseSlotsOnEveryPath) {
  ServeOptions options = TestOptions();
  options.max_in_flight = 1;
  ServerCore server(options);
  LoadExampleRegistry(&server);

  // OK path, error path, validation-reject path — after each, in_flight
  // must be back to zero (a leaked slot would wedge the server).
  (void)server.Handle(MakeTypecheck(1, "rename", "in", "good_out"));
  EXPECT_EQ(server.admission().in_flight(), 0u);
  (void)server.Handle(MakeTypecheck(2, "missing", "in", "good_out"));
  EXPECT_EQ(server.admission().in_flight(), 0u);
  (void)server.Handle(MakeTypecheck(3, "../bad", "in", "good_out"));
  EXPECT_EQ(server.admission().in_flight(), 0u);
  EXPECT_EQ(server.SnapshotStats().in_flight, 0u);
}

}  // namespace
}  // namespace pebbletc::serve
