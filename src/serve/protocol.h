// The typecheck service's length-prefixed wire protocol (docs/SERVING.md).
//
// Transport framing: each message is a little-endian u32 byte count followed
// by that many payload bytes. The length is validated against a configurable
// cap *before* any allocation, so an adversarial prefix cannot make the
// server reserve gigabytes. `FrameDecoder` performs the incremental version
// of the same parse for stream transports.
//
// Payload framing: u8 protocol version, u8 opcode, u32 request id, u32
// requested deadline (ms, 0 = server default), then an opcode-specific body.
// Responses echo the opcode and request id and always carry a WireStatus
// plus a human-readable detail string — every failure mode, including
// malformed bytes, oversized frames, admission rejection, and mid-request
// fault injection, surfaces as a structured response, never a dropped
// connection (the serving layer's core robustness contract).
//
// All decoding here is pure parsing with range checks; shape validation
// (names, sizes, deadline) follows in src/serve/validity.h, and documents
// and artifact payloads are parsed by the dispatch that uses them.

#ifndef PEBBLETC_SERVE_PROTOCOL_H_
#define PEBBLETC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/result.h"

namespace pebbletc::serve {

/// Protocol version spoken by this build.
inline constexpr uint8_t kWireVersion = 1;

/// Default frame cap — the value ServeOptions::max_frame_bytes starts at.
/// 4 MiB comfortably fits every artifact in the repo while bounding
/// per-connection memory. Deployments may configure a different cap, but only
/// inside [kMinFrameBytes, kMaxFrameBytesCeiling]; ValidateServeOptions
/// (src/serve/server.h) rejects anything outside that window rather than
/// silently clamping.
inline constexpr uint32_t kMaxFrameBytes = 4u << 20;

/// Smallest admissible frame cap: a cap below this cannot carry even a
/// request header plus a minimal body, so it is a configuration error.
inline constexpr uint32_t kMinFrameBytes = 64;

/// Absolute ceiling on any configured frame cap. Bounds the worst-case
/// per-connection buffer a misconfigured deployment can expose.
inline constexpr uint32_t kMaxFrameBytesCeiling = 64u << 20;

/// Request opcodes. Wire-stable values — do not renumber.
enum class Opcode : uint8_t {
  kPing = 0,
  kValidate = 1,       ///< validate an XML document against a named schema
  kTypecheck = 2,      ///< T(τ1) ⊆ τ2 for named transducer + DTDs
  kInferInverse = 3,   ///< inverse type inference for a named transducer
  kLoadArtifact = 4,   ///< install a wrapped artifact into the registry
  kListArtifacts = 5,  ///< enumerate registry contents
  kStats = 6,          ///< server counters
  kValidateBatch = 7,  ///< validate N documents against one named schema
};
inline constexpr uint8_t kMaxOpcode = 7;

/// Structured response status. Wire-stable values — do not renumber.
enum class WireStatus : uint8_t {
  kOk = 0,
  kMalformedFrame = 1,     ///< bytes failed protocol-level decoding
  kUnsupportedVersion = 2,
  kUnknownOpcode = 3,
  kValidationFailed = 4,   ///< shape rejected by CheckRequest, or artifact
                           ///< payload failed to parse (kParseError)
  kNotFound = 5,           ///< named artifact absent from the registry
  kAlreadyExists = 6,
  kOverloaded = 7,         ///< admission control shed the request — back off
  kDeadlineExceeded = 8,
  kCancelled = 9,
  kResourceExhausted = 10,
  kFailedPrecondition = 11,  ///< e.g. artifact kinds that cannot be combined
  kInternal = 12,
  kInvalidArgument = 13,
};

const char* WireStatusName(WireStatus s);

struct RequestHeader {
  uint8_t version = kWireVersion;
  Opcode opcode = Opcode::kPing;
  uint32_t request_id = 0;
  /// Client-requested deadline in milliseconds; 0 means "server default".
  /// A deadline above the server's configured maximum is rejected
  /// (kValidationFailed), never clamped.
  uint32_t deadline_ms = 0;
};

struct PingRequest {};
struct ValidateRequest {
  std::string schema;    ///< registry name of a DTD or schema artifact
  std::string document;  ///< XML text
};
struct TypecheckRequest {
  std::string transducer;   ///< registry name of an XSLT or transducer artifact
  std::string input_type;   ///< registry name of the τ1 DTD
  std::string output_type;  ///< registry name of the τ2 DTD
};
struct InferInverseRequest {
  std::string transducer;
  std::string output_type;
};
struct LoadArtifactRequest {
  std::string name;
  std::string artifact;  ///< WrapTaArtifact container bytes
};
struct ListArtifactsRequest {};
struct StatsRequest {};
/// N documents against one artifact, in one frame and one admission slot.
/// The batch shares the request deadline: documents not yet validated when
/// it expires report kDeadlineExceeded individually.
struct ValidateBatchRequest {
  std::string schema;  ///< registry name of a DTD or schema artifact
  std::vector<std::string> documents;  ///< XML texts, validated in order
};

struct Request {
  RequestHeader header;
  std::variant<PingRequest, ValidateRequest, TypecheckRequest,
               InferInverseRequest, LoadArtifactRequest, ListArtifactsRequest,
               StatsRequest, ValidateBatchRequest>
      body;
};

struct ResponseHeader {
  uint8_t version = kWireVersion;
  Opcode opcode = Opcode::kPing;
  uint32_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  /// Human-readable diagnostic; non-empty exactly when status != kOk (and
  /// for degraded-but-ok verdicts, where it carries the exhaustion note).
  std::string detail;
};

struct PingResponse {};
struct ValidateResponse {
  bool valid = false;
  std::string diagnostic;  ///< offending element, for invalid documents
};
struct TypecheckResponse {
  /// 0 = typechecks, 1 = counterexample, 2 = unknown (degraded). A degraded
  /// verdict is an OK *response*: the request completed, the answer is
  /// honestly inconclusive, and the exhaustion fields say why.
  uint8_t verdict = 2;
  std::string method;
  bool exhausted = false;
  uint8_t exhaustion_code = 0;  ///< StatusCode of the first budget hit
  std::string exhaustion_pass;
  std::string exhaustion_detail;
  uint64_t checkpoints = 0;
  uint64_t states_materialized = 0;
  std::string counterexample_input_xml;   ///< empty unless verdict == 1
  std::string counterexample_output_xml;  ///< may be empty even on verdict 1
};
struct InferInverseResponse {
  uint32_t num_states = 0;
  uint32_t num_leaf_rules = 0;
  uint32_t num_rules = 0;
  uint64_t checkpoints = 0;
};
struct LoadArtifactResponse {
  uint8_t kind = 0;  ///< TaArtifactKind of the installed artifact
};
struct ArtifactInfo {
  std::string name;
  uint8_t kind = 0;
};
struct ListArtifactsResponse {
  std::vector<ArtifactInfo> artifacts;
};
struct StatsResponse {
  uint64_t requests_total = 0;
  uint64_t responses_ok = 0;
  uint64_t malformed_rejected = 0;
  uint64_t validation_rejected = 0;  ///< CheckRequest shape/cap rejections
  uint64_t overload_rejected = 0;
  uint64_t degraded_verdicts = 0;
  uint64_t hard_errors = 0;
  uint64_t faults_injected = 0;
  uint32_t in_flight = 0;
  /// Typechecks that ran the typechecker, and typechecks answered from the
  /// server's decision map (docs/CACHING.md).
  uint64_t typecheck_runs = 0;
  uint64_t typecheck_replays = 0;
};

/// Per-document verdict inside a batch response. `status` is a WireStatus
/// byte: kOk means validation completed (`valid` is the answer); anything
/// else means this document's validation failed — malformed XML
/// (kInvalidArgument, as in the single-document opcode), deadline,
/// cancellation — without failing the rest of the batch.
struct BatchDocVerdict {
  uint8_t status = 0;
  bool valid = false;
  std::string diagnostic;
};
struct ValidateBatchResponse {
  std::vector<BatchDocVerdict> verdicts;  ///< one per document, in order
  uint64_t fast_path_docs = 0;  ///< answered via the compiled DBTA table
  uint64_t fallback_docs = 0;   ///< answered via the NbtaAccepts fallback
};

struct Response {
  ResponseHeader header;
  std::variant<PingResponse, ValidateResponse, TypecheckResponse,
               InferInverseResponse, LoadArtifactResponse,
               ListArtifactsResponse, StatsResponse, ValidateBatchResponse>
      body;
};

// ---------------------------------------------------------------------------
// Encoding / decoding.
// ---------------------------------------------------------------------------

/// Serializes a request payload (no transport frame).
void EncodeRequest(const Request& request, std::string* out);

/// Parses a request payload. Every byte is range-checked; kParseError on any
/// truncation, trailing bytes, unknown opcode/version, or oversized string
/// field. No request body string may exceed `max_field_bytes`.
Result<Request> DecodeRequest(std::string_view payload,
                              uint32_t max_field_bytes = kMaxFrameBytes);

/// Parses just the fixed-size request header — no version/opcode validation —
/// so a dispatcher can echo the request id and pick the precise error status
/// (kUnsupportedVersion vs kUnknownOpcode vs kMalformedFrame) for payloads
/// that fail full decoding. The returned opcode byte is raw; compare against
/// kMaxOpcode before trusting it.
struct RawRequestHeader {
  uint8_t version = 0;
  uint8_t opcode_byte = 0;
  uint32_t request_id = 0;
  uint32_t deadline_ms = 0;
};
Result<RawRequestHeader> PeekRequestHeader(std::string_view payload);

/// Serializes a response payload (no transport frame). An error response
/// (status != kOk) carries no body section.
void EncodeResponse(const Response& response, std::string* out);

/// Parses a response payload (used by the client and the test suites).
Result<Response> DecodeResponse(std::string_view payload,
                                uint32_t max_field_bytes = kMaxFrameBytes);

/// Appends the u32 length prefix + payload.
void EncodeFrame(std::string_view payload, std::string* out);

/// Bytes in a frame's length prefix.
inline constexpr size_t kFramePrefixBytes = 4;

/// The payload length declared by the kFramePrefixBytes bytes at `prefix`;
/// kParseError ("declared frame length N exceeds the M-byte cap") when it is
/// above `max_frame_bytes`. Every transport checks its frames through this.
Result<uint32_t> DecodeFrameLength(const char* prefix,
                                   uint32_t max_frame_bytes);

/// Incremental frame parser for stream transports. Feed bytes with Append;
/// Next() yields one complete payload at a time. A declared length above
/// `max_frame_bytes` is a hard protocol error: the stream is poisoned (every
/// later Next() fails too, since resynchronization is impossible).
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(std::string_view bytes) { buffer_.append(bytes); }

  /// One complete frame payload, std::nullopt if more bytes are needed, or
  /// kParseError if the stream declared an oversized frame.
  Result<std::optional<std::string>> Next();

  /// Bytes buffered but not yet returned (for EOF-mid-frame detection).
  size_t pending_bytes() const { return buffer_.size(); }

 private:
  uint32_t max_frame_bytes_;
  bool poisoned_ = false;
  std::string buffer_;
};

/// Builds a ready-to-send error response for a request that could not be
/// decoded far enough to dispatch (request id defaults to 0 when even the
/// header was unreadable).
Response MakeErrorResponse(Opcode opcode, uint32_t request_id,
                           WireStatus status, std::string detail);

}  // namespace pebbletc::serve

#endif  // PEBBLETC_SERVE_PROTOCOL_H_
