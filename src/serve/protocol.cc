#include "src/serve/protocol.h"

#include <type_traits>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace pebbletc::serve {
namespace {

constexpr auto kMaxWireStatus =
    static_cast<uint8_t>(WireStatus::kInvalidArgument);

// Each message body lists its fields once, in wire order. `io` is a Writer
// (encode) or a Reader (decode): io(fields...) walks plain fields,
// io.Capped a u8 with a largest legal value, and io.List a u32 count then
// that many entries of at least `min_bytes` wire bytes each.
template <class Io, class Empty>
std::enable_if_t<std::is_empty_v<Empty>> Fields(Io&, Empty&) {}

template <class Io>
void Fields(Io& io, RawRequestHeader& m) {
  io(m.version, m.opcode_byte, m.request_id, m.deadline_ms);
}
template <class Io>
void Fields(Io& io, ValidateRequest& m) {
  io(m.schema, m.document);
}
template <class Io>
void Fields(Io& io, TypecheckRequest& m) {
  io(m.transducer, m.input_type, m.output_type);
}
template <class Io>
void Fields(Io& io, InferInverseRequest& m) {
  io(m.transducer, m.output_type);
}
template <class Io>
void Fields(Io& io, LoadArtifactRequest& m) {
  io(m.name, m.artifact);
}
template <class Io>
void Fields(Io& io, ValidateBatchRequest& m) {
  io(m.schema);
  io.List(m.documents, /*min_bytes=*/4,
          "batch document count exceeds the payload");
}

template <class Io>
void Fields(Io& io, ValidateResponse& m) {
  io(m.valid, m.diagnostic);
}
template <class Io>
void Fields(Io& io, TypecheckResponse& m) {
  io.Capped(m.verdict, 2, "typecheck verdict out of range");
  io(m.method, m.exhausted, m.exhaustion_code, m.exhaustion_pass,
     m.exhaustion_detail, m.checkpoints, m.states_materialized,
     m.counterexample_input_xml, m.counterexample_output_xml);
}
template <class Io>
void Fields(Io& io, InferInverseResponse& m) {
  io(m.num_states, m.num_leaf_rules, m.num_rules, m.checkpoints);
}
template <class Io>
void Fields(Io& io, LoadArtifactResponse& m) {
  io(m.kind);
}
template <class Io>
void Fields(Io& io, ArtifactInfo& m) {
  io(m.name, m.kind);
}
template <class Io>
void Fields(Io& io, ListArtifactsResponse& m) {
  io.List(m.artifacts, /*min_bytes=*/5,
          "artifact list count exceeds the payload");
}
template <class Io>
void Fields(Io& io, StatsResponse& m) {
  io(m.requests_total, m.responses_ok, m.malformed_rejected,
     m.validation_rejected, m.overload_rejected, m.degraded_verdicts,
     m.hard_errors, m.faults_injected, m.in_flight, m.typecheck_runs,
     m.typecheck_replays);
}
template <class Io>
void Fields(Io& io, BatchDocVerdict& m) {
  io.Capped(m.status, kMaxWireStatus, "unknown wire status in batch verdict");
  io(m.valid, m.diagnostic);
}
template <class Io>
void Fields(Io& io, ValidateBatchResponse& m) {
  io.List(m.verdicts, /*min_bytes=*/6,
          "batch verdict count exceeds the payload");
  io(m.fast_path_docs, m.fallback_docs);
}

// Appends each field it walks.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  template <class... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }
  void Capped(uint8_t v, uint8_t, const char*) { PutU8(v, out_); }
  template <class T>
  void List(const std::vector<T>& entries, size_t, const char*) {
    PutU32(static_cast<uint32_t>(entries.size()), out_);
    for (const T& entry : entries) Put(entry);
  }

 private:
  void Put(const uint8_t& v) { PutU8(v, out_); }
  void Put(const uint32_t& v) { PutU32(v, out_); }
  void Put(const uint64_t& v) { PutU64(v, out_); }
  void Put(const bool& v) { PutU8(v ? 1 : 0, out_); }
  void Put(const std::string& s) { PutString(s, out_); }
  // Fields takes a mutable message so one list serves both directions; the
  // writer only reads it.
  template <class Msg>
  void Put(const Msg& m) {
    Fields(*this, const_cast<Msg&>(m));
  }

  std::string* out_;
};

// Fills each field it walks. The first failure sticks: later reads do
// nothing, and status() reports it.
class Reader {
 public:
  Reader(std::string_view bytes, uint32_t max_field_bytes)
      : in_(bytes, "wire message"), max_field_(max_field_bytes) {}

  template <class... F>
  void operator()(F&... fields) {
    (Get(fields), ...);
  }
  void Capped(uint8_t& v, uint8_t max, const char* what) {
    Get(v);
    if (status_.ok() && v > max) status_ = Status::ParseError(what);
  }
  template <class T>
  void List(std::vector<T>& entries, size_t min_bytes, const char* what) {
    uint32_t count = 0;
    Get(count);
    if (!status_.ok()) return;
    // A count the rest of the payload cannot hold is rejected before the
    // reserve, so a hostile count cannot force a huge allocation.
    if (count > in_.remaining() / min_bytes) {
      status_ = Status::ParseError(what);
      return;
    }
    entries.reserve(count);
    for (uint32_t i = 0; i < count && status_.ok(); ++i) {
      Get(entries.emplace_back());
    }
  }

  const Status& status() const { return status_; }
  /// The first failure, else whether every byte was read.
  Status Done() const { return status_.ok() ? in_.Done() : status_; }

 private:
  void Get(uint8_t& v) { if (status_.ok()) status_ = in_.ReadU8(&v); }
  void Get(uint32_t& v) { if (status_.ok()) status_ = in_.ReadU32(&v); }
  void Get(uint64_t& v) { if (status_.ok()) status_ = in_.ReadU64(&v); }
  void Get(bool& v) { if (status_.ok()) status_ = in_.ReadBool(&v); }
  void Get(std::string& s) {
    if (status_.ok()) status_ = in_.ReadString(max_field_, &s);
  }
  template <class Msg>
  void Get(Msg& m) {
    Fields(*this, m);
  }

  ByteReader in_;
  uint32_t max_field_;
  Status status_;
};

// Sets `body` to its alternative for `opcode` and reads that alternative's
// fields.
template <class Body>
void ReadBody(Reader& in, Body& body, uint8_t opcode) {
  static_assert(std::variant_size_v<Body> == kMaxOpcode + 1,
                "one body alternative per opcode, in opcode order");
  [&]<size_t... I>(std::index_sequence<I...>) {
    ((opcode == I ? in(body.template emplace<I>()) : void()), ...);
  }(std::make_index_sequence<std::variant_size_v<Body>>());
}

}  // namespace

const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kMalformedFrame: return "MALFORMED_FRAME";
    case WireStatus::kUnsupportedVersion: return "UNSUPPORTED_VERSION";
    case WireStatus::kUnknownOpcode: return "UNKNOWN_OPCODE";
    case WireStatus::kValidationFailed: return "VALIDATION_FAILED";
    case WireStatus::kNotFound: return "NOT_FOUND";
    case WireStatus::kAlreadyExists: return "ALREADY_EXISTS";
    case WireStatus::kOverloaded: return "OVERLOADED";
    case WireStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireStatus::kCancelled: return "CANCELLED";
    case WireStatus::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case WireStatus::kFailedPrecondition: return "FAILED_PRECONDITION";
    case WireStatus::kInternal: return "INTERNAL";
    case WireStatus::kInvalidArgument: return "INVALID_ARGUMENT";
  }
  return "UNKNOWN";
}

void EncodeRequest(const Request& request, std::string* out) {
  const RequestHeader& h = request.header;
  Writer w(out);
  w(RawRequestHeader{h.version, static_cast<uint8_t>(h.opcode), h.request_id,
                     h.deadline_ms});
  std::visit(w, request.body);
}

Result<Request> DecodeRequest(std::string_view payload,
                              uint32_t max_field_bytes) {
  Reader in(payload, max_field_bytes);
  RawRequestHeader raw;
  in(raw);
  PEBBLETC_RETURN_IF_ERROR(in.status());
  if (raw.version != kWireVersion) {
    return Status::ParseError("unsupported wire version " +
                              std::to_string(raw.version));
  }
  if (raw.opcode_byte > kMaxOpcode) {
    return Status::ParseError("unknown opcode " +
                              std::to_string(raw.opcode_byte));
  }
  Request request;
  request.header = {raw.version, static_cast<Opcode>(raw.opcode_byte),
                    raw.request_id, raw.deadline_ms};
  ReadBody(in, request.body, raw.opcode_byte);
  PEBBLETC_RETURN_IF_ERROR(in.Done());
  return request;
}

Result<RawRequestHeader> PeekRequestHeader(std::string_view payload) {
  Reader in(payload, kMaxFrameBytes);
  RawRequestHeader header;
  in(header);
  PEBBLETC_RETURN_IF_ERROR(in.status());
  return header;
}

void EncodeResponse(const Response& response, std::string* out) {
  const ResponseHeader& h = response.header;
  Writer w(out);
  w(h.version, static_cast<uint8_t>(h.opcode), h.request_id,
    static_cast<uint8_t>(h.status), h.detail);
  if (h.status == WireStatus::kOk) std::visit(w, response.body);
}

Result<Response> DecodeResponse(std::string_view payload,
                                uint32_t max_field_bytes) {
  Reader in(payload, max_field_bytes);
  Response response;
  uint8_t opcode_byte = 0, status_byte = 0;
  in(response.header.version, opcode_byte, response.header.request_id,
     status_byte, response.header.detail);
  PEBBLETC_RETURN_IF_ERROR(in.status());
  if (response.header.version != kWireVersion) {
    return Status::ParseError("unsupported wire version");
  }
  if (opcode_byte > kMaxOpcode) {
    return Status::ParseError("unknown opcode in response");
  }
  if (status_byte > kMaxWireStatus) {
    return Status::ParseError("unknown wire status in response");
  }
  response.header.opcode = static_cast<Opcode>(opcode_byte);
  response.header.status = static_cast<WireStatus>(status_byte);
  if (response.header.status == WireStatus::kOk) {
    ReadBody(in, response.body, opcode_byte);
  }
  PEBBLETC_RETURN_IF_ERROR(in.Done());
  return response;
}

void EncodeFrame(std::string_view payload, std::string* out) {
  PutString(payload, out);
}

Result<uint32_t> DecodeFrameLength(const char* prefix,
                                   uint32_t max_frame_bytes) {
  const auto len = LoadLe<uint32_t>(prefix);
  if (len > max_frame_bytes) {
    return Status::ParseError("declared frame length " + std::to_string(len) +
                              " exceeds the " +
                              std::to_string(max_frame_bytes) + "-byte cap");
  }
  return len;
}

Result<std::optional<std::string>> FrameDecoder::Next() {
  if (poisoned_) {
    return Status::ParseError("frame stream poisoned by an oversized frame");
  }
  if (buffer_.size() < kFramePrefixBytes) return std::optional<std::string>();
  Result<uint32_t> len = DecodeFrameLength(buffer_.data(), max_frame_bytes_);
  if (!len.ok()) {
    // A bad length desynchronizes the stream permanently — there is no way
    // to find the next frame boundary, so fail every subsequent read too.
    poisoned_ = true;
    return len.status();
  }
  const size_t end = kFramePrefixBytes + *len;
  if (buffer_.size() < end) return std::optional<std::string>();
  std::string payload = buffer_.substr(kFramePrefixBytes, *len);
  buffer_.erase(0, end);
  return std::optional<std::string>(std::move(payload));
}

Response MakeErrorResponse(Opcode opcode, uint32_t request_id,
                           WireStatus status, std::string detail) {
  Response response;
  response.header.opcode = opcode;
  response.header.request_id = request_id;
  response.header.status = status;
  response.header.detail = std::move(detail);
  return response;
}

}  // namespace pebbletc::serve
