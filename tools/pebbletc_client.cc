// pebbletc_client — wire client for the pebbletc_serve daemon
// (docs/SERVING.md).
//
// Single-shot commands:
//   pebbletc_client --socket=PATH ping | list | stats
//   pebbletc_client --socket=PATH validate  <schema> <xml>
//   pebbletc_client --socket=PATH batch     <schema> <xml> [<xml>...]
//   pebbletc_client --socket=PATH typecheck <transducer> <tau1> <tau2>
//   pebbletc_client --socket=PATH infer     <transducer> <tau2>
//   pebbletc_client --socket=PATH load      <name> <ptar-file>
//
// Scripted robustness mix (the CI serve-smoke job's driver):
//   pebbletc_client --socket=PATH mix [--rounds=N]
//
// The mix interleaves well-formed traffic (ping / list / stats / validate /
// typecheck over the examples/artifacts names) with hostile frames —
// garbage payloads, wrong wire versions, unknown opcodes, truncated bodies,
// oversized declared lengths, and torn half-frames followed by disconnect —
// and checks that every single response is a *structured* one with the
// expected wire status. Exit code 0 means the daemon survived the whole
// script and answered everything correctly; any crash, hang, unexpected
// status, or undecodable response is a non-zero exit.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/serve/protocol.h"

namespace pebbletc::serve {
namespace {

// ---------------------------------------------------------------------------
// Socket plumbing.
// ---------------------------------------------------------------------------

int Connect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t r = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

bool ReadAll(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, buf + got, n - got);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

/// Reads one response frame. False on EOF, error or an oversized frame.
bool ReadFrame(int fd, std::string* payload) {
  char prefix[kFramePrefixBytes];
  if (!ReadAll(fd, prefix, kFramePrefixBytes)) return false;
  Result<uint32_t> len = DecodeFrameLength(prefix, kMaxFrameBytes);
  if (!len.ok()) return false;
  payload->assign(*len, '\0');
  return ReadAll(fd, payload->data(), *len);
}

bool Call(int fd, const Request& request, Response* response) {
  std::string payload;
  EncodeRequest(request, &payload);
  std::string frame;
  EncodeFrame(payload, &frame);
  if (!WriteAll(fd, frame)) return false;
  std::string back;
  if (!ReadFrame(fd, &back)) return false;
  Result<Response> decoded = DecodeResponse(back);
  if (!decoded.ok()) return false;
  *response = std::move(decoded).value();
  return true;
}

void PrintResponse(const Response& response) {
  std::printf("request %u: %s", response.header.request_id,
              WireStatusName(response.header.status));
  if (!response.header.detail.empty()) {
    std::printf(" (%s)", response.header.detail.c_str());
  }
  std::printf("\n");
  if (response.header.status != WireStatus::kOk) return;
  if (const auto* t = std::get_if<TypecheckResponse>(&response.body)) {
    const char* verdicts[] = {"TYPECHECKS", "COUNTEREXAMPLE", "UNKNOWN"};
    std::printf("  verdict: %s  method: %s  checkpoints: %llu\n",
                verdicts[t->verdict < 3 ? t->verdict : 2], t->method.c_str(),
                static_cast<unsigned long long>(t->checkpoints));
    if (t->exhausted) {
      std::printf("  exhausted in pass '%s': %s\n", t->exhaustion_pass.c_str(),
                  t->exhaustion_detail.c_str());
    }
    if (!t->counterexample_input_xml.empty()) {
      std::printf("  counterexample input:  %s\n",
                  t->counterexample_input_xml.c_str());
      std::printf("  counterexample output: %s\n",
                  t->counterexample_output_xml.c_str());
    }
  } else if (const auto* v = std::get_if<ValidateResponse>(&response.body)) {
    std::printf("  %s%s%s\n", v->valid ? "valid" : "INVALID",
                v->diagnostic.empty() ? "" : ": ", v->diagnostic.c_str());
  } else if (const auto* b =
                 std::get_if<ValidateBatchResponse>(&response.body)) {
    std::printf("  %zu verdict(s), %llu fast-path, %llu fallback\n",
                b->verdicts.size(),
                static_cast<unsigned long long>(b->fast_path_docs),
                static_cast<unsigned long long>(b->fallback_docs));
    for (size_t i = 0; i < b->verdicts.size(); ++i) {
      const BatchDocVerdict& v = b->verdicts[i];
      if (v.status != static_cast<uint8_t>(WireStatus::kOk)) {
        std::printf("  [%zu] %s: %s\n", i,
                    WireStatusName(static_cast<WireStatus>(v.status)),
                    v.diagnostic.c_str());
      } else {
        std::printf("  [%zu] %s%s%s\n", i, v.valid ? "valid" : "INVALID",
                    v.diagnostic.empty() ? "" : ": ", v.diagnostic.c_str());
      }
    }
  } else if (const auto* i =
                 std::get_if<InferInverseResponse>(&response.body)) {
    std::printf("  inverse type: %u state(s), %u leaf rule(s), %u rule(s)\n",
                i->num_states, i->num_leaf_rules, i->num_rules);
  } else if (const auto* l =
                 std::get_if<ListArtifactsResponse>(&response.body)) {
    for (const ArtifactInfo& a : l->artifacts) {
      std::printf("  %-20s kind=%u\n", a.name.c_str(), a.kind);
    }
  } else if (const auto* s = std::get_if<StatsResponse>(&response.body)) {
    std::printf("  total=%llu ok=%llu malformed=%llu invalid=%llu "
                "shed=%llu degraded=%llu hard=%llu in_flight=%u "
                "typecheck_runs=%llu typecheck_replays=%llu\n",
                static_cast<unsigned long long>(s->requests_total),
                static_cast<unsigned long long>(s->responses_ok),
                static_cast<unsigned long long>(s->malformed_rejected),
                static_cast<unsigned long long>(s->validation_rejected),
                static_cast<unsigned long long>(s->overload_rejected),
                static_cast<unsigned long long>(s->degraded_verdicts),
                static_cast<unsigned long long>(s->hard_errors),
                s->in_flight,
                static_cast<unsigned long long>(s->typecheck_runs),
                static_cast<unsigned long long>(s->typecheck_replays));
  }
}

// ---------------------------------------------------------------------------
// The scripted robustness mix.
// ---------------------------------------------------------------------------

struct MixState {
  std::string socket_path;
  uint32_t next_id = 1;
  int passed = 0;
  int failed = 0;
};

void Report(MixState* mix, bool ok, const char* what, const char* detail) {
  if (ok) {
    ++mix->passed;
  } else {
    ++mix->failed;
    std::fprintf(stderr, "FAIL: %s: %s\n", what, detail);
  }
}

/// Sends a well-formed request on an existing connection and checks the
/// response status.
void ExpectStatus(MixState* mix, int fd, Request request, WireStatus want,
                  const char* what) {
  request.header.request_id = mix->next_id++;
  Response response;
  if (!Call(fd, request, &response)) {
    Report(mix, false, what, "no decodable response (connection died?)");
    return;
  }
  if (response.header.status != want) {
    std::string detail = std::string("status ") +
                         WireStatusName(response.header.status) +
                         ", wanted " + WireStatusName(want) + " — " +
                         response.header.detail;
    Report(mix, false, what, detail.c_str());
    return;
  }
  Report(mix, true, what, "");
}

/// Sends raw payload bytes as one frame and expects a structured error with
/// the given status. The connection must stay usable afterwards.
void ExpectErrorFrame(MixState* mix, int fd, const std::string& payload,
                      WireStatus want, const char* what) {
  std::string frame;
  EncodeFrame(payload, &frame);
  if (!WriteAll(fd, frame)) {
    Report(mix, false, what, "write failed");
    return;
  }
  std::string back;
  if (!ReadFrame(fd, &back)) {
    Report(mix, false, what, "no response frame — connection dropped");
    return;
  }
  Result<Response> decoded = DecodeResponse(back);
  if (!decoded.ok()) {
    Report(mix, false, what, "response did not decode");
    return;
  }
  if (decoded->header.status != want) {
    std::string detail = std::string("status ") +
                         WireStatusName(decoded->header.status) +
                         ", wanted " + WireStatusName(want);
    Report(mix, false, what, detail.c_str());
    return;
  }
  if (decoded->header.detail.empty()) {
    Report(mix, false, what, "error response carries no diagnostic");
    return;
  }
  Report(mix, true, what, "");
}

Request Ping() {
  Request r;
  r.header.opcode = Opcode::kPing;
  r.body = PingRequest{};
  return r;
}

Request Typecheck(const std::string& t, const std::string& tau1,
                  const std::string& tau2) {
  Request r;
  r.header.opcode = Opcode::kTypecheck;
  r.body = TypecheckRequest{t, tau1, tau2};
  return r;
}

Request Validate(const std::string& schema, const std::string& doc) {
  Request r;
  r.header.opcode = Opcode::kValidate;
  r.body = ValidateRequest{schema, doc};
  return r;
}

Request ValidateBatch(const std::string& schema,
                      std::vector<std::string> docs) {
  Request r;
  r.header.opcode = Opcode::kValidateBatch;
  r.body = ValidateBatchRequest{schema, std::move(docs)};
  return r;
}

int RunMix(MixState* mix, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    int fd = Connect(mix->socket_path);
    if (fd < 0) {
      std::fprintf(stderr, "mix: cannot connect to %s: %s\n",
                   mix->socket_path.c_str(), std::strerror(errno));
      return 1;
    }

    // --- Well-formed traffic (examples/artifacts names). ---
    ExpectStatus(mix, fd, Ping(), WireStatus::kOk, "ping");
    {
      Request list;
      list.header.opcode = Opcode::kListArtifacts;
      list.body = ListArtifactsRequest{};
      ExpectStatus(mix, fd, list, WireStatus::kOk, "list");
    }
    ExpectStatus(mix, fd, Typecheck("rename", "rename_in", "good_out"),
                 WireStatus::kOk, "typecheck good pair");
    ExpectStatus(mix, fd, Typecheck("rename", "rename_in", "bad_out"),
                 WireStatus::kOk, "typecheck bad pair");
    ExpectStatus(mix, fd, Validate("rename_in", "<a><c/></a>"),
                 WireStatus::kOk, "validate conforming document");
    ExpectStatus(mix, fd, Validate("rename_in", "<a/>"), WireStatus::kOk,
                 "validate non-conforming document");
    ExpectStatus(mix, fd, Typecheck("no-such-artifact", "rename_in",
                                    "good_out"),
                 WireStatus::kNotFound, "typecheck unknown name");
    ExpectStatus(mix, fd, Validate("../../etc/passwd", "<a/>"),
                 WireStatus::kValidationFailed, "hostile artifact name");
    ExpectStatus(mix, fd, Validate("rename_in", "<a><unclosed></a>"),
                 WireStatus::kInvalidArgument, "malformed XML document");
    ExpectStatus(mix, fd,
                 ValidateBatch("rename_in",
                               {"<a><c/></a>", "<a><unclosed></a>"}),
                 WireStatus::kOk, "batch with one malformed document");
    ExpectStatus(mix, fd,
                 ValidateBatch("rename_in", {"<a><c/></a>", "<a/>",
                                             "<a><c/><c/></a>"}),
                 WireStatus::kOk, "batch validate mixed documents");
    ExpectStatus(mix, fd, ValidateBatch("rename_in", {}),
                 WireStatus::kValidationFailed, "batch with no documents");

    // --- Hostile frames on the same connection. ---
    ExpectErrorFrame(mix, fd, "", WireStatus::kMalformedFrame,
                     "empty payload");
    ExpectErrorFrame(mix, fd, std::string("\x01\x02trailing-garbage", 18),
                     WireStatus::kMalformedFrame, "garbage payload");
    {
      Request bad_version = Ping();
      bad_version.header.version = 99;
      bad_version.header.request_id = mix->next_id++;
      std::string payload;
      EncodeRequest(bad_version, &payload);
      ExpectErrorFrame(mix, fd, payload, WireStatus::kUnsupportedVersion,
                       "wrong wire version");
    }
    {
      std::string payload = "\x01\x63";  // version 1, opcode 99
      payload.append(8, '\0');
      ExpectErrorFrame(mix, fd, payload, WireStatus::kUnknownOpcode,
                       "unknown opcode");
    }
    {
      Request valid = Typecheck("rename", "rename_in", "good_out");
      valid.header.request_id = mix->next_id++;
      std::string payload;
      EncodeRequest(valid, &payload);
      ExpectErrorFrame(mix, fd, payload.substr(0, payload.size() - 4),
                       WireStatus::kMalformedFrame, "truncated body");
    }

    // The connection survived every hostile frame above.
    ExpectStatus(mix, fd, Ping(), WireStatus::kOk,
                 "ping after hostile frames");

    // --- Oversized declared length: one structured error, then close. ---
    {
      std::string frame(4, '\0');
      frame[0] = '\xff';
      frame[1] = '\xff';
      frame[2] = '\xff';
      frame[3] = '\x7f';  // declares ~2 GiB
      bool ok = WriteAll(fd, frame);
      std::string back;
      ok = ok && ReadFrame(fd, &back);
      if (ok) {
        Result<Response> decoded = DecodeResponse(back);
        ok = decoded.ok() &&
             decoded->header.status == WireStatus::kMalformedFrame;
      }
      Report(mix, ok, "oversized frame",
             "wanted one structured kMalformedFrame then close");
      ::close(fd);
    }

    // --- Torn half-frame + disconnect: the daemon must shrug it off. ---
    {
      int torn = Connect(mix->socket_path);
      bool ok = torn >= 0;
      if (ok) {
        std::string frame;
        Request valid = Ping();
        valid.header.request_id = mix->next_id++;
        std::string payload;
        EncodeRequest(valid, &payload);
        EncodeFrame(payload, &frame);
        ok = WriteAll(torn, frame.substr(0, frame.size() / 2));
        ::close(torn);
      }
      Report(mix, ok, "torn frame + disconnect", "write failed");
    }

    // A fresh connection still gets clean service.
    int again = Connect(mix->socket_path);
    if (again < 0) {
      std::fprintf(stderr, "mix: daemon unreachable after hostile round\n");
      return 1;
    }
    ExpectStatus(mix, again, Ping(), WireStatus::kOk,
                 "ping on fresh connection");
    {
      Request stats;
      stats.header.opcode = Opcode::kStats;
      stats.body = StatsRequest{};
      ExpectStatus(mix, again, stats, WireStatus::kOk, "stats");
    }
    ::close(again);
  }

  std::printf("mix: %d check(s) passed, %d failed\n", mix->passed,
              mix->failed);
  return mix->failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> args;
  int rounds = 3;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      socket_path = arg + 9;
    } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
      rounds = std::atoi(arg + 9);
      if (rounds <= 0) rounds = 1;
    } else {
      args.push_back(arg);
    }
  }
  if (socket_path.empty() || args.empty()) {
    std::fprintf(stderr,
                 "usage: %s --socket=PATH "
                 "(ping|list|stats|mix [--rounds=N]|validate S XML|"
                 "batch S XML [XML...]|"
                 "typecheck T TAU1 TAU2|infer T TAU2|load NAME FILE)\n",
                 argv[0]);
    return 2;
  }

  if (args[0] == "mix") {
    MixState mix;
    mix.socket_path = socket_path;
    return RunMix(&mix, rounds);
  }

  Request request;
  request.header.request_id = 1;
  if (args[0] == "ping") {
    request.header.opcode = Opcode::kPing;
    request.body = PingRequest{};
  } else if (args[0] == "list") {
    request.header.opcode = Opcode::kListArtifacts;
    request.body = ListArtifactsRequest{};
  } else if (args[0] == "stats") {
    request.header.opcode = Opcode::kStats;
    request.body = StatsRequest{};
  } else if (args[0] == "validate" && args.size() == 3) {
    request.header.opcode = Opcode::kValidate;
    request.body = ValidateRequest{args[1], args[2]};
  } else if (args[0] == "batch" && args.size() >= 3) {
    request.header.opcode = Opcode::kValidateBatch;
    request.body = ValidateBatchRequest{
        args[1], std::vector<std::string>(args.begin() + 2, args.end())};
  } else if (args[0] == "typecheck" && args.size() == 4) {
    request.header.opcode = Opcode::kTypecheck;
    request.body = TypecheckRequest{args[1], args[2], args[3]};
  } else if (args[0] == "infer" && args.size() == 3) {
    request.header.opcode = Opcode::kInferInverse;
    request.body = InferInverseRequest{args[1], args[2]};
  } else if (args[0] == "load" && args.size() == 3) {
    std::ifstream file(args[2], std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", args[2].c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    request.header.opcode = Opcode::kLoadArtifact;
    request.body = LoadArtifactRequest{args[1], buffer.str()};
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", args[0].c_str());
    return 2;
  }

  int fd = Connect(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", socket_path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  Response response;
  if (!Call(fd, request, &response)) {
    std::fprintf(stderr, "no decodable response from the server\n");
    ::close(fd);
    return 1;
  }
  ::close(fd);
  PrintResponse(response);
  return response.header.status == WireStatus::kOk ? 0 : 1;
}

}  // namespace
}  // namespace pebbletc::serve

int main(int argc, char** argv) {
  return pebbletc::serve::Main(argc, argv);
}
