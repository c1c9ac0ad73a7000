// pebbletc_serve — the typecheck-as-a-service daemon (docs/SERVING.md).
//
// Serves validate / typecheck / infer-inverse-type requests over a
// Unix-domain socket speaking the length-prefixed wire protocol of
// src/serve/protocol.h, against a registry of named artifacts loaded from a
// directory at startup (`.dtd`, `.xslt`, `.ptar` files, named by file stem)
// and optionally extended at runtime via the kLoadArtifact op.
//
//   pebbletc_serve --socket=/tmp/pebbletc.sock --artifacts=DIR
//                  [--max-in-flight=N] [--max-queued=N]
//                  [--default-deadline-ms=N] [--max-deadline-ms=N]
//                  [--max-det-states=N] [--max-antichain-pairs=N]
//                  [--max-frame-bytes=N] [--max-batch-docs=N]
//                  [--no-load] [--memo=off|memory]
//
// The process exits 0 on SIGINT/SIGTERM after draining, non-zero on a
// startup failure: 2 for a bad flag or a configuration ValidateServeOptions
// rejects (a frame cap outside its window, a default deadline above the
// deadline ceiling), 1 for an unloadable artifact directory or a bind
// failure.
// Every post-startup failure mode is a structured wire response; a client
// can crash, flood, disconnect mid-request, or send garbage without taking
// the daemon down — that is the contract the `serve`-labelled tests and the
// fault-injection soak pin down.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/socket_server.h"
#include "src/serve/validity.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

bool ParseU32(const char* text, uint32_t* out) {
  char* end = nullptr;
  unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || v > 0xffffffffUL) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket=PATH --artifacts=DIR [options]\n"
      "  --max-in-flight=N           concurrent heavy requests (default 4)\n"
      "  --max-queued=N              admission wait-queue depth (default 8)\n"
      "  --default-deadline-ms=N     deadline when a request sends none\n"
      "                              (at most --max-deadline-ms)\n"
      "  --max-deadline-ms=N         hard per-request deadline ceiling\n"
      "  --max-det-states=N          determinization budget per request\n"
      "  --max-antichain-pairs=N     antichain-search pair budget per request\n"
      "  --max-frame-bytes=N         wire frame cap (default 4 MiB; rejected\n"
      "                              outside the supported window, never\n"
      "                              clamped)\n"
      "  --max-batch-docs=N          documents per kValidateBatch request\n"
      "  --memo=off|memory           op-cache mode (default memory)\n"
      "  --no-load                   disable the kLoadArtifact wire op\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pebbletc;
  using namespace pebbletc::serve;

  std::string socket_path;
  std::string artifacts_dir;
  ServeOptions options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--socket=")) {
      socket_path = v;
    } else if (const char* v = value("--artifacts=")) {
      artifacts_dir = v;
    } else if (const char* v = value("--max-in-flight=")) {
      if (!ParseU32(v, &options.max_in_flight)) return Usage(argv[0]);
    } else if (const char* v = value("--max-queued=")) {
      if (!ParseU32(v, &options.max_queued)) return Usage(argv[0]);
    } else if (const char* v = value("--default-deadline-ms=")) {
      if (!ParseU32(v, &options.default_deadline_ms)) return Usage(argv[0]);
    } else if (const char* v = value("--max-deadline-ms=")) {
      if (!ParseU32(v, &options.validity.max_deadline_ms)) {
        return Usage(argv[0]);
      }
    } else if (const char* v = value("--max-det-states=")) {
      uint32_t n = 0;
      if (!ParseU32(v, &n)) return Usage(argv[0]);
      options.max_det_states = n;
    } else if (const char* v = value("--max-antichain-pairs=")) {
      uint32_t n = 0;
      if (!ParseU32(v, &n)) return Usage(argv[0]);
      options.max_antichain_pairs = n;
    } else if (const char* v = value("--max-frame-bytes=")) {
      if (!ParseU32(v, &options.max_frame_bytes)) return Usage(argv[0]);
    } else if (const char* v = value("--max-batch-docs=")) {
      if (!ParseU32(v, &options.validity.max_batch_docs)) {
        return Usage(argv[0]);
      }
    } else if (const char* v = value("--memo=")) {
      if (std::strcmp(v, "off") == 0) {
        options.memo = TaMemoMode::kOff;
      } else if (std::strcmp(v, "memory") == 0) {
        options.memo = TaMemoMode::kInMemory;
      } else {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--no-load") == 0) {
      options.allow_load = false;
    } else {
      return Usage(argv[0]);
    }
  }
  if (socket_path.empty() || artifacts_dir.empty()) return Usage(argv[0]);

  // Reject — never clamp — unsupported configuration before binding.
  Status config = ValidateServeOptions(options);
  if (!config.ok()) {
    std::fprintf(stderr, "pebbletc_serve: %s\n", config.ToString().c_str());
    return 2;
  }

  ServerCore core(options);
  Result<size_t> loaded = core.registry().LoadDirectory(artifacts_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "pebbletc_serve: cannot load artifacts: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "pebbletc_serve: loaded %zu artifact(s) from %s\n",
               *loaded, artifacts_dir.c_str());
  for (const auto& [name, kind] : core.registry().List()) {
    std::fprintf(stderr, "  %-20s %s\n", name.c_str(),
                 RegistryKindName(kind));
  }

  SocketServer server(&core);
  Status started = server.Start(socket_path);
  if (!started.ok()) {
    std::fprintf(stderr, "pebbletc_serve: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "pebbletc_serve: listening on %s\n",
               socket_path.c_str());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) sigsuspend(&mask);

  std::fprintf(stderr, "pebbletc_serve: shutting down\n");
  server.Stop();
  StatsResponse stats = core.SnapshotStats();
  std::fprintf(stderr,
               "pebbletc_serve: served %llu request(s): %llu ok, "
               "%llu malformed, %llu invalid, %llu shed, %llu degraded, "
               "%llu hard error(s)\n",
               static_cast<unsigned long long>(stats.requests_total),
               static_cast<unsigned long long>(stats.responses_ok),
               static_cast<unsigned long long>(stats.malformed_rejected),
               static_cast<unsigned long long>(stats.validation_rejected),
               static_cast<unsigned long long>(stats.overload_rejected),
               static_cast<unsigned long long>(stats.degraded_verdicts),
               static_cast<unsigned long long>(stats.hard_errors));
  return 0;
}
