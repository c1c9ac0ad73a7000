// The typecheck service's transport-independent core (docs/SERVING.md):
// one request payload in, one response payload out. Everything the daemon
// promises lives here, where tests can drive it deterministically without
// sockets:
//
//   * trust-boundary shape checks (src/serve/validity.h) between protocol
//     decoding and dispatch — bad names, oversized inputs and over-cap
//     deadlines are rejected with structured errors before admission; the
//     document and artifact bytes are parsed once, by dispatch, and a
//     malformed one is a structured error too, never an automata op input;
//   * admission control (src/serve/admission.h) — heavy requests acquire an
//     in-flight slot or are shed with WireStatus::kOverloaded;
//   * per-request execution control — every typecheck/infer/validate runs
//     under a TaOpContext deadline (client-requested or the server default)
//     with cooperative cancellation wired to the transport's disconnect
//     signal;
//   * graceful degradation over the wire — a typecheck that exhausts its
//     budgets returns verdict kUnknown *plus* the structured
//     ExhaustionReport as an OK response, never a dropped connection;
//   * deterministic fault injection — a test can arm a TaFaultInjector for
//     the next heavy request and assert the failure stays contained to that
//     one response while the server keeps serving (the soak in
//     tests/serve_soak_test.cc sweeps every checkpoint ordinal this way).

#ifndef PEBBLETC_SERVE_SERVER_H_
#define PEBBLETC_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/core/typechecker.h"
#include "src/serve/admission.h"
#include "src/serve/protocol.h"
#include "src/serve/registry.h"
#include "src/serve/validate.h"
#include "src/serve/validity.h"
#include "src/ta/op_context.h"

namespace pebbletc::serve {

struct ServeOptions {
  /// Trust-boundary caps (see src/serve/validity.h).
  ValidityOptions validity;
  /// Frame/field byte ceiling for both directions. Configurable per
  /// deployment, but only inside [kMinFrameBytes, kMaxFrameBytesCeiling] —
  /// ValidateServeOptions (below) rejects values outside that window rather
  /// than silently clamping; call it before constructing a server from
  /// untrusted configuration.
  uint32_t max_frame_bytes = kMaxFrameBytes;
  /// Admission control: concurrent heavy requests / bounded wait queue /
  /// how long an admitted waiter may wait for a slot before being shed.
  uint32_t max_in_flight = 4;
  uint32_t max_queued = 8;
  std::chrono::milliseconds admission_wait{100};
  /// Deadline applied when a request does not ask for one. Must not exceed
  /// validity.max_deadline_ms: ValidateServeOptions rejects a larger value
  /// rather than clamping it, as CheckRequest does for a client's deadline.
  uint32_t default_deadline_ms = 2000;
  /// Budgets forwarded into TypecheckOptions.
  size_t max_det_states = 200000;
  size_t max_antichain_pairs = 200000;
  /// Ignored: typecheck requests always run the antichain inclusion search
  /// (docs/INCLUSION.md). Kept so existing callers that read it still
  /// compile.
  TaInclusionPath inclusion = TaInclusionPath::kAntichain;
  /// Ignored: a kValidateBatch request validates its documents in order on
  /// its connection thread, like every other opcode; the daemon's
  /// concurrency comes from serving connections in parallel
  /// (docs/PARALLEL.md). Kept so existing callers that assign it still
  /// compile.
  uint32_t num_threads = 1;
  /// Caching switch (docs/CACHING.md). kInMemory is the serving default: a
  /// repeated typecheck of an unchanged name triple replays its stored
  /// decision, a new registry generation of a proven downward triple
  /// returns from its cached proof, and a schema's validation table is
  /// determinized once. kOff turns all three off. Automatically bypassed
  /// for fault-armed requests.
  TaMemoMode memo = TaMemoMode::kInMemory;
  /// Whether the kLoadArtifact wire op may install artifacts at runtime.
  bool allow_load = true;
};

class ServerCore {
 public:
  /// How many decided typechecks the server keeps; at the cap, storing a
  /// new one evicts another.
  static constexpr size_t kMaxDecidedTypechecks = 1024;

  explicit ServerCore(ServeOptions options);

  ArtifactRegistry& registry() { return registry_; }
  AdmissionController& admission() { return admission_; }
  const ServeOptions& options() const { return options_; }

  /// Processes one request payload (no transport frame) and returns the
  /// encoded response payload. Never throws, never crashes on arbitrary
  /// bytes; every failure mode is a structured response. `cancel`, when
  /// non-null, is polled at every automata-op checkpoint — the transport
  /// sets it when the client disconnects mid-request.
  std::string HandleFrame(std::string_view payload,
                          const std::atomic<bool>* cancel = nullptr);

  /// Decoded-domain variant of HandleFrame (used by tests that want to
  /// inspect responses without re-parsing).
  Response Handle(const Request& request,
                  const std::atomic<bool>* cancel = nullptr);

  /// Test hook: the next admitted typecheck / infer / validate request runs
  /// with `injector` installed on its context (forcing the serial,
  /// memo-cold path, so checkpoint ordinals are deterministic). The pointer
  /// must outlive that request; it is consumed atomically by exactly one.
  void ArmFaultForNextRequest(TaFaultInjector* injector);

  /// Counter snapshot (also served as the kStats wire op).
  StatsResponse SnapshotStats() const;

 private:
  Response Dispatch(const Request& request, const std::atomic<bool>* cancel);
  Response DoValidate(const RequestHeader& header, const ValidateRequest& req,
                      const std::atomic<bool>* cancel);
  Response DoValidateBatch(const RequestHeader& header,
                           const ValidateBatchRequest& req,
                           const std::atomic<bool>* cancel);
  /// Resolves `name` to a compiled ValidationPlan, serving repeat requests
  /// from the per-artifact plan cache. A cached plan is invalidated by
  /// pointer identity against the current registry snapshot, so hot-swapping
  /// an artifact recompiles on the next request. `bypass_cache` (used for
  /// fault-armed requests) compiles fresh and caches nothing, keeping
  /// checkpoint ordinals deterministic.
  Result<std::shared_ptr<const ValidationPlan>> PlanFor(
      const std::string& name, TaOpContext* ctx, bool bypass_cache);
  Response DoTypecheck(const RequestHeader& header, const TypecheckRequest& req,
                       const std::atomic<bool>* cancel);
  Response DoInferInverse(const RequestHeader& header,
                          const InferInverseRequest& req,
                          const std::atomic<bool>* cancel);
  Response DoLoadArtifact(const RequestHeader& header,
                          const LoadArtifactRequest& req);

  ServeOptions options_;
  ArtifactRegistry registry_;
  AdmissionController admission_;
  std::atomic<TaFaultInjector*> armed_fault_{nullptr};

  /// Validation plan cache (docs/VALIDATION.md): one compiled plan per
  /// artifact name, keyed to the registry snapshot it was built from.
  struct CachedPlan {
    std::shared_ptr<const RegistryEntry> source;
    std::shared_ptr<const ValidationPlan> plan;
  };
  mutable std::mutex plan_mu_;
  std::map<std::string, CachedPlan> plans_;

  /// Decided typechecks (docs/CACHING.md, "The served decision map"): the
  /// clean, exact response for a (transducer, τ1, τ2) name triple, valid
  /// while those names still resolve to the entries it was decided on.
  /// Weak pointers, so a replaced entry is neither pinned nor mistaken for
  /// a new one allocated at its address.
  struct DecidedTypecheck {
    std::array<std::weak_ptr<const RegistryEntry>, 3> sources;
    TypecheckResponse body;  // checkpoints = states_materialized = 0
  };
  std::mutex decided_mu_;
  std::map<std::array<std::string, 3>, DecidedTypecheck> decided_;

  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> malformed_rejected_{0};
  std::atomic<uint64_t> validation_rejected_{0};
  std::atomic<uint64_t> overload_rejected_{0};
  std::atomic<uint64_t> degraded_verdicts_{0};
  std::atomic<uint64_t> hard_errors_{0};
  std::atomic<uint64_t> faults_injected_{0};
  std::atomic<uint64_t> typecheck_runs_{0};
  std::atomic<uint64_t> typecheck_replays_{0};
};

/// Maps a core Status to the wire status used when that Status aborts a
/// request (exposed for tests).
WireStatus WireStatusOf(const Status& status);

/// Rejects structurally invalid serve configuration before a server is
/// built from it: a frame cap of zero, below kMinFrameBytes, or above
/// kMaxFrameBytesCeiling, and a default deadline above the deadline ceiling,
/// are configuration errors, not something to clamp silently (the operator
/// asked for a specific policy and should learn it is unsupported).
Status ValidateServeOptions(const ServeOptions& options);

}  // namespace pebbletc::serve

#endif  // PEBBLETC_SERVE_SERVER_H_
