#include "src/serve/server.h"

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/tree/encode.h"
#include "src/xml/xml.h"

namespace pebbletc::serve {
namespace {

bool IsHeavy(Opcode opcode) {
  switch (opcode) {
    case Opcode::kValidate:
    case Opcode::kTypecheck:
    case Opcode::kInferInverse:
    case Opcode::kLoadArtifact:
    case Opcode::kValidateBatch:  // the whole batch holds ONE slot
      return true;
    case Opcode::kPing:
    case Opcode::kListArtifacts:
    case Opcode::kStats:
      return false;
  }
  return true;
}

Response OkResponse(const RequestHeader& header,
                    decltype(Response::body) body) {
  Response response;
  response.header.opcode = header.opcode;
  response.header.request_id = header.request_id;
  response.header.status = WireStatus::kOk;
  response.body = std::move(body);
  return response;
}

Response StatusResponse(const RequestHeader& header, const Status& status) {
  return MakeErrorResponse(header.opcode, header.request_id,
                           WireStatusOf(status), status.ToString());
}

}  // namespace

Status ValidateServeOptions(const ServeOptions& options) {
  if (options.max_frame_bytes < kMinFrameBytes) {
    return Status::InvalidArgument(
        "max_frame_bytes " + std::to_string(options.max_frame_bytes) +
        " is below the " + std::to_string(kMinFrameBytes) + "-byte floor");
  }
  if (options.max_frame_bytes > kMaxFrameBytesCeiling) {
    return Status::InvalidArgument(
        "max_frame_bytes " + std::to_string(options.max_frame_bytes) +
        " exceeds the " + std::to_string(kMaxFrameBytesCeiling) +
        "-byte ceiling");
  }
  if (options.default_deadline_ms > options.validity.max_deadline_ms) {
    return Status::InvalidArgument(
        "default_deadline_ms " + std::to_string(options.default_deadline_ms) +
        " exceeds max_deadline_ms " +
        std::to_string(options.validity.max_deadline_ms));
  }
  return Status::OK();
}

WireStatus WireStatusOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kFailedPrecondition:
      return WireStatus::kFailedPrecondition;
    case StatusCode::kResourceExhausted:
    case StatusCode::kLimitExceeded:
      return WireStatus::kResourceExhausted;
    case StatusCode::kParseError:
      return WireStatus::kValidationFailed;
    case StatusCode::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
    case StatusCode::kCancelled:
      return WireStatus::kCancelled;
    case StatusCode::kUnimplemented:
    case StatusCode::kInternal:
      return WireStatus::kInternal;
  }
  return WireStatus::kInternal;
}

ServerCore::ServerCore(ServeOptions options)
    : options_(options),
      admission_(options.max_in_flight, options.max_queued) {}

void ServerCore::ArmFaultForNextRequest(TaFaultInjector* injector) {
  armed_fault_.store(injector, std::memory_order_release);
}

StatsResponse ServerCore::SnapshotStats() const {
  StatsResponse stats;
  stats.requests_total = requests_total_.load();
  stats.responses_ok = responses_ok_.load();
  stats.malformed_rejected = malformed_rejected_.load();
  stats.validation_rejected = validation_rejected_.load();
  stats.overload_rejected = overload_rejected_.load();
  stats.degraded_verdicts = degraded_verdicts_.load();
  stats.hard_errors = hard_errors_.load();
  stats.faults_injected = faults_injected_.load();
  stats.in_flight = admission_.in_flight();
  stats.typecheck_runs = typecheck_runs_.load();
  stats.typecheck_replays = typecheck_replays_.load();
  return stats;
}

std::string ServerCore::HandleFrame(std::string_view payload,
                                    const std::atomic<bool>* cancel) {
  requests_total_.fetch_add(1);
  Response response;

  Result<RawRequestHeader> raw = PeekRequestHeader(payload);
  if (!raw.ok()) {
    malformed_rejected_.fetch_add(1);
    response = MakeErrorResponse(Opcode::kPing, 0, WireStatus::kMalformedFrame,
                                 raw.status().ToString());
  } else if (raw->version != kWireVersion) {
    malformed_rejected_.fetch_add(1);
    response = MakeErrorResponse(
        Opcode::kPing, raw->request_id, WireStatus::kUnsupportedVersion,
        "this server speaks wire version " + std::to_string(kWireVersion) +
            ", request declared " + std::to_string(raw->version));
  } else if (raw->opcode_byte > kMaxOpcode) {
    malformed_rejected_.fetch_add(1);
    response = MakeErrorResponse(
        Opcode::kPing, raw->request_id, WireStatus::kUnknownOpcode,
        "unknown opcode " + std::to_string(raw->opcode_byte));
  } else {
    Result<Request> request = DecodeRequest(payload, options_.max_frame_bytes);
    if (!request.ok()) {
      malformed_rejected_.fetch_add(1);
      response = MakeErrorResponse(static_cast<Opcode>(raw->opcode_byte),
                                   raw->request_id, WireStatus::kMalformedFrame,
                                   request.status().ToString());
    } else {
      // Handle() counts this decoded request itself.
      requests_total_.fetch_sub(1);
      response = Handle(*request, cancel);
    }
  }
  std::string encoded;
  EncodeResponse(response, &encoded);
  return encoded;
}

Response ServerCore::Handle(const Request& request,
                            const std::atomic<bool>* cancel) {
  requests_total_.fetch_add(1);
  Status valid = CheckRequest(request, options_.validity);
  if (!valid.ok()) {
    validation_rejected_.fetch_add(1);
    return MakeErrorResponse(request.header.opcode, request.header.request_id,
                             WireStatus::kValidationFailed, valid.ToString());
  }
  if (IsHeavy(request.header.opcode)) {
    Result<AdmissionController::Slot> slot =
        admission_.Admit(options_.admission_wait);
    if (!slot.ok()) {
      overload_rejected_.fetch_add(1);
      return MakeErrorResponse(request.header.opcode,
                               request.header.request_id,
                               WireStatus::kOverloaded,
                               slot.status().ToString());
    }
    Response response = Dispatch(request, cancel);
    if (response.header.status == WireStatus::kOk) {
      responses_ok_.fetch_add(1);
    }
    return response;  // the slot releases here, after the response is built
  }
  Response response = Dispatch(request, cancel);
  if (response.header.status == WireStatus::kOk) {
    responses_ok_.fetch_add(1);
  }
  return response;
}

Response ServerCore::Dispatch(const Request& request,
                              const std::atomic<bool>* cancel) {
  const RequestHeader& header = request.header;
  switch (header.opcode) {
    case Opcode::kPing:
      return OkResponse(header, PingResponse{});
    case Opcode::kValidate:
      return DoValidate(header, std::get<ValidateRequest>(request.body),
                        cancel);
    case Opcode::kValidateBatch:
      return DoValidateBatch(
          header, std::get<ValidateBatchRequest>(request.body), cancel);
    case Opcode::kTypecheck:
      return DoTypecheck(header, std::get<TypecheckRequest>(request.body),
                         cancel);
    case Opcode::kInferInverse:
      return DoInferInverse(
          header, std::get<InferInverseRequest>(request.body), cancel);
    case Opcode::kLoadArtifact:
      return DoLoadArtifact(header,
                            std::get<LoadArtifactRequest>(request.body));
    case Opcode::kListArtifacts: {
      ListArtifactsResponse body;
      for (auto& [name, kind] : registry_.List()) {
        body.artifacts.push_back(
            ArtifactInfo{name, static_cast<uint8_t>(kind)});
      }
      return OkResponse(header, std::move(body));
    }
    case Opcode::kStats:
      return OkResponse(header, SnapshotStats());
  }
  return MakeErrorResponse(header.opcode, header.request_id,
                           WireStatus::kUnknownOpcode, "unreachable");
}

namespace {

/// The deadline a request runs under: the client's, or the server default
/// when it asks for none. Neither is clamped: CheckRequest rejects a client
/// deadline above validity.max_deadline_ms, and ValidateServeOptions a
/// default above it.
std::chrono::milliseconds RequestDeadline(const ServeOptions& server,
                                          const RequestHeader& header) {
  return std::chrono::milliseconds(header.deadline_ms == 0
                                       ? server.default_deadline_ms
                                       : header.deadline_ms);
}

/// Builds the per-request execution-control options from the server policy,
/// the client's requested deadline, and the transport cancel flag.
TypecheckOptions RequestOptions(const ServeOptions& server,
                                const RequestHeader& header,
                                const std::atomic<bool>* cancel,
                                TaFaultInjector* injector) {
  TypecheckOptions opts;
  opts.deadline = RequestDeadline(server, header);
  opts.cancel = cancel;
  opts.max_det_states = server.max_det_states;
  opts.max_antichain_pairs = server.max_antichain_pairs;
  opts.memo = server.memo;  // auto-bypassed when an injector is installed
  opts.fault_injector = injector;
  return opts;
}

}  // namespace

namespace {

/// Execution-control context for the validate opcodes: same deadline/cancel
/// policy as RequestOptions, assembled directly (validation does not go
/// through the Typechecker).
TaOpContext ValidateContext(const ServeOptions& server,
                            const RequestHeader& header,
                            const std::atomic<bool>* cancel,
                            TaFaultInjector* injector) {
  TaOpBudgets budgets;
  budgets.deadline =
      std::chrono::steady_clock::now() + RequestDeadline(server, header);
  budgets.cancel = cancel;
  budgets.max_det_states = server.max_det_states;
  budgets.max_antichain_pairs = server.max_antichain_pairs;
  budgets.memo = server.memo;  // auto-bypassed when an injector is installed
  TaOpContext ctx(budgets);
  ctx.fault = injector;
  return ctx;
}

/// Error response for a failed plan resolution / validation, preserving the
/// legacy DoValidate details: registry-level failures (unknown name, wrong
/// kind) carry the bare message; everything else carries the full
/// code-prefixed Status string.
Response PlanErrorResponse(const RequestHeader& header, const Status& status) {
  if (status.code() == StatusCode::kNotFound ||
      status.code() == StatusCode::kFailedPrecondition) {
    return MakeErrorResponse(header.opcode, header.request_id,
                             WireStatusOf(status),
                             std::string(status.message()));
  }
  return StatusResponse(header, status);
}

}  // namespace

Result<std::shared_ptr<const ValidationPlan>> ServerCore::PlanFor(
    const std::string& name, TaOpContext* ctx, bool bypass_cache) {
  std::shared_ptr<const RegistryEntry> entry = registry_.Get(name);
  if (entry == nullptr) {
    return Status::NotFound("no artifact named '" + name + "'");
  }
  if (entry->kind != RegistryEntry::Kind::kDtd &&
      entry->kind != RegistryEntry::Kind::kSchema) {
    return Status::FailedPrecondition(
        "artifact '" + name + "' is a " + RegistryKindName(entry->kind) +
        ", not a schema or DTD");
  }
  // A hot-swapped artifact gets a different entry object, so its stale plan
  // misses here.
  if (!bypass_cache) {
    if (auto plan = plans_.Find({name}, {entry})) return *std::move(plan);
  }
  // Compile outside the lock: determinization can be slow and other
  // artifacts' requests must not stall behind it.
  Result<ValidationPlan> plan =
      entry->kind == RegistryEntry::Kind::kDtd
          ? CompileDtdPlan(entry->dtd, ctx)
          : CompileSchemaPlan(*entry->schema, ctx);
  if (!plan.ok()) return plan.status();
  auto shared = std::make_shared<const ValidationPlan>(std::move(*plan));
  if (!bypass_cache && TaInterruptStatus(ctx).ok()) {
    plans_.Store({name}, {std::move(entry)}, shared);
  }
  return shared;
}

Response ServerCore::DoValidate(const RequestHeader& header,
                                const ValidateRequest& req,
                                const std::atomic<bool>* cancel) {
  TaFaultInjector* injector = armed_fault_.exchange(nullptr);
  TaOpContext ctx = ValidateContext(options_, header, cancel, injector);
  Result<std::shared_ptr<const ValidationPlan>> plan =
      PlanFor(req.schema, &ctx, /*bypass_cache=*/injector != nullptr);
  if (!plan.ok()) {
    if (injector != nullptr && injector->tripped) faults_injected_.fetch_add(1);
    return PlanErrorResponse(header, plan.status());
  }
  DocVerdict verdict = ValidateDoc(**plan, req.document, &ctx);
  if (injector != nullptr && injector->tripped) faults_injected_.fetch_add(1);
  if (verdict.code != StatusCode::kOk) {
    return StatusResponse(header, Status(verdict.code, verdict.diagnostic));
  }
  ValidateResponse body;
  body.valid = verdict.valid;
  body.diagnostic = std::move(verdict.diagnostic);
  return OkResponse(header, std::move(body));
}

Response ServerCore::DoValidateBatch(const RequestHeader& header,
                                     const ValidateBatchRequest& req,
                                     const std::atomic<bool>* cancel) {
  TaFaultInjector* injector = armed_fault_.exchange(nullptr);
  TaOpContext ctx = ValidateContext(options_, header, cancel, injector);
  Result<std::shared_ptr<const ValidationPlan>> plan =
      PlanFor(req.schema, &ctx, /*bypass_cache=*/injector != nullptr);
  if (!plan.ok()) {
    if (injector != nullptr && injector->tripped) faults_injected_.fetch_add(1);
    return PlanErrorResponse(header, plan.status());
  }
  BatchResult batch = ValidateBatch(**plan, req.documents, &ctx);
  if (injector != nullptr && injector->tripped) faults_injected_.fetch_add(1);
  // The batch response is kOk even when individual documents failed: each
  // verdict carries its own honest wire status (deadline, cancellation,
  // malformed XML), and the client decides per document.
  ValidateBatchResponse body;
  body.fast_path_docs = batch.fast_path_docs;
  body.fallback_docs = batch.fallback_docs;
  body.verdicts.reserve(batch.verdicts.size());
  for (DocVerdict& v : batch.verdicts) {
    BatchDocVerdict wire;
    wire.status = v.code == StatusCode::kOk
                      ? static_cast<uint8_t>(WireStatus::kOk)
                      : static_cast<uint8_t>(
                            WireStatusOf(Status(v.code, v.diagnostic)));
    wire.valid = v.valid;
    wire.diagnostic = std::move(v.diagnostic);
    body.verdicts.push_back(std::move(wire));
  }
  return OkResponse(header, std::move(body));
}

namespace {

/// Everything a typecheck/infer request needs after name resolution and
/// alphabet assembly: the transducer, its encoded alphabets, the unranked
/// tag tables (for rendering counterexamples as XML), and the compiled
/// τ automata.
struct CompiledInstance {
  PebbleTransducer transducer{1, 0, 0};
  EncodedAlphabet in_enc;
  EncodedAlphabet out_enc;
  Alphabet in_tags;
  Alphabet out_tags;
  Nbta tau1;       // only for typecheck
  Nbta tau2;
  bool has_tau1 = false;
};

Result<std::shared_ptr<const RegistryEntry>> ResolveKind(
    const ArtifactRegistry& registry, const std::string& name,
    RegistryEntry::Kind want_a, RegistryEntry::Kind want_b) {
  std::shared_ptr<const RegistryEntry> entry = registry.Get(name);
  if (entry == nullptr) {
    return Status::NotFound("no artifact named '" + name + "'");
  }
  if (entry->kind != want_a && entry->kind != want_b) {
    return Status::FailedPrecondition(
        "artifact '" + name + "' is a " + RegistryKindName(entry->kind) +
        "; this request needs a " + RegistryKindName(want_a) +
        (want_a == want_b ? std::string()
                          : std::string(" or ") + RegistryKindName(want_b)));
  }
  return entry;
}

/// Compiles a (transducer, [τ1], τ2) instance from resolved entries. XSLT
/// programs are compiled over alphabets extended with the paired DTDs' tags
/// (the pebbletc_cli convention); pre-compiled transducer artifacts have
/// fixed alphabets, so the DTDs must fit inside them.
Result<CompiledInstance> CompileInstance(const RegistryEntry& program,
                                         const std::string& transducer_name,
                                         const SpecializedDtd* input_dtd,
                                         const SpecializedDtd& output_dtd) {
  CompiledInstance instance;
  if (program.kind == RegistryEntry::Kind::kXslt) {
    instance.in_tags = program.xslt->head_tags;
    instance.out_tags = program.xslt->literal_tags;
    if (input_dtd != nullptr) {
      for (SymbolId t = 0; t < input_dtd->tags().size(); ++t) {
        instance.in_tags.Intern(input_dtd->tags().Name(t));
      }
    }
    for (SymbolId t = 0; t < output_dtd.tags().size(); ++t) {
      instance.out_tags.Intern(output_dtd.tags().Name(t));
    }
    PEBBLETC_ASSIGN_OR_RETURN(instance.in_enc,
                              MakeEncodedAlphabet(instance.in_tags));
    PEBBLETC_ASSIGN_OR_RETURN(instance.out_enc,
                              MakeEncodedAlphabet(instance.out_tags));
    Result<PebbleTransducer> compiled = CompileXslt(
        program.xslt->program, instance.in_enc, instance.out_enc);
    if (!compiled.ok()) {
      return Status::FailedPrecondition(
          "XSLT '" + transducer_name + "' does not cover these types: " +
          compiled.status().ToString());
    }
    instance.transducer = std::move(compiled).value();
  } else {
    PEBBLETC_ASSIGN_OR_RETURN(
        RankedEncodingView in_view,
        EncodedViewOfRanked(program.transducer->input_alphabet));
    PEBBLETC_ASSIGN_OR_RETURN(
        RankedEncodingView out_view,
        EncodedViewOfRanked(program.transducer->output_alphabet));
    instance.in_enc = std::move(in_view.enc);
    instance.out_enc = std::move(out_view.enc);
    instance.in_tags = std::move(in_view.tags);
    instance.out_tags = std::move(out_view.tags);
    instance.transducer = program.transducer->transducer;
  }
  if (input_dtd != nullptr) {
    Result<Nbta> tau1 = CompileDtdOver(*input_dtd, instance.in_enc);
    if (!tau1.ok()) {
      return Status::FailedPrecondition(
          "input DTD does not fit the transducer's input alphabet: " +
          tau1.status().ToString());
    }
    instance.tau1 = std::move(tau1).value();
    instance.has_tau1 = true;
  }
  Result<Nbta> tau2 = CompileDtdOver(output_dtd, instance.out_enc);
  if (!tau2.ok()) {
    return Status::FailedPrecondition(
        "output DTD does not fit the transducer's output alphabet: " +
        tau2.status().ToString());
  }
  instance.tau2 = std::move(tau2).value();
  return instance;
}

std::string RenderTree(const std::optional<BinaryTree>& tree,
                       const EncodedAlphabet& enc, const Alphabet& tags) {
  if (!tree.has_value()) return std::string();
  Result<UnrankedTree> doc = DecodeTree(*tree, enc);
  if (!doc.ok()) return std::string();  // not an encoded document — omit
  return XmlString(*doc, tags);
}

}  // namespace

Response ServerCore::DoTypecheck(const RequestHeader& header,
                                 const TypecheckRequest& req,
                                 const std::atomic<bool>* cancel) {
  TaFaultInjector* injector = armed_fault_.exchange(nullptr);
  Result<std::shared_ptr<const RegistryEntry>> in_entry =
      ResolveKind(registry_, req.input_type, RegistryEntry::Kind::kDtd,
                  RegistryEntry::Kind::kDtd);
  if (!in_entry.ok()) return StatusResponse(header, in_entry.status());
  Result<std::shared_ptr<const RegistryEntry>> out_entry =
      ResolveKind(registry_, req.output_type, RegistryEntry::Kind::kDtd,
                  RegistryEntry::Kind::kDtd);
  if (!out_entry.ok()) return StatusResponse(header, out_entry.status());
  Result<std::shared_ptr<const RegistryEntry>> program =
      ResolveKind(registry_, req.transducer, RegistryEntry::Kind::kXslt,
                  RegistryEntry::Kind::kTransducer);
  if (!program.ok()) return StatusResponse(header, program.status());

  // A fault-armed request neither replays nor stores a decision, so its
  // checkpoint ordinals are those of a cold run.
  const bool use_decisions =
      injector == nullptr && options_.memo != TaMemoMode::kOff;
  const std::array<std::string, 3> key = {req.transducer, req.input_type,
                                          req.output_type};
  const std::array<std::shared_ptr<const RegistryEntry>, 3> sources = {
      *program, *in_entry, *out_entry};
  if (use_decisions) {
    if (auto body = decided_.Find(key, sources)) {
      typecheck_replays_.fetch_add(1);
      return OkResponse(header, *std::move(body));
    }
  }

  Result<CompiledInstance> instance =
      CompileInstance(**program, req.transducer, (*in_entry)->dtd.get(),
                      *(*out_entry)->dtd);
  if (!instance.ok()) return StatusResponse(header, instance.status());

  TypecheckOptions opts = RequestOptions(options_, header, cancel, injector);
  Typechecker checker(instance->transducer, instance->in_enc.ranked,
                      instance->out_enc.ranked);
  typecheck_runs_.fetch_add(1);
  Result<TypecheckResult> result =
      checker.Typecheck(instance->tau1, instance->tau2, opts);
  if (injector != nullptr && injector->tripped) {
    faults_injected_.fetch_add(1);
  }
  if (!result.ok()) {
    hard_errors_.fetch_add(1);
    return StatusResponse(header, result.status());
  }

  TypecheckResponse body;
  switch (result->verdict) {
    case TypecheckVerdict::kTypechecks:
      body.verdict = 0;
      break;
    case TypecheckVerdict::kCounterexample:
      body.verdict = 1;
      break;
    case TypecheckVerdict::kUnknown:
      body.verdict = 2;
      degraded_verdicts_.fetch_add(1);
      break;
  }
  body.method = result->method;
  body.exhausted = result->exhausted.exhausted;
  body.exhaustion_code = static_cast<uint8_t>(result->exhausted.code);
  body.exhaustion_pass = result->exhausted.pass;
  body.exhaustion_detail = result->exhausted.detail;
  body.counterexample_input_xml = RenderTree(
      result->counterexample_input, instance->in_enc, instance->in_tags);
  body.counterexample_output_xml = RenderTree(
      result->counterexample_output, instance->out_enc, instance->out_tags);
  // Only an exact verdict that no pass was cut short to reach is stored:
  // budgets are server-wide, so nothing else in a request could change it.
  if (use_decisions && body.verdict != 2 && !body.exhausted) {
    decided_.Store(key, sources, body);
  }
  body.checkpoints = result->op_counters.checkpoints;
  body.states_materialized = result->op_counters.states_materialized;
  return OkResponse(header, std::move(body));
}

Response ServerCore::DoInferInverse(const RequestHeader& header,
                                    const InferInverseRequest& req,
                                    const std::atomic<bool>* cancel) {
  Result<std::shared_ptr<const RegistryEntry>> out_entry =
      ResolveKind(registry_, req.output_type, RegistryEntry::Kind::kDtd,
                  RegistryEntry::Kind::kDtd);
  if (!out_entry.ok()) return StatusResponse(header, out_entry.status());

  Result<std::shared_ptr<const RegistryEntry>> program =
      ResolveKind(registry_, req.transducer, RegistryEntry::Kind::kXslt,
                  RegistryEntry::Kind::kTransducer);
  if (!program.ok()) return StatusResponse(header, program.status());

  Result<CompiledInstance> instance =
      CompileInstance(**program, req.transducer, nullptr, *(*out_entry)->dtd);
  if (!instance.ok()) return StatusResponse(header, instance.status());

  TaFaultInjector* injector = armed_fault_.exchange(nullptr);
  TypecheckOptions opts = RequestOptions(options_, header, cancel, injector);
  Typechecker checker(instance->transducer, instance->in_enc.ranked,
                      instance->out_enc.ranked);
  Result<Nbta> inverse = checker.InferInverseType(instance->tau2, opts);
  if (injector != nullptr && injector->tripped) {
    faults_injected_.fetch_add(1);
  }
  if (!inverse.ok()) {
    // Inference has no three-valued verdict to degrade into: a budget hit
    // is reported as the corresponding structured error status.
    hard_errors_.fetch_add(1);
    return StatusResponse(header, inverse.status());
  }
  InferInverseResponse body;
  body.num_states = inverse->num_states;
  body.num_leaf_rules = static_cast<uint32_t>(inverse->leaf_rules.size());
  body.num_rules = static_cast<uint32_t>(inverse->rules.size());
  return OkResponse(header, std::move(body));
}

Response ServerCore::DoLoadArtifact(const RequestHeader& header,
                                    const LoadArtifactRequest& req) {
  if (!options_.allow_load) {
    return MakeErrorResponse(
        header.opcode, header.request_id, WireStatus::kFailedPrecondition,
        "runtime artifact loading is disabled on this server");
  }
  Result<RegistryEntry::Kind> kind = registry_.PutWrapped(req.name,
                                                          req.artifact);
  if (!kind.ok()) return StatusResponse(header, kind.status());
  LoadArtifactResponse body;
  body.kind = static_cast<uint8_t>(*kind);
  return OkResponse(header, body);
}

}  // namespace pebbletc::serve
