// The traced half of a run: an in-process ServerCore with the daemon's
// default options and the same artifacts replays the set-up sequence and a
// sample of the workload's requests twice — once through the real
// HandleFrame (untraced), once as the same public calls ServerCore makes, in
// its order, each wrapped in a span. Nothing inside the program is
// instrumented; the spans sit in this file, around the calls.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <utility>

#include "servebench/run.h"
#include "src/common/arena.h"
#include "src/core/typechecker.h"
#include "src/dtd/dtd.h"
#include "src/query/xslt.h"
#include "src/serve/server.h"
#include "src/serve/validate.h"
#include "src/serve/validity.h"
#include "src/ta/membership.h"
#include "src/ta/op_cache.h"
#include "src/tree/encode.h"
#include "src/xml/xml.h"

// Arena blocks are the only aligned allocations the validation path makes
// (Arena reserves them with ::operator new(size, align_val_t)); counting the
// calls gives common.arena.blocks_per_doc without touching the Arena.
namespace {
std::atomic<uint64_t> g_aligned_news{0};
}  // namespace

void* operator new(std::size_t n, std::align_val_t al) {
  g_aligned_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace servebench {
namespace {

namespace wire = pebbletc::serve;
using pebbletc::Result;
using pebbletc::Status;
using Clock = std::chrono::steady_clock;

// --- spans ------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  ///< index of the enclosing span, -1 for a root
  uint32_t request;
};

class Tracer {
 public:
  int32_t Begin(const char* name, uint32_t request) {
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, Now(), 0, parent, request});
    const int32_t id = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    spans_[id].end_ns = Now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint32_t request)
      : t_(t), id_(t->Begin(name, request)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int32_t id_;
};

double SpanUs(const Span& s) { return (s.end_ns - s.start_ns) / 1000.0; }

// --- what the replay learns per request -----------------------------------------

struct RequestInfo {
  ReqClass cls;
  bool workload = false;  ///< false: part of the set-up sequence
  double handle_us = 0;   ///< untraced HandleFrame
  int32_t root = -1;      ///< traced root span
  bool counterexample = false;
  pebbletc::TaOpCounters ops;  ///< traced typecheck only
};

struct DocStats {
  double bytes = 0;
  double events = 0;
  double nodes = 0;
  double tokenize_s = 0;
  double parse_s = 0;
  double stream_s = 0;
  std::vector<double> arena_bytes;
  std::vector<double> arena_blocks;
  uint64_t fast_hits = 0;
  uint64_t fallbacks = 0;
};

/// ServerCore's execution-control options for a typecheck request with no
/// client deadline (mirrors RequestOptions in src/serve/server.cc).
pebbletc::TypecheckOptions TypecheckOptionsFor(const wire::ServeOptions& o) {
  pebbletc::TypecheckOptions opts;
  opts.deadline = std::chrono::milliseconds(
      std::min(o.default_deadline_ms, o.validity.max_deadline_ms));
  opts.max_det_states = o.max_det_states;
  opts.max_antichain_pairs = o.max_antichain_pairs;
  opts.inclusion = o.inclusion;
  opts.num_threads = o.num_threads;
  opts.memo = o.memo;
  return opts;
}

/// The validate opcodes' context (mirrors ValidateContext in server.cc).
pebbletc::TaOpContext ValidateContextFor(const wire::ServeOptions& o) {
  pebbletc::TaOpBudgets b;
  b.deadline = Clock::now() + std::chrono::milliseconds(std::min(
                                  o.default_deadline_ms,
                                  o.validity.max_deadline_ms));
  b.max_det_states = o.max_det_states;
  b.max_antichain_pairs = o.max_antichain_pairs;
  b.num_threads = o.num_threads;
  b.memo = o.memo;
  return pebbletc::TaOpContext(b);
}

class Replayer {
 public:
  Replayer() : core_(wire::ServeOptions{}) {}

  Status Load(const std::string& artifacts) {
    Result<size_t> n = core_.registry().LoadDirectory(artifacts);
    return n.ok() ? Status::OK() : n.status();
  }

  /// Runs `p` through HandleFrame, timed, and checks the answer.
  double Untraced(const Planned& p, std::string* error) {
    const Clock::time_point t0 = Clock::now();
    const std::string reply = core_.HandleFrame(p.payload());
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    Check(p, reply, error);
    return us;
  }

  /// Runs `p` as ServerCore's sequence of public calls, each in a span.
  void Traced(const Planned& p, uint32_t rid, RequestInfo* info,
              DocStats* docs, std::string* error) {
    const wire::ServeOptions& o = core_.options();
    std::string encoded;
    {
      ScopedSpan root(&tr_, "serve.request", rid);
      info->root = static_cast<int32_t>(tr_.spans().size() - 1);
      wire::Response response;
      Result<wire::Request> req = [&] {
        ScopedSpan s(&tr_, "serve.protocol.decode", rid);
        (void)wire::PeekRequestHeader(p.payload());
        return wire::DecodeRequest(p.payload(), o.max_frame_bytes);
      }();
      if (!req.ok()) {
        *error = "replay: request does not decode";
        return;
      }
      Status valid = [&] {
        ScopedSpan s(&tr_, "serve.validity.check", rid);
        return wire::CheckRequest(*req, o.validity);
      }();
      if (!valid.ok()) {
        *error = "replay: validity tier rejected a request: " +
                 valid.ToString();
        return;
      }
      {
        Result<wire::AdmissionController::Slot> slot = [&] {
          ScopedSpan s(&tr_, "serve.admission", rid);
          return core_.admission().Admit(o.admission_wait);
        }();
        if (!slot.ok()) {
          *error = "replay: admission shed a request";
          return;
        }
        response.header.opcode = req->header.opcode;
        response.header.request_id = req->header.request_id;
        switch (req->header.opcode) {
          case wire::Opcode::kValidate:
          case wire::Opcode::kValidateBatch:
            Validate(*req, rid, &response, docs);
            break;
          case wire::Opcode::kTypecheck:
            Typecheck(std::get<wire::TypecheckRequest>(req->body), rid,
                      &response, info);
            break;
          case wire::Opcode::kLoadArtifact: {
            const auto& body = std::get<wire::LoadArtifactRequest>(req->body);
            ScopedSpan s(&tr_, "serve.registry.load", rid);
            Result<wire::RegistryEntry::Kind> kind =
                core_.registry().PutWrapped(body.name, body.artifact);
            if (!kind.ok()) {
              response = wire::MakeErrorResponse(
                  req->header.opcode, req->header.request_id,
                  wire::WireStatusOf(kind.status()),
                  kind.status().ToString());
            } else {
              response.body =
                  wire::LoadArtifactResponse{static_cast<uint8_t>(*kind)};
            }
            break;
          }
          default:
            *error = "replay: unexpected opcode";
            return;
        }
      }
      ScopedSpan s(&tr_, "serve.protocol.encode", rid);
      wire::EncodeResponse(response, &encoded);
    }
    Check(p, encoded, error);
  }

  /// Per-document probes outside any request: the tokenizer alone, the
  /// validity tier's ParseXml, the streaming DBTA fold, and (for rejected
  /// documents) the re-parse plus DTD diagnostic ValidateDoc adds.
  void Probe(const Doc& doc, uint32_t rid, DocStats* st) {
    const wire::ValidationPlan* plan = PlanFor(doc.schema, nullptr, rid);
    if (plan == nullptr) return;
    ScopedSpan root(&tr_, "probe.doc", rid);
    size_t events = 0;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(&tr_, "xml.tokenize", rid);
      pebbletc::XmlEventReader reader(doc.xml);
      while (true) {
        Result<pebbletc::XmlEventReader::Event> e = reader.Next();
        if (!e.ok() || e->kind == pebbletc::XmlEventReader::Kind::kEnd) break;
        ++events;
      }
    }
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan s(&tr_, "xml.parse", rid);
      pebbletc::Alphabet scratch;
      (void)pebbletc::ParseXml(doc.xml, &scratch);
    }
    const Clock::time_point t2 = Clock::now();
    if (plan->engine.fast()) {
      ScopedSpan s(&tr_, "ta.membership.stream", rid);
      pebbletc::TaOpContext ctx = ValidateContextFor(core_.options());
      (void)pebbletc::StreamingValidateXml(doc.xml, *plan->engine.table(),
                                           plan->enc, plan->tags, &ctx);
    }
    const Clock::time_point t3 = Clock::now();
    if (!doc.valid && plan->dtd != nullptr) {
      ScopedSpan s(&tr_, "serve.validate.reject_extra", rid);
      Result<pebbletc::KnownXmlParse> parsed =
          pebbletc::ParseXmlKnown(doc.xml, plan->tags);
      if (parsed.ok()) (void)plan->dtd->Validate(parsed->tree);
    }
    auto secs = [](Clock::duration d) {
      return std::chrono::duration<double>(d).count();
    };
    st->bytes += doc.xml.size();
    st->events += events;
    st->nodes += doc.nodes;
    st->tokenize_s += secs(t1 - t0);
    st->parse_s += secs(t2 - t1);
    st->stream_s += secs(t3 - t2);
  }

  const Tracer& tracer() const { return tr_; }

 private:
  void Check(const Planned& p, const std::string& reply, std::string* error) {
    Verdict v = CheckResponse(p, reply);
    if (!v.ok_status || v.wrong) {
      *error = "replay: " + v.detail;
      return;
    }
    if (!v.counterexample.empty() &&
        checked_.insert({*p.out_text, v.counterexample}).second) {
      Status s = CheckCounterexample(
          programs_->at(static_cast<size_t>(p.slot) % kPrograms), *p.out_text,
          v.counterexample);
      if (!s.ok()) *error = "replay: " + s.ToString();
    }
  }

  /// The traced path's plan cache: compiled on first use (cold, against a
  /// private op cache), recompiled when the registry entry changes — the
  /// same policy as ServerCore::PlanFor.
  const wire::ValidationPlan* PlanFor(const std::string& name,
                                      pebbletc::TaOpContext* ctx,
                                      uint32_t rid) {
    std::shared_ptr<const wire::RegistryEntry> entry =
        core_.registry().Get(name);
    if (entry == nullptr || entry->dtd == nullptr) return nullptr;
    CachedPlan& cached = plans_[name];
    if (cached.source != entry) {
      ScopedSpan s(&tr_, "serve.plan.compile", rid);
      Result<wire::ValidationPlan> plan =
          wire::CompileDtdPlan(entry->dtd, ctx, &plan_cache_);
      if (!plan.ok()) return nullptr;
      cached.plan = std::make_shared<const wire::ValidationPlan>(
          std::move(*plan));
      cached.source = entry;
    }
    return cached.plan.get();
  }

  void Validate(const wire::Request& req, uint32_t rid,
                wire::Response* response, DocStats* docs) {
    pebbletc::TaOpContext ctx = ValidateContextFor(core_.options());
    const bool batch = req.header.opcode == wire::Opcode::kValidateBatch;
    const std::string& schema =
        batch ? std::get<wire::ValidateBatchRequest>(req.body).schema
              : std::get<wire::ValidateRequest>(req.body).schema;
    const wire::ValidationPlan* plan = [&] {
      ScopedSpan s(&tr_, "serve.plan.lookup", rid);
      return PlanFor(schema, &ctx, rid);
    }();
    if (plan == nullptr) {
      *response = wire::MakeErrorResponse(req.header.opcode,
                                          req.header.request_id,
                                          wire::WireStatus::kNotFound, schema);
      return;
    }
    auto validate_one = [&](pebbletc::Arena* arena, std::string_view doc) {
      ScopedSpan s(&tr_, "serve.validate.doc", rid);
      const uint64_t news = g_aligned_news.load(std::memory_order_relaxed);
      wire::DocVerdict v = wire::ValidateDoc(*plan, doc, &ctx, arena);
      docs->arena_blocks.push_back(static_cast<double>(
          g_aligned_news.load(std::memory_order_relaxed) - news));
      docs->arena_bytes.push_back(
          static_cast<double>(arena->bytes_allocated()));
      return v;
    };
    const size_t fast0 = ctx.counters.membership_fast_hits;
    const size_t fall0 = ctx.counters.membership_fallbacks;
    if (!batch) {
      // DoValidate: a fresh arena per request.
      pebbletc::Arena arena;
      wire::DocVerdict v = validate_one(
          &arena, std::get<wire::ValidateRequest>(req.body).document);
      wire::ValidateResponse body;
      body.valid = v.valid;
      body.diagnostic = std::move(v.diagnostic);
      response->body = std::move(body);
    } else {
      // ValidateBatch on one worker: one arena, reset between documents.
      ScopedSpan s(&tr_, "serve.validate.batch", rid);
      const auto& documents =
          std::get<wire::ValidateBatchRequest>(req.body).documents;
      wire::ValidateBatchResponse body;
      pebbletc::Arena arena;
      for (const std::string& doc : documents) {
        arena.Reset();
        wire::DocVerdict v = validate_one(&arena, doc);
        wire::BatchDocVerdict out;
        out.status = v.code == pebbletc::StatusCode::kOk
                         ? static_cast<uint8_t>(wire::WireStatus::kOk)
                         : static_cast<uint8_t>(wire::WireStatusOf(
                               Status(v.code, v.diagnostic)));
        out.valid = v.valid;
        out.diagnostic = std::move(v.diagnostic);
        body.verdicts.push_back(std::move(out));
      }
      body.fast_path_docs = ctx.counters.membership_fast_hits - fast0;
      body.fallback_docs = ctx.counters.membership_fallbacks - fall0;
      response->body = std::move(body);
    }
    docs->fast_hits += ctx.counters.membership_fast_hits - fast0;
    docs->fallbacks += ctx.counters.membership_fallbacks - fall0;
  }

  /// DoTypecheck, including CompileInstance and RenderTree.
  void Typecheck(const wire::TypecheckRequest& req, uint32_t rid,
                 wire::Response* response, RequestInfo* info) {
    using Kind = wire::RegistryEntry::Kind;
    std::shared_ptr<const wire::RegistryEntry> prog, in, out;
    {
      ScopedSpan s(&tr_, "serve.registry.lookup", rid);
      prog = core_.registry().Get(req.transducer);
      in = core_.registry().Get(req.input_type);
      out = core_.registry().Get(req.output_type);
    }
    if (prog == nullptr || prog->kind != Kind::kXslt || in == nullptr ||
        in->kind != Kind::kDtd || out == nullptr || out->kind != Kind::kDtd) {
      *response = wire::MakeErrorResponse(
          wire::Opcode::kTypecheck, response->header.request_id,
          wire::WireStatus::kNotFound, "replay: artifact missing");
      return;
    }
    pebbletc::Alphabet in_tags, out_tags;
    pebbletc::EncodedAlphabet in_enc, out_enc;
    Result<pebbletc::PebbleTransducer> transducer =
        Status::Internal("not compiled");
    {
      ScopedSpan s(&tr_, "query.xslt.compile", rid);
      in_tags = prog->xslt->head_tags;
      out_tags = prog->xslt->literal_tags;
      for (pebbletc::SymbolId t = 0; t < in->dtd->tags().size(); ++t) {
        in_tags.Intern(in->dtd->tags().Name(t));
      }
      for (pebbletc::SymbolId t = 0; t < out->dtd->tags().size(); ++t) {
        out_tags.Intern(out->dtd->tags().Name(t));
      }
      in_enc = pebbletc::MakeEncodedAlphabet(in_tags).value();
      out_enc = pebbletc::MakeEncodedAlphabet(out_tags).value();
      transducer = pebbletc::CompileXslt(prog->xslt->program, in_enc, out_enc);
    }
    Result<pebbletc::Nbta> tau1 = Status::Internal("not compiled");
    Result<pebbletc::Nbta> tau2 = Status::Internal("not compiled");
    {
      ScopedSpan s(&tr_, "dtd.compile", rid);
      tau1 = pebbletc::CompileDtdOver(*in->dtd, in_enc);
      tau2 = pebbletc::CompileDtdOver(*out->dtd, out_enc);
    }
    if (!transducer.ok() || !tau1.ok() || !tau2.ok()) {
      *response = wire::MakeErrorResponse(
          wire::Opcode::kTypecheck, response->header.request_id,
          wire::WireStatus::kFailedPrecondition, "replay: compile failed");
      return;
    }
    Result<pebbletc::TypecheckResult> result = Status::Internal("not run");
    {
      ScopedSpan s(&tr_, "core.typecheck", rid);
      pebbletc::Typechecker checker(*transducer, in_enc.ranked,
                                    out_enc.ranked);
      result = checker.Typecheck(*tau1, *tau2,
                                 TypecheckOptionsFor(core_.options()));
    }
    if (!result.ok()) {
      *response = wire::MakeErrorResponse(
          wire::Opcode::kTypecheck, response->header.request_id,
          wire::WireStatusOf(result.status()), result.status().ToString());
      return;
    }
    info->ops = result->op_counters;
    wire::TypecheckResponse body;
    body.verdict = result->verdict == pebbletc::TypecheckVerdict::kTypechecks
                       ? 0
                   : result->verdict ==
                           pebbletc::TypecheckVerdict::kCounterexample
                       ? 1
                       : 2;
    body.method = result->method;
    body.exhausted = result->exhausted.exhausted;
    body.exhaustion_code = static_cast<uint8_t>(result->exhausted.code);
    body.exhaustion_pass = result->exhausted.pass;
    body.exhaustion_detail = result->exhausted.detail;
    body.checkpoints = result->op_counters.checkpoints;
    body.states_materialized = result->op_counters.states_materialized;
    if (body.verdict == 1) {
      info->counterexample = true;
      ScopedSpan s(&tr_, "serve.render", rid);
      body.counterexample_input_xml =
          Render(result->counterexample_input, in_enc, in_tags);
      body.counterexample_output_xml =
          Render(result->counterexample_output, out_enc, out_tags);
    }
    response->body = std::move(body);
  }

  static std::string Render(const std::optional<pebbletc::BinaryTree>& tree,
                            const pebbletc::EncodedAlphabet& enc,
                            const pebbletc::Alphabet& tags) {
    if (!tree.has_value()) return std::string();
    Result<pebbletc::UnrankedTree> doc = pebbletc::DecodeTree(*tree, enc);
    if (!doc.ok()) return std::string();
    return pebbletc::XmlString(*doc, tags);
  }

  struct CachedPlan {
    std::shared_ptr<const wire::RegistryEntry> source;
    std::shared_ptr<const wire::ValidationPlan> plan;
  };

  wire::ServerCore core_;
  Tracer tr_;
  pebbletc::TaOpCache plan_cache_;
  std::map<std::string, CachedPlan> plans_;
  std::set<std::pair<std::string, std::string>> checked_;

 public:
  const std::vector<TcProgram>* programs_ = nullptr;
};

/// The class whose requests dominate a workload's traffic.
ReqClass MainClass(const Workload& w) {
  if (w.spec().name == "validate_batch_small") return ReqClass::kBatch;
  return ReqClass::kTypecheckWarm;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

ReplayResult RunReplay(const Workload& w, const std::string& artifacts,
                       const std::string& spans_path) {
  ReplayResult out;
  Replayer rp;
  rp.programs_ = &w.programs();
  if (Status s = rp.Load(artifacts); !s.ok()) {
    out.correct = false;
    out.error = "replay: " + s.ToString();
    return out;
  }

  // The request list: the set-up sequence, then the workload's own traffic
  // (the whole pool once, or 30 typecheck cycles per connection).
  std::vector<Slot> slots;
  std::vector<Planned> setup = w.SetupRequests(&slots);
  std::vector<const Planned*> order;
  std::vector<bool> is_workload;
  for (const Planned& p : setup) {
    order.push_back(&p);
    is_workload.push_back(false);
  }
  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<Planned> stream_reqs;
  const uint32_t n = w.spec().connections;
  if (w.pool().empty()) {
    for (uint32_t c = 0; c < n; ++c) {
      streams.push_back(std::make_unique<Stream>(&w, &slots, c, n));
    }
    for (size_t i = 0; i < 270; ++i) {
      for (uint32_t c = 0; c < n; ++c) {
        stream_reqs.push_back(streams[c]->Next());
      }
    }
    for (const Planned& p : stream_reqs) {
      order.push_back(&p);
      is_workload.push_back(true);
    }
  } else {
    for (const Planned& p : w.pool()) {
      order.push_back(&p);
      is_workload.push_back(true);
    }
  }

  std::vector<RequestInfo> info(order.size());
  DocStats docs_setup, docs_workload;
  std::string error;
  for (size_t i = 0; i < order.size(); ++i) {
    info[i].cls = order[i]->cls;
    info[i].workload = is_workload[i];
  }
  // A throwaway pass of the set-up sequence first, so neither timed path
  // pays the process's first-touch costs. Every request then runs through
  // both paths back to back, alternating which goes first, so a change in
  // host speed hits both alike. A first typecheck of a variant runs each
  // time against an emptied op cache, so both paths see it cold (so does a
  // schema's first validate, which compiles its plan); after the
  // set-up sequence one more untimed pass fills the cache again for the
  // workload's requests.
  Replayer filler;
  filler.programs_ = &w.programs();
  auto warm_up = [&] {
    std::string ignored;
    for (const Planned& p : setup) filler.Untraced(p, &ignored);
  };
  if (filler.Load(artifacts).ok()) warm_up();
  for (size_t i = 0; i < order.size() && error.empty(); ++i) {
    if (i == setup.size()) warm_up();
    DocStats* docs = i < setup.size() ? &docs_setup : &docs_workload;
    // First typechecks and each schema's first validate (its plan compile).
    const bool cold =
        i < setup.size() && (order[i]->cls == ReqClass::kTypecheckCold ||
                             order[i]->cls == ReqClass::kValidate);
    for (bool traced : {i % 2 == 1, i % 2 == 0}) {
      if (cold) pebbletc::TaOpCache::Global().Clear();
      if (traced) {
        rp.Traced(*order[i], static_cast<uint32_t>(i), &info[i], docs, &error);
      } else {
        info[i].handle_us = rp.Untraced(*order[i], &error);
      }
    }
  }
  if (!error.empty()) {
    out.correct = false;
    out.error = error;
    return out;
  }

  // Probes over the workload's documents, or the set-up documents when the
  // workload validates nothing.
  const std::vector<Doc>& probe_docs =
      w.pool_docs().empty() ? w.setup_docs() : w.pool_docs();
  DocStats probe;
  for (size_t d = 0; d < probe_docs.size(); ++d) {
    rp.Probe(probe_docs[d], static_cast<uint32_t>(order.size() + d), &probe);
  }

  // --- from spans to metrics ---
  const std::vector<Span>& spans = rp.tracer().spans();
  std::vector<double> child_us(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[s.parent] += SpanUs(s);
  }
  std::map<std::string, std::pair<double, double>> layer;  // total, self
  std::map<std::string, uint64_t> layer_count;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& [total, self] = layer[spans[i].name];
    total += SpanUs(spans[i]);
    self += SpanUs(spans[i]) - child_us[i];
    ++layer_count[spans[i].name];
  }
  // Span durations by request and name.
  std::vector<std::map<std::string, double>> by_req(info.size());
  for (const Span& s : spans) {
    if (s.request < info.size() && s.parent >= 0) {
      by_req[s.request][s.name] += SpanUs(s);
    }
  }

  const ReqClass main = MainClass(w);
  auto pick = [&](auto pred) {
    std::vector<size_t> v;
    for (size_t i = 0; i < info.size(); ++i) {
      if (pred(info[i])) v.push_back(i);
    }
    return v;
  };
  // Requests of class `c`: the workload's own if it sends any, else set-up.
  auto of_class = [&](ReqClass c) {
    std::vector<size_t> v =
        pick([&](const RequestInfo& r) { return r.cls == c && r.workload; });
    if (v.empty()) {
      v = pick([&](const RequestInfo& r) { return r.cls == c; });
    }
    return v;
  };
  auto span_median = [&](const std::vector<size_t>& reqs, const char* name) {
    std::vector<double> v;
    for (size_t i : reqs) {
      auto it = by_req[i].find(name);
      if (it != by_req[i].end()) v.push_back(it->second);
    }
    return Median(v);
  };
  auto& m = out.metrics;
  const std::vector<size_t> main_reqs = of_class(main);
  {
    std::vector<double> handle;
    double check = 0, total = 0;
    for (size_t i : main_reqs) {
      handle.push_back(info[i].handle_us);
      check += by_req[i]["serve.validity.check"];
      total += SpanUs(spans[info[i].root]);
    }
    m["serve.handle_us"] = Median(handle);
    m["serve.validity.share"] = total > 0 ? check / total : 0;
  }
  m["serve.protocol.decode_us"] =
      span_median(main_reqs, "serve.protocol.decode");
  m["serve.protocol.encode_us"] =
      span_median(main_reqs, "serve.protocol.encode");
  m["serve.validity.check_us"] = span_median(main_reqs, "serve.validity.check");

  // Validation layers: the workload's documents, else the set-up ones.
  const DocStats& docs =
      docs_workload.arena_bytes.empty() ? docs_setup : docs_workload;
  {
    std::vector<double> doc_us, reject_us, compile_ms;
    const bool setup_only = docs_workload.arena_bytes.empty();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string name = s.name;
      const bool in_set =
          s.request < info.size() && info[s.request].workload != setup_only;
      if (name == "serve.validate.doc" && in_set) doc_us.push_back(SpanUs(s));
      if (name == "serve.validate.reject_extra") reject_us.push_back(SpanUs(s));
      if (name == "serve.plan.compile") compile_ms.push_back(SpanUs(s) / 1000);
    }
    m["serve.validate.doc_us"] = Median(doc_us);
    m["serve.validate.reject_extra_us"] = Median(reject_us);
    m["serve.plan.compile_ms"] = Median(compile_ms);
  }
  m["common.arena.bytes_per_doc"] = [&] {
    double s = 0;
    for (double b : docs.arena_bytes) s += b;
    return docs.arena_bytes.empty() ? 0 : s / docs.arena_bytes.size();
  }();
  m["common.arena.blocks_per_doc"] = [&] {
    double s = 0;
    for (double b : docs.arena_blocks) s += b;
    return docs.arena_blocks.empty() ? 0 : s / docs.arena_blocks.size();
  }();
  m["ta.membership.fast_ratio"] =
      docs.fast_hits + docs.fallbacks == 0
          ? 0
          : static_cast<double>(docs.fast_hits) /
                (docs.fast_hits + docs.fallbacks);
  const double mb = probe.bytes / 1e6;
  m["xml.tokenize_mb_per_s"] = probe.tokenize_s > 0 ? mb / probe.tokenize_s : 0;
  m["xml.parse_mb_per_s"] = probe.parse_s > 0 ? mb / probe.parse_s : 0;
  m["xml.events_per_kb"] =
      probe.bytes > 0 ? probe.events / (probe.bytes / 1024) : 0;
  m["ta.membership.stream_mb_per_s"] =
      probe.stream_s > 0 ? mb / probe.stream_s : 0;
  m["ta.membership.fold_ns_per_node"] =
      probe.nodes > 0 ? (probe.stream_s - probe.tokenize_s) * 1e9 / probe.nodes
                      : 0;

  // Registry, rendering, typecheck passes.
  const std::vector<size_t> loads = of_class(ReqClass::kLoad);
  m["serve.registry.load_us"] = span_median(loads, "serve.registry.load");
  const std::vector<size_t> warm = of_class(ReqClass::kTypecheckWarm);
  const std::vector<size_t> cold = of_class(ReqClass::kTypecheckCold);
  std::vector<size_t> typechecks = warm;
  typechecks.insert(typechecks.end(), cold.begin(), cold.end());
  std::vector<size_t> rendered =
      pick([](const RequestInfo& r) { return r.counterexample && r.workload; });
  if (rendered.empty()) {
    rendered = pick([](const RequestInfo& r) { return r.counterexample; });
  }
  m["serve.render_us"] = span_median(rendered, "serve.render");
  m["query.xslt.compile_us"] = span_median(typechecks, "query.xslt.compile");
  m["dtd.compile_us"] = span_median(typechecks, "dtd.compile");
  // Truly cold typechecks happen only in the set-up sequence (the first
  // typecheck of every output variant); the workload's post-load typechecks
  // find the algebra in the op cache.
  const std::vector<size_t> first_seen = pick([](const RequestInfo& r) {
    return r.cls == ReqClass::kTypecheckCold && !r.workload;
  });
  m["core.typecheck.warm_us"] = span_median(warm, "core.typecheck");
  m["core.typecheck.cold_ms"] = span_median(first_seen, "core.typecheck") / 1000;
  {
    double op_ns = 0, det = 0, comp = 0, incl = 0, inter = 0, states = 0,
           cps = 0;
    for (size_t i : first_seen) {
      const pebbletc::TaOpCounters& c = info[i].ops;
      op_ns += c.op_nanos;
      det += c.determinizations;
      comp += c.complementations;
      incl += c.inclusions;
      inter += c.intersections;
      states += c.states_materialized;
      cps += c.checkpoints;
    }
    const double k =
        first_seen.empty() ? 1 : static_cast<double>(first_seen.size());
    m["ta.op_ms_per_cold"] = op_ns / 1e6 / k;
    m["ta.determinizations_per_cold"] = det / k;
    m["ta.complementations_per_cold"] = comp / k;
    m["ta.inclusions_per_cold"] = incl / k;
    m["ta.intersections_per_cold"] = inter / k;
    m["ta.states_per_cold"] = states / k;
    m["ta.checkpoints_per_cold"] = cps / k;
    double hits = 0, misses = 0, evictions = 0;
    for (size_t i : typechecks) {
      hits += info[i].ops.memo_hits;
      misses += info[i].ops.memo_misses;
      evictions += info[i].ops.memo_evictions;
    }
    m["ta.op_cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    m["ta.op_cache.evictions"] = evictions;
    m["ta.op_cache.bytes"] =
        static_cast<double>(pebbletc::TaOpCache::Global().size_bytes());
  }

  // Coverage: the share of HandleFrame time the traced calls account for,
  // per request class; overhead: traced root spans against HandleFrame.
  // Sums, not a median of per-request ratios: whichever path runs second
  // also pays, for example, freeing the registry entry the first one
  // installed, so per-request ratios are bimodal around the true share.
  double all_handle = 0, all_root = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    double handle = 0, covered = 0;
    for (const RequestInfo& r : info) {
      if (static_cast<int>(r.cls) != c) continue;
      handle += r.handle_us;
      covered += child_us[r.root];
      all_handle += r.handle_us;
      all_root += SpanUs(spans[r.root]);
    }
    m[std::string("trace.coverage.") + ClassName(static_cast<ReqClass>(c))] =
        handle > 0 ? covered / handle : 0;
  }
  m["trace.overhead_ratio"] = all_handle > 0 ? all_root / all_handle - 1 : 0;

  // Self time per layer, for the report.
  std::ostringstream lj;
  lj << "{";
  bool first = true;
  for (const auto& [name, ts] : layer) {
    lj << (first ? "" : ", ") << "\"" << JsonEscape(name)
       << "\": {\"count\": " << layer_count[name]
       << ", \"total_us\": " << ts.first << ", \"self_us\": " << ts.second
       << "}";
    first = false;
  }
  lj << "}";
  out.layers_json = lj.str();

  std::ofstream sf(spans_path);
  for (const Span& s : spans) {
    sf << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}\n";
  }
  return out;
}

}  // namespace servebench
