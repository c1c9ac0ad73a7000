#include "servebench/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "src/common/check.h"

namespace servebench {

using pebbletc::Rng;
namespace wire = pebbletc::serve;

const char* ClassName(ReqClass c) {
  switch (c) {
    case ReqClass::kValidate:
      return "validate";
    case ReqClass::kBatch:
      return "batch";
    case ReqClass::kTypecheckWarm:
      return "typecheck_warm";
    case ReqClass::kTypecheckCold:
      return "typecheck_cold";
    case ReqClass::kLoad:
      return "load";
  }
  return "?";
}

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  // Open-loop rates are 15-20% of the closed-loop throughput measured on a
  // 4-vCPU Xeon host with the default daemon (README.md says why not 60%);
  // BENCHMARK.json repeats them.
  static const WorkloadSpec kSpecs[] = {
      {"validate_batch_small", 2, 200},
      {"typecheck_mix", 2, 2000},
  };
  for (const WorkloadSpec& s : kSpecs) {
    if (s.name == name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

namespace {

std::string Numbered(const char* prefix, size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%02zu", prefix, i);
  return buf;
}

std::string Frame(const wire::Request& request) {
  std::string payload;
  wire::EncodeRequest(request, &payload);
  std::string frame;
  wire::EncodeFrame(payload, &frame);
  return frame;
}

wire::Request MakeRequest(wire::Opcode op, uint32_t id) {
  wire::Request r;
  r.header.opcode = op;
  r.header.request_id = id;
  return r;
}

Doc MakeDoc(const GenDtd& dtd, const pebbletc::SpecializedDtd& parsed,
            const std::string& schema, Rng& rng, size_t target, bool indent,
            Mutation mutation) {
  DocKnobs knobs;
  knobs.target_bytes = target;
  knobs.indent = indent;
  knobs.record_nodes = std::clamp<size_t>(target / 300, 8, 200);
  GenTree tree = GenerateTree(dtd, rng, knobs);
  Mutate(&tree, dtd, rng, mutation);
  Doc doc;
  doc.schema = schema;
  doc.xml = ToXml(tree, dtd, indent);
  doc.valid = ExpectedValid(tree, dtd, parsed);
  doc.nodes = CountNodes(tree);
  return doc;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBelow(i)]);
  }
}

/// Validate or batch request over consecutive documents.
Planned ValidatePlanned(const std::vector<Doc>& docs, size_t first,
                        size_t count, uint32_t id) {
  Planned p;
  if (count == 1) {
    wire::Request r = MakeRequest(wire::Opcode::kValidate, id);
    r.body = wire::ValidateRequest{docs[first].schema, docs[first].xml};
    p.cls = ReqClass::kValidate;
    p.frame = Frame(r);
  } else {
    wire::Request r = MakeRequest(wire::Opcode::kValidateBatch, id);
    wire::ValidateBatchRequest body;
    body.schema = docs[first].schema;
    for (size_t i = first; i < first + count; ++i) {
      body.documents.push_back(docs[i].xml);
    }
    r.body = std::move(body);
    p.cls = ReqClass::kBatch;
    p.frame = Frame(r);
  }
  for (size_t i = first; i < first + count; ++i) {
    p.expect_valid.push_back(docs[i].valid ? 1 : 0);
  }
  return p;
}

}  // namespace

std::string SchemaName(size_t i) { return Numbered("doc_", i); }
std::string ProgramName(size_t p) { return Numbered("prog_", p); }
std::string InputName(size_t p) { return Numbered("in_", p); }
std::string SlotName(size_t s) { return Numbered("out_", s); }

Workload::Workload(const WorkloadSpec& spec, uint64_t seed) : spec_(spec) {
  Rng master(seed);
  // Schema and program structure (content models, tag-name lengths) comes
  // from a fixed seed, so every run seed meets the same cost mix: per-node
  // validation cost and cold typecheck cost both vary steeply with shape
  // (README.md). The run seed spells the tag names and draws the documents
  // and mutations.
  Rng shapes(kShapeSeed);
  static const size_t kSchemaTags[kDocSchemas] = {8, 13, 18, 24};
  for (size_t i = 0; i < kDocSchemas; ++i) {
    Rng shape = shapes.Fork();
    Rng names = master.Fork();
    DtdKnobs knobs;
    knobs.num_tags = kSchemaTags[i];
    schemas_.push_back(GenerateDtd(shape, names, knobs));
    schema_parsed_.push_back(std::make_unique<pebbletc::SpecializedDtd>(
        ParseGenDtd(schemas_.back())));
  }
  for (size_t p = 0; p < kPrograms; ++p) {
    Rng shape = shapes.Fork();
    Rng names = master.Fork();
    TcKnobs knobs;
    knobs.num_tags = p % 4 == 3 ? 3 : 2;
    programs_.push_back(GenerateProgram(shape, names, knobs));
    tightenings_.push_back(programs_.back().Tightenings());
  }
  Rng setup_rng = master.Fork();
  uint32_t id = 1;
  for (size_t s = 0; s < kDocSchemas; ++s) {
    setup_docs_.push_back(MakeDoc(schemas_[s], *schema_parsed_[s],
                                  SchemaName(s), setup_rng, 2000, false,
                                  Mutation::kNone));
    setup_validate_.push_back(
        ValidatePlanned(setup_docs_, setup_docs_.size() - 1, 1, id++));
    const size_t first = setup_docs_.size();
    std::vector<size_t> sizes = StratifiedLogSizes(setup_rng, 16, 100, 4000);
    for (size_t i = 0; i < sizes.size(); ++i) {
      static const Mutation kFirst[] = {Mutation::kSwap, Mutation::kInsert,
                                        Mutation::kDelete};
      setup_docs_.push_back(MakeDoc(schemas_[s], *schema_parsed_[s],
                                    SchemaName(s), setup_rng, sizes[i], i % 2,
                                    i < 3 ? kFirst[i] : Mutation::kNone));
    }
    setup_validate_.push_back(
        ValidatePlanned(setup_docs_, first, sizes.size(), id++));
  }
  Rng pool_rng = master.Fork();
  if (spec_.name == "validate_batch_small") {
    BuildValidatePool(pool_rng, 32 * kBatchDocs, kBatchDocs, 100, 4000);
  }
}

void Workload::BuildValidatePool(Rng& rng, size_t docs, size_t per_request,
                                 size_t lo, size_t hi) {
  // Sizes, schemas, indentation and mutations are spread evenly over the
  // size strata, so no seed puts, say, all the largest documents on one
  // schema: size stratum k goes to position k / requests of request
  // k % requests, and schema, indentation and mutation follow the stratum.
  // Which strata are mutated is fixed too: a rejected document costs more
  // (the re-parse for its diagnostic).
  const std::vector<size_t> sizes = StratifiedLogSizes(rng, docs, lo, hi);
  const size_t requests = docs / per_request;
  static const Mutation kOps[] = {Mutation::kSwap, Mutation::kInsert,
                                  Mutation::kDelete};
  for (size_t i = 0; i < docs; ++i) {
    const size_t request = i / per_request;
    const size_t k = (i % per_request) * requests + request;
    const size_t s = request % kDocSchemas;
    const size_t m = k % 20;
    pool_docs_.push_back(MakeDoc(schemas_[s], *schema_parsed_[s],
                                 SchemaName(s), rng, sizes[k],
                                 (k / kDocSchemas) % 2 == 1,
                                 m < 3 ? kOps[m] : Mutation::kNone));
  }
  for (size_t first = 0; first < docs; first += per_request) {
    pool_.push_back(ValidatePlanned(pool_docs_, first, per_request,
                                    static_cast<uint32_t>(1000 + first)));
  }
}

bool Workload::WriteArtifacts(const std::string& dir) const {
  auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
  };
  for (size_t s = 0; s < kDocSchemas; ++s) {
    if (!write(SchemaName(s) + ".dtd", schemas_[s].Text())) return false;
  }
  for (size_t p = 0; p < kPrograms; ++p) {
    if (!write(InputName(p) + ".dtd", programs_[p].input.Text())) return false;
    if (!write(ProgramName(p) + ".xslt", programs_[p].XsltText())) return false;
  }
  return true;
}

Planned Workload::LoadRequest(size_t slot, const Slot& state) const {
  wire::Request r = MakeRequest(wire::Opcode::kLoadArtifact,
                                static_cast<uint32_t>(slot));
  pebbletc::Result<std::string> container = DtdContainer(*state.text);
  PEBBLETC_CHECK(container.ok()) << container.status().ToString();
  r.body = wire::LoadArtifactRequest{SlotName(slot), std::move(*container)};
  Planned p;
  p.cls = ReqClass::kLoad;
  p.frame = Frame(r);
  p.slot = static_cast<int>(slot);
  p.out_text = state.text;
  return p;
}

Planned Workload::TypecheckRequest(size_t slot, const Slot& state,
                                   ReqClass cls) const {
  wire::Request r =
      MakeRequest(wire::Opcode::kTypecheck, static_cast<uint32_t>(slot));
  r.body = wire::TypecheckRequest{ProgramName(state.program),
                                  InputName(state.program), SlotName(slot)};
  Planned p;
  p.cls = cls;
  p.frame = Frame(r);
  p.slot = static_cast<int>(slot);
  p.out_text = state.text;
  p.expect_verdict = state.tightening < 0 ? 0 : 1;
  return p;
}

std::vector<Planned> Workload::SetupRequests(std::vector<Slot>* slots) const {
  std::vector<Planned> out(setup_validate_.begin(), setup_validate_.end());
  slots->assign(kSlots, Slot{});
  for (size_t p = 0; p < kPrograms; ++p) {
    for (int t = -1; t < static_cast<int>(tightenings_[p].size()); ++t) {
      const size_t s = t < 0 ? p : p + kPrograms;
      Slot& st = (*slots)[s];
      st.program = static_cast<uint32_t>(p);
      st.tightening = t;
      st.text = std::make_shared<const std::string>(
          programs_[p].OutputDtdText(t));
      out.push_back(LoadRequest(s, st));
      out.push_back(TypecheckRequest(s, st, ReqClass::kTypecheckCold));
      out.push_back(TypecheckRequest(s, st, ReqClass::kTypecheckWarm));
    }
  }
  return out;
}

// --- streams ---------------------------------------------------------------------

Stream::Stream(const Workload* w, std::vector<Slot>* slots, uint32_t conn,
               uint32_t connections)
    : w_(w),
      slots_(slots),
      rng_(kShapeSeed * 0x9E3779B97F4A7C15ull + conn + 1),
      zipf_(std::max<size_t>(1, kSlots / connections), 1.0) {
  if (!w_->pool().empty()) {
    const size_t n = w_->pool().size();
    for (size_t i = 0; i < n; ++i) order_.push_back(i);
    Shuffle(&order_, rng_);
    cursor_ = conn * n / connections;
  } else {
    // Zipf ranks follow slot order, so every seed has the same hot triples.
    for (size_t s = conn; s < kSlots; s += connections) order_.push_back(s);
    zipf_ = Zipf(order_.size(), 1.0);
  }
}

void Stream::GenerateOne() {
  const size_t pos = cycle_++ % 9;
  if (pos == 0) {
    // Loads go round the connection's slots; each slot alternates between
    // the exact image and its program's tightenings in turn, so every seed
    // sends the same mix of variants.
    const size_t s = order_[loads_++ % order_.size()];
    Slot& st = (*slots_)[s];
    const size_t nt = w_->tightenings()[st.program].size();
    st.tightening = st.loads % 2 == 0
                        ? -1
                        : static_cast<int>((st.loads / 2) % nt);
    ++st.loads;
    st.text = std::make_shared<const std::string>(
        w_->programs()[st.program].OutputDtdText(st.tightening));
    pending_slot_ = s;
    ahead_.push_back(w_->LoadRequest(s, st));
  } else if (pos == 1) {
    ahead_.push_back(w_->TypecheckRequest(
        pending_slot_, (*slots_)[pending_slot_], ReqClass::kTypecheckCold));
  } else {
    const size_t s = order_[zipf_.Draw(rng_)];
    ahead_.push_back(
        w_->TypecheckRequest(s, (*slots_)[s], ReqClass::kTypecheckWarm));
  }
}

void Stream::Prefill(size_t n) {
  if (!w_->pool().empty()) return;
  ahead_.erase(ahead_.begin(), ahead_.begin() + static_cast<long>(next_));
  next_ = 0;
  while (ahead_.size() < n) GenerateOne();
}

const Planned& Stream::Next() {
  if (!w_->pool().empty()) {
    return w_->pool()[order_[cursor_++ % order_.size()]];
  }
  if (next_ == ahead_.size()) GenerateOne();
  return ahead_[next_++];
}

// --- response checking --------------------------------------------------------

Verdict CheckResponse(const Planned& planned, std::string_view payload) {
  Verdict v;
  pebbletc::Result<wire::Response> decoded = wire::DecodeResponse(payload);
  if (!decoded.ok()) {
    v.detail = "undecodable response: " + decoded.status().ToString();
    return v;
  }
  const wire::Response& r = *decoded;
  if (r.header.status != wire::WireStatus::kOk) {
    v.detail = std::string(ClassName(planned.cls)) + ": " +
               wire::WireStatusName(r.header.status) + " " + r.header.detail;
    return v;
  }
  v.ok_status = true;
  switch (planned.cls) {
    case ReqClass::kValidate: {
      const auto* body = std::get_if<wire::ValidateResponse>(&r.body);
      v.decided = true;
      if (body == nullptr || body->valid != (planned.expect_valid[0] != 0)) {
        v.wrong = true;
        v.detail = "validate verdict differs from SpecializedDtd::Accepts";
      }
      break;
    }
    case ReqClass::kBatch: {
      const auto* body = std::get_if<wire::ValidateBatchResponse>(&r.body);
      v.decided = true;
      if (body == nullptr ||
          body->verdicts.size() != planned.expect_valid.size()) {
        v.wrong = true;
        v.detail = "batch answered the wrong number of documents";
        break;
      }
      for (size_t i = 0; i < body->verdicts.size(); ++i) {
        const wire::BatchDocVerdict& d = body->verdicts[i];
        if (d.status != static_cast<uint8_t>(wire::WireStatus::kOk)) {
          v.ok_status = false;
          v.decided = false;
          v.detail = "batch document " + std::to_string(i) + ": " +
                     d.diagnostic;
        } else if (d.valid != (planned.expect_valid[i] != 0)) {
          v.wrong = true;
          v.detail = "batch document " + std::to_string(i) +
                     " verdict differs from SpecializedDtd::Accepts";
        }
      }
      break;
    }
    case ReqClass::kTypecheckWarm:
    case ReqClass::kTypecheckCold: {
      const auto* body = std::get_if<wire::TypecheckResponse>(&r.body);
      if (body == nullptr) {
        v.wrong = true;
        v.detail = "typecheck response without a typecheck body";
        break;
      }
      v.method = body->method;
      if (body->verdict == 2) break;  // honest kUnknown: undecided, not wrong
      v.decided = true;
      if (body->verdict != planned.expect_verdict) {
        v.wrong = true;
        v.detail = "typecheck verdict " + std::to_string(body->verdict) +
                   " on " + SlotName(planned.slot) + ", expected " +
                   std::to_string(planned.expect_verdict);
      } else if (body->verdict == 1) {
        v.counterexample = body->counterexample_input_xml;
        if (v.counterexample.empty()) {
          v.wrong = true;
          v.detail = "counterexample verdict without an input document";
        }
      }
      break;
    }
    case ReqClass::kLoad:
      v.decided = true;
      break;
  }
  return v;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace servebench
