// E18 (docs/VALIDATION.md): the high-throughput validation fast path.
//
// Membership series: the dense E13/E11 family (DiffcheckAlphabet, seed 13,
// rule_density 0.3) at n ∈ {6, 8, 10} states, queried on a fixed 511-node
// tree. 'before' = NbtaAccepts, the reach-set route every membership query
// used to take (one bitset vector + rule scan per node); 'after' = the
// compiled-DBTA run table (MembershipEngine), one O(1) flat-table lookup
// per node. Compilation (determinization) is paid OUTSIDE the timed loop —
// that is the whole point: the serving workload pays it once per artifact.
//
// XML series over the p/q/r document alphabet: parsing a ~2000-node
// document into a tree, then streaming validation (DBTA folded over parse
// events, no tree) vs the materialize-encode-Accepts route. Over a fixed
// mix of 64 served-size documents (100 B-4 KB, flat, indented and
// commented): the reader alone (BM_XmlTokenize), and ValidateDoc on the
// ones a DTD plan rejects, diagnostics included (BM_ValidateRejected).
//
// Batch series: kValidateBatch through a warm ServerCore (plan compiled on
// the first request, cached after) at batch sizes {1, 8, 64, 256};
// per_doc_ns shows the per-document amortization of frame, admission, and
// plan-lookup overhead.
//
// DTD compile series: ParseDtd (parse plus one content DFA per type) of
// two families that cost far more than their bytes: the wide union
// r := (c0|…|cN-1)* over N empty types, whose subset construction reaches
// N+2 states of O(N) NFA states each, and N empty types alone, whose
// content DFAs are dense over the type alphabet (2N² table entries).
//
// CI runs this binary with --benchmark_min_time=0.05s in the bench-smoke
// job and uploads the JSON as the BENCH_validate.json artifact; the
// checked-in BENCH_validate.json records the measured numbers.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/alphabet/alphabet.h"
#include "src/check/diffcheck.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/dtd/dtd.h"
#include "src/serve/protocol.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/serve/validate.h"
#include "src/ta/membership.h"
#include "src/ta/nbta.h"
#include "src/ta/nbta_index.h"
#include "src/ta/op_context.h"
#include "src/ta/random_ta.h"
#include "src/tree/binary_tree.h"
#include "src/tree/encode.h"
#include "src/tree/random_tree.h"
#include "src/tree/unranked_tree.h"
#include "src/xml/xml.h"

namespace pebbletc {
namespace {

// The E13/E11 dense family: same alphabet, seed base, and density as
// bench_determinize / bench_inclusion, so numbers stay comparable across
// the EXPERIMENTS.md rows.
Nbta DrawDense(const RankedAlphabet& sigma, uint32_t states, uint64_t seed) {
  Rng rng(seed);
  RandomNbtaOptions opts;
  opts.num_states = states;
  opts.rule_density = 0.3;
  opts.leaf_density = 0.5;
  return RandomNbta(sigma, rng, opts);
}

// One fixed 511-node (255 internal) query tree per series, so every row
// measures the same per-node work.
BinaryTree QueryTree(const RankedAlphabet& sigma) {
  Rng rng(7);
  return RandomBinaryTree(sigma, rng, 255);
}

// ----------------------------------------------- membership (before) -------

void BM_MembershipNbtaAccepts(benchmark::State& state) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  Nbta a = DrawDense(sigma, static_cast<uint32_t>(state.range(0)), 13);
  NbtaIndex idx(a);
  const BinaryTree t = QueryTree(sigma);
  bool accepted = false;
  for (auto _ : state) {
    accepted = NbtaAccepts(idx, t);
    // Observed as an rvalue copy throughout this file: the mutable-lvalue
    // DoNotOptimize overload pins register-sized scalars with the "+m,r"
    // asm constraint, which GCC miscompiles at -O2/-O3 (google/benchmark
    // #1340) and clobbers the variable.
    benchmark::DoNotOptimize(bool(accepted));
  }
  state.counters["accepted"] = accepted ? 1 : 0;
  state.counters["tree_nodes"] = static_cast<double>(t.size());
}
BENCHMARK(BM_MembershipNbtaAccepts)->Arg(6)->Arg(8)->Arg(10);

// ----------------------------------------------- membership (after) --------

void BM_MembershipCompiled(benchmark::State& state) {
  RankedAlphabet sigma = DiffcheckAlphabet(/*extended=*/false);
  Nbta a = DrawDense(sigma, static_cast<uint32_t>(state.range(0)), 13);
  Result<MembershipEngine> engine = MembershipEngine::Compile(a, sigma);
  PEBBLETC_CHECK(engine.ok()) << engine.status().ToString();
  PEBBLETC_CHECK(engine->fast()) << "dense draws must fit the budget";
  const BinaryTree t = QueryTree(sigma);
  bool accepted = false;
  for (auto _ : state) {
    Result<bool> r = engine->Accepts(t);
    PEBBLETC_CHECK(r.ok());
    accepted = *r;
    benchmark::DoNotOptimize(bool(accepted));
  }
  state.counters["accepted"] = accepted ? 1 : 0;
  state.counters["tree_nodes"] = static_cast<double>(t.size());
  state.counters["det_states"] =
      static_cast<double>(engine->table()->num_states());
}
BENCHMARK(BM_MembershipCompiled)->Arg(6)->Arg(8)->Arg(10);

// ----------------------------------------------- XML document series -------

struct DocFixture {
  Alphabet tags;
  EncodedAlphabet enc;
  std::string xml;
  Nbta schema;
};

DocFixture MakeDocFixture(size_t target_nodes) {
  DocFixture f;
  f.tags.Intern("p");
  f.tags.Intern("q");
  f.tags.Intern("r");
  f.enc = std::move(MakeEncodedAlphabet(f.tags)).ValueOrDie();
  Rng rng(29);
  RandomUnrankedOptions uo;
  uo.target_size = target_nodes;
  uo.max_children = 6;
  f.xml = XmlString(RandomUnrankedTree(f.tags, rng, uo), f.tags);
  f.schema = DrawDense(f.enc.ranked, 8, 13);
  return f;
}

void BM_ParseXmlHeap(benchmark::State& state) {
  const DocFixture f = MakeDocFixture(2000);
  for (auto _ : state) {
    Result<KnownXmlParse> parsed = ParseXmlKnown(f.xml, f.tags);
    PEBBLETC_CHECK(parsed.ok() && parsed->unknown_tag.empty());
    benchmark::DoNotOptimize(parsed);
  }
  state.counters["doc_bytes"] = static_cast<double>(f.xml.size());
}
BENCHMARK(BM_ParseXmlHeap);

// The tree-materializing validation route: parse, encode, table pass.
void BM_ValidateMaterialize(benchmark::State& state) {
  const DocFixture f = MakeDocFixture(2000);
  Result<MembershipEngine> engine =
      MembershipEngine::Compile(f.schema, f.enc.ranked);
  PEBBLETC_CHECK(engine.ok() && engine->fast());
  bool accepted = false;
  for (auto _ : state) {
    Result<KnownXmlParse> parsed = ParseXmlKnown(f.xml, f.tags);
    PEBBLETC_CHECK(parsed.ok() && parsed->unknown_tag.empty());
    Result<BinaryTree> encoded = EncodeTree(parsed->tree, f.enc);
    PEBBLETC_CHECK(encoded.ok());
    Result<bool> r = engine->Accepts(*encoded);
    PEBBLETC_CHECK(r.ok());
    accepted = *r;
    benchmark::DoNotOptimize(bool(accepted));
  }
  state.counters["accepted"] = accepted ? 1 : 0;
}
BENCHMARK(BM_ValidateMaterialize);

// The streaming route: fold the table over parse events, no tree at all.
void BM_ValidateStreaming(benchmark::State& state) {
  const DocFixture f = MakeDocFixture(2000);
  Result<MembershipEngine> engine =
      MembershipEngine::Compile(f.schema, f.enc.ranked);
  PEBBLETC_CHECK(engine.ok() && engine->fast());
  bool accepted = false;
  for (auto _ : state) {
    Result<StreamVerdict> v =
        StreamingValidateXml(f.xml, *engine->table(), f.enc, f.tags);
    PEBBLETC_CHECK(v.ok() && v->unknown_tag.empty());
    accepted = v->accepted;
    benchmark::DoNotOptimize(bool(accepted));
  }
  state.counters["accepted"] = accepted ? 1 : 0;
}
BENCHMARK(BM_ValidateStreaming);

// A fixed mix of served-size documents, 100 B to 4 KB, over p/q/r: flat,
// indented, and with a comment after the root's open tag.
std::vector<std::string> MixedDocuments(const Alphabet& tags) {
  Rng rng(31);
  std::vector<std::string> docs;
  while (docs.size() < 64) {
    RandomUnrankedOptions uo;
    uo.target_size = 8 + rng.NextBelow(400);
    uo.max_children = 5;
    const UnrankedTree t = RandomUnrankedTree(tags, rng, uo);
    std::string xml = XmlString(t, tags, /*indent=*/docs.size() % 3 == 1);
    if (docs.size() % 3 == 2) {
      const size_t at = xml.find('>') + 1;
      xml.insert(at, "<!-- a comment -->");
    }
    if (xml.size() < 100 || xml.size() > 4096) continue;
    docs.push_back(std::move(xml));
  }
  return docs;
}

// The reader alone over the mix, through the Result-returning Next.
void BM_XmlTokenize(benchmark::State& state) {
  Alphabet tags;
  for (const char* t : {"p", "q", "r"}) tags.Intern(t);
  const std::vector<std::string> docs = MixedDocuments(tags);
  size_t bytes = 0;
  for (const std::string& d : docs) bytes += d.size();
  size_t events = 0;
  for (auto _ : state) {
    for (const std::string& d : docs) {
      XmlEventReader reader(d);
      while (true) {
        Result<XmlEventReader::Event> e = reader.Next();
        PEBBLETC_CHECK(e.ok());
        if (e->kind == XmlEventReader::Kind::kEnd) break;
        ++events;
      }
    }
    benchmark::DoNotOptimize(events);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["docs"] = static_cast<double>(docs.size());
  state.counters["doc_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_XmlTokenize);

// ValidateDoc on documents of the mix that a DTD plan rejects, so every
// call also words its per-node diagnostic.
void BM_ValidateRejected(benchmark::State& state) {
  auto dtd = std::make_shared<const SpecializedDtd>(
      std::move(ParseDtd("p := (q | r)*\nq := (p | r)*\nr := ()\n"))
          .ValueOrDie());
  const serve::ValidationPlan plan =
      std::move(serve::CompileDtdPlan(dtd)).ValueOrDie();
  PEBBLETC_CHECK(plan.engine.fast());
  std::vector<std::string> docs;
  for (std::string& d : MixedDocuments(dtd->tags())) {
    const serve::DocVerdict v = serve::ValidateDoc(plan, d);
    PEBBLETC_CHECK(v.code == StatusCode::kOk);
    if (!v.valid) docs.push_back(std::move(d));
  }
  PEBBLETC_CHECK(docs.size() >= 16) << docs.size() << " rejected documents";
  for (auto _ : state) {
    for (const std::string& d : docs) {
      serve::DocVerdict v = serve::ValidateDoc(plan, d);
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(docs.size()) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["docs"] = static_cast<double>(docs.size());
}
BENCHMARK(BM_ValidateRejected);

// ------------------------------------------------------- batch serve -------

// kValidateBatch through a warm ServerCore: the plan is compiled by the
// first (untimed) request and served from the plan cache inside the loop,
// so rows measure steady-state per-document cost including decode, validity,
// admission, dispatch, and response encoding.
void BM_ServeBatchWarm(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  serve::ServeOptions options;
  options.validity.max_batch_docs = 1024;
  serve::ServerCore server(options);
  PEBBLETC_CHECK(
      server.registry().PutDtdText("in", "a := c\nc := ()\n").ok());
  serve::Request request;
  request.header.opcode = serve::Opcode::kValidateBatch;
  request.header.request_id = 1;
  std::vector<std::string> docs;
  docs.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    docs.push_back(i % 2 == 0 ? "<a><c/></a>" : "<a/>");
  }
  request.body = serve::ValidateBatchRequest{"in", std::move(docs)};
  std::string payload;
  serve::EncodeRequest(request, &payload);
  // Warm the plan cache (and prove the request is well-formed).
  {
    std::string first = server.HandleFrame(payload);
    Result<serve::Response> r = serve::DecodeResponse(first);
    PEBBLETC_CHECK(r.ok() && r->header.status == serve::WireStatus::kOk)
        << (r.ok() ? r->header.detail : r.status().ToString());
  }
  for (auto _ : state) {
    std::string encoded = server.HandleFrame(payload);
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["batch_docs"] = static_cast<double>(batch);
  state.counters["docs_per_second"] = benchmark::Counter(
      static_cast<double>(batch) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeBatchWarm)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

// ------------------------------------------------------- DTD compile -------

std::string WideUnionDtd(int n) {
  std::string text = "r := (";
  for (int i = 0; i < n; ++i) text += (i ? "|c" : "c") + std::to_string(i);
  text += ")*\n";
  for (int i = 0; i < n; ++i) text += "c" + std::to_string(i) + " := ()\n";
  return text;
}

std::string EmptyTypesDtd(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) text += "c" + std::to_string(i) + " := ()\n";
  return text;
}

void BM_DtdCompile(benchmark::State& state, std::string (*family)(int)) {
  const std::string text = family(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Result<SpecializedDtd> dtd = ParseDtd(text);
    PEBBLETC_CHECK(dtd.ok()) << dtd.status().ToString();
    benchmark::DoNotOptimize(dtd);
  }
  state.counters["dtd_bytes"] = static_cast<double>(text.size());
}
BENCHMARK_CAPTURE(BM_DtdCompile, wide_union, WideUnionDtd)
    ->Arg(50)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DtdCompile, empty_types, EmptyTypesDtd)
    ->Arg(500)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pebbletc
