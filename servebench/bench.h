// Shared model of the served-request benchmark (README.md): the generated
// workload, the requests it sends, and the streams that order them. Both the
// live run (live.cc, over the daemon's socket) and the traced in-process
// replay (replay.cc) send exactly these requests.

#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "servebench/gen.h"
#include "src/common/rng.h"
#include "src/dtd/dtd.h"
#include "src/serve/protocol.h"

namespace servebench {

/// What one request is, for grouping its measurements.
enum class ReqClass : uint8_t {
  kValidate,
  kBatch,
  kTypecheckWarm,
  kTypecheckCold,  ///< the typecheck right after its output type was loaded
  kLoad,
};
inline constexpr int kNumClasses = 5;
const char* ClassName(ReqClass c);

/// A ready-to-send request plus the answer it must get.
struct Planned {
  ReqClass cls = ReqClass::kValidate;
  std::string frame;  ///< length prefix + payload
  std::string_view payload() const {
    return std::string_view(frame).substr(4);
  }
  /// kValidate: expected validity of each document (one for kValidate).
  std::vector<uint8_t> expect_valid;
  /// Typecheck requests: 0 = typechecks, 1 = counterexample.
  int expect_verdict = -1;
  /// Typecheck and load requests: the output slot and the DTD text loaded
  /// into it (for checking counterexamples after the phase).
  int slot = -1;
  std::shared_ptr<const std::string> out_text;
};

/// One generated validation document.
struct Doc {
  std::string schema;
  std::string xml;
  bool valid = true;
  size_t nodes = 0;
};

/// An output-type slot of the typecheck family: which program it belongs to
/// and what was loaded into it last.
struct Slot {
  uint32_t program = 0;
  int tightening = -1;
  uint32_t loads = 0;  ///< loads by the connection that owns the slot
  std::shared_ptr<const std::string> text;
};

struct WorkloadSpec {
  std::string name;
  uint32_t connections = 1;
  double open_rate = 100;  ///< open-loop requests per second, all connections
};

/// Looks up a workload by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

inline constexpr size_t kDocSchemas = 4;
inline constexpr size_t kPrograms = 16;
inline constexpr size_t kSlots = 32;
inline constexpr size_t kBatchDocs = 64;
inline constexpr uint64_t kShapeSeed = 20001017;

std::string SchemaName(size_t i);
std::string ProgramName(size_t p);
std::string InputName(size_t p);
std::string SlotName(size_t s);

/// Everything generated from one seed.
class Workload {
 public:
  Workload(const WorkloadSpec& spec, uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }

  /// Writes the startup artifacts (`doc_*.dtd`, `in_*.dtd`, `prog_*.xslt`)
  /// into `dir`, which must exist. Output slots arrive by kLoadArtifact.
  bool WriteArtifacts(const std::string& dir) const;

  /// The set-up sequence every run sends before timing: per schema, a small
  /// validate (the schema's first, cold request) and a batch; per program,
  /// every output variant (the exact image into slot p, each tightening into
  /// slot p + 16) loaded and typechecked cold, then warm. `slots` is reset to
  /// the post-setup state: slot p exact, slot p + 16 the last tightening.
  std::vector<Planned> SetupRequests(std::vector<Slot>* slots) const;

  /// Pools the validate workloads cycle through (empty for other workloads).
  const std::vector<Planned>& pool() const { return pool_; }
  /// The documents behind the pool (and behind the set-up requests).
  const std::vector<Doc>& pool_docs() const { return pool_docs_; }
  const std::vector<Doc>& setup_docs() const { return setup_docs_; }

  const std::vector<TcProgram>& programs() const { return programs_; }
  const std::vector<std::vector<TcProgram::Tightening>>& tightenings() const {
    return tightenings_;
  }

  /// Encodes a load of `program`'s output variant into `slot`.
  Planned LoadRequest(size_t slot, const Slot& state) const;
  Planned TypecheckRequest(size_t slot, const Slot& state, ReqClass cls) const;

 private:
  void BuildValidatePool(pebbletc::Rng& rng, size_t docs, size_t per_request,
                         size_t lo, size_t hi);

  WorkloadSpec spec_;
  std::vector<GenDtd> schemas_;
  std::vector<std::unique_ptr<pebbletc::SpecializedDtd>> schema_parsed_;
  std::vector<TcProgram> programs_;
  std::vector<std::vector<TcProgram::Tightening>> tightenings_;
  std::vector<Doc> pool_docs_;
  std::vector<Planned> pool_;
  std::vector<Doc> setup_docs_;
  std::vector<Planned> setup_validate_;
};

/// One connection's request order. Validate workloads walk a permutation of
/// the pool; typecheck_mix runs cycles of nine: a load of a new variant into
/// the connection's next slot, the typecheck against it, then seven
/// Zipf-drawn repeats of the connection's triples. The order comes from the
/// fixed shape seed, not the run seed: which request follows which decides
/// how often a large request blocks the next ones on its connection, and so
/// moved p99 between seeds by up to 2.5x. The run seed still decides the
/// bytes of every request. Slots are partitioned by connection, so no request ever
/// races a load of its own output type.
class Stream {
 public:
  Stream(const Workload* w, std::vector<Slot>* slots, uint32_t conn,
         uint32_t connections);

  /// Requests are generated ahead of timing; Next() falls back to
  /// generating one inline when the prefill runs out. A returned request
  /// stays put until the next Prefill(), so it can wait in a pipeline.
  void Prefill(size_t n);
  const Planned& Next();

 private:
  void GenerateOne();

  const Workload* w_;
  std::vector<Slot>* slots_;
  pebbletc::Rng rng_;
  std::vector<size_t> order_;  ///< pool permutation / owned slots by rank
  size_t cursor_ = 0;
  size_t cycle_ = 0;
  size_t pending_slot_ = 0;
  size_t loads_ = 0;
  Zipf zipf_;
  std::deque<Planned> ahead_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Response checking.
// ---------------------------------------------------------------------------

struct Verdict {
  bool ok_status = false;  ///< kOk (and, for batches, every document kOk)
  bool wrong = false;      ///< a definite answer that differs from expected
  bool decided = false;    ///< typecheck answered kTypechecks/kCounterexample
  std::string method;      ///< typecheck method
  std::string counterexample;  ///< input XML of a served counterexample
  std::string detail;          ///< why it failed, if it did
};

Verdict CheckResponse(const Planned& planned, std::string_view payload);

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double Median(std::vector<double> v);
/// The p-quantile (0..1) by nearest rank; 0 for an empty sample.
double Quantile(std::vector<double> v, double p);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
