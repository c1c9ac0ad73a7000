// The two halves of a benchmark run: the live run against a real
// pebbletc_serve over its Unix socket (live.cc), and the traced in-process
// replay that splits request time by layer (replay.cc).

#ifndef SERVEBENCH_RUN_H_
#define SERVEBENCH_RUN_H_

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "servebench/bench.h"

namespace servebench {

/// One request as the load generator saw it.
struct Sample {
  ReqClass cls = ReqClass::kValidate;
  bool ok = false;        ///< kOk and not a wrong verdict
  double service_us = 0;  ///< send to reply
  double latency_us = 0;  ///< due time to reply (open loop; = service closed)
  double lag_us = 0;      ///< how late the generator itself sent it
  /// Seconds since the phase began: reply time (closed loop) or due time
  /// (open loop).
  double done_s = 0;
};

/// Daemon counters from /proc: CPU time and context switches summed over its
/// threads, and peak RSS; and the time the hypervisor gave the machine's
/// CPUs to other guests (steal), which the CPU time leaves out.
struct ProcSample {
  double cpu_s = 0;
  double steal_s = 0;
  uint64_t voluntary = 0;
  uint64_t involuntary = 0;
  double hwm_mb = 0;
};
ProcSample SampleProc(pid_t pid);

struct PhaseResult {
  double seconds = 0;
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t typechecks = 0;  ///< typecheck requests (the decided_ratio base)
  uint64_t decided = 0;     ///< of those, answered with a definite verdict
  ProcSample before, after;
};

struct LiveOptions {
  std::string daemon;     ///< pebbletc_serve executable
  std::string artifacts;  ///< startup artifact directory
  std::string socket;     ///< socket path (kept short: relative to cwd)
  std::string log;        ///< daemon stderr
  double seconds = 10;    ///< closed + open phase length, over all starts
  int setups = 7;         ///< daemon starts
  cpu_set_t daemon_cpus;  ///< where the daemon may run
};

struct LiveResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::vector<double> setup_s;  ///< one per daemon start
  /// The set-up's first typecheck of every output variant, right after its
  /// hot load: the time between the load's reply and its own, the two sent
  /// back to back. In set-up order over all daemon starts.
  std::vector<double> cold_typecheck_ms;
  /// The timed phases, one per daemon start.
  std::vector<PhaseResult> closed, open;
  /// Requests the set-up and warm-up sent, and how many failed.
  uint64_t setup_attempted = 0;
  uint64_t setup_failed = 0;
  /// Typecheck answers per method, over every daemon's whole life.
  std::map<std::string, uint64_t> methods;
  uint64_t shed = 0;  ///< kStats overload_rejected over the timed phases
  uint64_t counterexamples_checked = 0;
};

LiveResult RunLive(const Workload& w, const LiveOptions& options);

/// Per-layer metrics from the traced replay, by metric name.
struct ReplayResult {
  std::map<std::string, double> metrics;
  std::string layers_json;  ///< self time per span name, for the report
  bool correct = true;
  std::string error;
};

ReplayResult RunReplay(const Workload& w, const std::string& artifacts,
                       const std::string& spans_path);

}  // namespace servebench

#endif  // SERVEBENCH_RUN_H_
