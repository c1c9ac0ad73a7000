// servebench — one run of the end-to-end served-request benchmark
// (README.md). Usually started by run.py, which builds it first:
//
//   servebench --workload=NAME --seed=N --seconds=S --trace=0|1
//              --daemon=PATH --workdir=DIR --outdir=DIR
//
// Generates the workload from the seed, starts pebbletc_serve, measures it
// over its socket, and (with --trace=1) replays the traffic in process with
// spans. Prints a report line, then the result line: one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every answer
// was right, 1 on a wrong answer, 2 when no measurement could be made.

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "servebench/run.h"

namespace servebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon, workdir, outdir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.compare(0, 2, "--") != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string v = arg.substr(eq + 1);
    if (key == "workload") {
      a->workload = v;
    } else if (key == "seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (key == "trace") {
      a->trace = v == "1";
    } else if (key == "daemon") {
      a->daemon = v;
    } else if (key == "workdir") {
      a->workdir = v;
    } else if (key == "outdir") {
      a->outdir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->daemon.empty() && !a->workdir.empty() &&
         !a->outdir.empty() && a->seconds > 0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        std::string safe;
        for (char c : m) {
          if (c != '"' && c != '\\') safe.push_back(c);
        }
        return safe;
      }
    }
  }
  return "unknown";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// Latencies of an open phase in ms, in due-time order; a failed request
/// counts as missing every latency limit.
std::vector<double> LatenciesMs(const PhaseResult& p) {
  std::vector<const Sample*> order;
  for (const Sample& s : p.samples) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Sample* a, const Sample* b) {
    return a->done_s < b->done_s;
  });
  std::vector<double> v;
  for (const Sample* s : order) {
    v.push_back(s->ok ? s->latency_us / 1000 : INFINITY);
  }
  return v;
}

/// The p-quantile of each window of `w` consecutive latencies, in due-time
/// order.
std::vector<double> QuantileWindows(const std::vector<double>& ms, size_t w,
                                    double p) {
  std::vector<double> per_window;
  for (size_t i = 0; i + w <= ms.size(); i += w) {
    per_window.push_back(
        Quantile(std::vector<double>(ms.begin() + i, ms.begin() + i + w), p));
  }
  return per_window;
}

/// Latency windows for p50: 200 requests. For p99: 1000 requests, ten
/// samples beyond the p99 of each.
constexpr size_t kP50Window = 200;
constexpr size_t kP99Window = 1000;

/// The set-up's cold typecheck times, one per output variant and daemon
/// start in set-up order, reduced to each variant's fastest start (a busy
/// host only ever adds time).
std::vector<double> ColdBest(const std::vector<double>& ms, size_t setups) {
  const size_t variants = setups > 0 ? ms.size() / setups : 0;
  std::vector<double> best;
  for (size_t v = 0; v < variants; ++v) {
    double b = ms[v];
    for (size_t i = 1; i < setups; ++i) b = std::min(b, ms[i * variants + v]);
    best.push_back(b);
  }
  return best;
}

/// A timed phase over every daemon start: counts summed and samples pooled
/// in `all`, the daemon's /proc figures summed, and per start its CPU time
/// per request and peak RSS.
struct Phases {
  PhaseResult all;
  std::vector<double> cpu_us_per_req, hwm_mb;
  double cpu_s = 0, steal_s = 0;
  uint64_t switches = 0;
};

Phases Summarize(const std::vector<PhaseResult>& starts) {
  Phases ps;
  for (const PhaseResult& p : starts) {
    ps.all.seconds += p.seconds;
    ps.all.samples.insert(ps.all.samples.end(), p.samples.begin(),
                          p.samples.end());
    ps.all.attempted += p.attempted;
    ps.all.failed += p.failed;
    ps.all.typechecks += p.typechecks;
    ps.all.decided += p.decided;
    const double cpu_s = p.after.cpu_s - p.before.cpu_s;
    ps.cpu_s += cpu_s;
    ps.steal_s += p.after.steal_s - p.before.steal_s;
    ps.switches += (p.after.voluntary + p.after.involuntary) -
                   (p.before.voluntary + p.before.involuntary);
    if (p.attempted > 0) ps.cpu_us_per_req.push_back(cpu_s * 1e6 / p.attempted);
    ps.hwm_mb.push_back(p.after.hwm_mb);
  }
  return ps;
}

std::vector<double> ServiceUs(const PhaseResult& p, ReqClass cls) {
  std::vector<double> v;
  for (const Sample& s : p.samples) {
    if (s.cls == cls && s.ok) v.push_back(s.service_us);
  }
  return v;
}

/// Correct answers per 0.5 s window of a closed phase.
std::vector<double> ThroughputWindows(const PhaseResult& p) {
  const double window = 0.5;
  const size_t n = static_cast<size_t>(p.seconds / window);
  std::vector<double> count(n, 0);
  for (const Sample& s : p.samples) {
    const size_t k = static_cast<size_t>(s.done_s / window);
    if (s.ok && k < n) count[k] += 1 / window;
  }
  return count;
}

std::string List(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

/// Per request class of an open phase: count, and p50 / p99 of the send-to-
/// reply time (no queueing), for telling service time from backlog.
std::string ServiceTable(const PhaseResult& p) {
  std::ostringstream o;
  bool first = true;
  for (int c = 0; c < kNumClasses; ++c) {
    std::vector<double> v = ServiceUs(p, static_cast<ReqClass>(c));
    if (v.empty()) continue;
    o << (first ? "" : ", ") << "\"" << ClassName(static_cast<ReqClass>(c))
      << "\": [" << v.size() << ", " << Num(Quantile(v, 0.5)) << ", "
      << Num(Quantile(v, 0.99)) << "]";
    first = false;
  }
  return o.str();
}

ReqClass MainClass(const std::string& workload) {
  if (workload == "validate_batch_small") return ReqClass::kBatch;
  return ReqClass::kTypecheckWarm;
}

const char* const kMethods[] = {"bounded-refutation", "downward-fastpath",
                                "behavior-complete",  "mso-complete",
                                "degraded-enumeration", "none"};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --daemon=PATH --workdir=DIR --outdir=DIR\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (access(args.daemon.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "servebench: no daemon at %s\n", args.daemon.c_str());
    return 2;
  }
  mkdir(args.outdir.c_str(), 0755);
  mkdir(args.workdir.c_str(), 0755);
  // Socket paths are short relative names inside the work directory.
  if (chdir(args.workdir.c_str()) != 0) return 2;
  mkdir("art", 0755);
  unlink("daemon.log");

  const auto g0 = std::chrono::steady_clock::now();
  Workload w(spec, args.seed);
  if (!w.WriteArtifacts("art")) {
    std::fprintf(stderr, "servebench: cannot write artifacts\n");
    return 2;
  }
  const double gen_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - g0)
                           .count();

  LiveOptions lo;
  // The load generator keeps to the last CPU it may use and the daemon gets
  // the rest, so a client thread and the daemon thread serving it never
  // share a core. Ping-pong traffic is very sensitive to that placement:
  // left to the scheduler, the same run measured up to 1.6x apart.
  sched_getaffinity(0, sizeof(lo.daemon_cpus), &lo.daemon_cpus);
  if (CPU_COUNT(&lo.daemon_cpus) >= 2) {
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &lo.daemon_cpus)) last = c;
    }
    cpu_set_t mine;
    CPU_ZERO(&mine);
    CPU_SET(last, &mine);
    sched_setaffinity(0, sizeof(mine), &mine);
    CPU_CLR(last, &lo.daemon_cpus);
  }
  lo.daemon = args.daemon;
  lo.artifacts = "art";
  lo.socket = "d.sock";
  lo.log = "daemon.log";
  lo.seconds = args.seconds;
  LiveResult live = RunLive(w, lo);
  if (live.setup_s.empty() || live.closed.empty() ||
      live.closed[0].attempted == 0) {
    for (const std::string& e : live.errors) {
      std::fprintf(stderr, "servebench: %s\n", e.c_str());
    }
    return 2;
  }

  const bool typecheck = spec.name == "typecheck_mix";
  const Phases c = Summarize(live.closed);
  const Phases o = Summarize(live.open);
  const uint64_t attempted = c.all.attempted + o.all.attempted;
  const uint64_t failed = c.all.failed + o.all.failed;
  std::vector<double> post_load_ms;
  for (const PhaseResult* p : {&c.all, &o.all}) {
    for (double us : ServiceUs(*p, ReqClass::kTypecheckCold)) {
      post_load_ms.push_back(us / 1000);
    }
  }
  const uint64_t decided_base =
      typecheck ? c.all.typechecks + o.all.typechecks : attempted;
  const uint64_t decided =
      typecheck ? c.all.decided + o.all.decided : attempted - failed;

  // Throughput and p50 windows never span two daemon starts; p99 windows,
  // which need 1000 requests, run on across them.
  std::vector<double> throughput_windows, p50_windows, open_ms;
  for (const PhaseResult& p : live.closed) {
    for (double v : ThroughputWindows(p)) throughput_windows.push_back(v);
  }
  for (const PhaseResult& p : live.open) {
    const std::vector<double> ms = LatenciesMs(p);
    for (double v : QuantileWindows(ms, kP50Window, 0.5)) {
      p50_windows.push_back(v);
    }
    open_ms.insert(open_ms.end(), ms.begin(), ms.end());
  }
  const std::vector<double> p99_windows =
      QuantileWindows(open_ms, kP99Window, 0.99);

  const std::vector<double> cold_best =
      ColdBest(live.cold_typecheck_ms, live.setup_s.size());
  double cold_total = 0;
  for (double v : cold_best) cold_total += v;

  std::map<std::string, double> m;
  ReplayResult replay;
  if (!args.trace) {
    m["setup_s"] = Median(live.setup_s);
    m["cpu_us_per_req"] = c.cpu_s * 1e6 / c.all.attempted;
    m["decided_ratio"] =
        decided_base > 0 ? static_cast<double>(decided) / decided_base : 0;
    m["daemon_rss_mb"] = Median(o.hwm_mb);
  } else {
    const std::string spans = args.outdir + "/spans-" + spec.name + "-s" +
                              std::to_string(args.seed) + ".jsonl";
    replay = RunReplay(w, "art", spans);
    if (!replay.correct) {
      live.correct = false;
      live.errors.push_back(replay.error);
    }
    m = replay.metrics;
    m["serve.ctx_switches_per_req"] =
        static_cast<double>(o.switches) / std::max<uint64_t>(1, o.all.attempted);
    m["serve.transport_us"] =
        Median(ServiceUs(o.all, MainClass(spec.name))) - m["serve.handle_us"];
    m["serve.admission.shed"] = static_cast<double>(live.shed);
    for (const char* method : kMethods) {
      auto it = live.methods.find(method);
      m[std::string("core.typecheck.method.") + method] =
          it == live.methods.end() ? 0 : static_cast<double>(it->second);
    }
    std::vector<double> lag;
    for (const Sample& s : o.all.samples) lag.push_back(s.lag_us / 1000);
    m["loadgen.lag_p99_ms"] = Quantile(lag, 0.99);
  }

  // The report: host block, bases of every ratio, phase detail.
  std::ostringstream r;
  r << "{\"report\": {\"host\": {\"nproc\": "
    << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << Quote(CpuModel())
    << ", \"build_type\": " << Quote(SERVEBENCH_BUILD_TYPE) << "}"
    << ", \"workload\": " << Quote(spec.name) << ", \"seed\": " << args.seed
    << ", \"seconds\": " << Num(args.seconds)
    << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"connections\": " << spec.connections
    << ", \"open_rate_rps\": " << Num(spec.open_rate)
    << ", \"generate_s\": " << Num(gen_s) << ", \"setup_s\": [";
  for (size_t i = 0; i < live.setup_s.size(); ++i) {
    r << (i ? ", " : "") << Num(live.setup_s[i]);
  }
  r << "], \"setup_requests\": " << live.setup_attempted
    << ", \"setup_failed\": " << live.setup_failed
    << ", \"closed\": {\"seconds\": " << Num(c.all.seconds)
    << ", \"attempted\": " << c.all.attempted
    << ", \"failed\": " << c.all.failed
    << ", \"throughput_rps\": " << Num(Median(throughput_windows))
    << ", \"cpu_us_per_req_per_start\": " << List(c.cpu_us_per_req)
    << ", \"daemon_cpu_s\": " << Num(c.cpu_s)
    << ", \"steal_s\": " << Num(c.steal_s) << "}"
    << ", \"open\": {\"seconds\": " << Num(o.all.seconds)
    << ", \"attempted\": " << o.all.attempted
    << ", \"failed\": " << o.all.failed
    << ", \"latency_samples\": " << open_ms.size()
    << ", \"latency_p50_ms\": " << Num(Median(p50_windows))
    << ", \"latency_p50_windows\": " << p50_windows.size()
    << ", \"latency_p99_ms\": " << Num(Median(p99_windows))
    << ", \"latency_p99_windows\": " << p99_windows.size()
    << ", \"samples_beyond_p99_per_window\": "
    << kP99Window - static_cast<size_t>(std::ceil(0.99 * kP99Window))
    << ", \"daemon_cpu_s\": " << Num(o.cpu_s)
    << ", \"steal_s\": " << Num(o.steal_s) << "}"
    << ", \"open_service_us\": {" << ServiceTable(o.all) << "}"
    << ", \"error_ratio\": "
    << Num(attempted ? static_cast<double>(failed) / attempted : 0)
    << ", \"error_ratio_base\": " << attempted
    << ", \"decided\": " << decided << ", \"decided_base\": " << decided_base
    << ", \"cold_samples\": " << live.cold_typecheck_ms.size()
    << ", \"cold_cpu_p50_ms\": " << Num(Median(cold_best))
    << ", \"cold_cpu_total_ms\": " << Num(cold_total)
    << ", \"post_load_p50_ms\": " << Num(Median(post_load_ms))
    << ", \"post_load_samples\": " << post_load_ms.size()
    << ", \"counterexamples_checked\": " << live.counterexamples_checked
    << ", \"errors\": [";
  for (size_t i = 0; i < live.errors.size(); ++i) {
    r << (i ? ", " : "") << Quote(live.errors[i]);
  }
  r << "]";
  if (args.trace) r << ", \"layers\": " << replay.layers_json;
  r << "}}";
  const std::string report = r.str();
  std::ofstream(args.outdir + "/report-" + spec.name + "-s" +
                std::to_string(args.seed) + "-t" + (args.trace ? "1" : "0") +
                ".json")
      << report << "\n";

  std::ostringstream res;
  res << "{\"correct\": " << (live.correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    res << (first ? "" : ", ") << Quote(name) << ": {\"value\": " << Num(value)
        << "}";
    first = false;
  }
  res << "}}";
  std::printf("%s\n%s\n", report.c_str(), res.str().c_str());
  std::fflush(stdout);
  return live.correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
