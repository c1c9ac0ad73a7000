// The live half of a run: starts pebbletc_serve with its default options,
// drives it over the Unix socket from one single-threaded process, and
// samples the daemon from /proc.
//
// The load generator never sleeps or blocks: one thread spins over
// non-blocking connections. A sleeping client adds its own timer slack and
// wake-up to every round trip, and on a shared virtual machine those vary
// from run to run by more than the daemon's own work does.

#include <dirent.h>
#include <sched.h>
#include <signal.h>
#include <sys/personality.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <utility>

#include "servebench/run.h"
#include "src/serve/protocol.h"

namespace servebench {
namespace {

namespace wire = pebbletc::serve;
using Clock = std::chrono::steady_clock;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// --- /proc ----------------------------------------------------------------------

uint64_t StatusField(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtoull(line.c_str() + n, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

ProcSample SampleProc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  s.hwm_mb = StatusField(base + "/status", "VmHWM:") / 1024.0;
  {
    // /proc/stat: "cpu  user nice system idle iowait irq softirq steal ...".
    std::ifstream stat("/proc/stat");
    std::string cpu;
    uint64_t ticks[8] = {};
    stat >> cpu;
    for (uint64_t& t : ticks) stat >> t;
    s.steal_s = static_cast<double>(ticks[7]) / sysconf(_SC_CLK_TCK);
  }
  DIR* dir = opendir((base + "/task").c_str());
  if (dir == nullptr) return s;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const std::string task = base + "/task/" + e->d_name;
    std::ifstream sched(task + "/schedstat");
    uint64_t on_cpu_ns = 0;
    if (sched >> on_cpu_ns) s.cpu_s += on_cpu_ns / 1e9;
    s.voluntary += StatusField(task + "/status", "voluntary_ctxt_switches:");
    s.involuntary +=
        StatusField(task + "/status", "nonvoluntary_ctxt_switches:");
  }
  closedir(dir);
  return s;
}

namespace {

// --- the daemon -------------------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const LiveOptions& o) {
    const std::string socket_arg = "--socket=" + o.socket;
    const std::string artifacts_arg = "--artifacts=" + o.artifacts;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // The daemon must not outlive the load generator.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      sched_setaffinity(0, sizeof(o.daemon_cpus), &o.daemon_cpus);
      // Every start gets the same memory layout (one source of the
      // difference between daemon processes that RunLive evens out).
      personality(ADDR_NO_RANDOMIZE);
      const int log = open(o.log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) dup2(log, STDERR_FILENO);
      execl(o.daemon.c_str(), "pebbletc_serve", socket_arg.c_str(),
            artifacts_arg.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    return true;
  }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  bool Alive() const {
    return pid_ > 0 && waitpid(pid_, nullptr, WNOHANG) == 0;
  }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

// --- a client connection ------------------------------------------------------

/// A request on the wire.
struct InFlight {
  const Planned* p = nullptr;
  Clock::time_point due;   ///< when it was due (open loop) or queued
  Clock::time_point sent;  ///< when its first byte went out
  double lag_us = 0;       ///< how late the generator sent it (open loop)
};

/// A non-blocking client connection. Requests are pipelined: Send() queues a
/// frame, Pump() moves bytes both ways without blocking, and each reply
/// completes the oldest request in flight (the daemon answers one
/// connection's frames in order).
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Open(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK) < 0) {
      close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }

  /// Queues `p`; its bytes go out as Pump() finds room for them.
  void Send(const Planned* p, Clock::time_point due, double lag_us = 0) {
    InFlight f;
    f.p = p;
    f.due = due;
    f.lag_us = lag_us;
    q_.push_back(f);
  }

  size_t in_flight() const { return q_.size(); }
  Clock::time_point last_reply() const { return last_reply_; }

  /// Writes what the socket takes and reads what has arrived, calling
  /// `on_reply(flight, payload, now)` per complete reply. False when the
  /// connection failed.
  template <typename F>
  bool Pump(F&& on_reply) {
    while (unsent_ < q_.size()) {
      InFlight& f = q_[unsent_];
      if (written_ == 0) f.sent = Clock::now();
      const std::string& frame = f.p->frame;
      const ssize_t r = send(fd_, frame.data() + written_,
                             frame.size() - written_, MSG_NOSIGNAL);
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (r <= 0) return false;
      written_ += static_cast<size_t>(r);
      if (written_ == frame.size()) {
        ++unsent_;
        written_ = 0;
      }
    }
    char buf[1 << 16];
    while (true) {
      const ssize_t r = read(fd_, buf, sizeof(buf));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (r <= 0) return false;
      const Clock::time_point now = Clock::now();
      in_.append(buf, static_cast<size_t>(r));
      size_t pos = 0;
      while (in_.size() - pos >= 4) {
        const auto* b = reinterpret_cast<const unsigned char*>(in_.data() + pos);
        const uint32_t n = b[0] | (b[1] << 8) | (b[2] << 16) |
                           (static_cast<uint32_t>(b[3]) << 24);
        // A reply before its request was fully written is a protocol error.
        if (n > wire::kMaxFrameBytes || unsent_ == 0) return false;
        if (in_.size() - pos - 4 < n) break;
        const InFlight f = q_.front();
        q_.pop_front();
        --unsent_;
        last_reply_ = now;
        on_reply(f, std::string_view(in_).substr(pos + 4, n), now);
        pos += 4 + n;
      }
      in_.erase(0, pos);
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::deque<InFlight> q_;
  size_t unsent_ = 0;   ///< index in q_ of the first frame not fully written
  size_t written_ = 0;  ///< bytes of that frame already written
  std::string in_;      ///< bytes read and not yet consumed
  Clock::time_point last_reply_;
};

using Conns = std::vector<std::unique_ptr<Conn>>;

/// What one connection gathered.
struct ConnTally {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t typechecks = 0;
  uint64_t decided = 0;
  std::map<std::string, uint64_t> methods;
  /// Served counterexamples to check after the phase: (slot DTD, input).
  std::vector<std::pair<std::shared_ptr<const std::string>, std::string>> cx;
  std::vector<int> cx_slot;
  std::vector<std::string> errors;
  bool wrong = false;
};

/// Checks the reply to `f`, tallies it, and returns its sample.
Sample Tally(const InFlight& f, std::string_view payload,
             Clock::time_point now, ConnTally* t) {
  const Planned& p = *f.p;
  Sample s;
  s.cls = p.cls;
  s.service_us = Micros(now - f.sent);
  s.latency_us = Micros(now - f.due);
  s.lag_us = f.lag_us;
  ++t->attempted;
  const bool typecheck = p.cls == ReqClass::kTypecheckWarm ||
                         p.cls == ReqClass::kTypecheckCold;
  if (typecheck) ++t->typechecks;
  Verdict v = CheckResponse(p, payload);
  s.ok = v.ok_status && !v.wrong;
  if (!s.ok) {
    ++t->failed;
    if (t->errors.size() < 5) t->errors.push_back(v.detail);
  }
  if (v.wrong) t->wrong = true;
  if (typecheck && v.ok_status) ++t->methods[v.method];
  if (typecheck && v.decided) ++t->decided;
  if (!v.counterexample.empty()) {
    t->cx.emplace_back(p.out_text, std::move(v.counterexample));
    t->cx_slot.push_back(p.slot);
  }
  return s;
}

using ReplyFn = std::function<void(size_t conn, const InFlight&,
                                   std::string_view payload,
                                   Clock::time_point now)>;

/// Pumps every connection until none has a request in flight and `turn()`,
/// called before each round (it may send more), returns false. False when a
/// connection failed; its requests in flight then count as failed.
bool Drain(Conns& conns, std::vector<ConnTally>* tallies,
           const std::function<bool()>& turn, const ReplyFn& on_reply,
           LiveResult* r) {
  while (true) {
    const bool more = turn();
    bool busy = false;
    for (size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = *conns[c];
      if (!conn.Pump([&](const InFlight& f, std::string_view payload,
                         Clock::time_point now) {
            on_reply(c, f, payload, now);
          })) {
        (*tallies)[c].attempted += conn.in_flight();
        (*tallies)[c].failed += conn.in_flight();
        r->correct = false;
        r->errors.push_back("connection " + std::to_string(c) +
                            " failed (see daemon.log)");
        return false;
      }
      busy = busy || conn.in_flight() > 0;
    }
    if (!busy && !more) return true;
  }
}

void Merge(const ConnTally& t, LiveResult* r) {
  for (const auto& [m, n] : t.methods) r->methods[m] += n;
  if (t.wrong) r->correct = false;
  for (const std::string& e : t.errors) {
    if (r->errors.size() < 10) r->errors.push_back(e);
  }
}

/// Checks every distinct served counterexample of `tallies`.
void CheckCounterexamples(const Workload& w,
                          const std::vector<ConnTally>& tallies,
                          LiveResult* r) {
  std::set<std::pair<const std::string*, std::string>> seen;
  for (const ConnTally& t : tallies) {
    for (size_t i = 0; i < t.cx.size(); ++i) {
      const auto& [text, input] = t.cx[i];
      if (!seen.insert({text.get(), input}).second) continue;
      const size_t program = static_cast<size_t>(t.cx_slot[i]) % kPrograms;
      pebbletc::Status s =
          CheckCounterexample(w.programs()[program], *text, input);
      ++r->counterexamples_checked;
      if (!s.ok()) {
        r->correct = false;
        if (r->errors.size() < 10) r->errors.push_back(s.ToString());
      }
    }
  }
}

/// Fetches kStats on `conn`, which must have nothing in flight.
bool FetchStats(Conn* conn, wire::StatsResponse* out) {
  wire::Request req;
  req.header.opcode = wire::Opcode::kStats;
  req.body = wire::StatsRequest{};
  Planned p;
  std::string payload;
  wire::EncodeRequest(req, &payload);
  wire::EncodeFrame(payload, &p.frame);
  conn->Send(&p, Clock::now());
  bool got = false;
  while (conn->in_flight() > 0) {
    if (!conn->Pump([&](const InFlight&, std::string_view reply,
                        Clock::time_point) {
          pebbletc::Result<wire::Response> r = wire::DecodeResponse(reply);
          if (!r.ok()) return;
          const auto* stats = std::get_if<wire::StatsResponse>(&r->body);
          if (stats == nullptr) return;
          *out = *stats;
          got = true;
        })) {
      return false;
    }
  }
  return got;
}

/// Closed loop: each connection sends its next request when the previous
/// reply has arrived, until `seconds` have passed.
bool ClosedPhase(Conns& conns, std::vector<std::unique_ptr<Stream>>& streams,
                 double seconds, std::vector<ConnTally>* tallies,
                 double* elapsed, LiveResult* r) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t c = 0; c < conns.size(); ++c) {
    conns[c]->Send(&streams[c]->Next(), start);
  }
  const bool ok = Drain(
      conns, tallies, [] { return false; },
      [&](size_t c, const InFlight& f, std::string_view payload,
          Clock::time_point now) {
        Sample s = Tally(f, payload, now, &(*tallies)[c]);
        s.done_s = std::chrono::duration<double>(now - start).count();
        (*tallies)[c].samples.push_back(s);
        if (now < end) conns[c]->Send(&streams[c]->Next(), now);
      },
      r);
  *elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  return ok;
}

/// Open loop at `rate` requests/s over all connections: request k is due at
/// start + k / rate and goes out on the next free connection in turn, so it
/// waits only when every connection is busy. Latency is timed from the due
/// time. Each connection sends its own stream's next request.
bool OpenPhase(Conns& conns, std::vector<std::unique_ptr<Stream>>& streams,
               double seconds, double rate, std::vector<ConnTally>* tallies,
               double* elapsed, LiveResult* r) {
  const size_t n = conns.size();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  uint64_t k = 0;
  size_t turn = 0;
  bool done = false;
  const bool ok = Drain(
      conns, tallies,
      [&] {
        const double at = static_cast<double>(k) / rate;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at));
        const Clock::time_point now = Clock::now();
        // A backlog this deep means the rate is far above capacity; stop
        // rather than run past the time limit.
        if (done || at >= seconds || now > due + std::chrono::seconds(3)) {
          done = true;
          return false;
        }
        if (now < due) return true;
        size_t c = 0;
        while (c < n && conns[(turn + c) % n]->in_flight() > 0) ++c;
        if (c == n) return true;
        c = (turn + c) % n;
        turn = c + 1;
        conns[c]->Send(&streams[c]->Next(), due,
                       Micros(now - std::max(due, conns[c]->last_reply())));
        ++k;
        return true;
      },
      [&](size_t c, const InFlight& f, std::string_view payload,
          Clock::time_point now) {
        Sample s = Tally(f, payload, now, &(*tallies)[c]);
        s.done_s = std::chrono::duration<double>(f.due - start).count();
        (*tallies)[c].samples.push_back(s);
      },
      r);
  *elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  return ok;
}

PhaseResult Collect(std::vector<ConnTally>& tallies, double seconds) {
  PhaseResult p;
  p.seconds = seconds;
  for (ConnTally& t : tallies) {
    p.samples.insert(p.samples.end(), t.samples.begin(), t.samples.end());
    p.attempted += t.attempted;
    p.failed += t.failed;
    p.typechecks += t.typechecks;
    p.decided += t.decided;
  }
  return p;
}

/// The daemon's CPU seconds once it has gone idle. The kernel adds a
/// running thread's time to /proc only when the thread blocks (or at a
/// timer tick), and the daemon is still finishing its write when the reply
/// lands, so this reads until two reads 0.1 ms apart agree.
double IdleCpuS(pid_t pid) {
  double last = SampleProc(pid).cpu_s;
  while (true) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    const double now = SampleProc(pid).cpu_s;
    if (now == last) return now;
    last = now;
  }
}

/// Starts a daemon and brings it to ready: artifacts loaded, the set-up
/// sequence sent (every schema's plan compiled, every triple seen cold and
/// warm), and a warm-up pass of the workload's own traffic.
bool SetUp(const Workload& w, const LiveOptions& o, Daemon* daemon,
           Conns* conns, std::vector<Slot>* slots,
           std::vector<std::unique_ptr<Stream>>* streams, LiveResult* r) {
  const Clock::time_point t0 = Clock::now();
  if (!daemon->Start(o)) {
    r->errors.push_back("cannot start the daemon");
    return false;
  }
  const uint32_t n = w.spec().connections;
  conns->clear();
  for (uint32_t c = 0; c < n; ++c) {
    auto conn = std::make_unique<Conn>();
    while (!conn->Open(o.socket)) {
      if (!daemon->Alive() || Clock::now() - t0 > std::chrono::seconds(30)) {
        r->errors.push_back("daemon never accepted a connection (see " +
                            o.log + ")");
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    conns->push_back(std::move(conn));
  }
  std::vector<ConnTally> tallies(n);
  const ReplyFn tally = [&](size_t c, const InFlight& f,
                            std::string_view payload, Clock::time_point now) {
    Tally(f, payload, now, &tallies[c]);
  };
  // The set-up sequence goes out on one connection, one request at a time.
  // The daemon is idle before and after each, so the CPU time it spends on
  // a load's first typecheck is read from /proc around that request alone.
  for (const Planned& p : w.SetupRequests(slots)) {
    const bool cold = p.cls == ReqClass::kTypecheckCold;
    const double before = cold ? IdleCpuS(daemon->pid()) : 0;
    (*conns)[0]->Send(&p, Clock::now());
    if (!Drain(*conns, &tallies, [] { return false; }, tally, r)) return false;
    if (cold) {
      r->cold_typecheck_ms.push_back((IdleCpuS(daemon->pid()) - before) * 1000);
    }
  }
  streams->clear();
  for (uint32_t c = 0; c < n; ++c) {
    streams->push_back(std::make_unique<Stream>(&w, slots, c, n));
  }
  // Warm-up: one pass over the pool, or two typecheck cycles, per
  // connection. It ends with every connection sending the pool's largest
  // request at once, so the daemon's peak RSS is the worst case the pool
  // can produce rather than whatever overlap the timed traffic happens to
  // reach.
  const size_t per_conn =
      w.pool().empty() ? 18 : (w.pool().size() + n - 1) / n;
  std::vector<size_t> left(n, per_conn - 1);
  for (uint32_t c = 0; c < n; ++c) {
    (*conns)[c]->Send(&(*streams)[c]->Next(), Clock::now());
  }
  if (!Drain(
          *conns, &tallies, [] { return false; },
          [&](size_t c, const InFlight& f, std::string_view payload,
              Clock::time_point now) {
            tally(c, f, payload, now);
            if (left[c] > 0) {
              --left[c];
              (*conns)[c]->Send(&(*streams)[c]->Next(), now);
            }
          },
          r)) {
    return false;
  }
  const Planned* largest = nullptr;
  for (const Planned& p : w.pool()) {
    if (largest == nullptr || p.frame.size() > largest->frame.size()) {
      largest = &p;
    }
  }
  if (largest != nullptr) {
    for (auto& conn : *conns) conn->Send(largest, Clock::now());
    if (!Drain(*conns, &tallies, [] { return false; }, tally, r)) return false;
  }
  r->setup_s.push_back(
      std::chrono::duration<double>(Clock::now() - t0).count());
  for (const ConnTally& t : tallies) {
    r->setup_attempted += t.attempted;
    r->setup_failed += t.failed;
  }
  for (const ConnTally& t : tallies) Merge(t, r);
  CheckCounterexamples(w, tallies, r);
  return true;
}

}  // namespace

LiveResult RunLive(const Workload& w, const LiveOptions& o) {
  LiveResult r;
  const uint32_t n = w.spec().connections;
  // The timed phases are split evenly over the daemon starts, and each
  // figure is a median over them: one daemon process can run the same
  // requests a third slower than the next, for its whole life (consecutive
  // set-ups of one run took 0.9 to 1.7 s), so a single process's figure
  // moved between runs by more than any regression bound.
  const double closed_s = 0.4 * o.seconds / o.setups;
  const double open_s = 0.6 * o.seconds / o.setups;
  for (int i = 0; i < o.setups; ++i) {
    Daemon daemon;
    Conns conns;
    std::vector<Slot> slots;
    std::vector<std::unique_ptr<Stream>> streams;
    if (!SetUp(w, o, &daemon, &conns, &slots, &streams, &r)) {
      r.correct = false;
      return r;
    }
    // Requests are generated before each phase; the closed estimate is
    // generous (a stream generates inline if it ever runs dry).
    for (auto& s : streams) s->Prefill(static_cast<size_t>(4000 * closed_s));

    wire::StatsResponse stats_before, stats_after;
    FetchStats(conns[0].get(), &stats_before);
    std::vector<ConnTally> closed(n);
    const ProcSample closed_before = SampleProc(daemon.pid());
    double elapsed = 0;
    bool ok = ClosedPhase(conns, streams, closed_s, &closed, &elapsed, &r);
    r.closed.push_back(Collect(closed, elapsed));
    r.closed.back().before = closed_before;
    r.closed.back().after = SampleProc(daemon.pid());

    std::vector<ConnTally> open(n);
    if (ok) {
      for (auto& s : streams) {
        s->Prefill(static_cast<size_t>(w.spec().open_rate * open_s / n + 64));
      }
      const ProcSample open_before = SampleProc(daemon.pid());
      ok = OpenPhase(conns, streams, open_s, w.spec().open_rate, &open,
                     &elapsed, &r);
      r.open.push_back(Collect(open, elapsed));
      r.open.back().before = open_before;
      r.open.back().after = SampleProc(daemon.pid());
    }
    if (ok && FetchStats(conns[0].get(), &stats_after)) {
      r.shed += stats_after.overload_rejected - stats_before.overload_rejected;
    }
    for (const ConnTally& t : closed) Merge(t, &r);
    for (const ConnTally& t : open) Merge(t, &r);
    CheckCounterexamples(w, closed, &r);
    CheckCounterexamples(w, open, &r);
    if (!daemon.Alive()) {
      r.correct = false;
      r.errors.push_back("daemon died during the run");
      ok = false;
    }
    if (!ok) return r;
  }
  return r;
}

}  // namespace servebench
