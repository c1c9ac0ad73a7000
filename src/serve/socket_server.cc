#include "src/serve/socket_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "src/serve/protocol.h"

namespace pebbletc::serve {
namespace {

/// Reads exactly `n` bytes; false on EOF or error.
bool ReadFull(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) return false;
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

bool WriteFull(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t r = ::write(fd, buf + sent, n - sent);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

bool SendFrame(int fd, std::string_view payload) {
  std::string frame;
  EncodeFrame(payload, &frame);
  return WriteFull(fd, frame.data(), frame.size());
}

/// Hard cap on concurrent connections. The thread-per-connection design
/// otherwise has no bound, so enough idle clients could exhaust fds and
/// wedge accept() in a failure loop; excess connections get one structured
/// kOverloaded frame and an orderly close instead.
constexpr size_t kMaxConnections = 256;

}  // namespace

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start(const std::string& path) {
  if (running_.load()) {
    return Status::FailedPrecondition("socket server already running");
  }
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Status::Internal("bind('" + path +
                                "'): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 16) < 0) {
    Status s =
        Status::Internal(std::string("listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  path_ = path;
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  return Status::OK();
}

void SocketServer::Stop() {
  if (!running_.exchange(false)) return;
  // Unblock accept() and in-flight reads, and cancel running requests.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : connections_) {
      conn->cancel.store(true);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(connections_);
  }
  for (auto& conn : conns) {
    if (conn->worker.joinable()) conn->worker.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!path_.empty()) ::unlink(path_.c_str());
}

void SocketServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) break;
      // Persistent failures (EMFILE under fd pressure, ENOBUFS, ...) would
      // otherwise spin this loop at 100% CPU; back off before retrying.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    auto try_admit = [this, &conn] {
      std::lock_guard<std::mutex> lock(mu_);
      if (connections_.size() >= kMaxConnections) return false;
      connections_.push_back(conn);
      conn->worker = std::thread([this, conn] { HandleConnection(conn); });
      return true;
    };
    bool admitted = try_admit();
    if (!admitted) {
      // At the cap, reap connections whose handlers already finished and
      // retry once — refusal is for genuinely concurrent load, not stale
      // bookkeeping awaiting the watchdog's next tick.
      ReapFinished();
      admitted = try_admit();
    }
    if (!admitted) {
      Response err = MakeErrorResponse(
          Opcode::kPing, 0, WireStatus::kOverloaded,
          "connection limit (" + std::to_string(kMaxConnections) +
              ") reached; retry later");
      std::string payload;
      EncodeResponse(err, &payload);
      SendFrame(fd, payload);
      ::close(fd);
    }
  }
}

void SocketServer::WatchdogLoop() {
  while (running_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& conn : connections_) {
        if (conn->done.load() || !conn->busy.load()) continue;
        // A request is in flight on this connection; probe whether the peer
        // hung up. recv(MSG_PEEK) returning 0 means orderly shutdown — the
        // client is gone, so flip its cancel flag and let the request's next
        // checkpoint unwind it.
        char probe;
        ssize_t r = ::recv(conn->fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
        if (r == 0) {
          conn->cancel.store(true);
        } else if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          conn->cancel.store(true);
        }
      }
    }
    // Reap finished connections (join the handler thread, drop the entry)
    // so a long-lived daemon doesn't accumulate one joinable thread per
    // historical client.
    ReapFinished();
  }
}

size_t SocketServer::ReapFinished() {
  std::vector<std::shared_ptr<Connection>> finished;
  size_t alive = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::partition(
        connections_.begin(), connections_.end(),
        [](const std::shared_ptr<Connection>& c) { return !c->done.load(); });
    finished.assign(std::make_move_iterator(it),
                    std::make_move_iterator(connections_.end()));
    connections_.erase(it, connections_.end());
    alive = connections_.size();
  }
  // Join outside the lock: a done handler is at most a few instructions from
  // returning and never retakes mu_, but there is no reason to serialize the
  // accept path behind even that.
  for (auto& conn : finished) {
    if (conn->worker.joinable()) conn->worker.join();
  }
  return alive;
}

void SocketServer::HandleConnection(std::shared_ptr<Connection> conn) {
  const uint32_t cap = core_->options().max_frame_bytes;
  while (running_.load()) {
    char prefix[kFramePrefixBytes];
    if (!ReadFull(conn->fd, prefix, kFramePrefixBytes)) break;
    Result<uint32_t> len = DecodeFrameLength(prefix, cap);
    if (!len.ok()) {
      // Framing is unrecoverable: answer with one structured error frame,
      // then close — never read the declared length.
      std::string payload;
      EncodeResponse(MakeErrorResponse(Opcode::kPing, 0,
                                       WireStatus::kMalformedFrame,
                                       std::string(len.status().message())),
                     &payload);
      SendFrame(conn->fd, payload);
      break;
    }
    std::string request(*len, '\0');
    if (*len > 0 && !ReadFull(conn->fd, request.data(), *len)) break;

    conn->busy.store(true);
    std::string response = core_->HandleFrame(request, &conn->cancel);
    conn->busy.store(false);
    if (conn->cancel.load()) break;  // client gone; response undeliverable
    if (!SendFrame(conn->fd, response)) break;
  }
  ::close(conn->fd);
  conn->done.store(true);
}

}  // namespace pebbletc::serve
