#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "util/fault.h"

namespace clftj {

namespace {

// Writes all of `data` (best effort; a dead peer just ends the
// connection, it must never take the server down — SIGPIPE is suppressed
// via MSG_NOSIGNAL).
bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

QueryServer::QueryServer(QueryService* service) : service_(service) {}

QueryServer::~QueryServer() { Stop(); }

bool QueryServer::Start(const std::string& socket_path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long: " + socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  ::unlink(socket_path.c_str());  // stale socket from a crashed run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socket_path_ = socket_path;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    // Short poll timeout so Stop() is observed promptly even with no
    // connection attempts arriving.
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    // Finished handlers are joined here: an exited but unjoined thread
    // keeps its stack mapped, so one-shot connections would otherwise pile
    // them up until Stop(). A done handler's last act was to release mu_,
    // so joining it under the lock cannot deadlock.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done) {
        it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    Connection& conn = connections_.emplace_back();
    conn.fd = fd;
    try {
      conn.thread = std::thread([this, &conn] { ServeConnection(&conn); });
    } catch (const std::system_error&) {
      // No thread to serve it: drop this connection, keep accepting.
      ::close(fd);
      connections_.pop_back();
    }
  }
}

void QueryServer::ServeConnection(Connection* conn) {
  const int fd = conn->fd;
  std::string buffer;
  // buffer[0, scanned) holds no newline, so every received byte is
  // searched once however long the line grows.
  std::size_t scanned = 0;
  char chunk[4096];
  while (!stopping_.load()) {
    const std::size_t first_newline = buffer.find('\n', scanned);
    scanned =
        first_newline == std::string::npos ? buffer.size() : first_newline;
    if (scanned > kMaxRequestLineBytes) {
      // The first buffered line is over the cap: answer once, then close
      // rather than buffer a peer that may never send a newline.
      QueryResponse response;
      response.status = RunStatus::kBadQuery;
      response.message = "request line exceeds " +
                         std::to_string(kMaxRequestLineBytes) + " bytes";
      WriteAll(fd, FormatResponse(response).back() + '\n');
      break;
    }
    if (first_newline == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // peer closed or connection shut down by Stop()
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }

    // Pipelining: drain every complete line buffered so far and submit
    // them all before writing any response — co-submitted requests reach
    // the service queue together, which is what lets the batch scheduler
    // group them into one shared run. Responses are written in request
    // order, so the wire contract is unchanged from one-at-a-time.
    struct Slot {
      std::future<QueryResponse> future;
      QueryResponse immediate;
      bool submitted = false;
    };
    std::vector<Slot> slots;
    for (std::size_t newline = buffer.find('\n');
         newline != std::string::npos; newline = buffer.find('\n')) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      // Chaos hook: corrupt the request after framing, before parsing. The
      // contract under corruption is a typed BAD-QUERY (either the
      // protocol parser or the query parser/validator rejects), never a
      // crash and never a poisoned stream for the next request.
      fault::MaybeCorrupt(fault::Site::kRequestBytes, &line);

      Slot slot;
      QueryRequest request;
      std::string parse_error;
      if (!ParseRequest(line, &request, &parse_error)) {
        slot.immediate.status = RunStatus::kBadQuery;
        slot.immediate.message = parse_error;
      } else {
        slot.future = service_->Submit(request);
        slot.submitted = true;
      }
      slots.push_back(std::move(slot));
    }

    scanned = buffer.size();  // the drain left at most a partial line
    bool write_ok = true;
    for (Slot& slot : slots) {
      const QueryResponse response =
          slot.submitted ? slot.future.get() : std::move(slot.immediate);
      std::string wire;
      for (const std::string& out : FormatResponse(response)) {
        wire += out;
        wire += '\n';
      }
      // A dead peer must not orphan the remaining futures: keep draining
      // them (each resolves exactly once) and just skip the writes.
      if (write_ok && !WriteAll(fd, wire)) write_ok = false;
    }
    if (!write_ok) break;
  }
  // Close and mark done under mu_: Stop() shuts down the fds of handlers
  // not yet done under the same lock, so it can never reach this number
  // after the close hands it to some other socket.
  std::lock_guard<std::mutex> lock(mu_);
  ::close(fd);
  conn->done = true;
}

void QueryServer::Stop() {
  if (stopping_.exchange(true)) {
    // A second Stop still needs to join if the first raced; fall through.
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  }
  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Shutdown unblocks handlers stuck in recv; they observe stopping_ and
    // close their own fd. The fd of every handler not yet done is open and
    // owned by it (see ServeConnection). The swap moves no list node, so
    // the handlers' Connection pointers stay valid.
    for (const Connection& conn : connections_) {
      if (!conn.done) ::shutdown(conn.fd, SHUT_RDWR);
    }
    connections.swap(connections_);
  }
  for (Connection& conn : connections) {
    if (conn.thread.joinable()) conn.thread.join();
  }
}

}  // namespace clftj
