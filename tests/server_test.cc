// Wire-protocol round-trips (pure string functions, no socket) and
// end-to-end serving over a real AF_UNIX socket: server + client with
// retries, typed errors surviving on a live connection, clean shutdown.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "test_util.h"
#include "util/fault.h"

namespace clftj {
namespace {

constexpr const char* kTriangle = "E(x,y), E(y,z), E(z,x)";

// Short unique socket path per test: AF_UNIX caps paths around 100 bytes,
// so build-tree paths are unsafe — use /tmp keyed by pid.
std::string SocketPath(const char* tag) {
  return "/tmp/clftj_" + std::string(tag) + "_" + std::to_string(getpid()) +
         ".sock";
}

// Waits until the worker has popped everything queued so far. Needed when
// stacking fillers into a capacity-1 queue: submitting the second filler
// before the worker picked up the first would shed the *filler* instead of
// the request under test.
void AwaitEmptyQueue(const QueryService& service) {
  while (service.QueueDepth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(Protocol, RequestRoundTrip) {
  QueryRequest request;
  request.query_text = "E(x,y), E(y,z), R(z, x)";  // spaces survive in q=
  request.mode = "eval";
  request.engine = "CLFTJ-P";
  request.timeout_ms = 1500;
  request.max_tuples = 77;
  const std::string line = FormatRequest(request);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  QueryRequest parsed;
  std::string error;
  ASSERT_TRUE(ParseRequest(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.query_text, request.query_text);
  EXPECT_EQ(parsed.mode, request.mode);
  EXPECT_EQ(parsed.engine, request.engine);
  EXPECT_EQ(parsed.timeout_ms, request.timeout_ms);
  EXPECT_EQ(parsed.max_tuples, request.max_tuples);
}

TEST(Protocol, RequestDefaultsOmitEngine) {
  QueryRequest request;
  request.query_text = "E(x,y)";
  QueryRequest parsed;
  std::string error;
  ASSERT_TRUE(ParseRequest(FormatRequest(request), &parsed, &error)) << error;
  EXPECT_EQ(parsed.engine, "");
  EXPECT_EQ(parsed.mode, "count");
  EXPECT_EQ(parsed.timeout_ms, 0u);
}

TEST(Protocol, MalformedRequestsAreRejectedNotCrashes) {
  const char* bad[] = {
      "",                       // empty
      "PING",                   // wrong verb
      "RUN",                    // no q=
      "RUN q=",                 // empty query
      "RUN mode=count",         // still no q=
      "RUN bogus_key=1 q=E(x,y)",
      "RUN timeout_ms=abc q=E(x,y)",
      "RUN timeout_ms= q=E(x,y)",
      "R\x01N mode=count q=E(x,y)",  // corrupted verb bytes
      // Numbers must be plain in-range base-10: no sign on an unsigned
      // field, no wraparound, no junk after the digits.
      "RUN timeout_ms=-1 q=E(x,y)",
      "RUN max_tuples=-8 q=E(x,y)",
      "RUN timeout_ms=+5 q=E(x,y)",
      "RUN max_tuples=12345678901234567890123 q=E(x,y)",
      "RUN timeout_ms=18446744073709551616 q=E(x,y)",  // 2^64
      "RUN timeout_ms=5ms q=E(x,y)",
      "DELTA relation=E add=1,99999999999999999999",
      "DELTA relation=E add=1,0x10",
  };
  for (const char* line : bad) {
    QueryRequest parsed;
    std::string error;
    EXPECT_FALSE(ParseRequest(line, &parsed, &error)) << "'" << line << "'";
    EXPECT_FALSE(error.empty()) << "'" << line << "'";
  }
}

TEST(Protocol, TupleListsRejectEmptyValuesAndTuples) {
  std::vector<Tuple> tuples;
  ASSERT_TRUE(ParseTuples("1,2;3,4", &tuples));
  EXPECT_EQ(tuples, (std::vector<Tuple>{{1, 2}, {3, 4}}));
  for (const char* bad : {"1,2;", "1,,2", ";", ""}) {
    std::vector<Tuple> parsed;
    EXPECT_FALSE(ParseTuples(bad, &parsed)) << "'" << bad << "'";
  }
}

TEST(Protocol, SuccessResponseRoundTrip) {
  QueryResponse response;
  response.status = RunStatus::kOk;
  response.count = 3;
  response.seconds = 0.125;
  response.tuples = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const std::vector<std::string> lines = FormatResponse(response);
  ASSERT_EQ(lines.size(), 4u);  // 3 TUPLE + 1 OK
  EXPECT_FALSE(IsTerminalResponseLine(lines[0]));
  EXPECT_TRUE(IsTerminalResponseLine(lines.back()));
  QueryResponse parsed;
  std::string error;
  ASSERT_TRUE(ParseResponse(lines, &parsed, &error)) << error;
  EXPECT_EQ(parsed.status, RunStatus::kOk);
  EXPECT_EQ(parsed.count, 3u);
  EXPECT_DOUBLE_EQ(parsed.seconds, 0.125);
  EXPECT_EQ(parsed.tuples, response.tuples);
}

TEST(Protocol, ErrorResponseRoundTrip) {
  QueryResponse response;
  response.status = RunStatus::kShed;
  response.message = "request queue is full";
  response.retry_after_ms = 50;
  const std::vector<std::string> lines = FormatResponse(response);
  ASSERT_EQ(lines.size(), 1u);
  QueryResponse parsed;
  std::string error;
  ASSERT_TRUE(ParseResponse(lines, &parsed, &error)) << error;
  EXPECT_EQ(parsed.status, RunStatus::kShed);
  EXPECT_EQ(parsed.message, "request queue is full");
  EXPECT_EQ(parsed.retry_after_ms, 50u);
}

TEST(Protocol, TruncatedOrMangledResponsesFailParsing) {
  QueryResponse parsed;
  std::string error;
  // No terminal line.
  EXPECT_FALSE(ParseResponse({"TUPLE 1 2"}, &parsed, &error));
  // ERR without an explicit status can't masquerade as anything.
  EXPECT_FALSE(ParseResponse({"ERR msg=mystery"}, &parsed, &error));
  // Garbage terminal.
  EXPECT_FALSE(ParseResponse({"DONE count=3"}, &parsed, &error));
  // Unknown status name.
  EXPECT_FALSE(ParseResponse({"ERR status=EXPLODED"}, &parsed, &error));
  // Non-numeric tuple payload.
  EXPECT_FALSE(
      ParseResponse({"TUPLE 1 x", "OK count=1 seconds=0"}, &parsed, &error));
  // Empty response.
  EXPECT_FALSE(ParseResponse({}, &parsed, &error));
}

class ServerEndToEnd : public ::testing::Test {
 protected:
  void StartServer(const char* tag, ServiceOptions options = {}) {
    db_ = testing::SmallSkewedDb(21);
    service_ = std::make_unique<QueryService>(db_, options);
    server_ = std::make_unique<QueryServer>(service_.get());
    socket_path_ = SocketPath(tag);
    std::string error;
    ASSERT_TRUE(server_->Start(socket_path_, &error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (service_ != nullptr) service_->Shutdown(/*drain=*/true);
    if (!socket_path_.empty()) std::remove(socket_path_.c_str());
  }

  Database db_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<QueryServer> server_;
  std::string socket_path_;
};

TEST_F(ServerEndToEnd, CountOverTheSocketMatchesReference) {
  StartServer("count");
  QueryClient client(socket_path_, ClientOptions{});
  QueryRequest request;
  request.query_text = kTriangle;
  const ClientResult result = client.Run(request);
  ASSERT_TRUE(result.transport_ok) << result.transport_error;
  EXPECT_EQ(result.response.status, RunStatus::kOk);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.response.count,
            testing::ReferenceCount(testing::Q(kTriangle), db_));
}

TEST_F(ServerEndToEnd, EvalOverTheSocketMatchesReference) {
  StartServer("eval");
  QueryClient client(socket_path_, ClientOptions{});
  QueryRequest request;
  request.query_text = kTriangle;
  request.mode = "eval";
  const ClientResult result = client.Run(request);
  ASSERT_TRUE(result.transport_ok) << result.transport_error;
  ASSERT_EQ(result.response.status, RunStatus::kOk);
  std::vector<Tuple> got = result.response.tuples;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, testing::ReferenceTuples(testing::Q(kTriangle), db_));
}

TEST_F(ServerEndToEnd, BadQueryIsTypedAndTheConnectionSurvives) {
  StartServer("badq");
  QueryClient client(socket_path_, ClientOptions{});
  QueryRequest bad;
  bad.query_text = "NoSuchRelation(x,y)";
  const ClientResult first = client.Run(bad);
  ASSERT_TRUE(first.transport_ok) << first.transport_error;
  EXPECT_EQ(first.response.status, RunStatus::kBadQuery);
  EXPECT_EQ(first.attempts, 1) << "BAD-QUERY is terminal, never retried";
  // The server keeps serving after an error response.
  QueryRequest good;
  good.query_text = kTriangle;
  const ClientResult second = client.Run(good);
  ASSERT_TRUE(second.transport_ok) << second.transport_error;
  EXPECT_EQ(second.response.status, RunStatus::kOk);
}

TEST_F(ServerEndToEnd, ShedIsRetriedUntilItSucceeds) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 10;
  StartServer("shed", options);

  // Seed queue pressure directly through the service so the socket client
  // hits a full queue on its first attempt, then succeeds on a retry.
  fault::Config faults;
  faults.seed = 5;
  faults.period[static_cast<int>(fault::Site::kWorkerDelay)] = 1;
  faults.delay_ms = 120;
  std::vector<std::future<QueryResponse>> held;
  int attempts = 0;
  {
    fault::ScopedFaults scoped(faults);
    QueryRequest filler;
    filler.query_text = kTriangle;
    held.push_back(service_->Submit(filler));  // worker busy
    AwaitEmptyQueue(*service_);                // worker popped it, sleeping
    held.push_back(service_->Submit(filler));  // queue slot taken
    ClientOptions client_options;
    client_options.max_attempts = 20;
    client_options.initial_backoff_ms = 30;
    QueryClient client(socket_path_, client_options);
    QueryRequest request;
    request.query_text = kTriangle;
    const ClientResult result = client.Run(request);
    ASSERT_TRUE(result.transport_ok) << result.transport_error;
    EXPECT_EQ(result.response.status, RunStatus::kOk);
    attempts = result.attempts;
    for (auto& f : held) f.get();
  }
  EXPECT_GT(attempts, 1) << "expected at least one shed-then-retry cycle";
}

TEST_F(ServerEndToEnd, ClientGivesUpAfterMaxAttemptsOnPersistentShed) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 5;
  StartServer("giveup", options);
  fault::Config faults;
  faults.seed = 6;
  faults.period[static_cast<int>(fault::Site::kWorkerDelay)] = 1;
  faults.delay_ms = 400;  // longer than the client is willing to wait
  std::vector<std::future<QueryResponse>> held;
  {
    fault::ScopedFaults scoped(faults);
    QueryRequest filler;
    filler.query_text = kTriangle;
    held.push_back(service_->Submit(filler));
    AwaitEmptyQueue(*service_);
    held.push_back(service_->Submit(filler));
    ClientOptions client_options;
    client_options.max_attempts = 3;
    client_options.initial_backoff_ms = 5;
    client_options.max_backoff_ms = 10;
    QueryClient client(socket_path_, client_options);
    QueryRequest request;
    request.query_text = kTriangle;
    const ClientResult result = client.Run(request);
    ASSERT_TRUE(result.transport_ok) << result.transport_error;
    EXPECT_EQ(result.response.status, RunStatus::kShed);
    EXPECT_EQ(result.attempts, 3);
    for (auto& f : held) f.get();
  }
}

TEST_F(ServerEndToEnd, TransportFailureWhenNoServerListens) {
  ClientOptions options;
  options.max_attempts = 2;
  options.initial_backoff_ms = 1;
  QueryClient client("/tmp/clftj_no_such_socket.sock", options);
  QueryRequest request;
  request.query_text = kTriangle;
  const ClientResult result = client.Run(request);
  EXPECT_FALSE(result.transport_ok);
  EXPECT_FALSE(result.transport_error.empty());
  EXPECT_EQ(result.attempts, 2);
}

TEST_F(ServerEndToEnd, StopIsCleanAndIdempotent) {
  StartServer("stop");
  QueryClient client(socket_path_, ClientOptions{});
  QueryRequest request;
  request.query_text = kTriangle;
  ASSERT_TRUE(client.Run(request).transport_ok);
  server_->Stop();
  server_->Stop();  // idempotent
  // After Stop the socket is gone: the client reports transport failure,
  // not a hang.
  ClientOptions fast;
  fast.max_attempts = 1;
  QueryClient late_client(socket_path_, fast);
  const ClientResult late = late_client.Run(request);
  EXPECT_FALSE(late.transport_ok);
}

// The fd numbers open in this process (an fcntl probe of the low range).
std::vector<int> OpenFds() {
  std::vector<int> fds;
  for (int fd = 0; fd < 1024; ++fd) {
    if (::fcntl(fd, F_GETFD) != -1) fds.push_back(fd);
  }
  return fds;
}

// Polls `done` every millisecond for up to ten seconds.
template <typename Predicate>
bool WaitFor(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A raw client socket connected to `path`, or -1.
int ConnectTo(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(ServerEndToEnd, StopLeavesReusedFdNumbersAlone) {
  StartServer("fdreuse");
  const std::vector<int> before = OpenFds();
  const int client_fd = ConnectTo(socket_path_);
  ASSERT_GE(client_fd, 0);
  // The connection's server-side fd: the one that is new besides ours.
  int handler_fd = -1;
  ASSERT_TRUE(WaitFor([&] {
    for (const int fd : OpenFds()) {
      if (fd != client_fd &&
          std::find(before.begin(), before.end(), fd) == before.end()) {
        handler_fd = fd;
      }
    }
    return handler_fd >= 0;
  }));
  // Disconnect; the handler sees EOF, exits and closes its fd.
  ::close(client_fd);
  ASSERT_TRUE(WaitFor([&] { return ::fcntl(handler_fd, F_GETFD) == -1; }));

  // A new socket takes the freed numbers; stopping the server must not
  // shut it down.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_TRUE(pair[0] == handler_fd || pair[1] == handler_fd);
  server_->Stop();
  for (const auto& [from, to] : {std::make_pair(pair[0], pair[1]),
                                 std::make_pair(pair[1], pair[0])}) {
    const char out = 'x';
    EXPECT_EQ(::send(from, &out, 1, MSG_NOSIGNAL), 1);
    char in = 0;
    EXPECT_EQ(::recv(to, &in, 1, MSG_DONTWAIT), 1);
    EXPECT_EQ(in, out);
  }
  ::close(pair[0]);
  ::close(pair[1]);
}

// Lines of /proc/self/maps. An exited thread that was never joined keeps
// its stack and guard page mapped, two lines per thread.
std::size_t MappedRegions() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST_F(ServerEndToEnd, FinishedHandlersAreJoined) {
  StartServer("reap");
  QueryClient client(socket_path_, ClientOptions{});
  QueryRequest request;
  request.query_text = "E(x,y)";
  // Warm up (plan, allocator arenas, the stack cache) before the baseline.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(client.Run(request).transport_ok);
  const std::size_t fds = OpenFds().size();
  ASSERT_TRUE(WaitFor([&] { return OpenFds().size() <= fds; }));
  const std::size_t before = MappedRegions();
  // Every Run is a fresh connection with its own handler thread.
  constexpr std::size_t kConnections = 300;
  for (std::size_t i = 0; i < kConnections; ++i) {
    const ClientResult result = client.Run(request);
    ASSERT_TRUE(result.transport_ok) << result.transport_error;
    ASSERT_EQ(result.response.status, RunStatus::kOk);
  }
  // Each handler closes its fd as it exits.
  ASSERT_TRUE(WaitFor([&] { return OpenFds().size() <= fds; }));
  // Unjoined, the handlers would add 2 * kConnections lines; joined at
  // accept, at most the last few stay.
  EXPECT_LT(MappedRegions(), before + kConnections / 4);
}

// Reads from fd until EOF, for up to ten seconds; *eof says which ended it.
std::string ReadUntilEof(int fd, bool* eof) {
  std::string out;
  *eof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  char chunk[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, /*timeout_ms=*/100) <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      *eof = true;
      break;
    }
    if (n < 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

TEST_F(ServerEndToEnd, OverlongRequestLineGetsOneBadQueryThenClose) {
  StartServer("longline");
  const int fd = ConnectTo(socket_path_);
  ASSERT_GE(fd, 0);
  // One byte over the cap and no newline. The server has read every byte
  // by the time it rejects, so its close leaves nothing unread (which
  // would reset the connection instead of ending it).
  const std::string flood(QueryServer::kMaxRequestLineBytes + 1, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
  bool eof = false;
  const std::string reply = ReadUntilEof(fd, &eof);
  ::close(fd);
  EXPECT_TRUE(eof);
  ASSERT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  EXPECT_EQ(reply.rfind("ERR status=BAD-QUERY ", 0), 0u) << reply;

  // The server keeps serving other clients.
  QueryClient client(socket_path_, ClientOptions{});
  QueryRequest request;
  request.query_text = kTriangle;
  const ClientResult result = client.Run(request);
  ASSERT_TRUE(result.transport_ok) << result.transport_error;
  EXPECT_EQ(result.response.status, RunStatus::kOk);
}

}  // namespace
}  // namespace clftj
