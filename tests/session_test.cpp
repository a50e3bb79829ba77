// Session loop under hostile peers (DESIGN.md §11): slow-loris drip-feeds,
// oversized request lines, stalled readers, vanished peers, and SIGTERM
// drain — all over real descriptors (socketpairs), so the sanitizer nets
// exercise the exact code the TCP server runs.
#include "server/session.hpp"

#include <gtest/gtest.h>

#ifdef __unix__

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attr/tnam.hpp"
#include "common/fault_injection.hpp"
#include "data/dataset_snapshot.hpp"
#include "eval/datasets.hpp"
#include "server/protocol.hpp"

namespace laca {
namespace {

class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void WaitUntilOpen() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return open_; });
  }
  void AwaitArrivals(size_t n) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this, n] { return arrivals_ >= n; });
  }
  void Arrive() {
    {
      std::lock_guard<std::mutex> lock(m_);
      ++arrivals_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool open_ = false;
  size_t arrivals_ = 0;
};

/// The client side of a socketpair: blocking line-oriented reads with a
/// hard test timeout, so a regression hangs an assertion, not the suite.
class TestClient {
 public:
  explicit TestClient(int fd) : fd_(fd) {}
  ~TestClient() { Close(); }

  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "client write failed: " << std::strerror(errno);
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one '\n'-terminated line; "" means EOF, a fatal failure means
  /// the 5-second test deadline expired.
  std::string ReadLine() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      if (eof_) return "";
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int pr = ::poll(&pfd, 1, 5000);
      EXPECT_GT(pr, 0) << "test client timed out waiting for a line";
      if (pr <= 0) return "";
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
      } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
        eof_ = true;
      }
    }
  }

  /// Half-close: the session sees EOF after consuming what was sent, but
  /// this client can still read responses.
  void FinishSending() { ::shutdown(fd_, SHUT_WR); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
};

/// Owns one end of a socketpair and runs RunSession over it on a thread.
/// A non-null `writer` replaces the socket writer, so a test can inspect
/// what the session wrote (the client then reads nothing but EOF).
class SessionUnderTest {
 public:
  SessionUnderTest(ServingEngine& engine, size_t max_line_bytes,
                   ReadDeadlines deadlines,
                   const std::atomic<bool>* stop = nullptr,
                   double write_timeout_ms = 0.0, SessionHooks hooks = {},
                   LineWriter* writer = nullptr)
      : hooks_(std::move(hooks)) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server_fd_ = fds[0];
    client_fd_ = fds[1];
    EXPECT_TRUE(SetNonBlocking(server_fd_));
    reader_ = std::make_unique<FdLineReader>(server_fd_, max_line_bytes,
                                             deadlines, stop);
    writer_ = std::make_unique<FdLineWriter>(server_fd_, write_timeout_ms);
    LineWriter* out = writer != nullptr ? writer : writer_.get();
    result_ = std::async(std::launch::async, [this, &engine, out] {
      // The session is over however it ended; the client sees EOF.
      try {
        SessionResult r = RunSession(engine, hooks_, *reader_, *out);
        ::close(server_fd_);
        return r;
      } catch (...) {
        ::close(server_fd_);
        throw;
      }
    });
  }

  int ReleaseClientFd() { return std::exchange(client_fd_, -1); }
  SessionResult Join() { return result_.get(); }

  ~SessionUnderTest() {
    if (client_fd_ >= 0) ::close(client_fd_);
    if (result_.valid()) result_.wait();
  }

 private:
  const SessionHooks hooks_;
  int server_fd_ = -1;
  int client_fd_ = -1;
  std::unique_ptr<FdLineReader> reader_;
  std::unique_ptr<FdLineWriter> writer_;
  std::future<SessionResult> result_;
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// A LineWriter that keeps every Write call's payload, to count the calls.
class RecordingWriter : public LineWriter {
 public:
  bool Write(const std::string& line) override {
    std::lock_guard<std::mutex> lock(m_);
    writes_.push_back(line);
    return true;
  }
  std::vector<std::string> writes() {
    std::lock_guard<std::mutex> lock(m_);
    return writes_;
  }

 private:
  std::mutex m_;
  std::vector<std::string> writes_;
};

std::vector<std::string> SplitLines(const std::vector<std::string>& writes) {
  std::vector<std::string> lines;
  for (const std::string& w : writes) {
    std::istringstream in(w);
    for (std::string l; std::getline(in, l);) lines.push_back(l);
  }
  return lines;
}

ReloadOutcome Reloaded(uint64_t version) {
  ReloadOutcome r;
  r.ok = true;
  r.version = version;
  return r;
}

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Sessions write to peers that vanished; laca_serve ignores SIGPIPE in
    // main() and these tests drive the same writer code.
    std::signal(SIGPIPE, SIG_IGN);
    ds_ = &GetDataset("cora-sim");
    TnamOptions topts;
    topts.k = 32;
    Tnam tnam = Tnam::Build(ds_->data.attributes, topts);
    std::vector<PreparedTnam> tnams;
    tnams.push_back(PreparedTnam{static_cast<int>(tnam.dim()),
                                 std::move(tnam)});
    snap_ = ds_->snapshot->WithTnams(std::move(tnams), /*version=*/1);
  }
  static void TearDownTestSuite() { snap_.reset(); }

  static ServingOptions WithWorkers(size_t workers) {
    ServingOptions opts;
    opts.num_workers = workers;
    opts.num_threads = workers;
    return opts;
  }

  static const Dataset* ds_;
  static std::shared_ptr<const DatasetSnapshot> snap_;
};

const Dataset* SessionTest::ds_ = nullptr;
std::shared_ptr<const DatasetSnapshot> SessionTest::snap_;

TEST_F(SessionTest, LockstepClientGetsEachResponseWithoutPipelining) {
  // The strictest client shape: one request, then a blocking read for its
  // response before sending anything else. The writer thread sends each
  // response when it resolves — a session that writes only when the next
  // input line (or a read tick) wakes it would stall this client.
  ServingEngine engine(snap_, WithWorkers(2));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 ")) << "first response";
  client.Send("health\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "HEALTH status="));
  client.Send("0 5\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=3 "));

  client.Close();
  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kEof);
  EXPECT_EQ(r.requests, 3u);
}

TEST_F(SessionTest, StdioSessionAnswersALockstepClient) {
  // stdin mode over a pipe pair: the reader blocks in fgets for the next
  // line, so only a writer that does not depend on the reader can answer
  // a client that waits for its response with stdin still open.
  ServingEngine engine(snap_, WithWorkers(2));
  int req[2];
  int resp[2];
  ASSERT_EQ(::pipe(req), 0);
  ASSERT_EQ(::pipe(resp), 0);
  std::FILE* server_in = ::fdopen(req[0], "r");
  std::FILE* server_out = ::fdopen(resp[1], "w");
  ASSERT_NE(server_in, nullptr);
  ASSERT_NE(server_out, nullptr);
  std::future<SessionResult> done =
      std::async(std::launch::async, [&engine, server_in, server_out] {
        StdioLineReader in(server_in, 1 << 20);
        StdioLineWriter out(server_out);
        SessionResult r = RunSession(engine, SessionHooks{}, in, out);
        std::fclose(server_in);
        std::fclose(server_out);  // the client sees EOF
        return r;
      });
  TestClient requests(req[1]);
  TestClient responses(resp[0]);

  requests.Send("0 5\n");  // and keep the write end open
  EXPECT_TRUE(StartsWith(responses.ReadLine(), "OK id=1 "));

  requests.Close();  // EOF ends the session
  EXPECT_EQ(responses.ReadLine(), "");
  SessionResult r = done.get();
  EXPECT_EQ(r.end, SessionResult::End::kEof);
  EXPECT_EQ(r.requests, 1u);
}

TEST_F(SessionTest, ResolvedResponseIsWrittenAtOnceToASilentClient) {
  // A reload ticket the test resolves by hand, after the session has read
  // the line and gone back to waiting for input. The response must reach
  // a client that sends nothing more without waiting for a read tick.
  constexpr size_t kReps = 20;
  std::mutex m;
  std::condition_variable cv;
  std::deque<std::promise<ReloadOutcome>> tickets;
  SessionHooks hooks;
  hooks.request_reload = [&m, &cv, &tickets] {
    std::promise<ReloadOutcome> ticket;
    std::future<ReloadOutcome> f = ticket.get_future();
    {
      std::lock_guard<std::mutex> lock(m);
      tickets.push_back(std::move(ticket));
    }
    cv.notify_all();
    return f;
  };
  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{}, nullptr, 0.0,
                           hooks);
  TestClient client(session.ReleaseClientFd());

  std::vector<double> waits_ms;
  for (size_t i = 0; i < kReps; ++i) {
    client.Send("reload\n");
    std::promise<ReloadOutcome> ticket;
    {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&tickets] { return !tickets.empty(); });
      ticket = std::move(tickets.front());
      tickets.pop_front();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto start = std::chrono::steady_clock::now();
    ticket.set_value(Reloaded(i + 2));
    EXPECT_EQ(client.ReadLine(), "OK id=" + std::to_string(i + 1) +
                                     " reload version=" +
                                     std::to_string(i + 2));
    waits_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  std::sort(waits_ms.begin(), waits_ms.end());
  const double median = (waits_ms[kReps / 2 - 1] + waits_ms[kReps / 2]) / 2;
  EXPECT_LT(median, 5.0) << "resolved responses wait for a read tick";

  client.Close();
  EXPECT_EQ(session.Join().requests, kReps);
}

TEST_F(SessionTest, ResolvedSuccessorsShareOneWrite) {
  // One request parks the only worker; ten reloads queue behind it, each
  // already resolved. When the request finishes, all eleven responses are
  // resolved and go out in request order in one Write call (two if the
  // last reload was still on its way into the queue).
  constexpr size_t kReloads = 10;
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);
  std::atomic<size_t> reload_calls{0};
  SessionHooks hooks;
  hooks.request_reload = [&reload_calls] {
    std::promise<ReloadOutcome> ticket;
    ticket.set_value(Reloaded(++reload_calls + 1));
    return ticket.get_future();
  };
  RecordingWriter recorder;
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{}, nullptr, 0.0,
                           hooks, &recorder);
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\n");
  gate.AwaitArrivals(1);  // the worker holds request 1
  for (size_t i = 0; i < kReloads; ++i) client.Send("reload\n");
  while (reload_calls.load() < kReloads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Open();
  client.Close();
  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kEof);
  EXPECT_EQ(r.requests, kReloads + 1);

  const std::vector<std::string> writes = recorder.writes();
  EXPECT_LE(writes.size(), 2u) << "resolved responses were not coalesced";
  const std::vector<std::string> lines = SplitLines(writes);
  ASSERT_EQ(lines.size(), kReloads + 1);
  EXPECT_TRUE(StartsWith(lines[0], "OK id=1 ")) << lines[0];
  for (size_t i = 1; i <= kReloads; ++i) {
    EXPECT_EQ(lines[i], "OK id=" + std::to_string(i + 1) +
                            " reload version=" + std::to_string(i + 1));
  }
}

TEST_F(SessionTest, WriterExceptionSurfacesOnlyAfterAdmittedWorkDrains) {
  // A stats hook that throws on the writer thread. The session must not
  // abort the process or abandon the request queued behind the stats line:
  // RunSession rethrows only once every admitted request has completed.
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
    // Slow enough that a session returning before its drain would see
    // request 3 still running.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  ServingEngine engine(snap_, opts);
  SessionHooks hooks;
  hooks.stats_line = []() -> std::string {
    throw std::runtime_error("stats renderer failed");
  };
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{}, nullptr, 0.0,
                           hooks);
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\nstats\n0 5\n");
  gate.AwaitArrivals(1);
  while (engine.Stats().admitted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Open();
  // Nothing is written from the failed render on: at most request 1's
  // response, unless it was coalesced with the stats line.
  size_t lines = 0;
  for (std::string l = client.ReadLine(); !l.empty(); l = client.ReadLine()) {
    EXPECT_TRUE(StartsWith(l, "OK id=1 ")) << l;
    ++lines;
  }
  EXPECT_LE(lines, 1u);
  EXPECT_THROW(session.Join(), std::runtime_error);

  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(SessionTest, SlowLorisIsClosedWithinTheLineBudget) {
  // A peer drip-feeding a never-ending line: the deadline anchors at the
  // line's first byte and the trickle cannot reset it. The earlier,
  // complete request still gets its tagged response before the idless
  // timeout line.
  ServingEngine engine(snap_, WithWorkers(2));
  ReadDeadlines deadlines;
  deadlines.line_ms = 150.0;
  SessionUnderTest session(engine, 1 << 20, deadlines);
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\n");
  client.Send("0 ");  // the loris begins: a line that never finishes
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  client.Send("5");  // still alive, still no newline — must not re-anchor

  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 "));
  EXPECT_EQ(client.ReadLine(), "ERR read_timeout");
  EXPECT_EQ(client.ReadLine(), "");  // EOF: the session closed
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_LT(waited, 4.0) << "line deadline did not bound the session";

  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kTimeout);
  EXPECT_EQ(r.requests, 1u);  // the unfinished line never got an id
}

TEST_F(SessionTest, IdleDeadlineReclaimsQuietConnections) {
  ServingEngine engine(snap_, WithWorkers(1));
  ReadDeadlines deadlines;
  deadlines.idle_ms = 100.0;
  SessionUnderTest session(engine, 1 << 20, deadlines);
  TestClient client(session.ReleaseClientFd());

  EXPECT_EQ(client.ReadLine(), "ERR read_timeout");
  EXPECT_EQ(client.ReadLine(), "");
  EXPECT_EQ(session.Join().end, SessionResult::End::kTimeout);
}

TEST_F(SessionTest, OversizedRequestLineGetsTaggedErrorThenCloses) {
  // The overlong verdict must arrive BEFORE the newline ever shows up —
  // a hostile peer could otherwise grow the buffer without bound.
  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, /*max_line_bytes=*/64, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\n");  // id=1, fine
  client.Send(std::string(4096, 'x'));  // no newline, far over the bound
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 "));
  EXPECT_EQ(client.ReadLine(),
            "ERR id=2 code=invalid msg=request line exceeds 64 bytes");
  EXPECT_EQ(client.ReadLine(), "");

  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kOverlong);
  EXPECT_EQ(r.requests, 2u);  // the oversized line consumed id 2
}

TEST_F(SessionTest, FinalUnterminatedLineIsStillServed) {
  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("stats");  // no trailing newline
  client.FinishSending();
  EXPECT_TRUE(StartsWith(client.ReadLine(), "STATS qps="));
  EXPECT_EQ(client.ReadLine(), "");
  EXPECT_EQ(session.Join().end, SessionResult::End::kEof);
}

TEST_F(SessionTest, ShutdownCommandEndsTheSessionAfterItsResponse) {
  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());

  client.Send("0 5\nshutdown\n0 5\n");  // the third line must never run
  EXPECT_TRUE(StartsWith(client.ReadLine(), "OK id=1 "));
  EXPECT_EQ(client.ReadLine(), "OK id=2 shutdown");
  EXPECT_EQ(client.ReadLine(), "");

  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kShutdown);
  EXPECT_EQ(r.requests, 2u);
}

TEST_F(SessionTest, WriteStallBudgetBoundsAReaderThatNeverDrains) {
  // Unit-level: a pipe whose buffer is already full is a peer that stopped
  // reading. The writer must give up within its budget, not block forever.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[1]));
  // Pack the pipe until the kernel says EAGAIN.
  std::string filler(4096, 'z');
  for (;;) {
    const ssize_t n = ::write(fds[1], filler.data(), filler.size());
    if (n < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
  }
  FdLineWriter writer(fds[1], /*write_timeout_ms=*/100.0);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(writer.Write("response nobody will read"));
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_GE(waited, 0.05);  // it did wait for the budget...
  EXPECT_LT(waited, 4.0);   // ...but the budget bounded it
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.Write("still closed"));  // failed writers stay failed
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(SessionTest, PeerDisconnectMidStreamDrainsAdmittedWork) {
  // The peer vanishes while requests are parked in the engine. Every
  // admitted future must still be consumed (zero admitted-but-lost), the
  // session must end, and the engine must stay healthy for the next peer.
  Gate gate;
  ServingOptions opts = WithWorkers(1);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);
  {
    SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
    TestClient client(session.ReleaseClientFd());
    client.Send("0 5\n0 5\n0 5\n");
    gate.AwaitArrivals(1);  // the engine owns at least the first request
    client.Close();         // vanish: RST/EOF with three requests in flight
    gate.Open();
    SessionResult r = session.Join();  // returns only once futures drained
    EXPECT_EQ(r.requests, 3u);
  }
  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(SessionTest, SessionKillFaultAbandonsThePeerNotTheWork) {
  // The chaos harness's mid-request disconnect, provoked deterministically:
  // the kill site fires on the second request line; the first request was
  // already admitted and must still run to completion.
  auto injector = std::make_shared<FaultInjector>();
  injector->Arm(FaultSite::kSessionKill, /*at_hit=*/2);
  ScopedGlobalFaultInjector scoped(injector);

  ServingEngine engine(snap_, WithWorkers(1));
  SessionUnderTest session(engine, 1 << 20, ReadDeadlines{});
  TestClient client(session.ReleaseClientFd());
  client.Send("0 5\n0 5\n");
  // Nothing is written after the kill; at most request 1's response was
  // already on the wire before the fault fired.
  size_t lines = 0;
  for (std::string l = client.ReadLine(); !l.empty(); l = client.ReadLine()) {
    EXPECT_TRUE(StartsWith(l, "OK id=1 ")) << l;
    ++lines;
  }
  EXPECT_LE(lines, 1u);

  SessionResult r = session.Join();
  EXPECT_EQ(r.end, SessionResult::End::kKilled);
  EXPECT_EQ(r.requests, 1u);  // the killing line itself got no id
  EXPECT_EQ(injector->fired(FaultSite::kSessionKill), 1u);

  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, stats.admitted);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST_F(SessionTest, StopFlagDrainsConcurrentSessionsWithoutLosingWork) {
  // SIGTERM drain under concurrent traffic: several live sessions with
  // requests parked in the engine, then the stop flag rises. Every session
  // must end orderly (kEof), every already-admitted request must complete
  // AND its response must reach its client before the close.
  constexpr size_t kSessions = 3;
  constexpr size_t kPerSession = 2;
  Gate gate;
  std::atomic<bool> stop{false};
  ServingOptions opts = WithWorkers(2);
  opts.worker_hook = [&gate] {
    gate.Arrive();
    gate.WaitUntilOpen();
  };
  ServingEngine engine(snap_, opts);

  std::vector<std::unique_ptr<SessionUnderTest>> sessions;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(std::make_unique<SessionUnderTest>(
        engine, 1 << 20, ReadDeadlines{}, &stop));
    clients.push_back(
        std::make_unique<TestClient>(sessions.back()->ReleaseClientFd()));
    for (size_t j = 0; j < kPerSession; ++j) clients.back()->Send("0 5\n");
  }
  // Both workers parked on claimed requests; the rest queue behind them.
  // The stop flag must not rise before every request line was admitted —
  // the drain contract covers admitted work, not unread socket bytes.
  gate.AwaitArrivals(2);
  while (engine.Stats().admitted < kSessions * kPerSession) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stop.store(true);  // SIGTERM
  gate.Open();       // workers resume so the drain can finish

  for (size_t i = 0; i < kSessions; ++i) {
    size_t ok_lines = 0;
    for (std::string l = clients[i]->ReadLine(); !l.empty();
         l = clients[i]->ReadLine()) {
      EXPECT_TRUE(StartsWith(l, "OK id=")) << l;
      ++ok_lines;
    }
    EXPECT_EQ(ok_lines, kPerSession) << "session " << i << " lost responses";
    SessionResult r = sessions[i]->Join();
    EXPECT_EQ(r.end, SessionResult::End::kEof);
    EXPECT_EQ(r.requests, kPerSession);
  }
  ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.admitted, kSessions * kPerSession);
  EXPECT_EQ(stats.completed, stats.admitted);  // zero admitted-but-lost
}

TEST_F(SessionTest, StdioReaderEnforcesTheLineBound) {
  std::string data = std::string(256, 'y') + "\n";
  std::FILE* in = ::fmemopen(data.data(), data.size(), "r");
  ASSERT_NE(in, nullptr);
  StdioLineReader reader(in, /*max_line_bytes=*/64);
  std::string line;
  EXPECT_EQ(reader.Next(&line), ReadStatus::kOverlong);
  std::fclose(in);

  std::string ok_data = "stats\n";
  in = ::fmemopen(ok_data.data(), ok_data.size(), "r");
  ASSERT_NE(in, nullptr);
  StdioLineReader ok_reader(in, 64);
  EXPECT_EQ(ok_reader.Next(&line), ReadStatus::kLine);
  EXPECT_EQ(line, "stats");
  EXPECT_EQ(ok_reader.Next(&line), ReadStatus::kEof);
  std::fclose(in);
}

}  // namespace
}  // namespace laca

#endif  // __unix__
