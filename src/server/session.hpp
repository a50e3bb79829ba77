// One request/response session over a line stream (DESIGN.md §11).
//
// Extracted from the laca_serve binary so the hostile-client behaviors —
// slow-loris drip-feeds, oversized request lines, stalled readers, peers
// that vanish mid-response, SIGTERM drain — are exercised by sanitizer
// tests against the real session loop, not a re-implementation.
//
// The session reads protocol lines (server/protocol.hpp) through a
// LineReader on the calling thread and emits exactly one response line per
// request through a LineWriter, strictly in request order, from a writer
// thread that sends each response the moment it resolves (together with
// any already-resolved successors, in one Write call). A bounded window of
// unwritten responses lets the reader run ahead of the slowest in-flight
// request. The reader enforces the untrusted-input bounds:
//
//   * a hard cap on request-line bytes — an overlong line gets a tagged
//     `ERR ... code=invalid msg=request line exceeds N bytes` and the
//     session ends (the peer is hostile or broken; there is no way to
//     resynchronize mid-line);
//   * a full-line deadline anchored at the line's first byte — a client
//     dripping one byte per second holds a session thread forever without
//     it (the slow-loris); on expiry the session emits an idless
//     `ERR read_timeout` and ends;
//   * an optional idle deadline between requests;
//   * a stop flag checked every poll tick, so SIGTERM drain reaches
//     sessions blocked in a read.
//
// Writers carry their own stall budget: a peer that stops draining its
// receive buffer fails the write within write_timeout_ms and the session
// stops emitting — but every already-admitted future is still consumed
// before the session closes, so admitted work is never abandoned
// (the zero-admitted-but-lost invariant the chaos harness asserts).
#ifndef LACA_SERVER_SESSION_HPP_
#define LACA_SERVER_SESSION_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <string>

#include "server/reload_manager.hpp"
#include "server/serving_engine.hpp"

namespace laca {

/// Outcome of one LineReader::Next call.
enum class ReadStatus : uint8_t {
  kLine,      ///< `line` holds the next line, terminator stripped
  kAgain,     ///< no complete line yet; the session checks its writer
              ///< and calls Next again (tick-driven readers)
  kEof,       ///< orderly end of stream (or stop flag raised)
  kOverlong,  ///< the line exceeded max_line_bytes before its newline
  kTimeout,   ///< a read or idle deadline expired
};

/// Source of request lines. Implementations own the input bounds.
class LineReader {
 public:
  explicit LineReader(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}
  virtual ~LineReader() = default;
  virtual ReadStatus Next(std::string* line) = 0;
  size_t max_line_bytes() const { return max_line_bytes_; }

 protected:
  const size_t max_line_bytes_;
};

/// Sink for response lines. Write() appends the newline and reports false
/// once the peer is unreachable (or its stall budget is spent); the session
/// then drains its in-flight work without emitting and closes cleanly.
/// `line` may hold several '\n'-joined responses: the session coalesces
/// every response that is already resolved into one call. Only the
/// session's writer thread calls a writer.
class LineWriter {
 public:
  virtual ~LineWriter() = default;
  virtual bool Write(const std::string& line) = 0;
  bool ok() const { return !failed_; }

 protected:
  /// Consults the global fault injector's send_stall site (sleeps the
  /// injector's stall duration when it fires). Implementations call this
  /// at the top of Write so tests can provoke write-path slowness.
  static void MaybeStallSend();

  bool failed_ = false;
};

/// stdio-backed reader (stdin mode). Enforces the line-byte bound; EINTR
/// is retried unless the stop flag latched (SIGTERM mid-read drains as
/// EOF). No deadlines — stdin has no hostile peer and no portable timeout.
class StdioLineReader : public LineReader {
 public:
  StdioLineReader(std::FILE* in, size_t max_line_bytes,
                  const std::atomic<bool>* stop = nullptr)
      : LineReader(max_line_bytes), in_(in), stop_(stop) {}
  ReadStatus Next(std::string* line) override;

 private:
  std::FILE* in_;
  const std::atomic<bool>* stop_;
};

/// stdio-backed writer (stdin/stdout mode).
class StdioLineWriter : public LineWriter {
 public:
  explicit StdioLineWriter(std::FILE* out) : out_(out) {}
  bool Write(const std::string& line) override;

 private:
  std::FILE* out_;
};

#ifdef __unix__
/// Per-line and idle deadlines for FdLineReader, in milliseconds; 0
/// disables that deadline (but the stop flag is still polled).
struct ReadDeadlines {
  double line_ms = 0.0;  ///< budget for one full line from its first byte
  double idle_ms = 0.0;  ///< budget for the first byte of the next line
};

/// poll(2)-driven reader over a nonblocking descriptor (sockets and pipes
/// alike — the TCP sessions and the sanitizer tests share this code). The
/// line deadline anchors at the first buffered byte of the current line,
/// so a drip-feeding client cannot reset it by staying barely alive; the
/// anchors persist across kAgain ticks. A tick bounds how late the stop
/// flag and a failed writer are noticed; responses never wait for one.
class FdLineReader : public LineReader {
 public:
  FdLineReader(int fd, size_t max_line_bytes, ReadDeadlines deadlines,
               const std::atomic<bool>* stop = nullptr);
  ReadStatus Next(std::string* line) override;

 private:
  const int fd_;
  const ReadDeadlines deadlines_;
  const std::atomic<bool>* stop_;
  std::string buf_;
  bool eof_ = false;
  bool line_armed_ = false;  ///< first byte of the current line seen
  bool idle_armed_ = false;  ///< waiting for the next line's first byte
  std::chrono::steady_clock::time_point line_anchor_;
  std::chrono::steady_clock::time_point idle_anchor_;
};

/// write(2)-backed writer for TCP sessions: retries EINTR, EAGAIN, and
/// short writes, turns EPIPE/ECONNRESET into a clean `false`, and spends at
/// most write_timeout_ms per Write call waiting for the peer to drain its
/// buffer (0 = wait forever). The descriptor should be nonblocking so the
/// budget is enforceable.
class FdLineWriter : public LineWriter {
 public:
  explicit FdLineWriter(int fd, double write_timeout_ms = 0.0)
      : fd_(fd), write_timeout_ms_(write_timeout_ms) {}
  bool Write(const std::string& line) override;

 private:
  const int fd_;
  const double write_timeout_ms_;
  std::string buf_;
};

/// Sets O_NONBLOCK on `fd` (the FdLineReader/FdLineWriter contract).
/// Returns false on fcntl failure.
bool SetNonBlocking(int fd);
#endif  // __unix__

/// Serving-binary capabilities a session can invoke beyond clustering
/// requests. Null members degrade gracefully (reload → ERR invalid).
struct SessionHooks {
  std::function<std::string()> stats_line;   ///< renders one STATS line
  std::function<std::string()> health_line;  ///< renders one HEALTH line
  /// Enqueues a background reload; the future resolves after retries.
  std::function<std::future<ReloadOutcome>()> request_reload;
};

struct SessionLimits {
  /// Responses not yet written that the session holds before its reader
  /// blocks on queue space. 0 = workers * 4 + 256.
  size_t max_pending = 0;
};

struct SessionResult {
  enum class End : uint8_t {
    kEof,          ///< orderly end of input (incl. stop-flag drain)
    kShutdown,     ///< the peer sent `shutdown`
    kOverlong,     ///< closed on an oversized request line
    kTimeout,      ///< closed on a read/idle deadline
    kWriteClosed,  ///< the peer stopped accepting responses
    kKilled,       ///< the session_kill fault site fired
  };
  End end = End::kEof;
  uint64_t requests = 0;  ///< request lines consumed (ids issued)
};

/// Runs one session to completion: the reading loop on the calling thread,
/// the writes on one writer thread it starts and joins. Responses are
/// emitted strictly in request order; `stats`, `health`, and `reload`
/// responses are rendered at emission time. Whatever ends the session,
/// every admitted future is drained before returning.
///
/// Throws std::system_error when the writer thread cannot start (before any
/// line is read). An exception that escapes the writer (a throwing hook,
/// std::bad_alloc while rendering) mutes the session and is rethrown here
/// after the drain, so it never outlives admitted work.
SessionResult RunSession(ServingEngine& engine, const SessionHooks& hooks,
                         LineReader& in, LineWriter& out,
                         const SessionLimits& limits = {});

}  // namespace laca

#endif  // LACA_SERVER_SESSION_HPP_
