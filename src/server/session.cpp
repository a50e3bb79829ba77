#include "server/session.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#ifdef __unix__
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#endif

#include "common/fault_injection.hpp"
#include "common/mutex.hpp"
#include "server/protocol.hpp"

namespace laca {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Poll granularity: the latency bound on noticing a stop flag, an expired
// deadline, or a failed writer while waiting for bytes (or buffer space).
// Responses never wait for it — the writer thread sends each one when it
// resolves — so it only needs to be large enough that an idle session is
// effectively free.
constexpr int kPollTickMs = 20;

double ElapsedMs(SteadyClock::time_point since) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - since)
      .count();
}

}  // namespace

void LineWriter::MaybeStallSend() {
  if (std::shared_ptr<FaultInjector> fi = GlobalFaultInjector()) {
    if (fi->ShouldFire(FaultSite::kSendStall)) {
      std::this_thread::sleep_for(fi->stall_duration());
    }
  }
}

ReadStatus StdioLineReader::Next(std::string* line) {
  line->clear();
  char buf[4096];
  for (;;) {
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      return ReadStatus::kEof;  // SIGTERM drain: finish pending, close
    }
    if (std::fgets(buf, sizeof(buf), in_) == nullptr) {
      if (std::ferror(in_) && errno == EINTR) {
        std::clearerr(in_);
        continue;  // the loop re-checks the stop flag before retrying
      }
      return line->empty() ? ReadStatus::kEof : ReadStatus::kLine;
    }
    line->append(buf);
    if (!line->empty() && line->back() == '\n') {
      line->pop_back();
      return line->size() > max_line_bytes_ ? ReadStatus::kOverlong
                                            : ReadStatus::kLine;
    }
    if (line->size() > max_line_bytes_) return ReadStatus::kOverlong;
  }
}

bool StdioLineWriter::Write(const std::string& line) {
  if (failed_) return false;
  MaybeStallSend();
  std::fprintf(out_, "%s\n", line.c_str());
  std::fflush(out_);
  if (std::ferror(out_)) failed_ = true;
  return !failed_;
}

#ifdef __unix__

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

FdLineReader::FdLineReader(int fd, size_t max_line_bytes,
                           ReadDeadlines deadlines,
                           const std::atomic<bool>* stop)
    : LineReader(max_line_bytes),
      fd_(fd),
      deadlines_(deadlines),
      stop_(stop) {}

ReadStatus FdLineReader::Next(std::string* line) {
  line->clear();
  // The deadline anchors persist across kAgain ticks: the line deadline
  // anchors at the first byte of the current line (leftover bytes from the
  // previous read belong to this line, so they anchor immediately), the
  // idle deadline at the moment the previous line completed.
  if (!idle_armed_) {
    idle_armed_ = true;
    idle_anchor_ = SteadyClock::now();
  }
  if (!buf_.empty() && !line_armed_) {
    line_armed_ = true;
    line_anchor_ = SteadyClock::now();
  }
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      line_armed_ = false;
      idle_armed_ = false;
      return line->size() > max_line_bytes_ ? ReadStatus::kOverlong
                                            : ReadStatus::kLine;
    }
    if (buf_.size() > max_line_bytes_) {
      buf_.clear();  // hostile input; the session closes, nothing to save
      return ReadStatus::kOverlong;
    }
    if (eof_) {
      if (buf_.empty()) return ReadStatus::kEof;
      *line = std::move(buf_);  // final unterminated line still delivered
      buf_.clear();
      return ReadStatus::kLine;
    }
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      return ReadStatus::kEof;
    }

    int wait_ms = kPollTickMs;
    if (line_armed_ && deadlines_.line_ms > 0.0) {
      const double remaining = deadlines_.line_ms - ElapsedMs(line_anchor_);
      if (remaining <= 0.0) return ReadStatus::kTimeout;  // slow-loris
      wait_ms = std::min(wait_ms, static_cast<int>(std::ceil(remaining)));
    } else if (!line_armed_ && deadlines_.idle_ms > 0.0) {
      const double remaining = deadlines_.idle_ms - ElapsedMs(idle_anchor_);
      if (remaining <= 0.0) return ReadStatus::kTimeout;
      wait_ms = std::min(wait_ms, static_cast<int>(std::ceil(remaining)));
    }

    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) return ReadStatus::kAgain;  // caller re-checks
      eof_ = true;  // unpollable descriptor = stream over
      continue;
    }
    if (pr == 0) {
      return ReadStatus::kAgain;  // tick: let the session re-check its writer
    }

    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      if (!line_armed_) {
        line_armed_ = true;
        line_anchor_ = SteadyClock::now();
      }
      buf_.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      eof_ = true;
    } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      eof_ = true;  // ECONNRESET and friends: deliver what we have, then end
    }
  }
}

bool FdLineWriter::Write(const std::string& line) {
  if (failed_) return false;
  MaybeStallSend();
  buf_.assign(line);
  buf_.push_back('\n');
  const char* data = buf_.data();
  size_t len = buf_.size();
  const SteadyClock::time_point start = SteadyClock::now();
  while (len > 0) {
    const ssize_t n = ::write(fd_, data, len);
    if (n > 0) {
      data += n;
      len -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The peer's receive buffer is full. Wait for drain within the stall
      // budget; a reader that never drains costs at most write_timeout_ms.
      int wait_ms = kPollTickMs;
      if (write_timeout_ms_ > 0.0) {
        const double remaining = write_timeout_ms_ - ElapsedMs(start);
        if (remaining <= 0.0) {
          failed_ = true;  // stalled writer: budget spent, peer is hostile
          return false;
        }
        wait_ms = std::min(wait_ms, static_cast<int>(std::ceil(remaining)));
      }
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      if (::poll(&pfd, 1, wait_ms) < 0 && errno != EINTR) {
        failed_ = true;
        return false;
      }
      continue;
    }
    failed_ = true;  // EPIPE, ECONNRESET, ...: peer is gone
    return false;
  }
  return true;
}

#endif  // __unix__

namespace {

// One response slot, in request order. Exactly one member describes it.
struct Pending {
  uint64_t id = 0;
  std::optional<std::string> ready;   // immediate response (errors)
  std::function<std::string()> lazy;  // rendered at its turn (stats, health)
  std::future<ReloadOutcome> reload;  // background reload ticket
  std::future<ServeResponse> response;
};

bool Resolved(const Pending& p) {
  if (p.reload.valid()) {
    return p.reload.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }
  if (p.response.valid()) {
    return p.response.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }
  return true;  // ready and lazy lines can be written at once
}

// Blocks until the slot's response exists, then renders it.
std::string Render(Pending& p) {
  if (p.ready) return std::move(*p.ready);
  if (p.lazy) return p.lazy();
  if (p.reload.valid()) {
    const ReloadOutcome r = p.reload.get();
    if (r.ok) return FormatReloadResponse(p.id, r.version);
    ServeResponse resp;
    resp.status = ServeStatus::kInvalid;
    resp.error = "reload failed: " + r.error;
    return FormatResponse(p.id, resp);
  }
  return FormatResponse(p.id, p.response.get());
}

// Waits out the slot's work without rendering it (the muted drain).
void Consume(const Pending& p) {
  if (p.reload.valid()) p.reload.wait();
  if (p.response.valid()) p.response.wait();
}

// Everything a session's reader and its writer thread share. A slot counts
// against `capacity` from Push until the writer releases it after writing
// (or dropping) its response, so the capacity bounds unwritten responses.
// `muted` is the one lock-free flag: either side raises it to stop all
// further writes (the peer is gone, the session was killed, or the writer
// failed), and the reader polls it to notice a failed writer.
class PendingQueue {
 public:
  explicit PendingQueue(size_t capacity) : capacity_(capacity) {}

  /// Reader: appends a slot, blocking while `capacity` are unwritten.
  void Push(Pending p) LACA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (unwritten_ >= capacity_) cv_.Wait(mu_);
    items_.push_back(std::move(p));
    ++unwritten_;
    cv_.NotifyAll();
  }

  /// Reader: no more slots; the writer exits once it has drained the rest.
  void Close() LACA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    cv_.NotifyAll();
  }

  /// Writer: takes the oldest slot, blocking while none is queued. False
  /// once the queue is closed and empty.
  bool Pop(Pending* p) LACA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) cv_.Wait(mu_);
    return PopFrontLocked(p);
  }

  /// Writer: takes the oldest slot only if its response already exists.
  bool PopResolved(Pending* p) LACA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return !items_.empty() && Resolved(items_.front()) && PopFrontLocked(p);
  }

  /// Writer: frees `n` popped slots whose responses were written or dropped.
  void Release(size_t n) LACA_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    unwritten_ -= n;
    cv_.NotifyAll();
  }

  void Mute() { muted_.store(true); }
  bool muted() const { return muted_.load(); }

 private:
  bool PopFrontLocked(Pending* p) LACA_REQUIRES(mu_) {
    if (items_.empty()) return false;
    *p = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  const size_t capacity_;
  Mutex mu_;
  CondVar cv_;
  std::deque<Pending> items_ LACA_GUARDED_BY(mu_);
  size_t unwritten_ LACA_GUARDED_BY(mu_) = 0;
  bool closed_ LACA_GUARDED_BY(mu_) = false;
  std::atomic<bool> muted_{false};
};

// Bounds one coalesced Write: a backlog of resolved responses goes out in
// socket-buffer-sized calls, so --write-timeout stays a budget for about
// one buffer of bytes rather than for the whole backlog.
constexpr size_t kMaxCoalescedBytes = 64 * 1024;

// The writer thread. Writes the oldest response the moment it resolves,
// with every already-resolved successor in the same Write call. After a
// failed write, a kill, or an exception it writes nothing more but still
// waits out every queued future, so admitted work is never abandoned; an
// exception is handed to RunSession through `error`.
void WriteResponses(PendingQueue& queue, LineWriter& out,
                    std::exception_ptr* error) {
  Pending p;
  size_t held = 0;  // popped slots not yet released
  try {
    while (!queue.muted() && queue.Pop(&p)) {
      held = 1;
      std::string batch = Render(p);
      while (batch.size() < kMaxCoalescedBytes && queue.PopResolved(&p)) {
        ++held;
        batch.push_back('\n');
        batch += Render(p);
      }
      if (!queue.muted() && !out.Write(batch)) queue.Mute();
      queue.Release(std::exchange(held, 0));
    }
  } catch (...) {
    *error = std::current_exception();
    queue.Mute();
    queue.Release(held);
  }
  while (queue.Pop(&p)) {
    Consume(p);
    queue.Release(1);
  }
}

// The session's reading loop: turns request lines into queued slots until
// the input ends, a bound trips, or the writer goes quiet.
SessionResult ReadRequests(ServingEngine& engine, const SessionHooks& hooks,
                           LineReader& in, PendingQueue& queue) {
  using End = SessionResult::End;
  SessionResult result;
  std::string line;
  for (;;) {
    if (queue.muted()) {
      result.end = End::kWriteClosed;  // peer unreachable: stop reading
      return result;
    }
    const ReadStatus rs = in.Next(&line);
    if (rs == ReadStatus::kAgain) continue;  // tick: re-check the writer
    if (rs == ReadStatus::kEof) {
      result.end = End::kEof;
      return result;
    }
    if (rs == ReadStatus::kTimeout) {
      // Queued behind every earlier id, so the idless timeout line cannot
      // appear to belong to a request that was already admitted.
      result.end = End::kTimeout;
      Pending p;
      p.ready = "ERR read_timeout";
      queue.Push(std::move(p));
      return result;
    }
    if (rs == ReadStatus::kOverlong) {
      result.end = End::kOverlong;
      Pending p;
      p.id = ++result.requests;  // the oversized line's id
      ServeResponse resp;
      resp.status = ServeStatus::kInvalid;
      resp.error = "request line exceeds " +
                   std::to_string(in.max_line_bytes()) + " bytes";
      p.ready = FormatResponse(p.id, resp);
      queue.Push(std::move(p));
      return result;
    }

    std::string_view sv(line);
    while (!sv.empty() && (sv.back() == '\n' || sv.back() == '\r')) {
      sv.remove_suffix(1);
    }
    if (sv.empty() || sv.front() == '#') continue;

    if (std::shared_ptr<FaultInjector> fi = GlobalFaultInjector();
        fi != nullptr && fi->ShouldFire(FaultSite::kSessionKill)) {
      queue.Mute();  // as if the peer vanished: no more reads or writes
      result.end = End::kKilled;
      return result;
    }

    const uint64_t id = ++result.requests;
    ParsedLine parsed = ParseRequestLine(sv);
    Pending p;
    p.id = id;
    switch (parsed.kind) {
      case ParsedLine::Kind::kStats:
        if (hooks.stats_line) {
          p.lazy = hooks.stats_line;
        } else {
          p.lazy = [&engine] {
            ServingStats s = engine.Stats();
            const double qps =
                s.uptime_seconds > 0.0 ? s.completed / s.uptime_seconds : 0.0;
            return FormatStatsLine(s, qps);
          };
        }
        break;
      case ParsedLine::Kind::kHealth:
        if (hooks.health_line) {
          p.lazy = hooks.health_line;
        } else {
          p.lazy = [&engine] { return FormatHealthLine(engine.Stats()); };
        }
        break;
      case ParsedLine::Kind::kReload:
        // The rebuild (and its retries) run off this thread; requests keep
        // flowing on the old snapshot and this slot resolves once the
        // ticket reaches its final outcome.
        if (hooks.request_reload) {
          p.reload = hooks.request_reload();
        } else {
          ServeResponse resp;
          resp.status = ServeStatus::kInvalid;
          resp.error = "reload is not supported by this server";
          p.ready = FormatResponse(id, resp);
        }
        break;
      case ParsedLine::Kind::kShutdown:
        p.ready = "OK id=" + std::to_string(id) + " shutdown";
        break;
      case ParsedLine::Kind::kError: {
        ServeResponse resp;
        resp.status = ServeStatus::kInvalid;
        resp.error = parsed.error;
        p.ready = FormatResponse(id, resp);
        break;
      }
      case ParsedLine::Kind::kRequest: {
        Admission admission = engine.Submit(parsed.request);
        if (admission.ok()) {
          p.response = std::move(admission.response);
        } else {
          ServeResponse resp;
          resp.status = admission.status;
          resp.error = std::move(admission.error);
          resp.retry_after_ms = admission.retry_after_ms;
          p.ready = FormatResponse(id, resp);
        }
        break;
      }
    }
    queue.Push(std::move(p));
    if (parsed.kind == ParsedLine::Kind::kShutdown) {
      result.end = End::kShutdown;
      return result;
    }
  }
}

}  // namespace

SessionResult RunSession(ServingEngine& engine, const SessionHooks& hooks,
                         LineReader& in, LineWriter& out,
                         const SessionLimits& limits) {
  PendingQueue queue(limits.max_pending != 0 ? limits.max_pending
                                             : engine.num_workers() * 4 + 256);
  std::exception_ptr writer_error;
  // Throws std::system_error if the thread cannot start; nothing has been
  // read yet, so no admitted work is lost.
  std::thread writer(WriteResponses, std::ref(queue), std::ref(out),
                     &writer_error);
  SessionResult result;
  try {
    result = ReadRequests(engine, hooks, in, queue);
  } catch (...) {
    queue.Close();
    writer.join();
    throw;
  }
  queue.Close();
  writer.join();
  if (writer_error) std::rethrow_exception(writer_error);
  return result;
}

}  // namespace laca
