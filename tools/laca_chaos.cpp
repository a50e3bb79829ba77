// laca_chaos — seeded chaos-soak harness for the laca_serve binary
// (DESIGN.md §11).
//
// Drives a REAL server process (fork/exec, TCP on an ephemeral port)
// through the hostile conditions the serving stack claims to survive, and
// turns the claims into exit-code-checked assertions:
//
//   1. baseline   - a request sweep records canonical responses;
//   2. storm      - concurrent actors misbehave for a few seconds:
//                   good clients in lockstep, slow-loris drip-feeds,
//                   oversized frames, torn frames, mid-request
//                   disconnects, readers that never drain, and a reload
//                   storm that corrupts the snapshot directory on disk
//                   mid-flight (exercising retry + quarantine), while the
//                   server also runs with its own fault injector armed
//                   (accept_fail / send_stall / session_kill /
//                   snapshot_read);
//   3. recovery   - the snapshot directory is restored, a reload must
//                   succeed, health must shed its reload_failing reason
//                   (the quarantined= evidence is sticky by design), the
//                   baseline sweep must reproduce BIT-IDENTICAL canonical
//                   responses, a repeated request must land a result-cache
//                   hit (cache_hits= in stats moves, response unchanged),
//                   and the engine must report zero admitted-but-lost
//                   requests (admitted == completed);
//   4. sigterm    - SIGTERM lands mid-burst; the server must drain and
//                   exit 0 with its final stats line on stderr.
//
// Throughout the storm the harness samples /proc/<pid>/status and asserts
// the server's thread count stays bounded (sessions are reclaimed, not
// leaked). All actor schedules derive from --seed, so a failing run can be
// replayed. The run is summarized as a hand-rolled JSON report (--report=).
//
// Usage:
//   laca_chaos [--seed=N] [--storm-ms=MS] [--serve=PATH] [--report=PATH]
//
// Exit status: 0 iff every assertion held.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#ifdef __unix__

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "attr/tnam.hpp"
#include "common/parse.hpp"
#include "data/dataset_snapshot.hpp"
#include "data/snapshot_io.hpp"
#include "eval/datasets.hpp"

namespace {

using laca::Dataset;
using laca::DatasetSnapshot;
using laca::GetDataset;
using laca::PreparedTnam;
using laca::SaveSnapshot;
using laca::Tnam;
using laca::TnamOptions;
using SteadyClock = std::chrono::steady_clock;

// Strict prefix parse: the leading digit run of `s` (after optional blanks)
// through laca::ParseU64. Returns 0 when no digits lead — every caller
// treats 0 as "absent/unparsed", matching the old strtoul behavior here.
uint64_t LeadingU64(const char* s) {
  size_t i = 0;
  while (s[i] == ' ' || s[i] == '\t') ++i;
  const size_t begin = i;
  while (s[i] >= '0' && s[i] <= '9') ++i;
  return laca::ParseU64(std::string_view(s + begin, i - begin)).value_or(0);
}

struct ChaosOptions {
  uint64_t seed = 1;
  int storm_ms = 4000;
  std::string serve_bin;   // default: laca_serve next to this binary
  std::string report_path; // "" = stdout summary only
};

// ---------------------------------------------------------------------------
// Shared verdict state: actors append failures and bump counters; the main
// thread turns them into the report and the exit code.
class Verdict {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    failures_.push_back(what);
    std::fprintf(stderr, "laca_chaos: FAIL %s\n", what.c_str());
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Bump(const std::string& counter, long long by = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_[counter] += by;
  }
  void Max(const std::string& counter, long long value) {
    std::lock_guard<std::mutex> lock(mu_);
    long long& slot = counters_[counter];
    if (value > slot) slot = value;
  }
  long long Count(const std::string& counter) {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[counter];
  }
  std::vector<std::string> failures() {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }
  std::map<std::string, long long> counters() {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> failures_;
  std::map<std::string, long long> counters_;
};

// ---------------------------------------------------------------------------
// A blocking line client over one TCP connection to the server.
class LineClient {
 public:
  ~LineClient() { Close(); }

  bool Connect(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    buf_.clear();
    eof_ = false;
    return true;
  }

  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    if (fd_ < 0) return false;
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        Close();
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  enum class Rx { kLine, kEof, kTimeout };

  Rx ReadLine(std::string* line, int timeout_ms) {
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return Rx::kLine;
      }
      if (eof_ || fd_ < 0) return Rx::kEof;
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - SteadyClock::now());
      if (remaining.count() <= 0) return Rx::kTimeout;
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int pr = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (pr < 0 && errno != EINTR) return Rx::kEof;
      if (pr <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
      } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
        eof_ = true;
      }
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  bool eof_ = false;
};

// ---------------------------------------------------------------------------
// The server process under chaos: fork/exec, stderr capture, lifecycle.
class ServerProcess {
 public:
  bool Start(const std::vector<std::string>& argv) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(pipe_fds[1], 2);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      std::vector<char*> cargv;
      for (const std::string& a : argv) {
        cargv.push_back(const_cast<char*>(a.c_str()));
      }
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      std::perror("laca_chaos: execv");
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    reader_ = std::thread([this, fd = pipe_fds[0]] {
      std::string acc;
      char chunk[4096];
      for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          break;
        }
        acc.append(chunk, static_cast<size_t>(n));
        size_t nl;
        while ((nl = acc.find('\n')) != std::string::npos) {
          std::string line = acc.substr(0, nl);
          acc.erase(0, nl + 1);
          std::fprintf(stderr, "  [server] %s\n", line.c_str());
          std::lock_guard<std::mutex> lock(mu_);
          stderr_lines_.push_back(std::move(line));
        }
      }
      ::close(fd);
    });
    return true;
  }

  /// Scans captured stderr for the ephemeral-port announcement.
  int WaitListening(int timeout_ms) {
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
    const std::string needle = "listening on 127.0.0.1:";
    while (SteadyClock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const std::string& line : stderr_lines_) {
          const size_t pos = line.find(needle);
          if (pos != std::string::npos) {
            return static_cast<int>(
                LeadingU64(line.c_str() + pos + needle.size()));
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  bool StderrContains(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& line : stderr_lines_) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  void Signal(int sig) {
    if (pid_ > 0) ::kill(pid_, sig);
  }

  /// Waits for exit within the deadline; returns the wait status, or
  /// nullopt (after SIGKILL) if the server refused to die.
  std::optional<int> WaitExit(int timeout_ms) {
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
    int status = 0;
    while (SteadyClock::now() < deadline) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        reaped_ = true;
        if (reader_.joinable()) reader_.join();
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    reaped_ = true;
    if (reader_.joinable()) reader_.join();
    return std::nullopt;
  }

  /// Current thread count from /proc/<pid>/status (0 if unreadable).
  long long Threads() {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("Threads:", 0) == 0) {
        return static_cast<long long>(LeadingU64(line.c_str() + 8));
      }
    }
    return 0;
  }

  pid_t pid() const { return pid_; }

  ~ServerProcess() {
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (reader_.joinable()) reader_.join();
  }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  std::thread reader_;
  std::mutex mu_;
  std::vector<std::string> stderr_lines_;
};

// ---------------------------------------------------------------------------
// Response canonicalization: an OK cluster line minus its id and timing
// tokens. This is the part of the response that must be bit-identical
// before and after the storm (timings never are, ids are per-session).
std::string Canonical(const std::string& line) {
  std::istringstream in(line);
  std::string token;
  std::string out;
  while (in >> token) {
    if (token.rfind("id=", 0) == 0 || token.rfind("us=", 0) == 0 ||
        token.rfind("queue_us=", 0) == 0) {
      continue;
    }
    if (!out.empty()) out.push_back(' ');
    out += token;
  }
  return out;
}

/// Extracts `<key><uint>` from a space-separated stats/health line.
std::optional<uint64_t> TokenU64(const std::string& line,
                                 const std::string& key) {
  const std::string needle = " " + key;
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return LeadingU64(line.c_str() + pos + needle.size());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Request sweep with retry: shed/brownout/busy/kill responses are part of
// chaos, so each request retries until it lands an OK (bounded attempts).
// Returns request-line -> canonical response for every request that landed.
std::map<std::string, std::string> Sweep(
    int port, const std::vector<std::string>& requests, Verdict& verdict,
    const char* phase) {
  std::map<std::string, std::string> out;
  LineClient client;
  for (const std::string& req : requests) {
    bool landed = false;
    for (int attempt = 0; attempt < 40 && !landed; ++attempt) {
      if (!client.connected() && !client.Connect(port)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        continue;
      }
      if (!client.Send(req + "\n")) continue;
      std::string line;
      const LineClient::Rx rx = client.ReadLine(&line, 5000);
      if (rx != LineClient::Rx::kLine) {
        client.Close();  // timed out or dropped (session_kill); reconnect
        continue;
      }
      if (line.rfind("OK ", 0) == 0) {
        out[req] = Canonical(line);
        landed = true;
      } else {
        // ERR busy / brownout / overloaded / deadline: back off, retry.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    verdict.Check(landed, std::string(phase) + ": request '" + req +
                              "' never landed an OK response");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot-directory chaos: corrupt the manifest in place, restore from the
// pristine copy (also covers the quarantined case where the live directory
// was renamed away entirely).
void CorruptManifest(const std::string& live_dir) {
  std::FILE* f = std::fopen((live_dir + "/manifest.laca").c_str(), "r+b");
  if (f == nullptr) return;  // already quarantined: nothing left to corrupt
  std::fwrite("CHAOSCHAOSCHAOS", 1, 15, f);
  std::fclose(f);
}

void RestorePristine(const std::string& pristine_dir,
                     const std::string& live_dir) {
  std::error_code ec;
  std::filesystem::remove_all(live_dir, ec);
  std::filesystem::copy(pristine_dir, live_dir,
                        std::filesystem::copy_options::recursive, ec);
}

// ===========================================================================

bool ParseArgs(int argc, char** argv, ChaosOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--seed") {
      opts.seed = laca::ParseU64(value).value_or(opts.seed);
    } else if (key == "--storm-ms") {
      const uint64_t ms = laca::ParseU64(value).value_or(0);
      opts.storm_ms = ms > 600000 ? 600000 : static_cast<int>(ms);
      if (opts.storm_ms < 500) opts.storm_ms = 500;
    } else if (key == "--serve") {
      opts.serve_bin = value;
    } else if (key == "--report") {
      opts.report_path = value;
    } else {
      std::fprintf(stderr, "laca_chaos: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (opts.serve_bin.empty()) {
    // Default: the laca_serve that was built next to this binary.
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n > 0) {
      self[n] = '\0';
      opts.serve_bin =
          (std::filesystem::path(self).parent_path() / "laca_serve").string();
    }
  }
  return !opts.serve_bin.empty();
}

int RunChaos(const ChaosOptions& opts) {
  Verdict verdict;

  // -- Setup: a real snapshot directory (and a pristine copy to restore
  // from), built from the registry stand-in dataset.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("laca_chaos." + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string live_dir = (root / "live").string();
  const std::string pristine_dir = (root / "pristine").string();
  {
    const Dataset& ds = GetDataset("cora-sim");
    TnamOptions topts;
    topts.k = 32;
    Tnam tnam = Tnam::Build(ds.data.attributes, topts);
    std::vector<PreparedTnam> tnams;
    tnams.push_back(
        PreparedTnam{static_cast<int>(tnam.dim()), std::move(tnam)});
    std::shared_ptr<const DatasetSnapshot> snap =
        ds.snapshot->WithTnams(std::move(tnams), /*version=*/1);
    SaveSnapshot(*snap, live_dir);
    std::filesystem::copy(live_dir, pristine_dir,
                          std::filesystem::copy_options::recursive);
  }
  const uint32_t num_nodes = GetDataset("cora-sim").num_nodes();

  // -- Launch the server with every hardening knob engaged and its own
  // fault injector armed (seeded from ours, so runs replay).
  ServerProcess server;
  {
    std::vector<std::string> argv = {
        opts.serve_bin,
        "--snapshot-dir=" + live_dir,
        "--port=0",
        "--workers=2",
        "--threads=4",
        "--queue=64",
        "--max-connections=16",
        "--max-line=4096",
        "--read-timeout=500",
        "--write-timeout=400",
        "--default-timeout=2000",
        "--brownout=0.7,0.2",
        "--reload-retry=60,250,6",
        "--fault-inject=accept_fail=p0.02,send_stall=p0.02,"
        "session_kill=p0.01,snapshot_read=p0.2,stall_ms=20,seed=" +
            std::to_string(opts.seed)};
    if (!server.Start(argv)) {
      verdict.Fail("setup: could not spawn " + opts.serve_bin);
      return 1;
    }
  }
  const int port = server.WaitListening(30000);
  if (port <= 0) {
    verdict.Fail("setup: server never announced its port");
    return 1;
  }
  std::fprintf(stderr, "laca_chaos: server pid %d on port %d (seed %llu)\n",
               static_cast<int>(server.pid()), port,
               static_cast<unsigned long long>(opts.seed));

  // -- Phase 1: baseline sweep.
  std::vector<std::string> sweep_requests;
  {
    std::mt19937_64 rng(opts.seed);
    for (int i = 0; i < 10; ++i) {
      const uint32_t seed_node = static_cast<uint32_t>(rng() % num_nodes);
      const uint32_t size = 4 + static_cast<uint32_t>(rng() % 28);
      sweep_requests.push_back(std::to_string(seed_node) + " " +
                               std::to_string(size));
    }
  }
  const std::map<std::string, std::string> baseline =
      Sweep(port, sweep_requests, verdict, "baseline");
  verdict.Bump("baseline_landed", static_cast<long long>(baseline.size()));

  // -- Phase 2: the storm.
  {
    const SteadyClock::time_point storm_end =
        SteadyClock::now() + std::chrono::milliseconds(opts.storm_ms);
    std::atomic<bool> storm_over{false};
    std::vector<std::thread> actors;

    // A fixed seed-derived hot set: good clients revisit it with fixed
    // sizes, so the result cache and single-flight coalescing paths (the
    // server runs its two-tier default) are exercised under hostile
    // traffic and across the reload storm's version sweeps — not just in
    // the quiet recovery probe below.
    std::vector<uint32_t> hot_nodes;
    {
      std::mt19937_64 rng(opts.seed * 5000);
      for (int i = 0; i < 8; ++i) {
        hot_nodes.push_back(static_cast<uint32_t>(rng() % num_nodes));
      }
    }

    // Good clients: lockstep request/response, reconnect on any drop.
    for (int c = 0; c < 3; ++c) {
      actors.emplace_back([&, c] {
        std::mt19937_64 rng(opts.seed * 1000 + c);
        LineClient client;
        while (SteadyClock::now() < storm_end) {
          if (!client.connected() && !client.Connect(port)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            continue;
          }
          std::string req;
          if (rng() % 4 == 0) {
            req = std::to_string(hot_nodes[rng() % hot_nodes.size()]) + " 12";
          } else {
            req = std::to_string(rng() % num_nodes) + " " +
                  std::to_string(4 + rng() % 28);
          }
          if (rng() % 16 == 0) req = (rng() % 2 == 0) ? "stats" : "health";
          if (!client.Send(req + "\n")) continue;
          std::string line;
          switch (client.ReadLine(&line, 3000)) {
            case LineClient::Rx::kLine:
              if (line.rfind("OK ", 0) == 0 ||
                  line.rfind("STATS ", 0) == 0 ||
                  line.rfind("HEALTH ", 0) == 0) {
                verdict.Bump("storm_ok");
              } else if (line.rfind("ERR ", 0) == 0) {
                verdict.Bump("storm_err");
              } else {
                verdict.Fail("storm: malformed response line: " + line);
              }
              break;
            case LineClient::Rx::kEof:
              verdict.Bump("storm_dropped_conns");
              client.Close();
              break;
            case LineClient::Rx::kTimeout:
              verdict.Bump("storm_read_timeouts");
              client.Close();
              break;
          }
        }
      });
    }

    // Slow-loris: a line that never finishes. The server must reclaim the
    // session within its read deadline, every time.
    for (int c = 0; c < 2; ++c) {
      actors.emplace_back([&, c] {
        std::mt19937_64 rng(opts.seed * 2000 + c);
        while (SteadyClock::now() < storm_end) {
          LineClient loris;
          if (!loris.Connect(port)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            continue;
          }
          loris.Send("13 ");  // first bytes, then silence
          const SteadyClock::time_point t0 = SteadyClock::now();
          std::string line;
          LineClient::Rx rx = loris.ReadLine(&line, 5000);
          while (rx == LineClient::Rx::kLine) {
            rx = loris.ReadLine(&line, 5000);  // drain until close
          }
          const double held_ms =
              std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                        t0)
                  .count();
          if (rx == LineClient::Rx::kEof) {
            verdict.Bump("loris_reclaimed");
            // --read-timeout=500; generous slack for sanitizer builds.
            verdict.Check(held_ms < 4500.0,
                          "storm: slow-loris session held for " +
                              std::to_string(held_ms) + "ms");
          } else {
            verdict.Fail("storm: slow-loris session never closed");
          }
          std::this_thread::sleep_for(
              std::chrono::milliseconds(20 + rng() % 60));
        }
      });
    }

    // Oversized frames: must be answered with a tagged invalid ERR, then
    // the connection closed.
    actors.emplace_back([&] {
      const std::string bomb(8192, 'x');
      while (SteadyClock::now() < storm_end) {
        LineClient client;
        if (!client.Connect(port)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        client.Send(bomb);
        std::string line;
        if (client.ReadLine(&line, 5000) == LineClient::Rx::kLine &&
            line.find("code=invalid") != std::string::npos &&
            line.find("exceeds") != std::string::npos) {
          verdict.Bump("oversized_rejected");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
      }
    });

    // Torn frames and mid-request disconnects: send, vanish. The server
    // must neither leak the session nor lose admitted work (checked
    // globally via admitted == completed after the storm).
    actors.emplace_back([&] {
      std::mt19937_64 rng(opts.seed * 3000);
      while (SteadyClock::now() < storm_end) {
        LineClient client;
        if (client.Connect(port)) {
          if (rng() % 2 == 0) {
            client.Send("21");  // torn mid-token
          } else {
            client.Send(std::to_string(rng() % num_nodes) + " 8\n");
            verdict.Bump("vanished_after_request");
          }
          client.Close();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(15));
      }
    });

    // A reader that never drains: pipeline requests, read nothing. The
    // write-stall budget must end the session, bounded.
    actors.emplace_back([&] {
      while (SteadyClock::now() < storm_end) {
        LineClient client;
        if (!client.Connect(port)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          continue;
        }
        for (int i = 0; i < 32; ++i) client.Send("5 24\n");
        // Do not read; just wait out a bounded slice of the storm.
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
        verdict.Bump("stalled_reader_rounds");
        client.Close();
      }
    });

    // Reload storm with disk chaos: corrupt the manifest mid-flight, let
    // the server quarantine it, restore, and watch the retry succeed.
    actors.emplace_back([&] {
      LineClient client;
      for (int cycle = 0; cycle < 6 && SteadyClock::now() < storm_end;
           ++cycle) {
        if (!client.connected() && !client.Connect(port)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          continue;
        }
        const bool corrupt = cycle == 1 || cycle == 3;
        if (corrupt) CorruptManifest(live_dir);
        if (!client.Send("reload\n")) continue;
        if (corrupt) {
          // Give the loader time to condemn + quarantine the bytes, then
          // drop a valid directory back in place for the retries to find.
          std::this_thread::sleep_for(std::chrono::milliseconds(250));
          RestorePristine(pristine_dir, live_dir);
          verdict.Bump("corruption_cycles");
        }
        std::string line;
        switch (client.ReadLine(&line, 15000)) {
          case LineClient::Rx::kLine:
            verdict.Bump(line.rfind("OK ", 0) == 0 ? "reload_ok"
                                                   : "reload_err");
            break;
          case LineClient::Rx::kEof:
            client.Close();  // session_kill ate the session; reconnect
            break;
          case LineClient::Rx::kTimeout:
            verdict.Fail("storm: reload response never arrived");
            client.Close();
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });

    // Thread-count sampler: sessions must be reclaimed, not accumulated.
    std::thread sampler([&] {
      while (!storm_over.load()) {
        verdict.Max("max_server_threads", server.Threads());
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });

    for (std::thread& t : actors) t.join();
    storm_over.store(true);
    sampler.join();

    // 16 sessions x 2 threads (reader + writer) + 2 workers +
    // accept/reload/main + the TNAM build pool, about 41 at worst: a leak
    // under the reconnect-heavy storm would blow far past this.
    verdict.Check(verdict.Count("max_server_threads") <= 48,
                  "storm: server thread count exceeded its bound: " +
                      std::to_string(verdict.Count("max_server_threads")));
    verdict.Check(verdict.Count("loris_reclaimed") > 0,
                  "storm: no slow-loris session was ever reclaimed");
    verdict.Check(verdict.Count("oversized_rejected") > 0,
                  "storm: no oversized frame was ever rejected");
    verdict.Check(verdict.Count("storm_ok") > 0,
                  "storm: good clients never landed a response");
  }

  // -- Phase 3: recovery.
  RestorePristine(pristine_dir, live_dir);  // whatever chaos left behind
  {
    LineClient control;
    // A reload must succeed now that the directory is healthy again.
    bool reloaded = false;
    for (int attempt = 0; attempt < 10 && !reloaded; ++attempt) {
      if (!control.connected() && !control.Connect(port)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (!control.Send("reload\n")) continue;
      std::string line;
      if (control.ReadLine(&line, 15000) == LineClient::Rx::kLine) {
        if (line.rfind("OK ", 0) == 0) reloaded = true;
      } else {
        control.Close();
      }
    }
    verdict.Check(reloaded, "recovery: reload never succeeded");

    // Quiesce: admitted work drains to zero in-flight, zero queued.
    bool quiesced = false;
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::seconds(15);
    uint64_t admitted = 0;
    uint64_t completed = 0;
    while (!quiesced && SteadyClock::now() < deadline) {
      if (!control.connected() && !control.Connect(port)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (!control.Send("stats\n")) continue;
      std::string line;
      if (control.ReadLine(&line, 5000) != LineClient::Rx::kLine) {
        control.Close();
        continue;
      }
      const std::optional<uint64_t> in_flight = TokenU64(line, "in_flight=");
      const std::optional<uint64_t> queued = TokenU64(line, "queue=");
      admitted = TokenU64(line, "admitted=").value_or(0);
      completed = TokenU64(line, "completed=").value_or(0);
      if (in_flight && queued && *in_flight == 0 && *queued == 0 &&
          admitted == completed) {
        quiesced = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    // THE robustness invariant: every admitted request completed. A lost
    // one would leave admitted > completed forever.
    verdict.Check(quiesced, "recovery: admitted=" + std::to_string(admitted) +
                                " never converged with completed=" +
                                std::to_string(completed));
    verdict.Bump("admitted_total", static_cast<long long>(admitted));

    // Result cache: one identity served twice back to back (the reload
    // storm is over, so no version sweep can intervene) — the second
    // serving must land from the cache, visible as a cache_hits increase
    // in the stats line, and both responses must be bit-identical.
    {
      uint64_t hits_before = 0;
      bool read_before = false;
      for (int attempt = 0; attempt < 10 && !read_before; ++attempt) {
        if (!control.connected() && !control.Connect(port)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          continue;
        }
        if (!control.Send("stats\n")) continue;
        std::string line;
        if (control.ReadLine(&line, 5000) == LineClient::Rx::kLine) {
          const std::optional<uint64_t> hits = TokenU64(line, "cache_hits=");
          if (hits) {
            hits_before = *hits;
            read_before = true;
          }
        } else {
          control.Close();
        }
      }
      verdict.Check(read_before,
                    "recovery: stats line never carried cache_hits=");
      const std::string probe =
          std::to_string(static_cast<uint32_t>(opts.seed % num_nodes)) + " 12";
      const std::map<std::string, std::string> first =
          Sweep(port, {probe}, verdict, "cache-probe-cold");
      const std::map<std::string, std::string> second =
          Sweep(port, {probe}, verdict, "cache-probe-hit");
      if (first.count(probe) != 0 && second.count(probe) != 0) {
        verdict.Check(first.at(probe) == second.at(probe),
                      "recovery: cached response drifted for '" + probe +
                          "': '" + first.at(probe) + "' vs '" +
                          second.at(probe) + "'");
      }
      uint64_t hits_after = hits_before;
      bool read_after = false;
      for (int attempt = 0; attempt < 10 && !read_after; ++attempt) {
        if (!control.connected() && !control.Connect(port)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          continue;
        }
        if (!control.Send("stats\n")) continue;
        std::string line;
        if (control.ReadLine(&line, 5000) == LineClient::Rx::kLine) {
          const std::optional<uint64_t> hits = TokenU64(line, "cache_hits=");
          if (hits) {
            hits_after = *hits;
            read_after = true;
          }
        } else {
          control.Close();
        }
      }
      verdict.Check(read_after && hits_after > hits_before,
                    "recovery: repeated request never landed a cache hit "
                    "(hits " + std::to_string(hits_before) + " -> " +
                        std::to_string(hits_after) + ")");
      verdict.Bump("cache_hits_delta",
                   static_cast<long long>(hits_after - hits_before));
    }

    // Health: the failure window must be over; the quarantine evidence is
    // sticky by design and must still be named.
    if (control.connected() || control.Connect(port)) {
      control.Send("health\n");
      std::string line;
      if (control.ReadLine(&line, 5000) == LineClient::Rx::kLine) {
        verdict.Check(line.find("reload_failing") == std::string::npos,
                      "recovery: health still says reload_failing: " + line);
        verdict.Check(line.find("queue_full") == std::string::npos,
                      "recovery: health still says queue_full: " + line);
        if (verdict.Count("corruption_cycles") > 0) {
          verdict.Check(line.find("quarantined=") != std::string::npos,
                        "recovery: quarantine evidence missing from health: " +
                            line);
        }
      }
    }
  }

  // Bit-identical responses after all of it.
  const std::map<std::string, std::string> after =
      Sweep(port, sweep_requests, verdict, "recovery");
  for (const auto& [req, canon] : baseline) {
    const auto it = after.find(req);
    if (it == after.end()) continue;  // already failed in Sweep
    verdict.Check(it->second == canon,
                  "recovery: response drifted for '" + req + "': '" + canon +
                      "' vs '" + it->second + "'");
  }

  // -- Phase 4: SIGTERM mid-burst.
  {
    std::vector<std::thread> burst;
    for (int c = 0; c < 2; ++c) {
      burst.emplace_back([&, c] {
        std::mt19937_64 rng(opts.seed * 4000 + c);
        LineClient client;
        if (!client.Connect(port)) return;
        for (;;) {
          if (!client.Send(std::to_string(rng() % num_nodes) + " 8\n")) {
            break;
          }
          std::string line;
          const LineClient::Rx rx = client.ReadLine(&line, 5000);
          if (rx != LineClient::Rx::kLine) break;  // drained and closed
          if (line.rfind("OK ", 0) == 0 || line.rfind("ERR ", 0) == 0) {
            verdict.Bump("sigterm_responses");
          } else {
            verdict.Fail("sigterm: malformed response: " + line);
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.Signal(SIGTERM);
    for (std::thread& t : burst) t.join();
    const std::optional<int> status = server.WaitExit(20000);
    verdict.Check(status.has_value(), "sigterm: server had to be SIGKILLed");
    if (status) {
      verdict.Check(WIFEXITED(*status) && WEXITSTATUS(*status) == 0,
                    "sigterm: server exit status was not 0");
    }
    verdict.Check(server.StderrContains("draining sessions"),
                  "sigterm: no drain announcement on stderr");
    verdict.Check(server.StderrContains("done — STATS"),
                  "sigterm: no final stats line on stderr");
    verdict.Check(verdict.Count("sigterm_responses") > 0,
                  "sigterm: burst clients never saw a response");
  }

  std::filesystem::remove_all(root);

  // -- Report.
  const std::vector<std::string> failures = verdict.failures();
  {
    std::ostringstream json;
    json << "{\n  \"seed\": " << opts.seed << ",\n  \"storm_ms\": "
         << opts.storm_ms << ",\n  \"pass\": "
         << (failures.empty() ? "true" : "false") << ",\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : verdict.counters()) {
      json << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
      first = false;
    }
    json << "\n  },\n  \"failures\": [";
    first = true;
    for (const std::string& f : failures) {
      json << (first ? "" : ",") << "\n    \"" << JsonEscape(f) << "\"";
      first = false;
    }
    json << "\n  ]\n}\n";
    if (!opts.report_path.empty()) {
      std::ofstream out(opts.report_path);
      out << json.str();
    }
    std::fputs(json.str().c_str(), stdout);
  }
  std::fprintf(stderr, "laca_chaos: %s (%zu failures)\n",
               failures.empty() ? "PASS" : "FAIL", failures.size());
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  ChaosOptions opts;
  if (!ParseArgs(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: %s [--seed=N] [--storm-ms=MS] [--serve=PATH] "
                 "[--report=PATH]\n",
                 argv[0]);
    return 2;
  }
  return RunChaos(opts);
}

#else  // !__unix__

int main() {
  std::fprintf(stderr, "laca_chaos requires a POSIX platform\n");
  return 2;
}

#endif
