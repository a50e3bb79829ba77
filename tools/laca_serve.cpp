// laca_serve — long-lived LACA clustering server (DESIGN.md §7, §8, §11).
//
// Assembles one immutable DatasetSnapshot (graph + attributes + prepared
// TNAMs, data/dataset_snapshot.hpp) at startup and serves line-delimited
// clustering requests (see src/server/protocol.hpp for the grammar) over
// stdin/stdout or a loopback TCP socket, on a warm ServingEngine worker
// fleet with bounded-queue admission control. A `reload` request rebuilds
// the snapshot in the background — re-reading the snapshot directory or
// re-running the TNAM preprocessing — and swaps it in atomically while old
// requests finish on the version they were admitted under; failed rebuilds
// retry with decorrelated-jitter backoff, and a snapshot directory that
// fails validation is quarantined aside (server/reload_manager.hpp).
// Requests carry optional deadlines (timeout_ms=, or the server-wide
// --default-timeout) anchored at admission: expired queued requests are
// shed without compute, and a request caught mid-compute is cooperatively
// cancelled within one poll interval. A `health` line reports ok/degraded
// with machine-readable reasons (queue_full, brownout, reload_failing,
// quarantined=<dir>).
//
// Hostile-client hardening (src/server/session.hpp): request lines are
// byte-bounded, a line must arrive within --read-timeout of its first byte
// (slow-loris), responses must drain within --write-timeout (stalled
// reader), and connections beyond --max-connections are turned away at
// accept with `ERR busy retry_after_ms=<hint>`. SIGTERM/SIGINT drain
// gracefully: stop accepting, finish in-flight requests, emit final stats,
// exit 0.
//
// Usage:
//   laca_serve --gen=<dataset-name>            serve a registry stand-in
//   laca_serve --edges=<path> [--attrs=<path>] serve your own data
//   laca_serve --snapshot-dir=<dir>            serve a snapshot directory
//                                              (manifest + components; see
//                                              src/data/snapshot_io.hpp)
//
//   --workers=N      across-request worker fleet (default: thread budget)
//   --threads=N      thread budget capping the worker fleet; each worker
//                    answers one request at a time (default: hardware)
//   --queue=N        admission queue depth; beyond it requests are rejected
//                    with ERR code=overloaded (default 1024)
//   --k=K[,K2,...]   TNAM dimensions to prepare; requests select one with
//                    k=K (default 32; ignored without attributes, with
//                    --tnam, or when the snapshot directory already
//                    carries TNAMs)
//   --tnam=P[,P2..]  serve prebuilt TNAM file(s) (attr/tnam_io.hpp) instead
//                    of building; each is validated against the graph's
//                    node count at load and keyed by its dimension.
//                    Overrides any TNAMs a --snapshot-dir carries
//   --alpha=A        default restart factor (default 0.8)
//   --eps=E          default diffusion threshold (default 1e-6)
//   --default-timeout=MS  server-wide request budget in milliseconds,
//                    anchored at admission (0 = none, the default); a
//                    request's timeout_ms= overrides it, timeout_ms=0
//                    opts out entirely
//   --brownout=ENTER[,EXIT]  proactive shedding: when served p99 or the
//                    projected queue wait crosses ENTER x the default
//                    timeout budget, admissions are shed with a
//                    retry_after_ms hint until load falls below EXIT x the
//                    budget (default EXIT = ENTER/4; requires
//                    --default-timeout > 0; 0 = off, the default)
//   --reload-retry=BASE,CAP[,N]  retry failed reloads up to N times
//                    (default 8) with decorrelated-jitter backoff between
//                    BASE and CAP milliseconds (default 200,5000);
//                    --reload-retry=0 disables retries (single attempt)
//   --max-connections=N  concurrent TCP sessions; beyond it connections
//                    get `ERR busy retry_after_ms=<hint>` and are closed
//                    at accept (default 1024; 0 = unlimited)
//   --max-line=B     request-line byte bound; an overlong line gets a
//                    tagged ERR and the session closes (default 1048576)
//   --read-timeout=MS   full budget for one request line from its first
//                    byte; expiry closes the session (default 10000; 0=off)
//   --idle-timeout=MS   budget for the next request's first byte
//                    (default 0 = wait forever)
//   --write-timeout=MS  budget for the peer to drain each write (one
//                    response, or a run of already-resolved responses
//                    sent together); expiry closes the session (default
//                    10000; 0 = wait forever)
//   --cache=MODE     versioned result cache + single-flight coalescing
//                    (DESIGN.md §13): `off`, `full` (final clusters only),
//                    or `two-tier` (clusters + reusable Step-1 diffusion
//                    vectors; the default). Hits are bit-identical to cold
//                    computation and keyed on the canonical request tuple
//                    including the snapshot version, so a reload never
//                    serves stale results
//   --cache-bytes=B  resident byte budget across both tiers, LRU-evicted
//                    (default 67108864 = 64 MiB)
//   --cache-shards=N lock shards per tier (default 8)
//   --fault-inject=SPEC   arm the deterministic fault injector (testing/CI;
//                    see src/common/fault_injection.hpp for the grammar,
//                    e.g. snapshot_read=2 fails the first reload's read,
//                    worker_stall,stall_ms=200 stalls every claim)
//   --port=P         serve on 127.0.0.1:P instead of stdin/stdout; P=0
//                    binds an ephemeral port (announced on stderr)
//   --stats-every=S  periodic STATS line to stderr every S seconds (0 = off,
//                    the default; `stats` on any session works regardless)
//
// stdin mode exits after EOF (drain) or a `shutdown` line; responses are
// written in request order, tagged id=<request number> (1-based, counting
// request lines only — blank/'#' lines consume no id).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "attr/tnam.hpp"
#include "attr/tnam_io.hpp"
#include "common/annotations.hpp"
#include "common/fault_injection.hpp"
#include "common/mutex.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "data/dataset_snapshot.hpp"
#include "data/snapshot_io.hpp"
#include "eval/datasets.hpp"
#include "graph/io.hpp"
#include "server/protocol.hpp"
#include "server/reload_manager.hpp"
#include "server/serving_engine.hpp"
#include "server/session.hpp"

namespace {

using namespace laca;

// Latched by SIGTERM/SIGINT (installed without SA_RESTART, so blocked
// accepts and reads wake with EINTR); every poll loop checks it within one
// tick. The graceful-drain entry point.
std::atomic<bool> g_stop{false};

extern "C" void HandleStopSignal(int) { g_stop.store(true); }

struct ServeCliOptions {
  std::string gen_name;
  std::string edges_path;
  std::string attrs_path;
  std::string snapshot_dir;
  std::vector<int> ks = {32};
  std::vector<std::string> tnam_paths;
  ServingOptions serving;
  ReloadManagerOptions reload;
  ServeCliOptions() {
    // The engine's own default is kOff (library callers opt in); the binary
    // serves repeated interactive traffic, where the cache is the point.
    serving.cache.mode = CacheMode::kTwoTier;
  }
  std::string fault_spec;
  size_t max_connections = 1024;
  size_t max_line_bytes = 1 << 20;
  double read_timeout_ms = 10000.0;
  double idle_timeout_ms = 0.0;
  double write_timeout_ms = 10000.0;
  int port = -1;
  double stats_every = 0.0;
};

bool FailFlag(const std::string& arg, const char* why) {
  std::fprintf(stderr, "laca_serve: bad flag %s (%s)\n", arg.c_str(), why);
  return false;
}

// Splits "a,b,c" into its comma-separated fields (empty fields included, so
// callers can reject them with the offending flag).
std::vector<std::string> SplitCommas(const std::string& value) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= value.size()) {
    size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    out.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool ParseArgs(int argc, char** argv, ServeCliOptions& opts) {
  bool brownout_exit_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos ||
        eq + 1 >= arg.size()) {
      return FailFlag(arg, "want --key=value");
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    auto u64 = [&](size_t* out) {
      std::optional<uint64_t> v = ParseU64(value);
      if (!v) return false;
      *out = static_cast<size_t>(*v);
      return true;
    };
    auto ms = [&](double* out) {
      std::optional<double> v = ParseF64(value);
      if (!v || *v < 0.0) return false;
      *out = *v;
      return true;
    };
    if (key == "--gen") {
      opts.gen_name = value;
    } else if (key == "--edges") {
      opts.edges_path = value;
    } else if (key == "--attrs") {
      opts.attrs_path = value;
    } else if (key == "--snapshot-dir") {
      opts.snapshot_dir = value;
    } else if (key == "--workers") {
      if (!u64(&opts.serving.num_workers)) return FailFlag(arg, "bad count");
    } else if (key == "--threads") {
      if (!u64(&opts.serving.num_threads)) return FailFlag(arg, "bad count");
    } else if (key == "--queue") {
      if (!u64(&opts.serving.max_queue_depth) ||
          opts.serving.max_queue_depth == 0) {
        return FailFlag(arg, "bad depth");
      }
    } else if (key == "--k") {
      opts.ks.clear();
      for (const std::string& field : SplitCommas(value)) {
        std::optional<uint64_t> k = ParseU64(field);
        if (!k || *k == 0 || *k > 4096) return FailFlag(arg, "bad k");
        opts.ks.push_back(static_cast<int>(*k));
      }
    } else if (key == "--tnam") {
      for (std::string& field : SplitCommas(value)) {
        if (field.empty()) return FailFlag(arg, "empty path");
        opts.tnam_paths.push_back(std::move(field));
      }
    } else if (key == "--alpha") {
      std::optional<double> v = ParseF64(value);
      if (!v || *v < 0.0 || *v >= 1.0) return FailFlag(arg, "alpha in [0,1)");
      opts.serving.defaults.alpha = *v;
    } else if (key == "--eps") {
      std::optional<double> v = ParseF64(value);
      if (!v || *v <= 0.0) return FailFlag(arg, "eps > 0");
      opts.serving.defaults.epsilon = *v;
    } else if (key == "--default-timeout") {
      if (!ms(&opts.serving.default_timeout_ms)) {
        return FailFlag(arg, "milliseconds >= 0");
      }
    } else if (key == "--brownout") {
      const std::vector<std::string> fields = SplitCommas(value);
      if (fields.size() > 2) return FailFlag(arg, "want ENTER[,EXIT]");
      std::optional<double> enter = ParseF64(fields[0]);
      if (!enter || *enter < 0.0) return FailFlag(arg, "bad ENTER fraction");
      opts.serving.brownout_enter_fraction = *enter;
      if (fields.size() == 2) {
        std::optional<double> exit_f = ParseF64(fields[1]);
        if (!exit_f || *exit_f < 0.0) return FailFlag(arg, "bad EXIT fraction");
        opts.serving.brownout_exit_fraction = *exit_f;
        brownout_exit_given = true;
      }
    } else if (key == "--reload-retry") {
      if (value == "0") {
        opts.reload.max_attempts = 1;  // single shot, no backoff waits
        continue;
      }
      const std::vector<std::string> fields = SplitCommas(value);
      if (fields.size() < 2 || fields.size() > 3) {
        return FailFlag(arg, "want BASE,CAP[,N] in ms, or 0");
      }
      std::optional<double> base = ParseF64(fields[0]);
      std::optional<double> cap = ParseF64(fields[1]);
      if (!base || !cap || *base <= 0.0 || *cap < *base) {
        return FailFlag(arg, "want 0 < BASE <= CAP");
      }
      opts.reload.backoff_base_seconds = *base / 1e3;
      opts.reload.backoff_cap_seconds = *cap / 1e3;
      if (fields.size() == 3) {
        std::optional<uint64_t> n = ParseU64(fields[2]);
        if (!n || *n == 0 || *n > 1000) return FailFlag(arg, "bad N");
        opts.reload.max_attempts = static_cast<int>(*n);
      }
    } else if (key == "--max-connections") {
      if (!u64(&opts.max_connections)) return FailFlag(arg, "bad count");
    } else if (key == "--max-line") {
      if (!u64(&opts.max_line_bytes) || opts.max_line_bytes < 16) {
        return FailFlag(arg, "bad byte bound (min 16)");
      }
    } else if (key == "--read-timeout") {
      if (!ms(&opts.read_timeout_ms)) return FailFlag(arg, "bad milliseconds");
    } else if (key == "--idle-timeout") {
      if (!ms(&opts.idle_timeout_ms)) return FailFlag(arg, "bad milliseconds");
    } else if (key == "--write-timeout") {
      if (!ms(&opts.write_timeout_ms)) return FailFlag(arg, "bad milliseconds");
    } else if (key == "--cache") {
      if (!ParseCacheMode(value, &opts.serving.cache.mode)) {
        return FailFlag(arg, "want off|full|two-tier");
      }
    } else if (key == "--cache-bytes") {
      std::optional<uint64_t> v = ParseU64(value);
      if (!v) return FailFlag(arg, "bad byte budget");
      opts.serving.cache.max_bytes = *v;
    } else if (key == "--cache-shards") {
      std::optional<uint64_t> v = ParseU64(value);
      if (!v || *v == 0 || *v > 4096) return FailFlag(arg, "bad shard count");
      opts.serving.cache.shards = static_cast<size_t>(*v);
    } else if (key == "--fault-inject") {
      opts.fault_spec = value;  // parsed in main so errors name the token
    } else if (key == "--port") {
      std::optional<uint64_t> v = ParseU64(value);
      if (!v || *v > 65535) return FailFlag(arg, "bad port");
      opts.port = static_cast<int>(*v);  // 0 = ephemeral, announced
    } else if (key == "--stats-every") {
      std::optional<double> v = ParseF64(value);
      if (!v || *v < 0.0) return FailFlag(arg, "bad interval");
      opts.stats_every = *v;
    } else {
      return FailFlag(arg, "unknown flag");
    }
  }
  if (opts.serving.brownout_enter_fraction > 0.0 && !brownout_exit_given) {
    // A usable hysteresis gap by default: recover well below the entry
    // threshold so the shed/recover boundary cannot flap.
    opts.serving.brownout_exit_fraction =
        opts.serving.brownout_enter_fraction * 0.25;
  }
  const int sources = (!opts.gen_name.empty() ? 1 : 0) +
                      (!opts.edges_path.empty() ? 1 : 0) +
                      (!opts.snapshot_dir.empty() ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr,
                 "laca_serve: pass exactly one of --gen=<name>, "
                 "--edges=<path>, or --snapshot-dir=<dir>\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Snapshot assembly: one code path builds the initial version and every
// `reload` rebuild, so the two can never drift.

// Builds the prepared-TNAM set for a graph+attribute pair: from --tnam files
// when given (each validated against the node count, keyed by dimension),
// else from the attributes for every --k dimension. Empty when the data has
// no attributes (topology-only serving).
std::vector<PreparedTnam> BuildTnams(const AttributeMatrix& attrs, NodeId n,
                                     const ServeCliOptions& cli) {
  std::vector<PreparedTnam> out;
  if (!cli.tnam_paths.empty()) {
    for (const std::string& path : cli.tnam_paths) {
      Tnam tnam = LoadTnamBinary(path, n);  // rejects row/graph mismatch
      const int k = static_cast<int>(tnam.dim());
      std::fprintf(stderr, "laca_serve: TNAM k=%d loaded from %s\n", k,
                   path.c_str());
      out.push_back(PreparedTnam{k, std::move(tnam)});
    }
    return out;
  }
  if (attrs.num_cols() == 0) return out;
  for (int k : cli.ks) {
    TnamOptions topts;
    topts.k = k;
    Timer timer;
    out.push_back(PreparedTnam{k, Tnam::Build(attrs, topts)});
    std::fprintf(stderr, "laca_serve: TNAM k=%d built in %.2fs\n", k,
                 timer.ElapsedSeconds());
  }
  return out;
}

// Builds snapshot versions from the configured source, for startup and for
// `reload` requests. Rebuilds are serialized across sessions; the publish
// itself is the engine's atomic swap.
class SnapshotSource {
 public:
  explicit SnapshotSource(const ServeCliOptions& cli) : cli_(cli) {}

  /// The startup snapshot (version from the manifest for --snapshot-dir,
  /// 1 otherwise). Throws std::invalid_argument on load/validation errors.
  std::shared_ptr<const DatasetSnapshot> Initial() {
    if (!cli_.snapshot_dir.empty()) return FromDirectory(/*min_version=*/0);
    if (!cli_.edges_path.empty()) return FromEdges(/*version=*/1);
    const Dataset& ds = GetDataset(cli_.gen_name);
    return ds.snapshot->WithTnams(
        BuildTnams(ds.data.attributes, ds.num_nodes(), cli_),
        ds.snapshot->version());
  }

  /// One rebuild attempt: builds the next version by re-running the whole
  /// load path — re-reading the snapshot directory or the
  /// --edges/--attrs/--tnam files (so data edited on disk is actually
  /// picked up), or re-running the TNAM preprocessing for the in-memory
  /// --gen data — and swaps it into the engine. Returns the new version.
  /// Throws on any load/validation failure, in which case the engine keeps
  /// serving the old version (the ReloadManager decides retry/quarantine).
  uint64_t Rebuild(ServingEngine& engine) LACA_EXCLUDES(rebuild_mu_) {
    MutexLock lock(rebuild_mu_);
    const std::shared_ptr<const DatasetSnapshot> current = engine.snapshot();
    std::shared_ptr<const DatasetSnapshot> next;
    if (!cli_.snapshot_dir.empty()) {
      next = FromDirectory(/*min_version=*/current->version() + 1);
    } else if (!cli_.edges_path.empty()) {
      next = FromEdges(current->version() + 1);
    } else {
      // --gen data lives in the process-lifetime registry; only the TNAM
      // preprocessing can meaningfully refresh.
      next = current->WithTnams(
          BuildTnams(current->attributes(), current->graph().num_nodes(),
                     cli_),
          current->version() + 1);
    }
    engine.Reload(next);
    return next->version();
  }

 private:
  // Loads the snapshot directory; --tnam files override any TNAMs the
  // directory carries, which are otherwise reused as-is (TNAMs are built
  // only when neither provides them). `min_version` restamps a manifest
  // that has not advanced past the live version (a reload of an unchanged
  // directory still publishes a distinct, newer version).
  std::shared_ptr<const DatasetSnapshot> FromDirectory(uint64_t min_version) {
    SnapshotContents contents = ReadSnapshotDir(cli_.snapshot_dir);
    if (!cli_.tnam_paths.empty() || contents.tnams.empty()) {
      contents.tnams = BuildTnams(contents.data->attributes,
                                  contents.data->graph.num_nodes(), cli_);
    }
    if (contents.meta.version < min_version) {
      contents.meta.version = min_version;
    }
    if (contents.meta.source.empty()) {
      contents.meta.source = "dir:" + cli_.snapshot_dir;
    }
    return DatasetSnapshot::Create(std::move(contents.data),
                                   std::move(contents.tnams),
                                   std::move(contents.meta));
  }

  // (Re)reads the --edges/--attrs text files and the TNAM source. Create
  // cross-validates (attribute rows vs nodes, TNAM rows vs nodes) so
  // mismatched input files fail here, not at query time.
  std::shared_ptr<const DatasetSnapshot> FromEdges(uint64_t version) {
    AttributedGraph data;
    data.graph = LoadEdgeList(cli_.edges_path);
    if (!cli_.attrs_path.empty()) {
      data.attributes = LoadAttributes(cli_.attrs_path);
    }
    std::vector<PreparedTnam> tnams =
        BuildTnams(data.attributes, data.graph.num_nodes(), cli_);
    SnapshotMetadata meta;
    meta.name = cli_.edges_path;
    meta.version = version;
    meta.source = "edges:" + cli_.edges_path;
    return DatasetSnapshot::Create(std::move(data), std::move(tnams),
                                   std::move(meta));
  }

  const ServeCliOptions cli_;
  Mutex rebuild_mu_;
};

std::string StatsLineNow(ServingEngine& engine) {
  ServingStats s = engine.Stats();
  const double qps =
      s.uptime_seconds > 0.0 ? s.completed / s.uptime_seconds : 0.0;
  return FormatStatsLine(s, qps);
}

// Periodic STATS line on stderr (interruptible wait, so shutdown never
// stalls for a reporting interval). Stops and joins on destruction, so an
// exception unwinding the serving block never destroys a joinable thread
// (which would std::terminate).
class StatsReporter {
 public:
  StatsReporter(ServingEngine& engine, double every) {
    if (every <= 0.0) return;
    thread_ = std::thread([this, &engine, every] {
      uint64_t last_completed = 0;
      const auto interval = std::chrono::duration<double>(every);
      MutexLock lock(mu_);
      while (!stop_) {
        // One reporting interval: sleep until the deadline passes or Stop()
        // latches; spurious wakeups re-wait against the same deadline.
        const auto deadline = std::chrono::steady_clock::now() + interval;
        bool timed_out = false;
        while (!stop_ && !timed_out) timed_out = cv_.WaitUntil(mu_, deadline);
        if (stop_) break;
        ServingStats s = engine.Stats();
        const double qps = (s.completed - last_completed) / every;
        last_completed = s.completed;
        std::fprintf(stderr, "%s\n", FormatStatsLine(s, qps).c_str());
      }
    });
  }
  ~StatsReporter() { Stop(); }
  void Stop() LACA_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    if (thread_.joinable()) thread_.join();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool stop_ LACA_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

// Builds the session hooks shared by every session: stats/health rendering
// and the reload entry point. `active`/`max_connections` feed the conns=
// token (null active = stdio mode, token omitted via max_connections 0).
SessionHooks MakeHooks(ServingEngine& engine, ReloadManager& reloads,
                       const std::atomic<size_t>* active,
                       size_t max_connections) {
  SessionHooks hooks;
  hooks.stats_line = [&engine] { return StatsLineNow(engine); };
  hooks.health_line = [&engine, &reloads, active, max_connections] {
    HealthExtra extra;
    extra.active_connections = active != nullptr ? active->load() : 0;
    extra.max_connections = active != nullptr ? max_connections : 0;
    extra.reload_failing = reloads.failing();
    extra.quarantined_dir = reloads.last_quarantined();
    return FormatHealthLine(engine.Stats(), extra);
  };
  hooks.request_reload = [&reloads] { return reloads.Request(); };
  return hooks;
}

#ifdef __unix__
// Open connection fds, so a `shutdown` session can EOF every other
// session's reader (SHUT_RD only: their pending responses still flush).
struct ConnRegistry {
  Mutex mu;
  std::vector<int> fds LACA_GUARDED_BY(mu);
  void Add(int fd) LACA_EXCLUDES(mu) {
    MutexLock lock(mu);
    fds.push_back(fd);
  }
  void Remove(int fd) LACA_EXCLUDES(mu) {
    MutexLock lock(mu);
    fds.erase(std::remove(fds.begin(), fds.end(), fd), fds.end());
  }
  void ShutdownReads() LACA_EXCLUDES(mu) {
    MutexLock lock(mu);
    for (int fd : fds) ::shutdown(fd, SHUT_RD);
  }
};

// Accept-time shed: the connection never gets a session thread; it gets one
// polite line with a backoff hint and a close. Best-effort blocking write —
// the fd is fresh from accept, its send buffer is empty.
void ShedConnection(int fd, ServingEngine& engine) {
  const double est = engine.Stats().est_queue_wait_ms;
  char line[64];
  const int len =
      std::snprintf(line, sizeof(line), "ERR busy retry_after_ms=%.0f\n",
                    std::min(std::max(est, 100.0), 60000.0));
  const char* data = line;
  size_t remaining = static_cast<size_t>(len);
  while (remaining > 0) {
    const ssize_t n = ::write(fd, data, remaining);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data += n;
    remaining -= static_cast<size_t>(n);
  }
  ::close(fd);
}

int RunTcpServer(ServingEngine& engine, ReloadManager& reloads,
                 const ServeCliOptions& cli) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("laca_serve: socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(cli.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 16) < 0) {
    std::perror("laca_serve: bind/listen");
    ::close(listener);
    return 1;
  }
  // --port=0 binds an ephemeral port; announce whatever the kernel picked
  // so harnesses (and humans) can connect without a port-collision dance.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  int port = cli.port;
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port = ntohs(bound.sin_port);
  }
  SetNonBlocking(listener);
  std::fprintf(stderr, "laca_serve: listening on 127.0.0.1:%d\n", port);

  // Session threads are detached and counted, not collected: a long-lived
  // server must not retain a thread handle per connection ever served. The
  // accept loop is a poll tick, so both stop paths — a protocol `shutdown`
  // and SIGTERM/SIGINT — are noticed within one tick even if the signal
  // lands between poll and accept.
  std::atomic<bool> stop{false};
  std::atomic<size_t> active{0};
  Mutex done_mu;
  CondVar done_cv;
  ConnRegistry conns;
  const SessionHooks hooks =
      MakeHooks(engine, reloads, &active, cli.max_connections);
  const ReadDeadlines deadlines{cli.read_timeout_ms, cli.idle_timeout_ms};
  for (;;) {
    if (stop.load() || g_stop.load()) break;
    pollfd pfd{};
    pfd.fd = listener;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) {
      std::perror("laca_serve: poll");
      break;
    }
    if (pr <= 0) continue;  // tick (or EINTR): re-check the stop flags
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      // A long-lived server must survive transient accept failures: aborted
      // handshakes, raced wakeups, and fd exhaustion pass (the latter with
      // a breather so the loop does not spin while sessions close).
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      std::perror("laca_serve: accept");
      break;
    }
    if (std::shared_ptr<FaultInjector> fi = GlobalFaultInjector();
        fi != nullptr && fi->ShouldFire(FaultSite::kAcceptFail)) {
      ::close(fd);  // as if the handshake died under us
      continue;
    }
    if (cli.max_connections > 0 && active.load() >= cli.max_connections) {
      ShedConnection(fd, engine);  // polite ERR busy + close, no thread
      continue;
    }
    // Responses are small and written the moment they resolve; Nagle would
    // hold each one until the client's delayed ACK.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns.Add(fd);
    // A shutdown that raced this accept already ran ShutdownReads; make
    // sure this connection does not outlive it either way.
    if (stop.load()) ::shutdown(fd, SHUT_RD);
    active.fetch_add(1);
    auto session = [&engine, &hooks, &cli, &deadlines, &stop, &conns, &active,
                    &done_mu, &done_cv, fd] {
      SetNonBlocking(fd);
      FdLineReader in(fd, cli.max_line_bytes, deadlines, &g_stop);
      FdLineWriter out(fd, cli.write_timeout_ms);
      SessionResult result;
      try {
        result = RunSession(engine, hooks, in, out);
      } catch (const std::exception& e) {
        // The writer thread could not start, or a hook threw; RunSession
        // drained the session's admitted work first. Close this one
        // connection and keep serving the others.
        std::fprintf(stderr, "laca_serve: session failed: %s\n", e.what());
      } catch (...) {
        std::fprintf(stderr, "laca_serve: session failed\n");
      }
      // Deregister BEFORE the close releases the descriptor number: a new
      // connection could otherwise reuse it between close and Remove, and
      // Remove would deregister the new session's live socket.
      conns.Remove(fd);
      ::close(fd);
      if (result.end == SessionResult::End::kShutdown &&
          !stop.exchange(true)) {
        engine.Shutdown();      // drain admitted requests, reject new ones
        conns.ShutdownReads();  // EOF the other sessions' readers
      }
      {
        // Notify under the mutex: the accept thread destroys done_cv right
        // after its wait returns, so an unlocked notify could touch a dead
        // condition variable.
        MutexLock lock(done_mu);
        active.fetch_sub(1);
        done_cv.NotifyAll();
      }
    };
    try {
      std::thread(session).detach();
    } catch (const std::exception& e) {
      // Thread creation failed (EAGAIN under pid pressure): drop this
      // connection cleanly and keep serving the others.
      std::fprintf(stderr, "laca_serve: session spawn failed: %s\n", e.what());
      conns.Remove(fd);
      ::close(fd);
      active.fetch_sub(1);
    }
  }
  if (g_stop.load()) {
    std::fprintf(stderr, "laca_serve: stop signal — draining sessions\n");
  }
  {
    // Each session's reader notices g_stop within one tick (a protocol
    // shutdown already EOF'd them via ShutdownReads); its writer then sends
    // every admitted response before the session ends. Wait them out.
    MutexLock lock(done_mu);
    while (active.load() != 0) done_cv.Wait(done_mu);
  }
  ::close(listener);
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
#ifdef __unix__
  // A peer that disconnects mid-response must surface as a write error in
  // the session, never as a process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  // Graceful drain on SIGTERM/SIGINT. Deliberately no SA_RESTART: a signal
  // must interrupt blocked reads and polls so the drain starts within one
  // tick, not after the next client byte.
  struct sigaction sa {};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
#endif
  ServeCliOptions cli;
  if (!ParseArgs(argc, argv, cli)) {
    std::fprintf(stderr,
                 "usage: %s (--gen=<name> | --edges=<path> [--attrs=<path>] "
                 "| --snapshot-dir=<dir>) [--workers=] [--threads=] "
                 "[--queue=] [--k=] [--tnam=] [--alpha=] [--eps=] "
                 "[--default-timeout=] [--brownout=] [--reload-retry=] "
                 "[--cache=off|full|two-tier] [--cache-bytes=] "
                 "[--cache-shards=] "
                 "[--max-connections=] [--max-line=] [--read-timeout=] "
                 "[--idle-timeout=] [--write-timeout=] [--fault-inject=] "
                 "[--port=] [--stats-every=]\n",
                 argv[0]);
    return 2;
  }
  // Validate the fault spec up front (a typo should fail fast), but arm
  // the injector only after the initial snapshot is loaded: injected
  // faults model serving-time adversity (reload storms, stalled workers,
  // dying sessions), and a probabilistic snapshot_read fault must not be
  // able to kill a clean boot.
  std::shared_ptr<FaultInjector> injector;
  if (!cli.fault_spec.empty()) {
    try {
      injector = FaultInjector::FromSpec(cli.fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "laca_serve: %s\n", e.what());
      return 2;
    }
  }

  SnapshotSource source(cli);
  std::shared_ptr<const DatasetSnapshot> snapshot;
  try {
    snapshot = source.Initial();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "laca_serve: load error: %s\n", e.what());
    return 1;
  }
  if (injector) {
    // Same injector on both delivery paths: the engine's workers and the
    // process-global hook that snapshot I/O and the session/accept loops
    // consult.
    cli.serving.fault_injector = injector;
    SetGlobalFaultInjector(std::move(injector));
    std::fprintf(stderr, "laca_serve: fault injection armed: %s\n",
                 cli.fault_spec.c_str());
  }
  std::fprintf(stderr,
               "laca_serve: snapshot '%s' v%llu — n=%u m=%llu%s, %zu TNAM(s)\n",
               snapshot->name().c_str(),
               static_cast<unsigned long long>(snapshot->version()),
               snapshot->graph().num_nodes(),
               static_cast<unsigned long long>(snapshot->graph().num_edges()),
               snapshot->attributed() ? " (attributed)" : "",
               snapshot->tnams().size());

  try {
    ServingEngine engine(snapshot, cli.serving);
    snapshot.reset();  // the engine's store owns the lifetime from here
    std::fprintf(stderr, "laca_serve: %zu workers, queue depth %zu\n",
                 engine.num_workers(), cli.serving.max_queue_depth);

    // Reload tickets rebuild through the one SnapshotSource path; a
    // directory-backed source gets the quarantine hook (validation
    // failures move the corrupt directory aside; see reload_manager.hpp).
    ReloadManager reloads(
        cli.reload, [&source, &engine] { return source.Rebuild(engine); },
        cli.snapshot_dir.empty()
            ? ReloadManager::QuarantineFn()
            : [dir = cli.snapshot_dir] { return QuarantineSnapshotDir(dir); });

    // Declared after the engine and reload manager: destroyed (stopped and
    // joined) first, so it never reads a dead engine and never unwinds
    // while joinable.
    StatsReporter reporter(engine, cli.stats_every);

    int rc = 0;
    if (cli.port >= 0) {
#ifdef __unix__
      rc = RunTcpServer(engine, reloads, cli);
#else
      std::fprintf(stderr, "laca_serve: --port requires a POSIX platform\n");
      rc = 2;
#endif
    } else {
      const SessionHooks hooks = MakeHooks(engine, reloads, nullptr, 0);
      StdioLineReader in(stdin, cli.max_line_bytes, &g_stop);
      StdioLineWriter out(stdout);
      RunSession(engine, hooks, in, out);
    }

    reloads.Shutdown();  // before the engine: tickets publish through it
    engine.Shutdown();
    reporter.Stop();
    std::fprintf(stderr, "laca_serve: done — %s\n",
                 StatsLineNow(engine).c_str());
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "laca_serve: %s\n", e.what());
    return 1;
  }
}
