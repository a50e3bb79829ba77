// laca_bench — the measuring half of the repository benchmark (see
// perfbench/README.md; perfbench/run.py drives it and turns its raw samples
// into metrics).
//
//   laca_bench ready --gen=NAME
//       Builds what a serving process needs before its first request (the
//       registry dataset, the default k=32 TNAM and a warm Laca), prints
//       `ready`, and exits. run.py times it from spawn to that line.
//
//   laca_bench paper --gen=NAME --eps=E --seed=N --seconds=S --trace=0|1
//                    --out=FILE [--spans=FILE]
//       The paper's online-time protocol (Fig. 7): serial, closed-loop
//       Laca::Cluster calls at alpha=0.8, k=32 on seeds from SampleSeeds
//       with ground-truth sizes.
//
//   laca_bench serve --gen=NAME --eps=E --port=P --seed=N
//                    --rates=R1,R2,.. --rung-seconds=D1,D2,.. --burst=N
//                    --warmup=N --stream=distinct|zipf
//                    --trace=0|1 --out=FILE [--spans=FILE]
//       Open-loop client of a running laca_serve over one loopback TCP
//       connection (plus a control connection for reloads). Requests are
//       timed from their scheduled send. The nominal rung (the first) runs
//       in three segments, each followed by a burst of N requests sent at
//       once (the server's capacity); the other rungs follow. Every OK cluster is
//       checked against serial Laca::Cluster computed before the timed
//       window. --stream=distinct makes every request a distinct seed;
//       --stream=zipf draws Zipf-0.8 over a pool of seeds and size-only
//       variants and reloads the server in the middle of every nominal
//       segment and before every burst.
//
// With --trace=1 both modes replay requests serially through the public
// layer functions Laca::Cluster is built from (DiffusionEngine::Adaptive,
// Tnam::AccumulateRows/DotRows, TopKCluster, PadWithBfs), timing each
// stage; the replay must reproduce Laca::Cluster exactly or the run fails.
// In serve mode, half of the nominal rung's requests also record their
// spans before their response is timestamped, so the tracing cost is part
// of their latency.
//
// All output is one JSON object written to --out. Exit status 0 means the
// measurement completed; correctness verdicts are fields of that object.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <csignal>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attr/tnam.hpp"
#include "common/rng.hpp"
#include "common/sparse_vector.hpp"
#include "core/cluster.hpp"
#include "core/laca.hpp"
#include "diffusion/diffusion.hpp"
#include "eval/datasets.hpp"
#include "eval/metrics.hpp"
#include "server/protocol.hpp"

namespace {

using laca::NodeId;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "laca_bench: %s\n", why.c_str());
  std::exit(2);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---------------------------------------------------------------------------
// Flags: --key=value only.

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("bad flag " + arg + " (want --key=value)");
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Str(const std::string& key, const char* fallback = nullptr) const {
    auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (fallback == nullptr) Die("missing --" + key);
    return fallback;
  }
  double Num(const std::string& key, const char* fallback = nullptr) const {
    const std::string s = Str(key, fallback);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') Die("bad number --" + key + "=" + s);
    return v;
  }
  std::vector<double> List(const std::string& key) const {
    std::vector<double> out;
    std::stringstream in(Str(key));
    std::string field;
    while (std::getline(in, field, ',')) {
      char* end = nullptr;
      out.push_back(std::strtod(field.c_str(), &end));
      if (end == field.c_str() || *end != '\0') Die("bad list --" + key);
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// Minimal JSON writer (objects, arrays, numbers, strings).

class Json {
 public:
  Json& Open(const char* key = nullptr) { return Begin(key, '{'); }
  Json& OpenArray(const char* key = nullptr) { return Begin(key, '['); }
  Json& Close() {
    out_ += stack_.back() == '{' ? '}' : ']';
    stack_.pop_back();
    first_ = false;
    return *this;
  }
  Json& Num(const char* key, double v) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    out_ += '"';
    return *this;
  }
  Json& Nums(const char* key, const std::vector<double>& v) {
    OpenArray(key);
    for (double x : v) Num(nullptr, x);
    return Close();
  }
  const std::string& str() const { return out_; }

 private:
  Json& Begin(const char* key, char bracket) {
    Key(key);
    out_ += bracket;
    stack_.push_back(bracket);
    first_ = true;
    return *this;
  }
  void Key(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  std::string out_;
  std::string stack_;
  bool first_ = true;
};

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  if (!out) Die("cannot write " + path);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// The snapshot every mode works on: the registry dataset plus the default
// TNAM laca_serve builds at boot (k=32, fixed seed: bit-identical at any
// thread count, so the client's copy equals the server's).

struct Snapshot {
  const laca::Dataset* ds;
  laca::Tnam tnam;
  double dataset_s;
  double tnam_s;
};

std::unique_ptr<Snapshot> LoadSnapshot(const std::string& gen) {
  const auto t0 = Clock::now();
  const laca::Dataset& ds = laca::GetDataset(gen);
  const auto t1 = Clock::now();
  laca::Tnam tnam = laca::Tnam::Build(ds.data.attributes, laca::TnamOptions{});
  const auto t2 = Clock::now();
  return std::make_unique<Snapshot>(
      Snapshot{&ds, std::move(tnam), Seconds(t1 - t0), Seconds(t2 - t1)});
}

// One clustering request identity.
struct Ident {
  NodeId seed = 0;
  size_t size = 0;
};

// Distinct seeds from SampleSeeds (which samples with replacement).
std::vector<NodeId> DistinctSeeds(const laca::Dataset& ds, size_t count,
                                  uint64_t rng_seed) {
  std::vector<NodeId> out;
  std::unordered_set<NodeId> seen;
  for (NodeId s : laca::SampleSeeds(ds, count * 2 + 64, rng_seed)) {
    if (out.size() == count) break;
    if (seen.insert(s).second) out.push_back(s);
  }
  if (out.size() < count) Die("dataset too small for the requested seed count");
  return out;
}

size_t TruthSize(const laca::Dataset& ds, NodeId seed) {
  return ds.data.communities.GroundTruthCluster(seed).size();
}

// Serial Laca::Cluster for every identity, sharded over threads (each with a
// private Laca); the correctness oracle.
std::vector<std::vector<NodeId>> Oracle(const Snapshot& snap,
                                        const std::vector<Ident>& idents,
                                        const laca::LacaOptions& opts) {
  std::vector<std::vector<NodeId>> out(idents.size());
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(std::thread::hardware_concurrency(),
                                           idents.size()));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      laca::Laca solver(snap.ds->data.graph, &snap.tnam);
      for (size_t i = t; i < idents.size(); i += threads) {
        out[i] = solver.Cluster(idents[i].seed, idents[i].size, opts);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return out;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out when the run ends. Spans of one request
// share `trace`; `parent` is the causing span's id (0 = root).

struct Span {
  uint64_t trace = 0, id = 0, parent = 0;
  const char* name = "";
  double start_us = 0.0, end_us = 0.0;
};

class SpanLog {
 public:
  uint64_t Add(uint64_t trace, uint64_t parent, const char* name,
               double start_us, double end_us) {
    spans_.push_back(Span{trace, ++next_id_, parent, name, start_us, end_us});
    return next_id_;
  }
  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::string text;
    for (const Span& s : spans_) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "{\"trace\":%" PRIu64 ",\"id\":%" PRIu64
                    ",\"parent\":%" PRIu64
                    ",\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                    s.trace, s.id, s.parent, s.name, s.start_us, s.end_us);
      text += buf;
    }
    std::ofstream out(path);
    out << text;
  }
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  uint64_t next_id_ = 0;
};

// ---------------------------------------------------------------------------
// Algo. 4 replayed from the public layer calls Laca::Cluster is made of, with
// a clock read at each stage boundary.

struct ReplayResult {
  std::vector<NodeId> cluster;
  laca::DiffusionStats step1, step3;
  size_t rwr_support = 0, bdd_support = 0;
  bool padded = false;
  double step1_s = 0.0, step2_s = 0.0, step3_s = 0.0, extract_s = 0.0;
};

class Replay {
 public:
  explicit Replay(const Snapshot& snap)
      : graph_(snap.ds->data.graph),
        tnam_(snap.tnam),
        engine_(graph_),
        psi_(snap.tnam.dim()) {}

  ReplayResult Run(NodeId seed, size_t size, const laca::LacaOptions& opts) {
    ReplayResult r;
    const laca::DiffusionOptions dopts = opts.ToDiffusionOptions();
    const auto t0 = Clock::now();
    // Step 1: pi' from the unit vector at the seed.
    laca::SparseVector pi =
        engine_.Adaptive(laca::SparseVector::Unit(seed), dopts, &r.step1);
    r.rwr_support = pi.Size();
    const auto t1 = Clock::now();
    // Step 2: psi = sum pi'_i z(i), phi'_i = max(psi . z(i), 0) d(i).
    std::fill(psi_.begin(), psi_.end(), 0.0);
    tnam_.AccumulateRows(pi.entries(), psi_);
    dots_.resize(pi.Size());
    tnam_.DotRows(pi.entries(), psi_, dots_);
    laca::SparseVector phi;
    for (size_t t = 0; t < pi.Size(); ++t) {
      if (dots_[t] > 0.0) {
        const NodeId i = pi.entries()[t].index;
        phi.Add(i, dots_[t] * graph_.Degree(i));
      }
    }
    if (phi.Empty()) {
      for (const auto& e : pi.entries()) {
        phi.Add(e.index, e.value * graph_.Degree(e.index));
      }
    }
    const double phi_l1 = phi.L1Norm();
    const auto t2 = Clock::now();
    // Step 3: diffuse phi' at eps * ||phi'||_1, then degree-normalize.
    laca::SparseVector rho;
    if (!phi.Empty()) {
      laca::DiffusionOptions bdd_opts = dopts;
      bdd_opts.epsilon = opts.epsilon * phi_l1;
      rho = engine_.Adaptive(phi, bdd_opts, &r.step3);
      for (auto& e : rho.mutable_entries()) e.value /= graph_.Degree(e.index);
    }
    r.bdd_support = rho.Size();
    const auto t3 = Clock::now();
    r.cluster = laca::TopKCluster(rho, seed, size);
    if (r.cluster.size() < size) {
      r.cluster = laca::PadWithBfs(graph_, std::move(r.cluster), size, seed);
      r.padded = true;
    }
    const auto t4 = Clock::now();
    r.step1_s = Seconds(t1 - t0);
    r.step2_s = Seconds(t2 - t1);
    r.step3_s = Seconds(t3 - t2);
    r.extract_s = Seconds(t4 - t3);
    return r;
  }

 private:
  const laca::Graph& graph_;
  const laca::Tnam& tnam_;
  laca::DiffusionEngine engine_;
  std::vector<double> psi_;
  std::vector<double> dots_;
};

// Sums of replay results, written as the "replay" object.
struct ReplayTotals {
  size_t count = 0, padded = 0, mismatches = 0;
  double step1_s = 0, step2_s = 0, step3_s = 0, extract_s = 0;
  double step1_push = 0, step3_push = 0, rwr_support = 0, bdd_support = 0;
  double greedy_rounds = 0, nongreedy_rounds = 0, step2_cells = 0;

  void Add(const ReplayResult& r, size_t dim) {
    ++count;
    padded += r.padded ? 1 : 0;
    step1_s += r.step1_s;
    step2_s += r.step2_s;
    step3_s += r.step3_s;
    extract_s += r.extract_s;
    step1_push += static_cast<double>(r.step1.push_work);
    step3_push += static_cast<double>(r.step3.push_work);
    rwr_support += static_cast<double>(r.rwr_support);
    bdd_support += static_cast<double>(r.bdd_support);
    greedy_rounds += static_cast<double>(r.step1.greedy_rounds);
    nongreedy_rounds += static_cast<double>(r.step1.nongreedy_rounds);
    step2_cells += static_cast<double>(r.rwr_support) * static_cast<double>(dim);
  }
  void Write(Json& j) const {
    j.Open("replay")
        .Num("count", count)
        .Num("padded", padded)
        .Num("mismatches", mismatches)
        .Num("step1_s", step1_s)
        .Num("step2_s", step2_s)
        .Num("step3_s", step3_s)
        .Num("extract_s", extract_s)
        .Num("step1_push_work", step1_push)
        .Num("step3_push_work", step3_push)
        .Num("rwr_support", rwr_support)
        .Num("bdd_support", bdd_support)
        .Num("step1_greedy_rounds", greedy_rounds)
        .Num("step1_nongreedy_rounds", nongreedy_rounds)
        .Num("step2_cells", step2_cells)
        .Close();
  }
};

// Records one replayed request as a span tree under `parent`.
void ReplaySpans(SpanLog& spans, uint64_t trace, uint64_t parent,
                 double start_us, const ReplayResult& r) {
  double t = start_us;
  const std::pair<const char*, double> stages[] = {
      {"core.step1", r.step1_s},
      {"core.step2", r.step2_s},
      {"core.step3", r.step3_s},
      {"core.extract", r.extract_s}};
  for (const auto& [name, s] : stages) {
    spans.Add(trace, parent, name, t, t + s * 1e6);
    t += s * 1e6;
  }
}

// ---------------------------------------------------------------------------
// ready

int RunReady(const Flags& flags) {
  std::unique_ptr<Snapshot> snap = LoadSnapshot(flags.Str("gen"));
  laca::Laca solver(snap->ds->data.graph, &snap->tnam);
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// paper

int RunPaper(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed"));
  const double seconds = flags.Num("seconds");
  const bool trace = flags.Num("trace") != 0.0;
  constexpr size_t precision_n = 200;  // requests precision is averaged over
  laca::LacaOptions opts;
  opts.epsilon = flags.Num("eps");

  std::unique_ptr<Snapshot> snap = LoadSnapshot(flags.Str("gen"));
  const laca::Dataset& ds = *snap->ds;
  laca::Laca solver(ds.data.graph, &snap->tnam);

  // Enough seeds that the window never runs out; the tail warms up.
  const std::vector<NodeId> seeds = DistinctSeeds(ds, 4000, 7000 + seed);
  constexpr size_t kWarmup = 3;
  for (size_t i = 0; i < kWarmup; ++i) {
    const NodeId s = seeds[seeds.size() - 1 - i];
    (void)solver.Cluster(s, TruthSize(ds, s), opts);
  }

  Replay replay(*snap);
  ReplayTotals totals;
  SpanLog spans;
  std::vector<double> latencies_ms, replay_ms;
  std::vector<std::vector<NodeId>> clusters;
  std::vector<std::string> errors;
  const auto window_start = Clock::now();
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  auto us_since = [&](Clock::time_point t) {
    return Seconds(t - window_start) * 1e6;
  };
  // The host's CPUs slow down and speed up independently (other tenants);
  // moving the one measuring thread round-robin over the allowed CPUs every
  // kRotateEvery calls samples all of them instead of the scheduler's pick.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  constexpr size_t kRotateEvery = 32;
  size_t i = 0;
  for (; i + kWarmup < seeds.size() && Clock::now() < window_end; ++i) {
    if (i % kRotateEvery == 0 && cpus.size() > 1) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[(i / kRotateEvery) % cpus.size()], &one);
      ::sched_setaffinity(0, sizeof(one), &one);
    }
    const NodeId s = seeds[i];
    const size_t size = TruthSize(ds, s);
    const auto t0 = Clock::now();
    std::vector<NodeId> cluster = solver.Cluster(s, size, opts);
    const auto t1 = Clock::now();
    latencies_ms.push_back(Seconds(t1 - t0) * 1e3);
    if (trace) {
      // Traced twin of the same call; interleaving keeps both under the
      // same machine state, so their difference is the tracing overhead.
      const auto r0 = Clock::now();
      ReplayResult r = replay.Run(s, size, opts);
      const auto r1 = Clock::now();
      replay_ms.push_back(Seconds(r1 - r0) * 1e3);
      totals.Add(r, snap->tnam.dim());
      if (r.cluster != cluster) ++totals.mismatches;
      spans.Add(i + 1, 0, "laca.cluster", us_since(t0), us_since(t1));
      const uint64_t rroot =
          spans.Add(i + 1, 0, "replay", us_since(r0), us_since(r1));
      ReplaySpans(spans, i + 1, rroot, us_since(r0), r);
    }
    // Fewer than `size` nodes is legitimate when the seed's component is
    // smaller than that.
    if (cluster.size() > size ||
        std::find(cluster.begin(), cluster.end(), s) == cluster.end()) {
      errors.push_back("malformed cluster for seed " + std::to_string(s));
    }
    if (clusters.size() < precision_n) clusters.push_back(std::move(cluster));
  }
  const double elapsed = Seconds(Clock::now() - window_start);
  const size_t completed = i;
  if (!cpus.empty()) ::sched_setaffinity(0, sizeof(allowed), &allowed);

  // Precision over a fixed request prefix (deterministic per seed): requests
  // the window did not reach are computed after it.
  for (size_t j = clusters.size(); j < precision_n; ++j) {
    clusters.push_back(solver.Cluster(seeds[j], TruthSize(ds, seeds[j]), opts));
  }
  double precision = 0.0;
  for (size_t j = 0; j < precision_n; ++j) {
    precision += laca::Precision(
        clusters[j], ds.data.communities.GroundTruthCluster(seeds[j]));
  }
  precision /= static_cast<double>(precision_n);

  // A fresh solver must agree with the warm one (the warm workspace carries
  // no state between calls).
  {
    laca::Laca fresh(ds.data.graph, &snap->tnam);
    for (size_t j = 0; j < std::min<size_t>(8, precision_n); ++j) {
      if (fresh.Cluster(seeds[j], TruthSize(ds, seeds[j]), opts) != clusters[j]) {
        errors.push_back("fresh Laca disagrees for seed " +
                         std::to_string(seeds[j]));
      }
    }
  }
  if (totals.mismatches > 0) {
    errors.push_back(std::to_string(totals.mismatches) +
                     " replayed clusters differ from Laca::Cluster");
  }

  Json j;
  j.Open()
      .Str("mode", "paper")
      .Num("dataset_s", snap->dataset_s)
      .Num("tnam_s", snap->tnam_s)
      .Num("nodes", ds.num_nodes())
      .Num("tnam_dim", snap->tnam.dim())
      .Num("alpha", opts.alpha)
      .Num("eps", opts.epsilon)
      .Num("elapsed_s", elapsed)
      .Num("completed", completed)
      .Nums("latencies_ms", latencies_ms)
      .Nums("replay_ms", replay_ms)
      .Num("precision", precision)
      .Num("precision_n", precision_n)
      .Num("peak_rss_mb", PeakRssMiB());
  if (trace) totals.Write(j);
  j.OpenArray("errors");
  for (const std::string& e : errors) j.Str(nullptr, e);
  j.Close().Close();
  WriteFile(flags.Str("out"), j.str());
  spans.Write(flags.Str("spans", ""));
  return 0;
}

// ---------------------------------------------------------------------------
// serve: a nonblocking line connection to laca_serve.

class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) Die("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("connect to 127.0.0.1:" + std::to_string(port) + " refused");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { ::close(fd_); }

  int fd() const { return fd_; }
  bool want_write() const { return out_pos_ < out_.size(); }
  void Queue(const std::string& line) {
    out_ += line;
    out_ += '\n';
  }
  void Flush() {
    while (want_write()) {
      const ssize_t n =
          ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_, MSG_NOSIGNAL);
      if (n > 0) {
        out_pos_ += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        Die("server closed the connection mid-send");
      }
    }
    if (out_pos_ == out_.size()) {
      out_.clear();
      out_pos_ = 0;
    }
  }
  // Appends every complete line available now to `lines`.
  void Read(std::vector<std::string>* lines) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Die("server closed the connection");
    }
    size_t start = 0;
    for (size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->push_back(in_.substr(start, nl - start));
    }
    in_.erase(0, start);
  }

 private:
  int fd_ = -1;
  std::string out_;
  size_t out_pos_ = 0;
  std::string in_;
};

std::map<std::string, double> ParseTokens(const std::string& line) {
  std::map<std::string, double> out;
  std::stringstream in(line);
  std::string tok;
  while (in >> tok) {
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      out[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
    }
  }
  return out;
}

// One response line of a clustering request.
struct Reply {
  bool ok = false;
  uint64_t id = 0;
  double us = 0.0, queue_us = 0.0;
  std::string code;
  std::vector<NodeId> nodes;
};

Reply ParseReply(const std::string& line) {
  Reply r;
  if (line.rfind("OK id=", 0) == 0) {
    r.ok = true;
    const char* p = line.c_str() + 6;
    char* end = nullptr;
    r.id = std::strtoull(p, &end, 10);
    if (std::sscanf(end, " us=%lf queue_us=%lf", &r.us, &r.queue_us) != 2) {
      Die("unparseable response: " + line.substr(0, 80));
    }
    const size_t nodes = line.find(" nodes=");
    if (nodes == std::string::npos) Die("response without nodes");
    p = line.c_str() + nodes + 7;
    while (*p >= '0' && *p <= '9') {
      r.nodes.push_back(static_cast<NodeId>(std::strtoul(p, &end, 10)));
      p = (*end == ',') ? end + 1 : end;
    }
  } else if (line.rfind("ERR id=", 0) == 0) {
    r.id = std::strtoull(line.c_str() + 7, nullptr, 10);
    const size_t code = line.find("code=");
    r.code = code == std::string::npos
                 ? "?"
                 : line.substr(code + 5, line.find(' ', code) - code - 5);
  } else {
    Die("unexpected line from server: " + line.substr(0, 80));
  }
  return r;
}

// The timed record of one request.
struct Sample {
  size_t ident = 0;
  double scheduled_us = 0.0, sent_us = 0.0, recv_us = 0.0;
  double server_us = 0.0, queue_us = 0.0;
  bool done = false, ok = false, traced = false;
};

// The zipf stream: Zipf(kZipfSkew) draws over kPoolSeeds distinct seeds,
// each in kSizeVariants sizes (truth, truth/2, truth/4), so both cache tiers
// hit; the pool's pi' working set overflows the default diffusion tier.
constexpr size_t kPoolSeeds = 300;
constexpr size_t kSizeVariants = 3;
constexpr double kZipfSkew = 0.8;

// The nominal rung, whose latencies are reported, is the first (lowest-rate)
// rung. It runs in kSegments segments, each followed by one burst, so that
// latency and capacity both sample the whole window: a slow spell of the
// host then moves one segment or burst rather than all of them.
constexpr size_t kNominal = 0;
constexpr size_t kSegments = 3;

struct ServeConfig {
  int port = 0;
  uint64_t seed = 0;
  std::vector<double> rates;          // per rung, requests/s
  std::vector<double> rung_seconds;   // per rung
  bool zipf = false;                  // zipf stream, with reloads
  bool trace = false;
};

class LoadGenerator {
 public:
  LoadGenerator(const ServeConfig& cfg, const std::vector<Ident>& idents,
                const std::vector<std::vector<NodeId>>& oracle)
      : cfg_(cfg), idents_(idents), oracle_(oracle), main_(cfg.port) {
    if (cfg.zipf) control_ = std::make_unique<Conn>(cfg.port);
  }

  // Sends `warm` closed-batch (all at once) and waits for every response.
  void Warm(const std::vector<size_t>& warm) {
    std::vector<Sample> batch;
    for (size_t ident : warm) batch.push_back(Sample{ident});
    RunRung(batch, /*rate=*/0.0, /*stream=*/0, Clock::now(), {});
    for (const Sample& s : batch) {
      if (!s.ok) Die("warm-up request failed");
    }
  }

  std::map<std::string, double> Stats() {
    main_.Queue("stats");
    for (;;) {
      for (std::string& line : Poll(Clock::now() + std::chrono::seconds(30))) {
        if (line.rfind("STATS ", 0) == 0) {
          ++recv_lines_;
          return ParseTokens(line);
        }
        Die("unexpected line while waiting for STATS: " + line.substr(0, 80));
      }
    }
  }

  // Runs one batch, then waits for every response. Arrivals are Poisson at
  // `rate` (independent users; exponential gaps drawn from the workload
  // seed and `stream`), or all at `start` when rate is 0. A `reload` is sent
  // at each of `reload_at` (seconds after `start`).
  void RunRung(std::vector<Sample>& batch, double rate, uint64_t stream,
               Clock::time_point start, const std::vector<double>& reload_at) {
    const auto origin = window_start_.value_or(start);
    auto us_of = [&](Clock::time_point t) { return Seconds(t - origin) * 1e6; };
    auto after = [&](double s) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
    };
    std::vector<Clock::time_point> due(batch.size(), start);
    laca::Rng arrivals(cfg_.seed * 1000 + stream);
    double span = 0.0;
    for (size_t k = 0; k < batch.size(); ++k) {
      if (rate > 0.0) {
        due[k] = after(span);
        span += -std::log(1.0 - arrivals.Uniform()) / rate;
      }
      batch[k].scheduled_us = us_of(due[k]);
    }
    std::vector<Clock::time_point> reload_due;
    for (double t : reload_at) reload_due.push_back(after(t));
    size_t next = 0, next_reload = 0, received = 0;
    const auto give_up_after = std::chrono::seconds(20);
    Clock::time_point last_progress = Clock::now();
    while (received < batch.size() || next_reload < reload_due.size() ||
           !reload_sent_.empty()) {
      const auto now = Clock::now();
      while (next < batch.size() && due[next] <= now) {
        Sample& s = batch[next];
        main_.Queue(std::to_string(idents_[s.ident].seed) + " " +
                    std::to_string(idents_[s.ident].size));
        s.sent_us = us_of(Clock::now());
        inflight_.push_back(&s);
        ++next;
      }
      while (next_reload < reload_due.size() && reload_due[next_reload] <= now) {
        control_->Queue("reload");
        reload_sent_.push_back(Clock::now());
        ++next_reload;
      }
      Clock::time_point wake = now + std::chrono::milliseconds(50);
      if (next < batch.size()) wake = std::min(wake, due[next]);
      if (next_reload < reload_due.size()) wake = std::min(wake, reload_due[next_reload]);
      const size_t before = received;
      for (std::string& line : Poll(wake)) {
        Reply r = ParseReply(line);
        if (inflight_.empty()) Die("response without a request");
        Sample& s = *inflight_.front();
        inflight_.pop_front();
        ++recv_lines_;
        if (r.id != recv_lines_) Die("response id out of order");
        s.recv_us = us_of(Clock::now());
        s.done = true;
        s.ok = r.ok;
        s.server_us = r.us;
        s.queue_us = r.queue_us;
        if (s.traced) {
          // The spans end at the arrival; the timestamp that latency is
          // measured to is taken after recording them.
          RecordSpans(recv_lines_, s);
          s.recv_us = us_of(Clock::now());
        }
        if (!r.ok) {
          ++err_codes_[r.code];
        } else if (r.nodes != oracle_[s.ident]) {
          ++mismatches_;
        }
        ++received;
      }
      if (received != before) last_progress = Clock::now();
      if (next == batch.size() && Clock::now() - last_progress > give_up_after) {
        Die(std::to_string(batch.size() - received) +
            " responses still missing 20 s after the last arrival");
      }
    }
  }

  SpanLog& spans() { return spans_; }

  // Publishes a new snapshot version on an otherwise idle server (which
  // empties the cache) and returns the reload's duration in ms.
  double ReloadAndWait() {
    control_->Queue("reload");
    reload_sent_.push_back(Clock::now());
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (!reload_sent_.empty()) {
      if (Clock::now() > deadline) Die("reload did not complete in 30 s");
      if (!Poll(Clock::now() + std::chrono::milliseconds(50)).empty()) {
        Die("unexpected response while reloading");
      }
    }
    const double ms = reload_ms_.back();
    reload_ms_.pop_back();
    return ms;
  }

  void SetWindowStart(Clock::time_point t) { window_start_ = t; }
  uint64_t mismatches() const { return mismatches_; }
  const std::map<std::string, uint64_t>& err_codes() const { return err_codes_; }
  const std::vector<double>& reload_ms() const { return reload_ms_; }

 private:
  // The client's request span with the server's reported intervals as
  // children. The server's interval sits inside the client's, with the
  // wire time split evenly before and after it.
  void RecordSpans(uint64_t trace, const Sample& s) {
    const uint64_t root =
        spans_.Add(trace, 0, "client.request", s.scheduled_us, s.recv_us);
    const double server_start =
        s.sent_us + (s.recv_us - s.sent_us - s.server_us) / 2;
    const uint64_t server = spans_.Add(trace, root, "server.request", server_start,
                                       server_start + s.server_us);
    spans_.Add(trace, server, "server.queue", server_start,
               server_start + s.queue_us);
    spans_.Add(trace, server, "server.compute", server_start + s.queue_us,
               server_start + s.server_us);
  }

  // Waits until `until` or readable input; returns complete main-connection
  // lines and consumes control-connection reload acknowledgements.
  std::vector<std::string> Poll(Clock::time_point until) {
    main_.Flush();
    if (control_) control_->Flush();
    pollfd fds[2] = {};
    fds[0].fd = main_.fd();
    fds[0].events = POLLIN | (main_.want_write() ? POLLOUT : 0);
    nfds_t nfds = 1;
    if (control_) {
      fds[1].fd = control_->fd();
      fds[1].events = POLLIN | (control_->want_write() ? POLLOUT : 0);
      nfds = 2;
    }
    const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds, nfds, &ts, nullptr) < 0 && errno != EINTR) Die("poll failed");
    std::vector<std::string> lines;
    if (fds[0].revents != 0) main_.Read(&lines);
    if (control_ && fds[1].revents != 0) {
      std::vector<std::string> acks;
      control_->Read(&acks);
      for (const std::string& ack : acks) {
        if (ack.find(" reload version=") == std::string::npos ||
            reload_sent_.empty()) {
          Die("reload failed: " + ack.substr(0, 80));
        }
        reload_ms_.push_back(Seconds(Clock::now() - reload_sent_.front()) * 1e3);
        reload_sent_.pop_front();
      }
    }
    return lines;
  }

  const ServeConfig& cfg_;
  const std::vector<Ident>& idents_;
  const std::vector<std::vector<NodeId>>& oracle_;
  Conn main_;
  std::unique_ptr<Conn> control_;
  std::optional<Clock::time_point> window_start_;
  std::deque<Sample*> inflight_;
  std::deque<Clock::time_point> reload_sent_;
  std::vector<double> reload_ms_;
  std::map<std::string, uint64_t> err_codes_;
  SpanLog spans_;
  uint64_t mismatches_ = 0;
  uint64_t recv_lines_ = 0;  // the server's 1-based id of the last reply
};

// Median ns per call of `fn` over `calls` calls, in 5 batches.
template <typename Fn>
double NsPerCall(size_t calls, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < calls; ++i) fn(i);
    batches.push_back(Seconds(Clock::now() - t0) * 1e9 / static_cast<double>(calls));
  }
  std::sort(batches.begin(), batches.end());
  return batches[2];
}

int RunServe(const Flags& flags) {
  // Sub-millisecond send scheduling: without this ppoll may overshoot each
  // due time by the default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed"));
  ServeConfig cfg;
  cfg.seed = seed;
  cfg.port = static_cast<int>(flags.Num("port"));
  cfg.rates = flags.List("rates");
  cfg.rung_seconds = flags.List("rung-seconds");
  const std::string stream_kind = flags.Str("stream");
  if (stream_kind != "distinct" && stream_kind != "zipf") {
    Die("--stream must be distinct or zipf");
  }
  cfg.zipf = stream_kind == "zipf";
  cfg.trace = flags.Num("trace") != 0.0;
  if (cfg.rates.empty() || cfg.rates.size() != cfg.rung_seconds.size()) {
    Die("--rates and --rung-seconds must pair up");
  }
  const size_t burst = static_cast<size_t>(flags.Num("burst"));
  const size_t bursts = kSegments;
  const size_t warm_n = static_cast<size_t>(flags.Num("warmup"));
  constexpr size_t replay_n = 200;  // requests the traced replay re-runs
  laca::LacaOptions opts;
  opts.epsilon = flags.Num("eps");

  std::unique_ptr<Snapshot> snap = LoadSnapshot(flags.Str("gen"));
  const laca::Dataset& ds = *snap->ds;

  // Request streams: every request a distinct seed (every cache probe
  // misses), or Zipf draws over the pool.
  std::vector<size_t> rung_sizes;
  size_t timed_n = 0;
  for (size_t r = 0; r < cfg.rates.size(); ++r) {
    rung_sizes.push_back(
        static_cast<size_t>(std::llround(cfg.rates[r] * cfg.rung_seconds[r])));
    timed_n += rung_sizes.back();
  }
  std::vector<Ident> idents;
  std::vector<size_t> warm, stream, burst_stream;
  if (!cfg.zipf) {
    const std::vector<NodeId> seeds =
        DistinctSeeds(ds, warm_n + timed_n + burst * bursts, 9000 + seed);
    for (NodeId s : seeds) idents.push_back(Ident{s, TruthSize(ds, s)});
    for (size_t i = 0; i < idents.size(); ++i) {
      (i < warm_n ? warm : i < warm_n + timed_n ? stream : burst_stream).push_back(i);
    }
  } else {
    const std::vector<NodeId> seeds = DistinctSeeds(ds, kPoolSeeds, 9000 + seed);
    for (NodeId s : seeds) {
      const size_t truth = TruthSize(ds, s);
      for (size_t v = 0; v < kSizeVariants; ++v) {
        idents.push_back(Ident{s, std::max<size_t>(1, truth >> v)});
      }
    }
    laca::Rng rng(31337 + seed);
    std::vector<size_t> rank(idents.size());
    for (size_t i = 0; i < rank.size(); ++i) rank[i] = i;
    rng.Shuffle(rank);
    std::vector<double> cum(rank.size());
    double acc = 0.0;
    for (size_t i = 0; i < cum.size(); ++i) {
      acc += std::pow(static_cast<double>(i + 1), -kZipfSkew);
      cum[i] = acc;
    }
    auto draw = [&] {
      const double u = rng.Uniform() * cum.back();
      const size_t i = std::min<size_t>(
          cum.size() - 1,
          static_cast<size_t>(std::lower_bound(cum.begin(), cum.end(), u) - cum.begin()));
      return rank[i];
    };
    // The warm-up is drawn from the same distribution, so the timed window
    // starts from a cache in its steady state.
    for (size_t i = 0; i < warm_n; ++i) warm.push_back(draw());
    for (size_t i = 0; i < timed_n; ++i) stream.push_back(draw());
    // Every burst starts on a cache emptied by a reload and sends the same
    // draws, so each does the same cold work and their median is the host's.
    std::vector<size_t> one_burst;
    for (size_t i = 0; i < burst; ++i) one_burst.push_back(draw());
    for (size_t b = 0; b < bursts; ++b) {
      burst_stream.insert(burst_stream.end(), one_burst.begin(), one_burst.end());
    }
  }

  // The oracle, computed while the server idles (outside the timed window).
  std::vector<char> used(idents.size(), 0);
  for (const auto* list : {&warm, &stream, &burst_stream}) {
    for (size_t i : *list) used[i] = 1;
  }
  std::vector<Ident> oracle_idents;
  std::vector<size_t> oracle_slot(idents.size());
  for (size_t i = 0; i < idents.size(); ++i) {
    if (used[i]) {
      oracle_slot[i] = oracle_idents.size();
      oracle_idents.push_back(idents[i]);
    }
  }
  const auto oracle_t0 = Clock::now();
  std::vector<std::vector<NodeId>> computed = Oracle(*snap, oracle_idents, opts);
  std::vector<std::vector<NodeId>> oracle(idents.size());
  for (size_t i = 0; i < idents.size(); ++i) {
    if (used[i]) oracle[i] = std::move(computed[oracle_slot[i]]);
  }
  const double oracle_s = Seconds(Clock::now() - oracle_t0);

  LoadGenerator gen(cfg, idents, oracle);
  gen.Warm(warm);
  const std::map<std::string, double> before = gen.Stats();

  // The timed window: the nominal rung's segments, each followed by a
  // burst; then the other rungs, each open-loop at its rate and drained
  // before the next.
  std::vector<std::vector<std::vector<Sample>>> rungs(cfg.rates.size());
  size_t cursor = 0;
  for (size_t r = 0; r < rungs.size(); ++r) {
    const size_t parts = r == kNominal ? kSegments : 1;
    rungs[r].resize(parts);
    for (size_t k = 0; k < rung_sizes[r]; ++k) {
      Sample s;
      s.ident = stream[cursor++];
      // Half the nominal rung records spans (odd positions): its p50
      // against the untraced half is the tracing overhead.
      s.traced = cfg.trace && r == kNominal && (k % 2 == 1);
      rungs[r][k * parts / rung_sizes[r]].push_back(s);
    }
  }
  std::vector<std::vector<Sample>> burst_batches(bursts);
  for (size_t k = 0; k < burst_stream.size(); ++k) {
    burst_batches[k / burst].push_back(Sample{burst_stream[k]});
  }
  const auto window_start = Clock::now();
  gen.SetWindowStart(window_start);
  std::vector<double> rung_active_s(rungs.size(), 0.0);
  std::vector<double> burst_start_us, idle_reload_ms;
  auto run_part = [&](size_t r, size_t part) {
    std::vector<Sample>& batch = rungs[r][part];
    if (batch.empty()) return;
    // With reloads, one lands in the middle of each nominal segment: the
    // latency percentiles include the cache refill after it.
    std::vector<double> reload_at;
    if (cfg.zipf && r == kNominal) {
      reload_at.push_back(cfg.rung_seconds[r] / static_cast<double>(kSegments) / 2);
    }
    gen.RunRung(batch, cfg.rates[r], r * 64 + part, Clock::now(), reload_at);
    double last_us = 0.0;
    for (const Sample& s : batch) last_us = std::max(last_us, s.recv_us);
    rung_active_s[r] += (last_us - batch.front().scheduled_us) / 1e6;
  };
  for (size_t part = 0; part < kSegments; ++part) {
    run_part(kNominal, part);
    // With reloads, each burst starts on an emptied cache, so it measures
    // how fast the server refills it rather than which identities the
    // segment happened to leave cached.
    idle_reload_ms.push_back(cfg.zipf ? gen.ReloadAndWait() : 0.0);
    const auto t0 = Clock::now();
    burst_start_us.push_back(Seconds(t0 - window_start) * 1e6);
    gen.RunRung(burst_batches[part], 0.0, 0, t0, {});
  }
  for (size_t r = 0; r < rungs.size(); ++r) {
    if (r != kNominal) run_part(r, 0);
  }
  const double window_s = Seconds(Clock::now() - window_start);
  const std::map<std::string, double> after = gen.Stats();

  // Precision over the distinct identities of the timed stream (a fixed set
  // per seed), each counted once: a Zipf-weighted mean would be decided by
  // the few hottest identities.
  std::vector<size_t> distinct(stream);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  double precision = 0.0;
  for (size_t i : distinct) {
    precision += laca::Precision(
        oracle[i], ds.data.communities.GroundTruthCluster(idents[i].seed));
  }
  precision /= static_cast<double>(std::max<size_t>(1, distinct.size()));

  Json j;
  j.Open()
      .Str("mode", "serve")
      .Num("dataset_s", snap->dataset_s)
      .Num("tnam_s", snap->tnam_s)
      .Num("oracle_s", oracle_s)
      .Num("nodes", ds.num_nodes())
      .Num("eps", opts.epsilon)
      .Num("identities", static_cast<double>(oracle_idents.size()))
      .Num("window_s", window_s)
      .Num("mismatches", static_cast<double>(gen.mismatches()))
      .Num("precision", precision)
      .Num("precision_n", distinct.size());
  j.OpenArray("rungs");
  for (size_t r = 0; r < rungs.size(); ++r) {
    std::vector<double> sched, sent, recv, server, queue, traced, ok;
    for (const std::vector<Sample>& part : rungs[r]) {
      for (const Sample& s : part) {
        sched.push_back(s.scheduled_us);
        sent.push_back(s.sent_us);
        recv.push_back(s.done ? s.recv_us : -1.0);
        server.push_back(s.server_us);
        queue.push_back(s.queue_us);
        traced.push_back(s.traced ? 1.0 : 0.0);
        ok.push_back(s.ok ? 1.0 : 0.0);
      }
    }
    j.Open()
        .Num("rate", cfg.rates[r])
        .Num("seconds", cfg.rung_seconds[r])
        .Num("segments", static_cast<double>(rungs[r].size()))
        .Num("active_s", rung_active_s[r])
        .Nums("scheduled_us", sched)
        .Nums("sent_us", sent)
        .Nums("recv_us", recv)
        .Nums("server_us", server)
        .Nums("queue_us", queue)
        .Nums("traced", traced)
        .Nums("ok", ok)
        .Close();
  }
  j.Close();
  j.OpenArray("bursts");
  for (size_t b = 0; b < burst_batches.size(); ++b) {
    std::vector<double> recv, ok;
    for (const Sample& s : burst_batches[b]) {
      recv.push_back(s.done ? s.recv_us : -1.0);
      ok.push_back(s.ok ? 1.0 : 0.0);
    }
    j.Open()
        .Num("idle_reload_ms", idle_reload_ms[b])
        .Num("start_us", burst_start_us[b])
        .Nums("recv_us", recv)
        .Nums("ok", ok)
        .Close();
  }
  j.Close();
  j.Nums("reload_ms", gen.reload_ms());
  j.Open("err_codes");
  for (const auto& [code, n] : gen.err_codes()) j.Num(code.c_str(), n);
  j.Close();
  for (const auto& [key, stats] : {std::pair{"stats_before", &before},
                                   std::pair{"stats_after", &after}}) {
    j.Open(key);
    for (const auto& [k, v] : *stats) j.Num(k.c_str(), v);
    j.Close();
  }

  if (cfg.trace) {
    // Protocol costs on this workload's own lines.
    std::vector<std::string> lines;
    std::vector<laca::ServeResponse> responses;
    for (size_t i : stream) {
      lines.push_back(std::to_string(idents[i].seed) + " " +
                      std::to_string(idents[i].size));
      laca::ServeResponse resp;
      resp.cluster = oracle[i];
      resp.total_seconds = 2e-3;
      resp.queue_seconds = 1e-3;
      responses.push_back(std::move(resp));
    }
    size_t sink = 0;
    const double parse_ns = NsPerCall(lines.size(), [&](size_t i) {
      sink += laca::ParseRequestLine(lines[i]).request.size;
    });
    const double format_ns = NsPerCall(responses.size(), [&](size_t i) {
      sink += laca::FormatResponse(i + 1, responses[i]).size();
    });
    if (sink == 0) Die("protocol timing produced nothing");

    // Serial Algo. 4 replay of an evenly spaced subset of the timed stream;
    // its traces are numbered after the requests'.
    Replay replay(*snap);
    ReplayTotals totals;
    SpanLog& spans = gen.spans();
    const uint64_t replay_trace = 1u << 30;
    const size_t step = std::max<size_t>(1, stream.size() / std::max<size_t>(1, replay_n));
    const auto replay_t0 = Clock::now();
    for (size_t k = 0; k < stream.size(); k += step) {
      const Ident& id = idents[stream[k]];
      const double start = Seconds(Clock::now() - replay_t0) * 1e6;
      ReplayResult r = replay.Run(id.seed, id.size, opts);
      totals.Add(r, snap->tnam.dim());
      if (r.cluster != oracle[stream[k]]) ++totals.mismatches;
      const uint64_t root = spans.Add(replay_trace + k, 0, "replay", start,
                                      Seconds(Clock::now() - replay_t0) * 1e6);
      ReplaySpans(spans, replay_trace + k, root, start, r);
    }
    j.Num("parse_ns", parse_ns).Num("format_ns", format_ns);
    j.Num("spans", static_cast<double>(spans.size()));
    totals.Write(j);
    spans.Write(flags.Str("spans", ""));
  }
  j.Close();
  WriteFile(flags.Str("out"), j.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s ready|paper|serve --key=value...\n", argv[0]);
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  const std::string mode = argv[1];
  const Flags flags(argc, argv);
  try {
    if (mode == "ready") return RunReady(flags);
    if (mode == "paper") return RunPaper(flags);
    if (mode == "serve") return RunServe(flags);
  } catch (const std::exception& e) {
    Die(e.what());
  }
  Die("unknown mode " + mode);
}
