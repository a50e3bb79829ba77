// Engineering study: ServingEngine throughput and latency under an
// open-loop arrival process, at 1/2/4/8 workers.
//
// The batch benches measure closed-loop throughput (the next query starts
// when a worker frees up); a server faces open-loop traffic — requests
// arrive on their own schedule and queue, so latency includes queueing delay
// and the admission bound decides between backpressure and collapse. This
// bench drives an in-process ServingEngine two ways per worker count:
//
//   * saturation: all requests submitted back-to-back (capacity measure);
//   * open-loop: deterministic arrivals at ~70% of the measured capacity
//     (latency-under-load measure, p50/p99 including queueing).
//
// A third section drives a snapshot hot reload mid-stream under the same
// open-loop load: a fresh TNAM rebuild is published while requests keep
// arriving, and the p99 over the swap window is compared against steady
// state (the cost of workers rebinding their warm arenas to the new
// version). The retired snapshot must fully drain afterwards.
//
// It also asserts the serving acceptance criteria directly: responses are
// bit-identical to serial Laca::Cluster, and the warm-path alloc counter
// stays flat across requests after warmup. Results go to BENCH_serving.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attr/tnam.hpp"
#include "bench_util.hpp"
#include "common/quantile.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "data/dataset_snapshot.hpp"
#include "eval/datasets.hpp"
#include "server/result_cache.hpp"
#include "server/serving_engine.hpp"

namespace laca {
namespace {

bench::JsonEmitter json("serving");

struct LoadResult {
  double seconds = 0.0;       // first admission -> last completion
  double p50 = 0.0, p99 = 0.0;
  uint64_t completed = 0;
  uint64_t alloc_delta = 0;   // alloc counter growth during the run
};

std::vector<ServeRequest> MakeRequests(const Dataset& ds, size_t count) {
  std::vector<NodeId> seeds = SampleSeeds(ds, count);
  std::vector<ServeRequest> requests;
  for (NodeId seed : seeds) {
    ServeRequest req;
    req.seed = seed;
    req.size = ds.data.communities.GroundTruthCluster(seed).size();
    requests.push_back(req);
  }
  return requests;
}

// Submits every request with deterministic interarrival gaps (0 =
// back-to-back saturation), waits for all completions, and reports
// percentiles over the full run.
LoadResult Drive(ServingEngine& engine, const std::vector<ServeRequest>& reqs,
                 double interarrival_seconds) {
  LoadResult out;
  const uint64_t alloc_before = engine.Stats().alloc_events;
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(reqs.size());
  Timer timer;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (interarrival_seconds > 0.0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(i * interarrival_seconds)));
    }
    Admission a = engine.Submit(reqs[i]);
    if (!a.ok()) {
      std::fprintf(stderr, "bench_ext_serving: unexpected rejection: %s\n",
                   ToString(a.status));
      std::exit(1);
    }
    futures.push_back(std::move(a.response));
  }
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (auto& f : futures) {
    ServeResponse resp = f.get();
    if (resp.status != ServeStatus::kOk) {
      std::fprintf(stderr, "bench_ext_serving: request failed: %s\n",
                   resp.error.c_str());
      std::exit(1);
    }
    latencies.push_back(resp.total_seconds);
    ++out.completed;
  }
  out.seconds = timer.ElapsedSeconds();
  std::sort(latencies.begin(), latencies.end());
  out.p50 = NearestRank(latencies, 50);
  out.p99 = NearestRank(latencies, 99);
  out.alloc_delta = engine.Stats().alloc_events - alloc_before;
  return out;
}

// A snapshot over the registry dataset carrying one freshly-built default
// TNAM (bit-identical Z for a fixed seed, so every version serves the same
// answers — which is what lets the reload section assert determinism
// ACROSS the swap).
std::shared_ptr<const DatasetSnapshot> MakeServingSnapshot(const Dataset& ds,
                                                           uint64_t version) {
  TnamOptions topts;
  Tnam tnam = Tnam::Build(ds.data.attributes, topts);
  std::vector<PreparedTnam> tnams;
  tnams.push_back(PreparedTnam{static_cast<int>(tnam.dim()), std::move(tnam)});
  return ds.snapshot->WithTnams(std::move(tnams), version);
}

void RunDataset(const std::string& name, size_t num_requests) {
  const Dataset& ds = GetDataset(name);
  std::shared_ptr<const DatasetSnapshot> snapshot =
      MakeServingSnapshot(ds, 1);
  const Tnam& tnam = snapshot->tnams()[0].tnam;
  std::vector<ServeRequest> requests = MakeRequests(ds, num_requests);

  // Serial reference: both the determinism oracle and the capacity anchor.
  Laca serial(ds.data.graph, &tnam);
  LacaOptions defaults;
  std::vector<std::vector<NodeId>> expected;
  Timer serial_timer;
  for (const ServeRequest& req : requests) {
    expected.push_back(serial.Cluster(req.seed, req.size, defaults));
  }
  const double serial_per_req = serial_timer.ElapsedSeconds() / requests.size();

  bench::PrintHeader("ServingEngine on " + name + " (" +
                     std::to_string(requests.size()) +
                     " requests, serial " +
                     bench::FmtSeconds(serial_per_req) + "/req)");
  bench::PrintRow("workers",
                  {"mode", "qps", "p50", "p99", "alloc_delta"}, 10, 12);

  for (size_t workers : {1u, 2u, 4u, 8u}) {
    ServingOptions opts;
    opts.num_workers = workers;
    opts.num_threads = workers;
    opts.max_queue_depth = requests.size() + 1;
    ServingEngine engine(snapshot, opts);

    // Warm every arena (and check determinism once per worker count):
    // steady-state serving must then keep the alloc counter flat.
    LoadResult warm = Drive(engine, requests, 0.0);
    (void)warm;
    {
      std::vector<std::future<ServeResponse>> futures;
      for (const ServeRequest& req : requests) {
        futures.push_back(engine.Submit(req).response);
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        if (futures[i].get().cluster != expected[i]) {
          std::fprintf(stderr,
                       "bench_ext_serving: response %zu diverged from serial "
                       "Laca::Cluster at %zu workers\n",
                       i, workers);
          std::exit(1);
        }
      }
    }

    const uint64_t warm_allocs = engine.Stats().alloc_events;
    LoadResult sat = Drive(engine, requests, 0.0);
    const double capacity_qps = sat.completed / sat.seconds;
    LoadResult open =
        Drive(engine, requests, 1.0 / std::max(0.7 * capacity_qps, 1.0));
    const double open_qps = open.completed / open.seconds;
    if (engine.Stats().alloc_events != warm_allocs) {
      std::fprintf(stderr,
                   "bench_ext_serving: warm-path alloc counter moved "
                   "(%llu -> %llu) at %zu workers\n",
                   static_cast<unsigned long long>(warm_allocs),
                   static_cast<unsigned long long>(engine.Stats().alloc_events),
                   workers);
      std::exit(1);
    }

    bench::PrintRow(std::to_string(workers),
                    {"saturated", bench::Fmt(capacity_qps, "%.1f"),
                     bench::FmtSeconds(sat.p50), bench::FmtSeconds(sat.p99),
                     std::to_string(sat.alloc_delta)},
                    10, 12);
    bench::PrintRow("",
                    {"open-70%", bench::Fmt(open_qps, "%.1f"),
                     bench::FmtSeconds(open.p50), bench::FmtSeconds(open.p99),
                     std::to_string(open.alloc_delta)},
                    10, 12);

    json.BeginRecord()
        .Str("dataset", name)
        .Int("workers", workers)
        .Str("mode", "saturated")
        .Int("requests", sat.completed)
        .Num("throughput_qps", capacity_qps)
        .Num("p50_ms", sat.p50 * 1e3)
        .Num("p99_ms", sat.p99 * 1e3)
        .Num("serial_ms_per_req", serial_per_req * 1e3)
        .Int("steady_state_allocs", sat.alloc_delta);
    json.BeginRecord()
        .Str("dataset", name)
        .Int("workers", workers)
        .Str("mode", "open_70pct")
        .Int("requests", open.completed)
        .Num("offered_qps", 0.7 * capacity_qps)
        .Num("throughput_qps", open_qps)
        .Num("p50_ms", open.p50 * 1e3)
        .Num("p99_ms", open.p99 * 1e3)
        .Int("steady_state_allocs", open.alloc_delta);
  }
}

// Reload under open-loop load: p99 over the swap window vs steady state, at
// a fixed worker count. The next version's TNAM is rebuilt BEFORE the timed
// stream (the rebuild is background preprocessing — laca_serve runs it off
// the request path); what this section measures is the cost of the publish
// itself plus the workers rebinding their warm arenas mid-traffic. The
// rebuilt TNAM is bit-identical to v1's (fixed seed), so one serial oracle
// covers both sides of the swap — responses must never diverge, and the
// retired snapshot must fully drain once the stream ends.
void RunReloadStudy(const std::string& name, size_t num_requests,
                    size_t workers) {
  const Dataset& ds = GetDataset(name);
  std::shared_ptr<const DatasetSnapshot> v1 = MakeServingSnapshot(ds, 1);
  std::shared_ptr<const DatasetSnapshot> v2 = MakeServingSnapshot(ds, 2);
  std::vector<ServeRequest> requests = MakeRequests(ds, num_requests);

  std::vector<std::vector<NodeId>> expected;
  {
    Laca serial(ds.data.graph, &v1->tnams()[0].tnam);
    LacaOptions defaults;
    for (const ServeRequest& req : requests) {
      expected.push_back(serial.Cluster(req.seed, req.size, defaults));
    }
  }

  ServingOptions opts;
  opts.num_workers = workers;
  opts.num_threads = workers;
  opts.max_queue_depth = 2 * requests.size() + 1;
  ServingEngine engine(std::move(v1), opts);
  // The engine now owns every v1 reference; a lingering local here would
  // keep the retired version "live" forever and fail the drain check below.

  // Warm every arena, then anchor the open-loop rate at ~70% of capacity.
  (void)Drive(engine, requests, 0.0);
  LoadResult sat = Drive(engine, requests, 0.0);
  const double capacity_qps = sat.completed / sat.seconds;
  const double interarrival = 1.0 / std::max(0.7 * capacity_qps, 1.0);

  // One open-loop stream of 2x the request list; the swap is published the
  // moment the second half starts arriving.
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(2 * requests.size());
  const size_t total = 2 * requests.size();
  const size_t swap_at = requests.size();
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total; ++i) {
    std::this_thread::sleep_until(
        start +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(i * interarrival)));
    if (i == swap_at) engine.Reload(v2);
    Admission a = engine.Submit(requests[i % requests.size()]);
    if (!a.ok()) {
      std::fprintf(stderr,
                   "bench_ext_serving: request rejected across reload: %s\n",
                   ToString(a.status));
      std::exit(1);
    }
    futures.push_back(std::move(a.response));
  }
  std::vector<double> steady_lat, swap_lat;
  for (size_t i = 0; i < futures.size(); ++i) {
    ServeResponse resp = futures[i].get();
    if (resp.status != ServeStatus::kOk) {
      std::fprintf(stderr, "bench_ext_serving: request failed in reload "
                           "study: %s\n",
                   resp.error.c_str());
      std::exit(1);
    }
    if (resp.cluster != expected[i % requests.size()]) {
      std::fprintf(stderr,
                   "bench_ext_serving: response %zu diverged across the "
                   "snapshot swap\n",
                   i);
      std::exit(1);
    }
    (i < swap_at ? steady_lat : swap_lat).push_back(resp.total_seconds);
  }

  auto p99 = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return NearestRank(v, 99);
  };
  const double p99_steady = p99(steady_lat);
  const double p99_swap = p99(swap_lat);

  // The retired version must drain: the stream is done, so workers go idle
  // and rebind, releasing the last v1 references.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.Stats().retired_live != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServingStats stats = engine.Stats();
  if (stats.retired_live != 0 || stats.active_version != 2) {
    std::fprintf(stderr,
                 "bench_ext_serving: retired snapshot never drained "
                 "(retired=%zu version=%llu)\n",
                 stats.retired_live,
                 static_cast<unsigned long long>(stats.active_version));
    std::exit(1);
  }

  bench::PrintHeader("Snapshot reload under open-loop load on " + name +
                     " (" + std::to_string(workers) + " workers, " +
                     std::to_string(total) + " requests)");
  bench::PrintRow("phase", {"p99", "requests"}, 12, 14);
  bench::PrintRow("steady",
                  {bench::FmtSeconds(p99_steady),
                   std::to_string(steady_lat.size())},
                  12, 14);
  bench::PrintRow("swap-window",
                  {bench::FmtSeconds(p99_swap),
                   std::to_string(swap_lat.size())},
                  12, 14);

  json.BeginRecord()
      .Str("dataset", name)
      .Int("workers", workers)
      .Str("mode", "reload_open_70pct")
      .Int("requests", total)
      .Num("offered_qps", 0.7 * capacity_qps)
      .Num("p99_steady_ms", p99_steady * 1e3)
      .Num("p99_swap_ms", p99_swap * 1e3)
      .Int("active_version", stats.active_version)
      .Int("retired_live", stats.retired_live);
}

// Open-loop drive that tolerates deadline outcomes: applies `timeout_ms` to
// every request, records served-only latencies, and counts sheds and
// cancellations instead of treating them as bench failures (anything else —
// kOverloaded, kInternal — still aborts the bench).
struct OverloadResult {
  double seconds = 0.0;
  std::vector<double> served_latencies;  // kOk only, sorted
  uint64_t served = 0;
  uint64_t shed = 0;       // kDeadlineExceeded, expired unclaimed in queue
  uint64_t cancelled = 0;  // kDeadlineExceeded, tripped mid-compute
  double p99() const { return NearestRank(served_latencies, 99); }
};

OverloadResult DriveOverload(ServingEngine& engine,
                             const std::vector<ServeRequest>& reqs,
                             double interarrival_seconds, double timeout_ms) {
  OverloadResult out;
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(reqs.size());
  Timer timer;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < reqs.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(i * interarrival_seconds)));
    ServeRequest req = reqs[i];
    req.timeout_ms = timeout_ms;
    Admission a = engine.Submit(req);
    if (!a.ok()) {
      std::fprintf(stderr,
                   "bench_ext_serving: unexpected rejection under overload: "
                   "%s\n",
                   ToString(a.status));
      std::exit(1);
    }
    futures.push_back(std::move(a.response));
  }
  for (auto& f : futures) {
    ServeResponse resp = f.get();
    if (resp.status == ServeStatus::kOk) {
      out.served_latencies.push_back(resp.total_seconds);
      ++out.served;
    } else if (resp.status == ServeStatus::kDeadlineExceeded) {
      // "in queue" sheds never reached a worker's compute path.
      (resp.error.find("queue") != std::string::npos ? out.shed
                                                     : out.cancelled)++;
    } else {
      std::fprintf(stderr, "bench_ext_serving: request failed under "
                           "overload: %s\n",
                   resp.error.c_str());
      std::exit(1);
    }
  }
  out.seconds = timer.ElapsedSeconds();
  std::sort(out.served_latencies.begin(), out.served_latencies.end());
  return out;
}

// Overload study: arrivals past measured capacity, with request deadlines
// off vs on. Without deadlines the queue grows for the whole run and every
// response pays the accumulated wait; with an admission-anchored budget the
// expired tail is cut unserved and the served latencies stay bounded by the
// budget. Two overload shapes, because they engage different deadline paths:
//
//   * open-loop at 2x capacity: with homogeneous budgets and steady
//     arrivals, cancellation burn shrinks to (budget - wait), so the
//     claim-time wait converges to a fixed point just BELOW the budget —
//     expiries trip mid-compute (cancelled), essentially never in the
//     queue. This phase carries the latency criteria: no served response
//     exceeds its budget by more than one cancellation poll interval, and
//     served p99 is strictly below the no-deadline run's.
//   * burst (all requests admitted back-to-back): the backlog exceeds the
//     budget outright, so everything behind the first ~budget/service jobs
//     expires unclaimed — the queue-shed path, counter-witnessed with no
//     compute spent.
void RunOverloadStudy(const std::string& name, size_t num_requests,
                      size_t workers) {
  const Dataset& ds = GetDataset(name);
  std::shared_ptr<const DatasetSnapshot> snapshot = MakeServingSnapshot(ds, 1);
  std::vector<ServeRequest> requests = MakeRequests(ds, num_requests);

  Laca serial(ds.data.graph, &snapshot->tnams()[0].tnam);
  LacaOptions defaults;
  Timer serial_timer;
  for (const ServeRequest& req : requests) {
    (void)serial.Cluster(req.seed, req.size, defaults);
  }
  const double serial_ms = serial_timer.ElapsedSeconds() * 1e3 /
                           requests.size();

  ServingOptions opts;
  opts.num_workers = workers;
  opts.num_threads = workers;
  opts.max_queue_depth = 2 * requests.size() + 1;  // shed, don't reject
  ServingEngine engine(snapshot, opts);

  (void)Drive(engine, requests, 0.0);  // warm every arena
  LoadResult sat = Drive(engine, requests, 0.0);
  const double capacity_qps = sat.completed / sat.seconds;
  const double interarrival = 1.0 / std::max(2.0 * capacity_qps, 1.0);
  // The budget covers a handful of serial computes, floored well above
  // scheduler-tick noise. At 2x offered load the queue outgrows it quickly.
  const double budget_ms = std::max(4.0 * serial_ms, 20.0);

  OverloadResult no_deadline =
      DriveOverload(engine, requests, interarrival, /*timeout_ms=*/0.0);
  OverloadResult with_deadline =
      DriveOverload(engine, requests, interarrival, budget_ms);
  const uint64_t shed_before = engine.Stats().shed_in_queue;
  OverloadResult burst =
      DriveOverload(engine, requests, /*interarrival=*/0.0, budget_ms);
  const uint64_t shed_counter = engine.Stats().shed_in_queue - shed_before;

  if (no_deadline.served != requests.size()) {
    std::fprintf(stderr, "bench_ext_serving: no-deadline run dropped "
                         "requests\n");
    std::exit(1);
  }
  if (with_deadline.shed + with_deadline.cancelled == 0) {
    std::fprintf(stderr, "bench_ext_serving: 2x overload never tripped a "
                         "deadline\n");
    std::exit(1);
  }
  if (burst.shed == 0 || shed_counter != burst.shed) {
    std::fprintf(stderr,
                 "bench_ext_serving: burst overload shed nothing from the "
                 "queue (responses=%llu counter=%llu served=%llu "
                 "cancelled=%llu budget=%.1fms)\n",
                 static_cast<unsigned long long>(burst.shed),
                 static_cast<unsigned long long>(shed_counter),
                 static_cast<unsigned long long>(burst.served),
                 static_cast<unsigned long long>(burst.cancelled), budget_ms);
    std::exit(1);
  }
  // One poll interval is bounded by a single request's compute here: a
  // served response can only overrun its budget by the tail it was already
  // inside when the deadline passed.
  const double slack_ms = std::max(2.0 * serial_ms, 10.0);
  for (const OverloadResult* run : {&with_deadline, &burst}) {
    for (double lat : run->served_latencies) {
      if (lat * 1e3 > budget_ms + slack_ms) {
        std::fprintf(stderr,
                     "bench_ext_serving: served response exceeded its %.1fms "
                     "budget by more than one poll interval (%.1fms)\n",
                     budget_ms, lat * 1e3);
        std::exit(1);
      }
    }
  }
  if (with_deadline.served > 0 && no_deadline.p99() > 0.0 &&
      with_deadline.p99() >= no_deadline.p99()) {
    std::fprintf(stderr,
                 "bench_ext_serving: deadlines did not improve served p99 "
                 "under overload (%.1fms vs %.1fms)\n",
                 with_deadline.p99() * 1e3, no_deadline.p99() * 1e3);
    std::exit(1);
  }

  const double shed_fraction =
      static_cast<double>(burst.shed + burst.cancelled) / requests.size();
  bench::PrintHeader("Overload on " + name + " (" + std::to_string(workers) +
                     " workers, budget " + bench::Fmt(budget_ms, "%.1f") +
                     "ms)");
  bench::PrintRow("mode", {"served", "shed", "cancelled", "p99-served"}, 16,
                  12);
  bench::PrintRow("2x no-deadline",
                  {std::to_string(no_deadline.served), "0", "0",
                   bench::FmtSeconds(no_deadline.p99())},
                  16, 12);
  bench::PrintRow("2x deadline",
                  {std::to_string(with_deadline.served),
                   std::to_string(with_deadline.shed),
                   std::to_string(with_deadline.cancelled),
                   bench::FmtSeconds(with_deadline.p99())},
                  16, 12);
  bench::PrintRow("burst deadline",
                  {std::to_string(burst.served), std::to_string(burst.shed),
                   std::to_string(burst.cancelled),
                   bench::FmtSeconds(burst.p99())},
                  16, 12);

  json.BeginRecord()
      .Str("dataset", name)
      .Int("workers", workers)
      .Str("mode", "overload_2x_nodeadline")
      .Int("requests", requests.size())
      .Num("offered_qps", 2.0 * capacity_qps)
      .Int("served", no_deadline.served)
      .Num("p99_served_ms", no_deadline.p99() * 1e3);
  json.BeginRecord()
      .Str("dataset", name)
      .Int("workers", workers)
      .Str("mode", "overload_2x_deadline")
      .Int("requests", requests.size())
      .Num("offered_qps", 2.0 * capacity_qps)
      .Num("budget_ms", budget_ms)
      .Int("served", with_deadline.served)
      .Int("shed_in_queue", with_deadline.shed)
      .Int("cancelled", with_deadline.cancelled)
      .Num("p99_served_ms", with_deadline.p99() * 1e3);
  json.BeginRecord()
      .Str("dataset", name)
      .Int("workers", workers)
      .Str("mode", "overload_burst_deadline")
      .Int("requests", requests.size())
      .Num("budget_ms", budget_ms)
      .Int("served", burst.served)
      .Int("shed_in_queue", burst.shed)
      .Int("cancelled", burst.cancelled)
      .Num("shed_fraction", shed_fraction)
      .Num("p99_served_ms", burst.p99() * 1e3);
}

// Zipfian repeat-traffic study: the result cache and single-flight
// coalescing under skewed request popularity. A fixed pool of distinct
// request identities is drawn 1024 times per run with Zipf(skew) popularity
// (skew 0 = uniform repeats, 0.8 = hot-head), the same draw stream replayed
// against cache off / full / two-tier. Arrivals are open-loop at the
// 2-worker no-cache capacity (interarrival = serial/workers), so the
// uncached engine runs saturated while cache hits bypass the queue — the
// p50/p99 gap IS the cache win, not a warm-CPU artifact. kOverloaded
// rejections are tolerated and counted (the off mode may shed under its own
// queue walk); latencies are over served responses only. Every served
// cluster is checked bit-identical against serial Laca::Cluster — a cache
// hit (full replay or two-tier re-sweep from the cached diffusion vector)
// must be indistinguishable from a cold compute.
void RunZipfStudy(const std::string& name, size_t pool_target,
                  size_t num_draws, size_t workers) {
  const Dataset& ds = GetDataset(name);
  std::shared_ptr<const DatasetSnapshot> snapshot = MakeServingSnapshot(ds, 1);

  // Distinct identities only: duplicate seeds would be accidental cache hits
  // at skew 0 and muddy the hit-rate reading.
  std::vector<ServeRequest> pool;
  {
    std::unordered_set<NodeId> seen;
    for (const ServeRequest& req : MakeRequests(ds, pool_target)) {
      if (seen.insert(req.seed).second) pool.push_back(req);
    }
  }

  // Serial oracle over the pool; its timing anchors the arrival rate.
  Laca serial(ds.data.graph, &snapshot->tnams()[0].tnam);
  LacaOptions defaults;
  std::vector<std::vector<NodeId>> expected;
  Timer serial_timer;
  for (const ServeRequest& req : pool) {
    expected.push_back(serial.Cluster(req.seed, req.size, defaults));
  }
  const double serial_per_req = serial_timer.ElapsedSeconds() / pool.size();
  const double interarrival = serial_per_req / workers;

  bench::PrintHeader("Zipfian repeat traffic on " + name + " (" +
                     std::to_string(pool.size()) + " identities, " +
                     std::to_string(num_draws) + " draws, " +
                     std::to_string(workers) + " workers at capacity)");
  bench::PrintRow("skew",
                  {"cache", "hit-rate", "coalesced", "p50", "p99", "rej"},
                  8, 11);

  for (double skew : {0.0, 0.4, 0.8}) {
    // One draw stream per skew, replayed identically against every mode.
    std::vector<double> cum(pool.size());
    double acc = 0.0;
    for (size_t i = 0; i < pool.size(); ++i) {
      acc += std::pow(static_cast<double>(i + 1), -skew);
      cum[i] = acc;
    }
    Rng rng(4242 + static_cast<uint64_t>(skew * 10.0));
    std::vector<size_t> stream(num_draws);
    for (size_t& idx : stream) {
      const double r = rng.Uniform() * cum.back();
      idx = static_cast<size_t>(
          std::lower_bound(cum.begin(), cum.end(), r) - cum.begin());
      if (idx >= pool.size()) idx = pool.size() - 1;
    }

    for (CacheMode mode :
         {CacheMode::kOff, CacheMode::kFull, CacheMode::kTwoTier}) {
      ServingOptions opts;
      opts.num_workers = workers;
      opts.num_threads = workers;
      opts.max_queue_depth = 64;
      opts.cache.mode = mode;
      ServingEngine engine(snapshot, opts);

      std::vector<std::pair<size_t, std::future<ServeResponse>>> futures;
      futures.reserve(stream.size());
      uint64_t rejected = 0;
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < stream.size(); ++i) {
        std::this_thread::sleep_until(
            start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(i * interarrival)));
        Admission a = engine.Submit(pool[stream[i]]);
        if (!a.ok()) {
          if (a.status == ServeStatus::kOverloaded) {
            ++rejected;
            continue;
          }
          std::fprintf(stderr,
                       "bench_ext_serving: zipf study hit a non-overload "
                       "rejection: %s\n",
                       ToString(a.status));
          std::exit(1);
        }
        futures.emplace_back(stream[i], std::move(a.response));
      }
      std::vector<double> latencies;
      latencies.reserve(futures.size());
      for (auto& [idx, fut] : futures) {
        ServeResponse resp = fut.get();
        if (resp.status != ServeStatus::kOk) {
          std::fprintf(stderr,
                       "bench_ext_serving: zipf study request failed: %s\n",
                       resp.error.c_str());
          std::exit(1);
        }
        if (resp.cluster != expected[idx]) {
          std::fprintf(stderr,
                       "bench_ext_serving: cached response diverged from "
                       "serial Laca::Cluster (mode=%s skew=%.1f seed=%llu)\n",
                       ToString(mode), skew,
                       static_cast<unsigned long long>(pool[idx].seed));
          std::exit(1);
        }
        latencies.push_back(resp.total_seconds);
      }
      std::sort(latencies.begin(), latencies.end());
      const double p50 = NearestRank(latencies, 50);
      const double p99 = NearestRank(latencies, 99);

      const ServingStats stats = engine.Stats();
      const uint64_t lookups = stats.cache_hits + stats.cache_misses;
      const double hit_rate =
          lookups == 0 ? 0.0 : static_cast<double>(stats.cache_hits) / lookups;
      const double coalesce_rate =
          stats.admitted == 0
              ? 0.0
              : static_cast<double>(stats.coalesced) / stats.admitted;
      // hit vs coalesce is a timing split (a repeat lands as a hit once the
      // leader published, as a coalesce while it is still computing); their
      // SUM is the repeat count of the draw stream — deterministic, so CI
      // thresholds anchor on repeat_rate rather than hit_rate alone.
      const double repeat_rate =
          stream.empty() ? 0.0
                         : static_cast<double>(stats.cache_hits +
                                               stats.coalesced) /
                               stream.size();

      bench::PrintRow(bench::Fmt(skew, "%.1f"),
                      {ToString(mode), bench::Fmt(hit_rate, "%.3f"),
                       std::to_string(stats.coalesced),
                       bench::FmtSeconds(p50), bench::FmtSeconds(p99),
                       std::to_string(rejected)},
                      8, 11);

      json.BeginRecord()
          .Str("dataset", name)
          .Int("workers", workers)
          .Str("mode", "zipf")
          .Num("skew", skew)
          .Str("cache_mode", ToString(mode))
          .Int("requests", stream.size())
          .Int("served", latencies.size())
          .Int("rejected", rejected)
          .Num("hit_rate", hit_rate)
          .Num("coalesce_rate", coalesce_rate)
          .Num("repeat_rate", repeat_rate)
          .Int("coalesced", stats.coalesced)
          .Num("p50_us", p50 * 1e6)
          .Num("p99_us", p99 * 1e6)
          .Int("bit_identical", 1);
    }
  }
}

// Retry study: clients facing kOverloaded backpressure, with and without
// bounded decorrelated-jitter retries. The queue is made shallow so
// saturation actually bounces admissions; goodput counts requests that
// eventually served.
void RunRetryStudy(const std::string& name, size_t num_requests,
                   size_t workers) {
  const Dataset& ds = GetDataset(name);
  std::shared_ptr<const DatasetSnapshot> snapshot = MakeServingSnapshot(ds, 1);
  std::vector<ServeRequest> requests = MakeRequests(ds, num_requests);

  ServingOptions opts;
  opts.num_workers = workers;
  opts.num_threads = workers;
  opts.max_queue_depth = 4;  // shallow on purpose: admission bounces
  ServingEngine engine(snapshot, opts);
  // Warm one request at a time — the queue is too shallow for Drive's
  // submit-everything-then-wait pattern.
  for (const ServeRequest& req : requests) {
    Admission a = engine.Submit(req);
    if (a.ok()) (void)a.response.get();
  }

  // Enough closed-loop clients to outnumber queue slots + workers, so
  // admission genuinely bounces under contention.
  constexpr size_t kClients = 12;
  constexpr int kMaxAttempts = 6;
  auto run = [&](bool retry) {
    std::atomic<uint64_t> served{0}, gave_up{0};
    Timer timer;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        bench::DecorrelatedJitterBackoff backoff(
            /*base_seconds=*/0.0002, /*cap_seconds=*/0.02, /*seed=*/17 + c);
        for (size_t i = c; i < requests.size(); i += kClients) {
          int attempts = retry ? kMaxAttempts : 1;
          bool done = false;
          backoff.Reset();
          while (attempts-- > 0) {
            Admission a = engine.Submit(requests[i]);
            if (a.ok()) {
              if (a.response.get().status == ServeStatus::kOk) done = true;
              break;
            }
            if (a.status != ServeStatus::kOverloaded) break;
            if (attempts > 0) {
              std::this_thread::sleep_for(std::chrono::duration<double>(
                  backoff.NextSeconds()));
            }
          }
          (done ? served : gave_up).fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    struct { uint64_t served, gave_up; double seconds; } r{
        served.load(), gave_up.load(), timer.ElapsedSeconds()};
    return r;
  };

  const auto noretry = run(false);
  const auto withretry = run(true);

  bench::PrintHeader("Backpressure retries on " + name + " (" +
                     std::to_string(workers) + " workers, queue depth 4, " +
                     std::to_string(kClients) + " clients)");
  bench::PrintRow("mode", {"served", "gave-up", "goodput-qps"}, 16, 12);
  bench::PrintRow("no-retry",
                  {std::to_string(noretry.served),
                   std::to_string(noretry.gave_up),
                   bench::Fmt(noretry.served / noretry.seconds, "%.1f")},
                  16, 12);
  bench::PrintRow("jitter-retry",
                  {std::to_string(withretry.served),
                   std::to_string(withretry.gave_up),
                   bench::Fmt(withretry.served / withretry.seconds, "%.1f")},
                  16, 12);

  json.BeginRecord()
      .Str("dataset", name)
      .Int("workers", workers)
      .Str("mode", "saturation_noretry")
      .Int("requests", requests.size())
      .Int("served", noretry.served)
      .Int("gave_up", noretry.gave_up)
      .Num("goodput_qps", noretry.served / noretry.seconds);
  json.BeginRecord()
      .Str("dataset", name)
      .Int("workers", workers)
      .Str("mode", "saturation_retry")
      .Int("requests", requests.size())
      .Int("served", withretry.served)
      .Int("gave_up", withretry.gave_up)
      .Num("goodput_qps", withretry.served / withretry.seconds);
}

}  // namespace
}  // namespace laca

int main() {
  using namespace laca;
  // The paper's protocol is 500 one-shot queries; serving draws the request
  // stream from the same seed distribution. Kept modest by default so the
  // bench suite stays quick; LACA_BENCH_SEEDS scales it up.
  RunDataset("cora-sim", BenchSeedCount(64));
  RunDataset("pubmed-sim", BenchSeedCount(32));
  RunReloadStudy("cora-sim", BenchSeedCount(64), /*workers=*/4);
  // pubmed-sim for the overload study: its per-request compute is a sizable
  // fraction of the budget, so a busy worker holds the queue long enough
  // for waits to overshoot the deadline — the shape that exercises BOTH
  // deadline paths (queue shed and mid-compute cancellation). On a
  // fast-compute dataset the queue wait converges to the budget from below
  // and everything cancels marginally instead of shedding.
  RunOverloadStudy("pubmed-sim", BenchSeedCount(32), /*workers=*/2);
  RunRetryStudy("cora-sim", BenchSeedCount(64), /*workers=*/2);
  // Fixed pool/draw counts (not BenchSeedCount): the hit-rate and p99
  // separation CI asserts on depend on the draws-per-identity ratio, which
  // must not move with LACA_BENCH_SEEDS.
  RunZipfStudy("cora-sim", /*pool_target=*/512, /*num_draws=*/1024,
               /*workers=*/2);
  json.WriteFile("BENCH_serving.json");
  return 0;
}
