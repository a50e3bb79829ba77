#include "core/batch.hpp"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.hpp"
#include "core/thread_budget.hpp"

namespace laca {

std::vector<std::vector<NodeId>> BatchCluster(
    const Graph& graph, const Tnam* tnam, std::span<const BatchQuery> queries,
    const BatchClusterOptions& opts) {
  std::vector<std::vector<NodeId>> results(queries.size());
  if (queries.empty()) return results;

  // One worker per budgeted thread, but never more workers than queries: a
  // surplus worker would only idle (and waste a Laca construction). The
  // schedulers below are correct for any worker count in
  // [1, queries.size()].
  const size_t workers = WorkerCount(queries.size(), opts.num_threads);

  // One worker body shared by every scheduling shape: a persistent Laca
  // (warm workspace across all the queries this worker claims).
  auto answer = [&](Laca& laca, size_t i) {
    results[i] = laca.Cluster(queries[i].seed, queries[i].size, opts.laca);
  };
  auto make_worker = [&](auto claim) {
    return [&, claim] {
      Laca laca(graph, tnam);
      claim(laca);
    };
  };

  if (workers == 1) {
    // No across-seed pool: the calling thread answers everything in order.
    Laca laca(graph, tnam);
    for (size_t i = 0; i < queries.size(); ++i) answer(laca, i);
    return results;
  }

  // Declared before the pool and group so that ANY exit — including an
  // exception unwinding past group's waiting destructor — destroys the
  // counter only after every worker that can touch it has finished.
  std::atomic<size_t> next{0};
  ThreadPool pool(workers);
  TaskGroup group(pool);
  if (opts.schedule == BatchSchedule::kStaticChunk) {
    // One contiguous chunk per worker. Kept for comparison benchmarks
    // (bench_ext_parallel_scaling): skewed per-seed costs serialize on the
    // slowest chunk.
    const size_t chunk = (queries.size() + workers - 1) / workers;
    for (size_t w = 0; w < workers; ++w) {
      const size_t lo = w * chunk;
      const size_t hi = std::min(lo + chunk, queries.size());
      if (lo >= hi) break;
      group.Submit(make_worker([&, lo, hi](Laca& laca) {
        for (size_t i = lo; i < hi; ++i) answer(laca, i);
      }));
    }
  } else {
    // Dynamic scheduling: every worker pulls the next query off the shared
    // atomic counter, so skewed seed costs rebalance instead of serializing
    // on the slowest chunk.
    for (size_t w = 0; w < workers; ++w) {
      group.Submit(make_worker([&](Laca& laca) {
        for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < queries.size();
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          answer(laca, i);
        }
      }));
    }
  }
  group.Wait();  // per-batch: rethrows this batch's first error only
  return results;
}

}  // namespace laca
