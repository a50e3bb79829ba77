// Worker-fleet sizing, shared by BatchCluster and the ServingEngine.
//
// Both run a fleet of across-request workers, each owning one warm Laca and
// answering its queries serially (DESIGN.md §2c). The thread budget caps
// that fleet: it never holds more workers than budgeted threads, nor more
// than the caller can keep busy.
#ifndef LACA_CORE_THREAD_BUDGET_HPP_
#define LACA_CORE_THREAD_BUDGET_HPP_

#include <cstddef>

namespace laca {

/// Number of across-request workers for a `total_threads` budget:
/// min(max_workers, total_threads), never below 1.
///
///   * total_threads == 0 uses the hardware concurrency (at least 1).
///   * max_workers == 0 means "no cap" (one worker per budgeted thread).
size_t WorkerCount(size_t max_workers, size_t total_threads);

}  // namespace laca

#endif  // LACA_CORE_THREAD_BUDGET_HPP_
