#include "core/thread_budget.hpp"

#include <algorithm>
#include <thread>

namespace laca {

size_t WorkerCount(size_t max_workers, size_t total_threads) {
  size_t total = total_threads;
  if (total == 0) {
    total = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::max<size_t>(
      1, max_workers == 0 ? total : std::min(max_workers, total));
}

}  // namespace laca
