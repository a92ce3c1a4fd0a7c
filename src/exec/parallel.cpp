#include "exec/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace s4e::exec {

unsigned resolve_jobs(unsigned requested) noexcept {
  if (requested == 0) return std::max(1u, std::thread::hardware_concurrency());
  return std::min(requested, 4096u);
}

void parallel_for(unsigned jobs, std::size_t count,
                  const std::function<void(unsigned, std::size_t)>& job) {
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::size_t>(resolve_jobs(jobs), count));
  if (lanes <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto run_lane = [&](unsigned lane) {
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        job(lane, i);
      }
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(lanes);
  try {
    for (unsigned lane = 0; lane < lanes; ++lane) {
      threads.emplace_back(run_lane, lane);
    }
  } catch (...) {
    // No thread for this lane: stop the started lanes' claims and join
    // them before the error leaves (an unjoined std::thread terminates).
    next.store(count, std::memory_order_relaxed);
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace s4e::exec
