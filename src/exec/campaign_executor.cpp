#include "exec/campaign_executor.hpp"

#include <algorithm>

namespace s4e::exec {

void CampaignExecutor::run_affine(
    std::size_t count, const std::function<void(unsigned, std::size_t)>& job) {
  if (count == 0) return;
  if (jobs_ <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(0, i);
    return;
  }
  ThreadPool::Options options;
  options.threads = jobs_;
  options.queue_capacity = jobs_;  // exactly one long-lived task per lane
  ThreadPool pool(options);
  std::atomic<std::size_t> next{0};
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
  for (unsigned lane = 0; lane < lanes; ++lane) {
    pool.submit([&job, &next, lane, count] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        job(lane, i);
      }
    });
  }
  pool.wait_idle();  // rethrows the first captured job exception
}

}  // namespace s4e::exec
