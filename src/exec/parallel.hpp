// Deterministic fan-out of N indexed jobs: the one way this code base runs
// work on threads (campaign mutants in exec::run_campaign, timing configs
// in trace::replay_matrix and s4e-qta --replay).
//
// Determinism contract: every job writes only the slot its index names and
// the caller folds the slots in index order after parallel_for returns, so
// the result is bit-identical to a serial loop over the same jobs —
// regardless of thread count or OS scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace s4e::exec {

// Resolve a requested job count: 0 -> hardware concurrency, always at
// least 1, capped at 4096 (a negative count cast to unsigned would ask for
// billions of threads and abort in std::thread).
unsigned resolve_jobs(unsigned requested) noexcept;

// Run job(lane, i) for every i in [0, count) on min(resolve_jobs(jobs),
// count) lanes. One lane runs inline on the calling thread as lane 0, in
// index order. More lanes are threads that each claim indices from a shared
// atomic counter; `lane` (0..lanes-1) names the claiming thread for its
// whole lifetime, so a lane can keep lane-local state (a reusable
// vp::Machine, a metrics shard) across its jobs while load balancing stays
// dynamic. A lane whose job throws stops claiming; the other lanes finish
// the remaining indices, and the first exception is rethrown once every
// lane has drained.
void parallel_for(unsigned jobs, std::size_t count,
                  const std::function<void(unsigned, std::size_t)>& job);

}  // namespace s4e::exec
