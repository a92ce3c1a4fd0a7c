// Metrics registry — counters, gauges and fixed-bucket histograms with
// per-worker shards that aggregate deterministically.
//
// Concurrency model: metrics are *partitioned*, not shared. Registration
// happens single-threaded; open_shards(n) then freezes the layout and
// allocates one flat slot array per worker lane. Each worker writes only
// its own shard (plain u64 stores — lock-free by construction, no atomics,
// no false sharing on the hot counters because every shard owns a separate
// allocation). Aggregation happens after exec::parallel_for joins its
// lanes (which establishes the happens-before edge) by folding the shards
// in index order.
//
// Determinism: counters and histogram buckets aggregate by u64 addition
// and gauges by max — both associative and commutative — and a campaign's
// per-job deltas do not depend on which lane ran the job. The aggregate is
// therefore byte-identical for any worker count and any scheduling, the
// same contract the campaign engines already give for their stdout.
#pragma once

#include <string>
#include <vector>

#include "common/bits.hpp"

namespace s4e::obs {

// Handle to one registered metric (index into the frozen layout).
struct MetricId {
  u32 slot = ~u32{0};   // first slot in the shard's flat array
  u32 buckets = 0;      // histogram: number of count slots (else 0)

  bool valid() const noexcept { return slot != ~u32{0}; }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration phase (single-threaded, before open_shards).

  // Monotonic sum (aggregates by addition).
  MetricId add_counter(const std::string& name);
  // Last-set value per shard (aggregates by max).
  MetricId add_gauge(const std::string& name);
  // Fixed upper bounds, strictly increasing; values above the last bound
  // land in an implicit overflow bucket. Layout per shard: one count per
  // bound + overflow count + sum of observed values.
  MetricId add_histogram(const std::string& name, std::vector<u64> bounds);

  // --- Shard phase: freeze the layout, allocate `workers` shards (>= 1).
  // Discards any previously opened shards.
  void open_shards(unsigned workers);

  class Shard {
   public:
    void add(MetricId id, u64 delta) { slots_[id.slot] += delta; }
    void set(MetricId id, u64 value) {
      if (value > slots_[id.slot]) slots_[id.slot] = value;
    }
    void observe(MetricId id, u64 value);

   private:
    friend class MetricsRegistry;
    explicit Shard(const MetricsRegistry* owner);
    const MetricsRegistry* owner_;
    std::vector<u64> slots_;
  };

  Shard& shard(unsigned worker) { return shards_[worker]; }
  unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  // --- Aggregation (call only after the workers have been joined).

  // Aggregated scalar (counter: sum of shards; gauge: max of shards;
  // histogram: total observation count).
  u64 value(MetricId id) const;
  // Histogram bucket counts (bounds buckets + overflow), aggregated.
  std::vector<u64> histogram_counts(MetricId id) const;

  // One-line JSON object over every registered metric, in registration
  // order: counters/gauges as numbers, histograms as
  // {"bounds": [...], "counts": [...], "sum": N}.
  std::string to_json() const;

 private:
  enum class Kind : u8 { kCounter, kGauge, kHistogram };

  struct Metric {
    std::string name;
    Kind kind;
    MetricId id;
    std::vector<u64> bounds;  // histogram only
  };

  MetricId allocate(const std::string& name, Kind kind, u32 slots,
                    std::vector<u64> bounds);
  u64 fold(u32 slot, Kind kind) const;
  const std::vector<u64>& bounds_for(MetricId id) const;

  std::vector<Metric> metrics_;
  u32 slot_count_ = 0;
  bool frozen_ = false;
  std::vector<Shard> shards_;
};

// The metric set shared by the fault and mutation campaign engines: mutant
// totals, a caller-named outcome histogram, guest-instruction volume, and
// post-mortem capture counts. Values are chosen to be partition-invariant
// (nothing depends on worker count or lane assignment), so the JSON export
// is byte-identical across `jobs` settings and machine reuse on/off.
class CampaignTelemetry {
 public:
  CampaignTelemetry(const std::vector<std::string>& bucket_names,
                    unsigned workers);

  // One finished mutant run, called from worker lane `worker`.
  void record_run(unsigned worker, unsigned bucket, u64 instructions,
                  bool post_mortem_captured);

  // Campaign-level facts, set once by the driver thread.
  void set_campaign(u64 total_mutants, u64 golden_instructions,
                    u64 hang_budget);

  // Statically pruned mutant count (campaign triage). Only campaigns that
  // ran with triage call this; the JSON stays unchanged otherwise.
  void set_pruned(u64 pruned);

  // One-line JSON of the aggregated campaign metrics.
  std::string to_json() const;

 private:
  MetricsRegistry registry_;
  MetricId mutants_;
  std::vector<MetricId> buckets_;
  MetricId instructions_;
  MetricId instructions_hist_;
  MetricId post_mortems_;
  u64 total_mutants_ = 0;
  u64 golden_instructions_ = 0;
  u64 hang_budget_ = 0;
  bool pruned_set_ = false;
  u64 pruned_ = 0;
};

}  // namespace s4e::obs
