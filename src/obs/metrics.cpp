#include "obs/metrics.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace s4e::obs {

MetricsRegistry::Shard::Shard(const MetricsRegistry* owner)
    : owner_(owner), slots_(owner->slot_count_, 0) {}

void MetricsRegistry::Shard::observe(MetricId id, u64 value) {
  // Linear probe over the fixed bounds: histograms here have a handful of
  // decades, where the scan beats a binary search.
  u32 bucket = id.buckets - 1;  // overflow bucket by default
  const std::vector<u64>& bounds = owner_->bounds_for(id);
  for (u32 i = 0; i < bounds.size(); ++i) {
    if (value <= bounds[i]) {
      bucket = i;
      break;
    }
  }
  slots_[id.slot + bucket] += 1;
  slots_[id.slot + id.buckets] += value;  // running sum after the counts
}

const std::vector<u64>& MetricsRegistry::bounds_for(MetricId id) const {
  for (const Metric& metric : metrics_) {
    if (metric.id.slot == id.slot) return metric.bounds;
  }
  static const std::vector<u64> kEmpty;
  return kEmpty;
}

MetricId MetricsRegistry::allocate(const std::string& name, Kind kind,
                                   u32 slots, std::vector<u64> bounds) {
  S4E_CHECK_MSG(!frozen_, "metric registered after open_shards()");
  Metric metric;
  metric.name = name;
  metric.kind = kind;
  metric.id.slot = slot_count_;
  metric.id.buckets = kind == Kind::kHistogram ? slots - 1 : 0;
  metric.bounds = std::move(bounds);
  slot_count_ += slots;
  metrics_.push_back(std::move(metric));
  return metrics_.back().id;
}

MetricId MetricsRegistry::add_counter(const std::string& name) {
  return allocate(name, Kind::kCounter, 1, {});
}

MetricId MetricsRegistry::add_gauge(const std::string& name) {
  return allocate(name, Kind::kGauge, 1, {});
}

MetricId MetricsRegistry::add_histogram(const std::string& name,
                                        std::vector<u64> bounds) {
  S4E_CHECK_MSG(!bounds.empty(), "histogram needs at least one bound");
  S4E_CHECK_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                "histogram bounds must be increasing");
  // counts per bound + overflow count + sum slot.
  const u32 slots = static_cast<u32>(bounds.size()) + 2;
  return allocate(name, Kind::kHistogram, slots, std::move(bounds));
}

void MetricsRegistry::open_shards(unsigned workers) {
  frozen_ = true;
  shards_.clear();
  shards_.reserve(std::max(workers, 1u));
  for (unsigned i = 0; i < std::max(workers, 1u); ++i) {
    shards_.push_back(Shard(this));
  }
}

u64 MetricsRegistry::fold(u32 slot, Kind kind) const {
  u64 value = 0;
  for (const Shard& shard : shards_) {
    if (kind == Kind::kGauge) {
      value = std::max(value, shard.slots_[slot]);
    } else {
      value += shard.slots_[slot];
    }
  }
  return value;
}

u64 MetricsRegistry::value(MetricId id) const {
  for (const Metric& metric : metrics_) {
    if (metric.id.slot != id.slot) continue;
    if (metric.kind != Kind::kHistogram) return fold(id.slot, metric.kind);
    u64 count = 0;
    for (u32 i = 0; i < id.buckets; ++i) {
      count += fold(id.slot + i, Kind::kCounter);
    }
    return count;
  }
  return 0;
}

std::vector<u64> MetricsRegistry::histogram_counts(MetricId id) const {
  std::vector<u64> counts(id.buckets, 0);
  for (u32 i = 0; i < id.buckets; ++i) {
    counts[i] = fold(id.slot + i, Kind::kCounter);
  }
  return counts;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    if (i != 0) out += ", ";
    out += "\"" + metric.name + "\": ";
    if (metric.kind != Kind::kHistogram) {
      out += format("%llu", static_cast<unsigned long long>(
                                fold(metric.id.slot, metric.kind)));
      continue;
    }
    out += "{\"bounds\": [";
    for (std::size_t b = 0; b < metric.bounds.size(); ++b) {
      out += format("%s%llu", b != 0 ? ", " : "",
                    static_cast<unsigned long long>(metric.bounds[b]));
    }
    out += "], \"counts\": [";
    for (u32 b = 0; b < metric.id.buckets; ++b) {
      out += format("%s%llu", b != 0 ? ", " : "",
                    static_cast<unsigned long long>(
                        fold(metric.id.slot + b, Kind::kCounter)));
    }
    out += format("], \"sum\": %llu}",
                  static_cast<unsigned long long>(
                      fold(metric.id.slot + metric.id.buckets,
                           Kind::kCounter)));
  }
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// CampaignTelemetry.

CampaignTelemetry::CampaignTelemetry(
    const std::vector<std::string>& bucket_names, unsigned workers) {
  mutants_ = registry_.add_counter("mutants");
  for (const std::string& name : bucket_names) {
    buckets_.push_back(registry_.add_counter(name));
  }
  instructions_ = registry_.add_counter("guest_instructions");
  instructions_hist_ = registry_.add_histogram(
      "mutant_instructions",
      {1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000});
  post_mortems_ = registry_.add_counter("post_mortems");
  registry_.open_shards(workers);
}

void CampaignTelemetry::record_run(unsigned worker, unsigned bucket,
                                   u64 instructions,
                                   bool post_mortem_captured) {
  MetricsRegistry::Shard& shard = registry_.shard(worker);
  shard.add(mutants_, 1);
  if (bucket < buckets_.size()) shard.add(buckets_[bucket], 1);
  shard.add(instructions_, instructions);
  shard.observe(instructions_hist_, instructions);
  if (post_mortem_captured) shard.add(post_mortems_, 1);
}

void CampaignTelemetry::set_campaign(u64 total_mutants,
                                     u64 golden_instructions,
                                     u64 hang_budget) {
  total_mutants_ = total_mutants;
  golden_instructions_ = golden_instructions;
  hang_budget_ = hang_budget;
}

void CampaignTelemetry::set_pruned(u64 pruned) {
  pruned_set_ = true;
  pruned_ = pruned;
}

std::string CampaignTelemetry::to_json() const {
  // Campaign-level facts first, then the aggregated worker metrics merged
  // into one flat object.
  std::string metrics = registry_.to_json();
  metrics.erase(0, 1);  // drop the leading '{'
  std::string pruned;
  if (pruned_set_) {
    pruned = format("\"pruned\": %llu, ",
                    static_cast<unsigned long long>(pruned_));
  }
  return format("{\"mutants_total\": %llu, \"golden_instructions\": %llu, "
                "\"hang_budget\": %llu, %s%s",
                static_cast<unsigned long long>(total_mutants_),
                static_cast<unsigned long long>(golden_instructions_),
                static_cast<unsigned long long>(hang_budget_), pruned.c_str(),
                metrics.c_str());
}

}  // namespace s4e::obs
