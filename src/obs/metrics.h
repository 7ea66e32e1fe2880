// Unified metrics registry: named counters, gauges, and distributions
// behind one snapshot-and-export API.
//
// The scattered roll-ups that predate this layer — TrafficCounters
// per-category sums, ShuffleStats tallies, Simulator event counters, fleet
// utilization summaries — are *collected into* a registry by the layer that
// owns them (PastryNetwork::export_metrics, VBundleCloud::collect_metrics);
// obs stays below pastry in the dependency order, so collection is a method
// on the owner, not a free function here.
//
// Collection is pull-based and idempotent: counters/gauges are overwritten
// with the current value on every collect, and distributions are reset
// before being refilled, so repeated snapshots never double-count.
//
// Export: CSV (common/csv.h, one row per series) and JSON, both carrying
// the same {name, type, count, value, mean, stddev, min, max} schema.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace vb::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution of observed samples (Welford accumulator under the hood).
/// Callers snapshotting a population (e.g. per-node message counts) should
/// reset() before re-observing so successive collections don't accumulate.
class Distribution {
 public:
  void observe(double x) { acc_.add(x); }
  void reset() { acc_ = Accumulator(); }
  const Accumulator& acc() const { return acc_; }

 private:
  Accumulator acc_;
};

/// One exported series.
struct MetricSample {
  std::string name;
  const char* type = "counter";  // "counter" | "gauge" | "distribution"
  std::size_t count = 0;         // distribution sample count (0 otherwise)
  double value = 0.0;            // counter/gauge value; distribution mean
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

class MetricsRegistry {
 public:
  /// Lookup-or-create.  References stay valid for the registry's lifetime
  /// (std::map nodes are stable).
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Distribution& distribution(const std::string& name) {
    return distributions_[name];
  }

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Distribution* find_distribution(const std::string& name) const;
  bool has(const std::string& name) const;
  std::size_t series_count() const {
    return counters_.size() + gauges_.size() + distributions_.size();
  }

  /// All series, sorted by name within each type (counters, then gauges,
  /// then distributions) — deterministic export order.
  std::vector<MetricSample> snapshot() const;

  /// CSV with header name,type,count,value,mean,stddev,min,max.
  bool write_csv(const std::string& path) const;
  std::string to_json() const;
  bool write_json(const std::string& path) const;
  /// Dispatches on extension: ".json" -> JSON, anything else -> CSV.
  bool write(const std::string& path) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Distribution> distributions_;
};

}  // namespace vb::obs
