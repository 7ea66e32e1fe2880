// Aggregate values and reduce functions for the cross-hypervisor
// aggregation abstraction (§III.D).
//
// Each server stores local data as (topic, attributeName, value) tuples; an
// aggregation function is associated with each topic.  We carry a small
// composite so SUM / MIN / MAX / COUNT / AVG all ride the same tree without
// re-plumbing: combining two AggValues combines every component.
#pragma once

#include <cstdint>
#include <string>

namespace vb::agg {

/// Composite aggregate of a set of doubles.
struct AggValue {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t count = 0;

  /// Aggregate of a single observation.
  static AggValue of(double x) { return AggValue{x, x, x, 1}; }

  /// Identity element (aggregate of the empty set).
  static AggValue zero() { return AggValue{}; }

  double avg() const { return count ? sum / static_cast<double>(count) : 0.0; }

  bool empty() const { return count == 0; }

  friend bool operator==(const AggValue&, const AggValue&) = default;

  /// Checkpoint layout (src/ckpt): sum, min, max, count.
  template <class IO>
  void ckpt_io(IO& io) {
    io.f64(sum);
    io.f64(min);
    io.f64(max);
    io.u64(count);
  }
};

/// Combines two aggregates (associative, commutative, with zero() identity).
AggValue combine(const AggValue& a, const AggValue& b);

/// Debug formatting.
std::string to_string(const AggValue& v);

}  // namespace vb::agg
