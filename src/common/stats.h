// Statistics helpers used by the evaluation harness.
//
// The paper reports standard deviations of server utilization (Fig. 10),
// cumulative distribution functions (Figs. 13, 15), and averaged latencies
// (Table I, Fig. 14).  This header provides exactly those reductions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vb {

/// Five-number-ish summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // population standard deviation
  double min = 0.0;
  double max = 0.0;
};

/// Computes count/mean/sd/min/max of `values` (population SD, matching the
/// paper's "standard deviation of all servers' utilizations").
Summary summarize(const std::vector<double>& values);

/// p-th percentile (0..100) by linear interpolation on the sorted sample.
double percentile(std::vector<double> values, double p);

/// Empirical CDF: sorted (value, cumulative fraction) points, one per sample.
struct CdfPoint {
  double value;
  double fraction;  // P(X <= value)
};
std::vector<CdfPoint> empirical_cdf(std::vector<double> values);

/// Fraction of samples <= threshold (reads a CDF at a point, e.g. "90% of
/// calls have response time below 10 ms").
double fraction_below(const std::vector<double>& values, double threshold);

/// Online mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples are clamped into
/// the first/last bin.  Used for utilization snapshots (Fig. 9).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Renders a compact ASCII bar chart (one line per bin).
  std::string ascii(int width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace vb
