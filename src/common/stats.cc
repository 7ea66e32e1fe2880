#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <cstdio>

namespace vb {

Summary summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  Accumulator acc;
  for (double v : values) acc.add(v);
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p outside [0,100]");
  }
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::vector<CdfPoint> out;
  out.reserve(values.size());
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.push_back({values[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

double fraction_below(const std::vector<double>& values, double threshold) {
  if (values.empty()) return 0.0;
  std::size_t c = 0;
  for (double v : values) {
    if (v <= threshold) ++c;
  }
  return static_cast<double>(c) / static_cast<double>(values.size());
}

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins == 0");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo >= hi");
}

void Histogram::add(double x) {
  double t = (x - lo_) / (hi_ - lo_);
  auto i = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  i = std::clamp<std::ptrdiff_t>(i, 0,
                                 static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(i)];
  ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::string Histogram::ascii(int width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    int bar = static_cast<int>(static_cast<double>(counts_[i]) /
                               static_cast<double>(peak) * width);
    std::snprintf(line, sizeof(line), "[%6.3f,%6.3f) %8zu |", bin_lo(i),
                  bin_hi(i), counts_[i]);
    out += line;
    out.append(static_cast<std::size_t>(bar), '#');
    out += '\n';
  }
  return out;
}

}  // namespace vb
