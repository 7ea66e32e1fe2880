#include "obs/metrics.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"

namespace vb::obs {

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Distribution* MetricsRegistry::find_distribution(
    const std::string& name) const {
  auto it = distributions_.find(name);
  return it == distributions_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::has(const std::string& name) const {
  return counters_.contains(name) || gauges_.contains(name) ||
         distributions_.contains(name);
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(series_count());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.type = "counter";
    s.value = static_cast<double>(c.value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.type = "gauge";
    s.value = g.value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, d] : distributions_) {
    MetricSample s;
    s.name = name;
    s.type = "distribution";
    s.count = d.acc().count();
    s.value = d.acc().mean();
    s.mean = d.acc().mean();
    s.stddev = d.acc().stddev();
    s.min = d.acc().min();
    s.max = d.acc().max();
    out.push_back(std::move(s));
  }
  return out;
}

bool MetricsRegistry::write_csv(const std::string& path) const {
  try {
    CsvWriter csv(path);
    csv.row({"name", "type", "count", "value", "mean", "stddev", "min", "max"});
    auto num = [](double v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    };
    for (const MetricSample& s : snapshot()) {
      csv.row({s.name, s.type, std::to_string(s.count), num(s.value),
               num(s.mean), num(s.stddev), num(s.min), num(s.max)});
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  os << "{\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : snapshot()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << s.name << "\",\"type\":\"" << s.type
       << "\",\"count\":" << s.count << ",\"value\":" << num(s.value)
       << ",\"mean\":" << num(s.mean) << ",\"stddev\":" << num(s.stddev)
       << ",\"min\":" << num(s.min) << ",\"max\":" << num(s.max) << "}";
  }
  os << "\n]}\n";
  return os.str();
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json();
  return static_cast<bool>(f);
}

bool MetricsRegistry::write(const std::string& path) const {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    return write_json(path);
  }
  return write_csv(path);
}

}  // namespace vb::obs
