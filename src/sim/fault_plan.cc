#include "sim/fault_plan.h"

#include <cmath>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>

namespace vb::sim {

FaultPlan& FaultPlan::add_window(const FaultWindow& w) {
  windows_.push_back(w);
  return *this;
}

FaultPlan& FaultPlan::add_partition(const PartitionWindow& p) {
  partitions_.push_back(p);
  return *this;
}

FaultPlan& FaultPlan::uniform_loss(double p, double start_s, double end_s) {
  FaultWindow w;
  w.start_s = start_s;
  w.end_s = end_s;
  w.drop_prob = p;
  return add_window(w);
}

FaultPlan& FaultPlan::uniform_duplication(double p, double start_s,
                                          double end_s) {
  FaultWindow w;
  w.start_s = start_s;
  w.end_s = end_s;
  w.dup_prob = p;
  return add_window(w);
}

FaultPlan& FaultPlan::jitter(double max_s, double start_s, double end_s) {
  FaultWindow w;
  w.start_s = start_s;
  w.end_s = end_s;
  w.jitter_max_s = max_s;
  return add_window(w);
}

FaultPlan& FaultPlan::delay_spike(double extra_s, double start_s,
                                  double end_s) {
  FaultWindow w;
  w.start_s = start_s;
  w.end_s = end_s;
  w.delay_extra_s = extra_s;
  return add_window(w);
}

FaultPlan& FaultPlan::link_loss(int src_host, int dst_host, double p,
                                double start_s, double end_s) {
  FaultWindow w;
  w.start_s = start_s;
  w.end_s = end_s;
  w.src_host = src_host;
  w.dst_host = dst_host;
  w.drop_prob = p;
  return add_window(w);
}

FaultPlan& FaultPlan::partition_rack(int rack, double start_s, double end_s) {
  PartitionWindow p;
  p.scope = PartitionWindow::Scope::kRack;
  p.index = rack;
  p.start_s = start_s;
  p.end_s = end_s;
  return add_partition(p);
}

FaultPlan& FaultPlan::partition_pod(int pod, double start_s, double end_s) {
  PartitionWindow p;
  p.scope = PartitionWindow::Scope::kPod;
  p.index = pod;
  p.start_s = start_s;
  p.end_s = end_s;
  return add_partition(p);
}

namespace {

bool crosses_partition(const PartitionWindow& p, const FaultEndpoints& ep) {
  bool src_in, dst_in;
  if (p.scope == PartitionWindow::Scope::kRack) {
    src_in = ep.src_rack == p.index;
    dst_in = ep.dst_rack == p.index;
  } else {
    src_in = ep.src_pod == p.index;
    dst_in = ep.dst_pod == p.index;
  }
  return src_in != dst_in;
}

}  // namespace

FaultDecision FaultPlan::decide(double now_s, const FaultEndpoints& ep) {
  FaultDecision d;
  for (const PartitionWindow& p : partitions_) {
    if (now_s >= p.start_s && now_s < p.end_s && crosses_partition(p, ep)) {
      d.drop = true;
      d.partitioned = true;
    }
  }
  for (const FaultWindow& w : windows_) {
    if (now_s < w.start_s || now_s >= w.end_s) continue;
    if (w.src_host != -1 && w.src_host != ep.src_host) continue;
    if (w.dst_host != -1 && w.dst_host != ep.dst_host) continue;
    // Every probabilistic clause draws exactly when its window is active,
    // in window order — the deterministic replay contract.
    if (w.drop_prob > 0.0 && rng_.chance(w.drop_prob)) d.drop = true;
    if (w.dup_prob > 0.0 && rng_.chance(w.dup_prob)) d.duplicate = true;
    d.extra_delay_s += w.delay_extra_s;
    if (w.jitter_max_s > 0.0) {
      d.extra_delay_s += rng_.uniform(0.0, w.jitter_max_s);
    }
  }
  if (d.drop) {
    d.duplicate = false;  // loss kills both copies
  } else if (d.duplicate) {
    // The duplicate trails the primary by its own small jitter, so the two
    // copies can reorder against other traffic independently.
    d.dup_extra_delay_s = d.extra_delay_s + rng_.uniform(0.0, 0.05);
  }
  return d;
}

FaultPlan FaultPlan::fresh() const {
  FaultPlan out(seed_);
  out.windows_ = windows_;
  out.partitions_ = partitions_;
  return out;
}

bool FaultPlan::quiescent_after(double t) const {
  for (const FaultWindow& w : windows_) {
    if (w.end_s > t) return false;
  }
  for (const PartitionWindow& p : partitions_) {
    if (p.end_s > t) return false;
  }
  return true;
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  // 17 significant digits round-trip any double exactly, so the describe()
  // string is a complete repro script parse_describe() can reconstruct.
  os << std::setprecision(17);
  os << "seed=" << seed_;
  for (const FaultWindow& w : windows_) {
    os << " win[" << w.start_s << "," << w.end_s << ")";
    if (w.src_host != -1 || w.dst_host != -1) {
      os << " link " << w.src_host << "->" << w.dst_host;
    }
    if (w.drop_prob > 0.0) os << " drop=" << w.drop_prob;
    if (w.dup_prob > 0.0) os << " dup=" << w.dup_prob;
    if (w.jitter_max_s > 0.0) os << " jitter=" << w.jitter_max_s;
    if (w.delay_extra_s > 0.0) os << " spike=" << w.delay_extra_s;
  }
  for (const PartitionWindow& p : partitions_) {
    os << " part("
       << (p.scope == PartitionWindow::Scope::kRack ? "rack " : "pod ")
       << p.index << ")[" << p.start_s << "," << p.end_s << ")";
  }
  return os.str();
}

namespace {

// Cursor over a describe() string: whitespace-separated tokens, each
// scanned with the tiny helpers below.  Any mismatch flips `ok` and the
// whole parse aborts.
struct DescribeCursor {
  const char* p;
  bool ok = true;

  void skip_ws() {
    while (*p == ' ') ++p;
  }
  bool eat(const char* word) {
    if (!ok) return false;
    std::size_t n = std::strlen(word);
    if (std::strncmp(p, word, n) != 0) {
      ok = false;
      return false;
    }
    p += n;
    return true;
  }
  bool peek(const char* word) const {
    return ok && std::strncmp(p, word, std::strlen(word)) == 0;
  }
  double number() {
    if (!ok) return 0.0;
    char* end = nullptr;
    double v = std::strtod(p, &end);  // strtod accepts "inf"
    if (end == p) {
      ok = false;
      return 0.0;
    }
    p = end;
    return v;
  }
  long long integer() {
    if (!ok) return 0;
    char* end = nullptr;
    long long v = std::strtoll(p, &end, 10);
    if (end == p) {
      ok = false;
      return 0;
    }
    p = end;
    return v;
  }
  // The seed is a full uint64 (describe() prints it unsigned); strtoll
  // would saturate anything above INT64_MAX and break the round-trip.
  std::uint64_t unsigned_integer() {
    if (!ok) return 0;
    if (*p == '-') {
      ok = false;  // strtoull silently wraps negatives
      return 0;
    }
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p || errno == ERANGE) {
      ok = false;
      return 0;
    }
    p = end;
    return v;
  }
};

void append_json_time(std::ostringstream& os, double t) {
  if (std::isinf(t)) {
    os << "null";
  } else {
    os << t;
  }
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse_describe(const std::string& text) {
  DescribeCursor c{text.c_str()};
  c.skip_ws();
  if (!c.eat("seed=")) return std::nullopt;
  std::uint64_t seed = c.unsigned_integer();
  if (!c.ok) return std::nullopt;
  FaultPlan plan(seed);

  while (c.ok) {
    c.skip_ws();
    if (*c.p == '\0') break;
    if (c.peek("win[")) {
      c.eat("win[");
      FaultWindow w;
      w.start_s = c.number();
      c.eat(",");
      w.end_s = c.number();
      c.eat(")");
      c.skip_ws();
      if (c.peek("link ")) {
        c.eat("link ");
        w.src_host = static_cast<int>(c.integer());
        c.eat("->");
        w.dst_host = static_cast<int>(c.integer());
        c.skip_ws();
      }
      if (c.peek("drop=")) {
        c.eat("drop=");
        w.drop_prob = c.number();
        c.skip_ws();
      }
      if (c.peek("dup=")) {
        c.eat("dup=");
        w.dup_prob = c.number();
        c.skip_ws();
      }
      if (c.peek("jitter=")) {
        c.eat("jitter=");
        w.jitter_max_s = c.number();
        c.skip_ws();
      }
      if (c.peek("spike=")) {
        c.eat("spike=");
        w.delay_extra_s = c.number();
      }
      if (!c.ok) return std::nullopt;
      plan.add_window(w);
    } else if (c.peek("part(")) {
      c.eat("part(");
      PartitionWindow pw;
      if (c.peek("rack ")) {
        c.eat("rack ");
        pw.scope = PartitionWindow::Scope::kRack;
      } else if (c.peek("pod ")) {
        c.eat("pod ");
        pw.scope = PartitionWindow::Scope::kPod;
      } else {
        return std::nullopt;
      }
      pw.index = static_cast<int>(c.integer());
      c.eat(")[");
      pw.start_s = c.number();
      c.eat(",");
      pw.end_s = c.number();
      c.eat(")");
      if (!c.ok) return std::nullopt;
      plan.add_partition(pw);
    } else {
      return std::nullopt;
    }
  }
  if (!c.ok) return std::nullopt;
  return plan;
}

std::string FaultPlan::to_json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"seed\": " << seed_ << ", \"windows\": [";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const FaultWindow& w = windows_[i];
    if (i > 0) os << ", ";
    os << "{\"start_s\": " << w.start_s << ", \"end_s\": ";
    append_json_time(os, w.end_s);
    os << ", \"src_host\": " << w.src_host
       << ", \"dst_host\": " << w.dst_host
       << ", \"drop_prob\": " << w.drop_prob
       << ", \"dup_prob\": " << w.dup_prob
       << ", \"jitter_max_s\": " << w.jitter_max_s
       << ", \"delay_extra_s\": " << w.delay_extra_s << "}";
  }
  os << "], \"partitions\": [";
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const PartitionWindow& p = partitions_[i];
    if (i > 0) os << ", ";
    os << "{\"scope\": \""
       << (p.scope == PartitionWindow::Scope::kRack ? "rack" : "pod")
       << "\", \"index\": " << p.index << ", \"start_s\": " << p.start_s
       << ", \"end_s\": ";
    append_json_time(os, p.end_s);
    os << "}";
  }
  os << "]}";
  return os.str();
}

FaultPlan FaultPlan::canned_loss(std::uint64_t seed) {
  FaultPlan plan(seed);
  plan.uniform_loss(0.02, 300.0, 2400.0)
      .uniform_duplication(0.01, 300.0, 2400.0)
      .jitter(0.02, 300.0, 2400.0);
  return plan;
}

FaultPlan FaultPlan::canned_partition(std::uint64_t seed) {
  FaultPlan plan(seed);
  plan.uniform_loss(0.02, 300.0, 2400.0)
      .uniform_duplication(0.01, 300.0, 2400.0)
      .partition_rack(0, 600.0, 605.0);
  return plan;
}

FaultPlan FaultPlan::canned_storm(std::uint64_t seed) {
  FaultPlan plan(seed);
  for (double burst : {400.0, 1000.0, 1600.0}) {
    plan.uniform_loss(0.10, burst, burst + 60.0)
        .uniform_duplication(0.05, burst, burst + 60.0)
        .delay_spike(1.0, burst + 30.0, burst + 40.0)
        .jitter(0.1, burst, burst + 60.0);
  }
  return plan;
}

}  // namespace vb::sim
