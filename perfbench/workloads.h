// The benchmark's workloads and one repetition ("rep") of each.
//
// A rep builds a fresh cloud from the seed, runs the workload's timed window
// through the public APIs, checks the outputs, and optionally takes a
// checkpoint round trip.  Everything a rep measures comes back in RepResult.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "span_log.h"

namespace vbbench {

enum class WorkloadKind { kRebalance, kArenaVBundle, kArenaCompetitive };

struct Workload {
  const char* name;
  WorkloadKind kind;
  int servers;
};

/// nullptr if `name` is not a workload.
const Workload* find_workload(std::string_view name);
/// Span names a traced rep of `w` must record: at least one per layer the
/// workload exercises.
std::vector<const char*> required_spans(const Workload& w);

struct RepConfig {
  std::uint64_t seed = 1;
  /// Wrap the arena embedder in a TimedEmbedder and, after the checks, take
  /// a checkpoint round trip: save, restore into a fresh cloud (and arena),
  /// save again, and require byte-identical images.
  bool instrumented = false;
  /// Non-null: record spans and compute the per-layer metrics.
  SpanLog* spans = nullptr;
};

struct RepResult {
  std::vector<std::string> errors;  ///< failed output checks; empty = pass
  double setup_s = 0.0;  ///< cloud construction + initial VM packing
  /// Host seconds of each slice of the timed window, in order.
  std::vector<double> slice_s;
  /// Hash of (events, migrations, decision fingerprint, util_sd) at the end
  /// of the timed window.
  std::uint64_t digest = 0;
  /// Offered bundles (arena) or shed queries sent (rebalance) ...
  std::uint64_t operations = 0;
  /// ... and those rejected (arena) or lost to anycast failure or timeout.
  std::uint64_t unserved = 0;
  double util_sd = 0.0;
  /// Process peak RSS after the checks, before any round trip, MiB.
  double peak_rss_mib = 0.0;
  std::uint64_t ckpt_bytes = 0;  ///< 0 without a round trip
  /// Per-layer metrics; filled only for traced reps.
  std::map<std::string, double> layer;
};

RepResult run_rep(const Workload& w, const RepConfig& rc);

/// Process peak resident set size so far, MiB.
double peak_rss_mib();

}  // namespace vbbench
