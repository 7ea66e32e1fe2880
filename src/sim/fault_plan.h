// Scripted, seeded chaos for the simulated transport.
//
// A FaultPlan describes *when* and *where* the network misbehaves: per-link
// or per-window message loss, duplication, reordering jitter, delay spikes,
// and rack/pod partitions.  The transport (PastryNetwork) consults the plan
// at its single send choke point; every random draw flows through the
// plan's own seeded Rng, so an identical (seed, plan) pair replays the
// exact same fault sequence and the whole run stays bit-identical — the
// property the chaos test suite and the fuzz shrinker depend on.
//
// The plan is deliberately ignorant of net::Topology (sim must stay below
// net in the dependency order); the transport precomputes the endpoints'
// rack/pod coordinates into a FaultEndpoints.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vb::sim {

/// Host coordinates of one message's sender and receiver, precomputed by
/// the transport from its topology.
struct FaultEndpoints {
  int src_host = -1;
  int dst_host = -1;
  int src_rack = -1;
  int dst_rack = -1;
  int src_pod = -1;
  int dst_pod = -1;
};

/// One scripted misbehavior window.  Wildcard endpoints (-1) match any
/// host; a (src_host, dst_host) pair scripts a single directed link.
struct FaultWindow {
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  int src_host = -1;          ///< -1 = any sender
  int dst_host = -1;          ///< -1 = any receiver
  double drop_prob = 0.0;     ///< per-message loss probability
  double dup_prob = 0.0;      ///< per-message duplication probability
  double jitter_max_s = 0.0;  ///< uniform extra delay in [0, jitter_max_s)
  double delay_extra_s = 0.0; ///< deterministic added delay (latency spike)
};

/// A rack or pod cut off from the rest of the datacenter for a window.
/// Messages with exactly one endpoint inside the partition are dropped;
/// traffic fully inside (or fully outside) still flows.
struct PartitionWindow {
  enum class Scope { kRack, kPod };
  Scope scope = Scope::kRack;
  int index = 0;  ///< rack or pod id
  double start_s = 0.0;
  double end_s = 0.0;
};

/// What the transport should do with one message.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool partitioned = false;        ///< drop was caused by a partition window
  double extra_delay_s = 0.0;      ///< added to the primary copy's latency
  double dup_extra_delay_s = 0.0;  ///< added to the duplicate's latency
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  // --- script construction (builder style) -------------------------------
  FaultPlan& add_window(const FaultWindow& w);
  FaultPlan& add_partition(const PartitionWindow& p);
  FaultPlan& uniform_loss(double p, double start_s = 0.0,
                          double end_s = kForever);
  FaultPlan& uniform_duplication(double p, double start_s = 0.0,
                                 double end_s = kForever);
  FaultPlan& jitter(double max_s, double start_s = 0.0,
                    double end_s = kForever);
  FaultPlan& delay_spike(double extra_s, double start_s, double end_s);
  FaultPlan& link_loss(int src_host, int dst_host, double p,
                       double start_s = 0.0, double end_s = kForever);
  FaultPlan& partition_rack(int rack, double start_s, double end_s);
  FaultPlan& partition_pod(int pod, double start_s, double end_s);

  /// Rolls the dice for one message.  Mutates the plan's Rng: call order is
  /// the replay contract (deterministic because the simulator is).
  FaultDecision decide(double now_s, const FaultEndpoints& ep);

  /// A copy of this script with its Rng rewound to the seed — the "same
  /// (seed, plan)" object for a bit-identical replay.
  FaultPlan fresh() const;

  /// Checkpoint accessors for the plan's Rng, the only state decide()
  /// mutates.
  Rng::State ckpt_rng_state() const { return rng_.ckpt_state(); }
  void ckpt_restore_rng(const Rng::State& s) { rng_.ckpt_restore(s); }

  std::uint64_t seed() const { return seed_; }
  const std::vector<FaultWindow>& windows() const { return windows_; }
  const std::vector<PartitionWindow>& partitions() const { return partitions_; }
  bool empty() const { return windows_.empty() && partitions_.empty(); }
  /// True if no window or partition is active at or after `t` (the plan can
  /// no longer perturb anything).
  bool quiescent_after(double t) const;

  /// One-line reproduction recipe: seed plus every window/partition, e.g.
  /// "seed=7 win[300,2400) drop=0.02 win[300,2400) dup=0.01
  ///  part(rack 0)[600,605)".  Doubles are printed with 17 significant
  /// digits, so parse_describe() round-trips the exact plan.
  std::string describe() const;

  /// Parses a describe() string back into the equivalent plan (fresh Rng).
  /// Returns nullopt on malformed input.  describe -> parse -> describe is
  /// the identity; a unit test asserts it.
  static std::optional<FaultPlan> parse_describe(const std::string& text);

  /// The same repro as a structured JSON record, for embedding in flight-
  /// recorder manifests: {"seed": N, "windows": [...], "partitions": [...]}.
  /// Infinite end times are encoded as null.
  std::string to_json() const;

  // --- canned schedules (chaos invariant suite, docs) --------------------
  /// 2% uniform loss + 1% duplication + 20 ms jitter over [300, 2400).
  static FaultPlan canned_loss(std::uint64_t seed);
  /// The acceptance scenario: 2% loss + duplication over [300, 2400) plus
  /// one 5-second partition of rack 0 at t=600.
  static FaultPlan canned_partition(std::uint64_t seed);
  /// Bursty storm: three 10% loss / 5% dup bursts with 1 s delay spikes.
  static FaultPlan canned_storm(std::uint64_t seed);

  static constexpr double kForever = std::numeric_limits<double>::infinity();

 private:
  std::uint64_t seed_;
  Rng rng_;
  std::vector<FaultWindow> windows_;
  std::vector<PartitionWindow> partitions_;
};

}  // namespace vb::sim
