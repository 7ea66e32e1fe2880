// The arena: an open-world tenant campaign driver on top of VBundleCloud.
//
// Wires generator -> admission -> embedder over a live cloud and advances
// simulated time on an agenda of three deterministic event kinds — arrivals
// (from the seeded generator), departures (lifetime expiry), and metric
// samples — always processing the earliest next event, departures before
// arrivals before samples on ties.  Booting a bundle steps the simulator
// inline (the placement protocol runs to completion), so sim time can pass
// an agenda deadline; the loop clamps and catches up, which is itself
// deterministic.
//
// The loop runs on one thread and does no per-request fleet scan: the next
// departure comes from the admission controller's (depart_s, id) index, and
// utilization from the Fleet's cached free-capacity total, a fixed 64-chunk
// fold re-summed only in chunks whose reservations changed (see
// host::Fleet::free_reservation_total).
//
// Determinism contracts (locked by tests/arena/):
//   * (seed -> accept/reject sequence, revenue, metrics) is a pure function
//     of the configuration;
//   * a campaign split by save_checkpoint/restore_checkpoint at any agenda
//     boundary is bit-identical to an uninterrupted run, with or without an
//     attached FaultPlan.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "arena/admission.h"
#include "arena/embedder.h"
#include "arena/generator.h"
#include "obs/metrics.h"

namespace vb::arena {

enum class EmbedderKind { kVBundle, kFirstFit, kGreedyTree, kCompetitive };

const char* embedder_kind_name(EmbedderKind k);
/// Parses "vbundle" | "first_fit" | "greedy_tree" | "competitive"; throws
/// std::invalid_argument on anything else.
EmbedderKind embedder_kind_from(const std::string& name);

struct ArenaConfig {
  GeneratorConfig generator;
  EmbedderKind embedder = EmbedderKind::kVBundle;
  PricingConfig pricing;
  CompetitiveConfig competitive;
  /// Stop offering after this many arrivals (departures keep draining).
  std::uint64_t max_requests = 1000;
  double horizon_s = 86400.0;
  double sample_every_s = 600.0;
  std::uint64_t slo_reject_streak = 3;
  bool enable_rebalancing = false;
  /// 0 disables the demand model (no periodic demand application).
  double demand_apply_interval_s = 60.0;
  /// Has no effect: the arena runs on one thread.  Kept only because the
  /// end-to-end benchmark (perfbench/workloads.cc) still assigns it.
  int threads = 1;
};

class Arena {
 public:
  /// The cloud must be freshly constructed (no customers, t = 0) and
  /// outlive the arena.
  Arena(core::VBundleCloud* cloud, ArenaConfig cfg);

  /// Runs the open-world campaign to the horizon.
  void run() { run_until(cfg_.horizon_s); }

  /// Advances the campaign until sim time reaches `until_s` (processing all
  /// agenda events due before it).  Resumable: call repeatedly with growing
  /// targets, or checkpoint between calls.
  void run_until(double until_s);

  /// Closed-world mode: drains `src` through admission at t = 0 with
  /// embedder `e` (nullptr: the configured one).  Returns requests offered.
  std::uint64_t run_closed(RequestSource& src, Embedder* e = nullptr);

  AdmissionController& admission() { return *admission_; }
  const AdmissionController& admission() const { return *admission_; }
  Embedder& embedder() { return *embedder_; }
  core::VBundleCloud& cloud() { return *cloud_; }
  const ArenaConfig& config() const { return cfg_; }

  /// Bisection-bandwidth fragmentation of the fleet's free capacity, now.
  double fragmentation() const;
  /// Fleet bandwidth-reservation utilization in [0, 1], from the Fleet's
  /// cached free-capacity total.
  double utilization() const;

  /// Exports arena.* counters/gauges/distributions (acceptance rate,
  /// revenue, fragmentation, migration churn, SLO violations, ...).
  void collect_metrics(obs::MetricsRegistry& reg) const;

  // --- checkpoint/restore (src/ckpt) --------------------------------------
  /// Serializes the full campaign: arena loop state, generator, admission,
  /// and the embedded cloud image (quiescing the simulator).
  std::vector<std::uint8_t> save_checkpoint();
  /// Restores into an arena built with the same (config, fresh cloud) pair.
  /// Re-runs the deterministic setup (customers, demand model, rebalancing)
  /// and then restores the embedded cloud image; the resumed campaign is
  /// bit-identical to one that never stopped.
  void restore_checkpoint(const std::vector<std::uint8_t>& image);

 private:
  void setup_once();
  void take_sample();

  core::VBundleCloud* cloud_;
  ArenaConfig cfg_;
  load::DemandModel demand_;
  std::unique_ptr<Embedder> embedder_;
  std::unique_ptr<AdmissionController> admission_;
  OpenWorldGenerator gen_;
  std::optional<VcRequest> pending_;
  std::uint64_t arrivals_ = 0;
  double next_sample_;
  bool setup_done_ = false;
  std::vector<double> frag_samples_;
  std::vector<double> util_samples_;
};

}  // namespace vb::arena
