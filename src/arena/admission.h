// Profit-driven admission control for VC(N, B) requests.
//
// Prices each offered bundle (VM-hours plus hose-bandwidth-hours, the
// "Opposites Attract" revenue model), asks the configured embedder whether
// it is placeable, and books revenue on acceptance.  Tracks per-tenant SLO
// streaks (a tenant rejected `slo_reject_streak` times in a row counts one
// SLO violation), keeps every live bundle with its departure time, and
// tears bundles down — VMs destroyed, demand profiles dropped, uplink
// ledgers released — when their lifetime expires.
//
// Everything here is deterministic bookkeeping: the accept/reject sequence
// is a pure function of (request stream, embedder, fleet state), and the
// whole controller state checkpoints for bit-identical resume.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arena/embedder.h"
#include "arena/request.h"
#include "workloads/demand.h"

namespace vb::arena {

/// The provider's rate card.
struct PricingConfig {
  double vm_hour = 0.04;       ///< $ per VM-hour
  double bw_gbps_hour = 0.29;  ///< $ per (Gbps of hose guarantee)-hour per VM
};

struct TenantStats {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t consecutive_rejects = 0;
  std::uint64_t slo_violations = 0;
};

struct AdmissionStats {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_capacity = 0;  ///< embedder found no placement
  std::uint64_t rejected_cost = 0;      ///< competitive gate said no
  std::uint64_t vms_accepted = 0;
  std::uint64_t hosts_probed = 0;
  double revenue = 0.0;          ///< booked from accepted bundles
  double offered_revenue = 0.0;  ///< what accepting everything would earn
  /// Rolling hash over the (request id, accepted) sequence — the arena
  /// determinism tests compare this across ckpt splits and fault plans.
  std::uint64_t decision_fingerprint = 1469598103934665603ULL;

  double acceptance_rate() const {
    return offered > 0 ? static_cast<double>(accepted) /
                             static_cast<double>(offered)
                       : 0.0;
  }
};

/// One admitted, still-running bundle.
struct ActiveBundle {
  std::uint64_t request_id = 0;
  host::CustomerId customer = -1;
  std::string tenant;
  double depart_s = 0.0;  ///< +inf: lives forever (closed world)
  double revenue = 0.0;
  int n_vms = 0;
  DemandShape shape;
  EmbedOutcome outcome;  ///< vms + uplink holds
};

class AdmissionController {
 public:
  struct Config {
    PricingConfig pricing;
    /// Campaign horizon: infinite-lifetime bundles are billed up to here.
    double horizon_s = 86400.0;
    std::uint64_t slo_reject_streak = 3;
  };

  /// `demand` may be null (closed-world runs without demand activity).
  /// All pointers must outlive the controller.
  AdmissionController(core::VBundleCloud* cloud, Embedder* embedder,
                      load::DemandModel* demand, Config cfg);

  /// Prices and offers one request; on accept, the bundle's VMs are placed,
  /// demand profiles assigned, and revenue booked.  Returns accepted.
  bool offer(const VcRequest& req);

  /// What `req` would earn if accepted: billed hours (lifetime capped at
  /// the horizon) times N times (VM rate + B * bandwidth rate).
  double price(const VcRequest& req) const;

  /// Earliest pending departure time; +inf when nothing is due.  O(1).
  double next_departure() const;

  /// Destroys every bundle due at or before `now` (in (depart, id) order).
  /// A bundle with a VM mid-migration is deferred by `retry_s` and picked
  /// up on a later call.  Returns how many bundles departed.
  int process_departures(double now, double retry_s = 1.0);

  /// Swaps the embedder (closed-world phases use different placers against
  /// one shared controller).  Returns the previous one.
  Embedder* set_embedder(Embedder* e);
  Embedder* embedder() const { return embedder_; }

  const AdmissionStats& stats() const { return stats_; }
  const std::map<std::string, TenantStats>& tenants() const {
    return tenants_;
  }
  const std::map<std::uint64_t, ActiveBundle>& active() const {
    return active_;
  }
  /// Every accepted VM per tenant, in boot order (never pruned on
  /// departure) — the placement-quality measurements key off this.
  const std::map<std::string, std::vector<host::VmId>>& placed_by_tenant()
      const {
    return placed_;
  }
  std::uint64_t slo_violations() const;

  // --- checkpoint/restore (src/ckpt) --------------------------------------
  void ckpt_save(ckpt::Writer& w) const;
  /// Restores into a controller on a FRESH cloud: re-registers customers in
  /// their original order (the cloud image verifies them), rebuilds demand
  /// profiles for live bundles, and re-applies embedder ledgers.  Must run
  /// BEFORE VBundleCloud::restore_checkpoint.
  void ckpt_restore(ckpt::Reader& r);

 private:
  host::CustomerId customer_for(const std::string& tenant);

  core::VBundleCloud* cloud_;
  Embedder* embedder_;
  load::DemandModel* demand_;
  Config cfg_;
  AdmissionStats stats_;
  std::map<std::string, host::CustomerId> customer_ids_;
  std::map<std::uint64_t, ActiveBundle> active_;
  /// (depart_s, request id) of every entry in active_, in departure order.
  /// Derived state: not checkpointed, rebuilt from active_ on restore.
  std::set<std::pair<double, std::uint64_t>> departures_;
  std::map<std::string, TenantStats> tenants_;
  std::map<std::string, std::vector<host::VmId>> placed_;
};

}  // namespace vb::arena
