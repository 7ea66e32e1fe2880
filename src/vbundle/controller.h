// VBundleAgent: the per-server v-Bundle controller.
//
// One agent runs on every physical server (the paper's "hypervisor-based
// controller" plus "cross-hypervisor interface", §III.D).  It glues the
// stack together:
//   * answers boot queries routed to customer keys and walks spillover
//     through the proximity neighbor set              (placement.cc, §II.B)
//   * feeds BW_Capacity / BW_Demand into the aggregation trees and learns
//     the cluster averages from root publishes        (shuffler.cc, §III.C)
//   * self-classifies as load shedder / receiver, joins the Less-Loaded
//     anycast tree, sheds VMs via anycast queries and live migration
//                                                     (shuffler.cc, §III.C)
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "aggregation/aggregation_tree.h"
#include "common/hash.h"
#include "hostmodel/host.h"
#include "scribe/scribe_node.h"
#include "sim/simulator.h"
#include "vbundle/migration.h"
#include "vbundle/placement.h"
#include "vbundle/shuffler.h"

namespace vb::core {

/// Tunables of the v-Bundle protocol; defaults follow the paper's
/// evaluation (threshold 0.183, 5-minute updates, 25-minute rebalancing).
struct VBundleConfig {
  double threshold = 0.183;
  /// Margin below the cluster average before a server advertises itself as
  /// a load receiver.  §III: members of the Less-Loaded group "advertise
  /// some spare resource" and leave when "utilization exceeds some
  /// threshold value (e.g., above group average)" — so the natural default
  /// is 0 (any server under the average can receive); Fig. 9-style
  /// experiments can set a stricter margin.
  double receiver_margin = 0.0;
  double update_interval_s = 300.0;      // 5 min
  double rebalance_interval_s = 1500.0;  // 25 min
  int max_placement_visits = 256;
  /// Upper bound on VMs shed by one server within one rebalancing round
  /// (defends against pathological loops; generous by default).
  int max_sheds_per_round = 64;
  /// §VII future-work extension: also balance CPU.  When set, servers
  /// publish CPU capacity/demand trees, classify on the bottleneck metric,
  /// and receivers check both ceilings before accepting.
  bool balance_cpu = false;
  /// Shedder-side patience for one load-balance query: if neither an
  /// accept nor a tree-exhausted failure arrives in this window (both can
  /// vanish under chaos even with retransmission), the shedder declares
  /// the query dead and tries again with a fresh sequence number.
  double query_timeout_s = 120.0;
  /// Receiver-side lease on a hold taken for an accepted query.  Must
  /// dominate query_timeout_s plus the migration transfer time so a lease
  /// can never expire under a migration that is still going to consume it;
  /// it only reclaims holds whose shedder went permanently silent.
  double accept_hold_lease_s = 600.0;
  MigrationConfig migration;
};

/// Well-known aggregation topics and the Less-Loaded anycast group.
struct Topics {
  agg::TopicId bw_capacity;
  agg::TopicId bw_demand;
  agg::TopicId cpu_capacity;
  agg::TopicId cpu_demand;
  scribe::GroupId less_loaded;

  /// The paper's topic names, keyed by hash as Scribe prescribes.
  static Topics standard() {
    return Topics{scribe_group_id("BW_Capacity", "vbundle"),
                  scribe_group_id("BW_Demand", "vbundle"),
                  scribe_group_id("CPU_Capacity", "vbundle"),
                  scribe_group_id("CPU_Demand", "vbundle"),
                  scribe_group_id("less-loaded", "vbundle")};
  }
};

class VBundleAgent;

/// Host-indexed lookup of agents; lets migration completion notify the
/// receiving hypervisor (a local control action, not a network message).
using AgentDirectory = std::vector<VBundleAgent*>;

class VBundleAgent : public pastry::PastryApp,
                     public scribe::ScribeApp,
                     public agg::AggregationListener,
                     public ShuffleClient {
 public:
  VBundleAgent(pastry::PastryNode* node, scribe::ScribeNode* scribe,
               agg::AggregationAgent* aggregation, host::Fleet* fleet,
               MigrationManager* migration, const AgentDirectory* directory,
               const VBundleConfig* cfg, Topics topics);

  VBundleAgent(const VBundleAgent&) = delete;
  VBundleAgent& operator=(const VBundleAgent&) = delete;

  /// Subscribes to the aggregation topics.  Call once, after construction
  /// of all agents.
  void start();

  /// Periodic driver, every update interval: publish local bandwidth
  /// capacity/demand into the trees and re-evaluate our role.
  void update_tick();

  /// Periodic driver, every rebalancing interval: if we are a shedder,
  /// start shedding VMs until we drop under the average line.
  void rebalance_tick();

  /// Gateway entry point: boot a (created, unplaced) VM near
  /// hash(customer).  `cb(vm, host_or_-1, servers_probed)` fires when the
  /// placement protocol finishes.
  void request_boot(const U128& customer_key, host::VmId vm,
                    const host::VmSpec& spec, host::CustomerId customer,
                    BootCallback cb);

  // --- observability ------------------------------------------------------
  LoadRole role() const { return role_; }
  /// Cluster-average bandwidth utilization from the last publish.
  std::optional<double> cluster_avg_utilization() const;
  /// Cluster-average CPU utilization (multi-metric mode only).
  std::optional<double> cluster_avg_cpu_utilization() const;
  /// This server's current bandwidth utilization (demand over capacity,
  /// counting in-flight inbound migrations, discounting outbound ones).
  double effective_utilization() const;
  /// Same, for the CPU metric.
  double effective_cpu_utilization() const;
  const ShuffleStats& stats() const { return stats_; }
  int host() const { return node_->host(); }
  pastry::PastryNode& node() { return *node_; }

  // --- PastryApp ----------------------------------------------------------
  void deliver(pastry::PastryNode& self, const pastry::RouteMsg& msg) override;
  void receive_direct(pastry::PastryNode& self, const pastry::NodeHandle& from,
                      const pastry::PayloadPtr& payload,
                      pastry::MsgCategory category) override;

  // --- ScribeApp ----------------------------------------------------------
  bool on_anycast(scribe::ScribeNode& self, const scribe::GroupId& group,
                  const pastry::PayloadPtr& inner,
                  const pastry::NodeHandle& origin) override;
  void on_anycast_accepted(scribe::ScribeNode& self,
                           const scribe::GroupId& group,
                           const pastry::PayloadPtr& inner,
                           const pastry::NodeHandle& acceptor,
                           int nodes_visited) override;
  void on_anycast_failed(scribe::ScribeNode& self, const scribe::GroupId& group,
                         const pastry::PayloadPtr& inner) override;

  // --- AggregationListener -------------------------------------------------
  void on_global(const agg::TopicId& topic, const agg::AggValue& global,
                 sim::SimTime when) override;

  /// Called by the shedder's migration completion on the receiving agent.
  void on_migration_arrived(host::VmId vm);

  /// Releases the hold we took when accepting the query for `vm` (stale
  /// accept, shedder-side abort, or lease expiry).  No-op if nothing is
  /// pending for `vm`.
  void release_accepted(host::VmId vm);

  // --- ShuffleClient ------------------------------------------------------
  /// Shedder-side cutover bookkeeping for a shuffle migration started via
  /// MigrationManager::start_shuffle.
  void shuffle_migration_done(const ShuffleRecord& rec) override;

  // --- checkpoint/restore (src/ckpt) --------------------------------------
  /// Role, cluster globals, pending demand bookkeeping, shed-loop state,
  /// receiver holds, stats, and every armed one-shot timer (query timeouts —
  /// including stale ones awaiting their no-op fire — and accept leases).
  /// Saving throws CkptError if a boot placement is in flight.
  template <class IO>
  void ckpt_io(IO& io);

 private:
  // placement.cc
  void handle_boot_query(const BootQueryMsg& q);
  void handle_placement_walk(const PlacementWalkMsg& walk);
  bool try_host_locally(host::VmId vm);
  void continue_walk(std::shared_ptr<PlacementWalkMsg> walk);
  void seed_frontier(PlacementWalkMsg& walk) const;

  // shuffler.cc
  void reevaluate_role();
  void try_shed();
  host::VmId pick_vm_to_shed() const;
  /// Arms (or re-arms at restore) the shedder-side reply timeout for query
  /// `seq` and tracks it in query_timers_ so checkpoints can serialize it.
  void arm_query_timeout(std::uint64_t seq, std::uint64_t trace);
  void query_timeout_fired(std::uint64_t seq, std::uint64_t trace);
  /// Arms the receiver-side hold lease for `vm`; returns the timer id.
  sim::EventId arm_lease(host::VmId vm);
  void lease_expired(host::VmId vm);

  pastry::PastryNode* node_;
  scribe::ScribeNode* scribe_;
  agg::AggregationAgent* agg_;
  host::Fleet* fleet_;
  MigrationManager* migration_;
  const AgentDirectory* directory_;
  const VBundleConfig* cfg_;
  Topics topics_;

  LoadRole role_ = LoadRole::kNeutral;
  std::optional<agg::AggValue> last_capacity_global_;
  std::optional<agg::AggValue> last_demand_global_;
  std::optional<agg::AggValue> last_cpu_capacity_global_;
  std::optional<agg::AggValue> last_cpu_demand_global_;

  /// Offered load of VMs currently migrating out (still on our host but
  /// spoken for) and in (accepted, not yet arrived).
  double pending_out_demand_ = 0.0;
  double pending_in_demand_ = 0.0;
  double pending_out_cpu_ = 0.0;
  double pending_in_cpu_ = 0.0;

  /// Shedding loop state: one query in flight at a time.  query_seq_
  /// stamps each query so late replies for a timed-out or superseded one
  /// are recognized as stale.
  bool query_in_flight_ = false;
  std::uint64_t query_seq_ = 0;
  int sheds_this_round_ = 0;
  /// Every armed query-timeout timer, including stale ones (timers are
  /// never cancelled — the seq guard makes stale fires no-ops, and each
  /// fire counts toward the simulator's executed-event total, so
  /// checkpoints must carry all of them to keep a resumed run bit-exact).
  struct QueryTimer {
    std::uint64_t seq = 0;
    std::uint64_t trace = 0;
    sim::EventId timer{};
  };
  std::vector<QueryTimer> query_timers_;
  /// VMs the Less-Loaded tree refused this round (reservation fits nowhere).
  std::set<host::VmId> unshedable_this_round_;

  /// Receiver side: one entry per accepted query whose VM has not arrived
  /// yet.  Records the exact amounts held at accept time (demand drifts
  /// while the VM is in flight) and the lease timer that reclaims the hold
  /// if the shedder goes permanently silent.
  struct PendingAccept {
    host::VmSpec spec;
    double demand_mbps = 0.0;
    double cpu_demand = 0.0;
    sim::EventId lease = sim::kInvalidEventId;
  };
  std::map<host::VmId, PendingAccept> pending_accepts_;

  std::map<host::VmId, BootCallback> pending_boots_;
  ShuffleStats stats_;
};

}  // namespace vb::core
