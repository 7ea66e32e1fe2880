// VBundleCloud: the top-level public API of this library.
//
// Owns the whole simulated stack — discrete-event simulator, datacenter
// topology, physical fleet, Pastry overlay with topology-aware ids, Scribe,
// aggregation, and one VBundleAgent per server — and exposes the operations
// a cloud operator (or an experiment) performs: register customers, boot
// VMs through the v-Bundle placement protocol, drive demands, and run the
// decentralized rebalancing service.
//
// Example:
//   core::CloudConfig cfg;
//   cfg.topology.num_pods = 2; ...
//   core::VBundleCloud cloud(cfg);
//   auto ibm = cloud.add_customer("IBM");
//   auto r = cloud.boot_vm(ibm, {.reservation_mbps = 100, .limit_mbps = 200});
//   cloud.start_rebalancing();
//   cloud.run_until(3600.0);
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "aggregation/aggregation_tree.h"
#include "ckpt/format.h"
#include "common/stats.h"
#include "hostmodel/host.h"
#include "net/topology.h"
#include "pastry/pastry_network.h"
#include "scribe/scribe_network.h"
#include "sim/simulator.h"
#include "vbundle/controller.h"
#include "vbundle/id_assigner.h"
#include "workloads/demand.h"

namespace vb::core {

struct CloudConfig {
  net::TopologyConfig topology;
  VBundleConfig vbundle;
  std::uint64_t seed = 42;
  /// Per-host CPU / memory capacities for the multi-metric extension;
  /// defaults are effectively unlimited (bandwidth-only operation).
  double host_cpu_capacity = 1e12;
  double host_mem_capacity_mb = 1e15;
  /// false: oracle-bootstrapped overlay (instant, used at 3000-server
  /// scale); true: every node joins through the real Pastry join protocol.
  bool protocol_join = false;
};

class VBundleCloud {
 public:
  explicit VBundleCloud(CloudConfig cfg);

  // --- customers ----------------------------------------------------------
  host::CustomerId add_customer(const std::string& name);
  const std::string& customer_name(host::CustomerId c) const;
  /// The Pastry key all of this customer's VMs are tagged with:
  /// hash(customer name).
  U128 customer_key(host::CustomerId c) const;
  int num_customers() const { return static_cast<int>(customers_.size()); }

  // --- booting VMs through the v-Bundle placement protocol ----------------
  struct BootResult {
    host::VmId vm = -1;
    int host = -1;
    int visits = 0;
    bool ok = false;
  };

  /// Boots one VM near hash(customer), running the simulator until the
  /// placement protocol finishes.
  BootResult boot_vm(host::CustomerId c, const host::VmSpec& spec);

  /// Boots one VM near hash(tag) instead of the customer key.  This is the
  /// paper's "flexible abstraction" (§II.C.3): tagging two VM groups with
  /// the same key co-locates them; distinct tags keep groups of one
  /// customer apart.
  BootResult boot_vm_tagged(host::CustomerId c, const host::VmSpec& spec,
                            const std::string& tag);

  /// Boots `count` identical VMs; convenience for bulk provisioning.
  std::vector<BootResult> boot_vms(host::CustomerId c, const host::VmSpec& spec,
                                   int count);

  /// Terminates a VM and releases its reservations — the lifecycle operation
  /// §VI.A notes traditional offerings lack ("the customer cannot shed the
  /// redundant instances").  The VM must not be mid-migration.
  void shutdown_vm(host::VmId id) { fleet_->destroy_vm(id); }

  // --- time and workload --------------------------------------------------
  double now() const { return sim_.now(); }
  void run_until(double t) { sim_.run_until(t); }

  /// Applies `model` every `apply_interval_s` simulated seconds (demands
  /// change between aggregation rounds, like real workload variation).
  /// The model must outlive the cloud run.  The returned handle cancels the
  /// periodic application (sim::Simulator::cancel_periodic).
  sim::Simulator::PeriodicHandle attach_demand_model(
      const load::DemandModel* model, double apply_interval_s);

  // --- the v-Bundle rebalancing service ------------------------------------
  /// Starts periodic update ticks (every cfg.vbundle.update_interval_s,
  /// first at `update_phase_s`) and rebalance ticks (every
  /// cfg.vbundle.rebalance_interval_s, first at `rebalance_phase_s`) on all
  /// agents.  Per-host stagger keeps events deterministic yet unsynchronized.
  void start_rebalancing(double update_phase_s, double rebalance_phase_s);
  /// Paper defaults: updates from t=0, first rebalance after one interval.
  void start_rebalancing() {
    start_rebalancing(0.0, cfg_.vbundle.rebalance_interval_s);
  }
  /// Cancels every periodic tick started by start_rebalancing (update,
  /// rebalance, and overlay-upkeep tasks).  The cloud keeps serving boot
  /// requests; rebalancing can be restarted later.
  void stop_rebalancing();

  // --- observability -------------------------------------------------------
  /// Attaches a trace recorder to the transport choke point (nullptr
  /// detaches).  Recording is passive, so sim outcomes are unchanged.
  void set_trace_recorder(obs::TraceRecorder* t) { pastry_->set_trace(t); }

  /// Pushes a full metrics snapshot into `reg`: simulator event counts,
  /// pastry transport roll-ups (via PastryNetwork::export_metrics), summed
  /// shuffler stats, migration counts, and fleet utilization.  Idempotent —
  /// counters/gauges are overwritten, distributions rebuilt.
  void collect_metrics(obs::MetricsRegistry& reg) const;

  // --- snapshots & stats ---------------------------------------------------
  std::vector<double> utilization_snapshot() const {
    return fleet_->utilization_snapshot();
  }
  /// Standard deviation of per-server utilization (Fig. 10's metric).
  double utilization_stddev() const;
  /// Count of servers whose utilization exceeds `threshold`.
  int overloaded_servers(double threshold) const;

  // --- checkpoint/restore (src/ckpt) ---------------------------------------
  /// Steps the simulator to the next quiesce barrier: no message in flight
  /// on the wire.  Pending component timers are fine — they are serialized
  /// with their (fire_time, event_seq) and re-armed on restore.  Stepping
  /// executes events in exactly the (time, seq) order an uninterrupted
  /// run_until would, so taking a checkpoint never perturbs the run.
  void quiesce();

  /// Quiesces, then serializes the complete dynamic state of the stack into
  /// a versioned, CRC-guarded image (see docs/ARCHITECTURE.md).
  std::vector<std::uint8_t> save_checkpoint();

  /// Restores an image into a freshly reconstructed cloud: build a cloud
  /// with the same CloudConfig, re-run the deterministic setup (customers,
  /// fault plan, trace recorder, start_rebalancing with the same phases,
  /// demand model) WITHOUT running the simulator further, then call this.
  /// All dynamic state is overwritten and every timer re-armed at its
  /// original (fire_time, event_seq); the resumed run is bit-identical to
  /// one that never stopped.  Throws ckpt::CkptError on any mismatch
  /// between the image and the reconstruction.
  void restore_checkpoint(const std::vector<std::uint8_t>& image);

  // --- component access ----------------------------------------------------
  host::Fleet& fleet() { return *fleet_; }
  const host::Fleet& fleet() const { return *fleet_; }
  const net::Topology& topology() const { return topo_; }
  sim::Simulator& simulator() { return sim_; }
  pastry::PastryNetwork& pastry() { return *pastry_; }
  scribe::ScribeNetwork& scribe() { return *scribe_; }
  MigrationManager& migrations() { return *migration_; }
  VBundleAgent& agent(int h) {
    return *directory_.at(static_cast<std::size_t>(h));
  }
  const VBundleConfig& vbundle_config() const { return cfg_.vbundle; }
  const Topics& topics() const { return topics_; }
  int num_hosts() const { return topo_.num_hosts(); }

 private:
  BootResult boot_near_key(host::CustomerId c, const host::VmSpec& spec,
                           const U128& key);
  /// The one layout behind save_checkpoint and restore_checkpoint.
  template <class IO>
  void ckpt_io(IO& io);

  CloudConfig cfg_;
  sim::Simulator sim_;
  net::Topology topo_;
  Topics topics_;
  std::unique_ptr<host::Fleet> fleet_;
  std::unique_ptr<pastry::PastryNetwork> pastry_;
  std::unique_ptr<scribe::ScribeNetwork> scribe_;
  std::vector<std::unique_ptr<agg::AggregationAgent>> agg_agents_;
  std::unique_ptr<MigrationManager> migration_;
  AgentDirectory directory_;
  std::vector<std::unique_ptr<VBundleAgent>> owned_agents_;

  std::vector<std::string> customers_;
  std::vector<U128> customer_keys_;
  std::vector<sim::Simulator::PeriodicHandle> rebalance_tasks_;
};

}  // namespace vb::core
