#include "vbundle/cloud.h"

#include <cmath>
#include <stdexcept>

#include "common/hash.h"
#include "obs/metrics.h"
#include "pastry/bulk_bootstrap.h"

namespace vb::core {

VBundleCloud::VBundleCloud(CloudConfig cfg)
    : cfg_(cfg), topo_(cfg.topology), topics_(Topics::standard()) {
  fleet_ = std::make_unique<host::Fleet>(
      topo_.num_hosts(), topo_.config().host_nic_mbps, cfg_.host_cpu_capacity,
      cfg_.host_mem_capacity_mb);
  pastry_ = std::make_unique<pastry::PastryNetwork>(&sim_, &topo_);

  // Assign topology-aware server ids and bring up the overlay.
  std::vector<U128> ids(static_cast<std::size_t>(topo_.num_hosts()));
  TopologyAwareIdAssigner assigner(topo_, cfg_.seed);
  for (int h = 0; h < topo_.num_hosts(); ++h) {
    ids[static_cast<std::size_t>(h)] = assigner.id_for_host(h);
  }
  if (cfg_.protocol_join) {
    pastry::NodeHandle bootstrap = pastry::kNoHandle;
    for (int h = 0; h < topo_.num_hosts(); ++h) {
      pastry::PastryNode& n =
          pastry_->add_node_join(ids[static_cast<std::size_t>(h)], h, bootstrap);
      // Let each join finish before the next node enters (sequential
      // bring-up, as a real deployment rollout would).
      sim_.run_to_completion();
      if (!bootstrap.valid()) bootstrap = n.handle();
    }
    // A few stabilization rounds tighten leaf sets after mass arrival.
    for (int round = 0; round < 3; ++round) {
      pastry_->stabilize_all();
      sim_.run_to_completion();
    }
  } else {
    pastry_->bootstrap_bulk(pastry::fleet_one_per_host(ids));
  }

  scribe_ = std::make_unique<scribe::ScribeNetwork>(pastry_.get());
  migration_ =
      std::make_unique<MigrationManager>(&sim_, fleet_.get(), cfg_.vbundle.migration);

  directory_.resize(static_cast<std::size_t>(topo_.num_hosts()), nullptr);
  for (pastry::PastryNode* n : pastry_->nodes()) {
    scribe::ScribeNode& sn = scribe_->at(n->id());
    agg_agents_.push_back(std::make_unique<agg::AggregationAgent>(
        &sn, agg::PropagationMode::kPeriodic));
    owned_agents_.push_back(std::make_unique<VBundleAgent>(
        n, &sn, agg_agents_.back().get(), fleet_.get(), migration_.get(),
        &directory_, &cfg_.vbundle, topics_));
    directory_[static_cast<std::size_t>(n->host())] = owned_agents_.back().get();
  }
  for (auto& a : owned_agents_) a->start();
  // Settle the aggregation-tree joins before user activity begins.
  sim_.run_to_completion();
}

host::CustomerId VBundleCloud::add_customer(const std::string& name) {
  customers_.push_back(name);
  customer_keys_.push_back(sha1_key(name));
  return static_cast<host::CustomerId>(customers_.size()) - 1;
}

const std::string& VBundleCloud::customer_name(host::CustomerId c) const {
  return customers_.at(static_cast<std::size_t>(c));
}

U128 VBundleCloud::customer_key(host::CustomerId c) const {
  return customer_keys_.at(static_cast<std::size_t>(c));
}

VBundleCloud::BootResult VBundleCloud::boot_vm(host::CustomerId c,
                                               const host::VmSpec& spec) {
  return boot_near_key(c, spec, customer_key(c));
}

VBundleCloud::BootResult VBundleCloud::boot_vm_tagged(host::CustomerId c,
                                                      const host::VmSpec& spec,
                                                      const std::string& tag) {
  return boot_near_key(c, spec, sha1_key(tag));
}

VBundleCloud::BootResult VBundleCloud::boot_near_key(host::CustomerId c,
                                                     const host::VmSpec& spec,
                                                     const U128& key) {
  host::VmId vm = fleet_->create_vm(c, spec);
  BootResult result;
  result.vm = vm;
  bool done = false;
  // Gateway: the front-end forwards boot requests into the overlay from a
  // deterministic entry server — the next live one in round-robin order.
  int n = topo_.num_hosts();
  int gw = static_cast<int>(vm) % n;
  for (int probe = 0; probe < n; ++probe) {
    int h = (gw + probe) % n;
    if (directory_[static_cast<std::size_t>(h)]->node().alive()) {
      gw = h;
      break;
    }
    if (probe == n - 1) throw std::runtime_error("boot_vm: no live gateway");
  }
  VBundleAgent& gateway = agent(gw);
  gateway.request_boot(key, vm, spec, c,
                       [&result, &done](host::VmId id, int h, int visits) {
                         result.vm = id;
                         result.host = h;
                         result.visits = visits;
                         result.ok = h >= 0;
                         done = true;
                       });
  // Drive the simulator until the protocol completes.
  std::uint64_t guard = 0;
  while (!done && sim_.step()) {
    if (++guard > 50'000'000ULL) {
      throw std::runtime_error("boot_vm: placement protocol did not finish");
    }
  }
  if (!done) throw std::runtime_error("boot_vm: simulator drained early");
  return result;
}

std::vector<VBundleCloud::BootResult> VBundleCloud::boot_vms(
    host::CustomerId c, const host::VmSpec& spec, int count) {
  std::vector<BootResult> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(boot_vm(c, spec));
  return out;
}

sim::Simulator::PeriodicHandle VBundleCloud::attach_demand_model(
    const load::DemandModel* model, double apply_interval_s) {
  if (model == nullptr) {
    throw std::invalid_argument("attach_demand_model: null model");
  }
  return sim_.schedule_periodic(0.0, apply_interval_s, [this, model]() {
    model->apply(*fleet_, sim_.now());
    return true;
  });
}

void VBundleCloud::start_rebalancing(double update_phase_s,
                                     double rebalance_phase_s) {
  for (std::size_t i = 0; i < owned_agents_.size(); ++i) {
    VBundleAgent* a = owned_agents_[i].get();
    // Small per-host stagger: servers are not clock-synchronized.
    double jitter = static_cast<double>(i % 100) * 0.013;
    rebalance_tasks_.push_back(sim_.schedule_periodic(
        update_phase_s + jitter, cfg_.vbundle.update_interval_s, [a]() {
          a->update_tick();
          return true;
        }));
    rebalance_tasks_.push_back(sim_.schedule_periodic(
        rebalance_phase_s + jitter, cfg_.vbundle.rebalance_interval_s, [a]() {
          a->rebalance_tick();
          return true;
        }));
    // Overlay upkeep per update interval: Pastry leaf-set stabilization and
    // Scribe tree heartbeats (self-organizing, self-repairing trees).
    pastry::PastryNode* node = &a->node();
    scribe::ScribeNode* sn = &scribe_->at(node->id());
    rebalance_tasks_.push_back(sim_.schedule_periodic(
        update_phase_s + jitter + 1.0, cfg_.vbundle.update_interval_s,
        [node, sn]() {
          node->stabilize();
          node->maintain_routing_table();
          sn->maintenance();
          return true;
        }));
  }
}

void VBundleCloud::stop_rebalancing() {
  for (sim::Simulator::PeriodicHandle h : rebalance_tasks_) {
    sim_.cancel_periodic(h);
  }
  rebalance_tasks_.clear();
}

double VBundleCloud::utilization_stddev() const {
  return summarize(fleet_->utilization_snapshot()).stddev;
}

int VBundleCloud::overloaded_servers(double threshold) const {
  int n = 0;
  for (double u : fleet_->utilization_snapshot()) {
    if (u > threshold) ++n;
  }
  return n;
}

void VBundleCloud::collect_metrics(obs::MetricsRegistry& reg) const {
  reg.counter("sim.events_executed").set(sim_.events_executed());
  reg.counter("sim.events_scheduled").set(sim_.events_scheduled());
  reg.gauge("sim.now_s").set(sim_.now());

  pastry_->export_metrics(reg);

  ShuffleStats sum;
  for (const auto& agent : owned_agents_) {
    const ShuffleStats& s = agent->stats();
    sum.queries_sent += s.queries_sent;
    sum.queries_accepted += s.queries_accepted;
    sum.queries_declined += s.queries_declined;
    sum.anycast_failures += s.anycast_failures;
    sum.query_timeouts += s.query_timeouts;
    sum.lease_expiries += s.lease_expiries;
    sum.migrations_out += s.migrations_out;
    sum.migrations_in += s.migrations_in;
  }
  reg.counter("vbundle.queries_sent").set(sum.queries_sent);
  reg.counter("vbundle.queries_accepted").set(sum.queries_accepted);
  reg.counter("vbundle.queries_declined").set(sum.queries_declined);
  reg.counter("vbundle.anycast_failures").set(sum.anycast_failures);
  reg.counter("vbundle.query_timeouts").set(sum.query_timeouts);
  reg.counter("vbundle.lease_expiries").set(sum.lease_expiries);
  reg.counter("vbundle.migrations_out").set(sum.migrations_out);
  reg.counter("vbundle.migrations_in").set(sum.migrations_in);

  reg.counter("migration.started").set(migration_->started());
  reg.counter("migration.completed").set(migration_->completed());
  reg.gauge("migration.in_flight")
      .set(static_cast<double>(migration_->in_flight()));
  reg.gauge("migration.total_downtime_s").set(migration_->total_downtime_s());

  obs::Distribution& util = reg.distribution("fleet.utilization");
  util.reset();  // idempotent collection
  int overloaded = 0;
  for (double u : fleet_->utilization_snapshot()) {
    util.observe(u);
    if (u > 1.0) ++overloaded;
  }
  reg.gauge("fleet.utilization_stddev").set(utilization_stddev());
  reg.gauge("fleet.overloaded_servers").set(static_cast<double>(overloaded));
  reg.gauge("fleet.hosts").set(static_cast<double>(topo_.num_hosts()));
}

}  // namespace vb::core
