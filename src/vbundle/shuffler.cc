// Shuffling half of VBundleAgent (§III.C): aggregation-driven role
// classification and anycast-based load shedding.  The bandwidth metric is
// always active; CPU joins in when VBundleConfig::balance_cpu is set
// (the paper's §VII multi-metric extension).
#include <algorithm>

#include "obs/trace.h"
#include "pastry/pastry_network.h"
#include "vbundle/controller.h"

namespace vb::core {

using pastry::MsgCategory;

double VBundleAgent::demand_discount_outbound() const {
  return pending_out_demand_;
}

double VBundleAgent::effective_utilization() const {
  const host::Host& h = fleet_->host(node_->host());
  double demand = fleet_->host_demand_mbps(node_->host());
  demand -= pending_out_demand_;  // VMs on their way out
  demand += pending_in_demand_;   // VMs on their way in
  return std::max(0.0, demand) / h.capacity_mbps();
}

double VBundleAgent::effective_cpu_utilization() const {
  const host::Host& h = fleet_->host(node_->host());
  double demand = fleet_->host_cpu_demand(node_->host());
  demand -= pending_out_cpu_;
  demand += pending_in_cpu_;
  return std::max(0.0, demand) / h.cpu_capacity();
}

std::optional<double> VBundleAgent::cluster_avg_utilization() const {
  if (!last_capacity_global_ || !last_demand_global_) return std::nullopt;
  if (last_capacity_global_->sum <= 0) return std::nullopt;
  return last_demand_global_->sum / last_capacity_global_->sum;
}

std::optional<double> VBundleAgent::cluster_avg_cpu_utilization() const {
  if (!last_cpu_capacity_global_ || !last_cpu_demand_global_) return std::nullopt;
  if (last_cpu_capacity_global_->sum <= 0) return std::nullopt;
  return last_cpu_demand_global_->sum / last_cpu_capacity_global_->sum;
}

void VBundleAgent::update_tick() {
  const host::Host& h = fleet_->host(node_->host());
  agg_->set_local(topics_.bw_capacity, agg::AggValue::of(h.capacity_mbps()));
  agg_->set_local(topics_.bw_demand,
                  agg::AggValue::of(fleet_->host_demand_mbps(node_->host())));
  agg_->tick(topics_.bw_capacity);
  agg_->tick(topics_.bw_demand);
  if (cfg_->balance_cpu) {
    agg_->set_local(topics_.cpu_capacity, agg::AggValue::of(h.cpu_capacity()));
    agg_->set_local(topics_.cpu_demand,
                    agg::AggValue::of(fleet_->host_cpu_demand(node_->host())));
    agg_->tick(topics_.cpu_capacity);
    agg_->tick(topics_.cpu_demand);
  }
  reevaluate_role();
}

void VBundleAgent::on_global(const agg::TopicId& topic,
                             const agg::AggValue& global, sim::SimTime when) {
  (void)when;
  if (topic == topics_.bw_capacity) {
    last_capacity_global_ = global;
  } else if (topic == topics_.bw_demand) {
    last_demand_global_ = global;
  } else if (topic == topics_.cpu_capacity) {
    last_cpu_capacity_global_ = global;
  } else if (topic == topics_.cpu_demand) {
    last_cpu_demand_global_ = global;
  } else {
    return;
  }
  reevaluate_role();
}

void VBundleAgent::reevaluate_role() {
  auto avg = cluster_avg_utilization();
  if (!avg) return;
  auto cpu_avg = cluster_avg_cpu_utilization();
  if (cfg_->balance_cpu && !cpu_avg) return;  // wait for the CPU trees too

  double util = effective_utilization();
  bool bw_hot = util > *avg + cfg_->threshold;
  bool bw_cold = util < *avg - cfg_->receiver_margin;
  bool cpu_hot = false;
  bool cpu_cold = false;
  if (cfg_->balance_cpu) {
    double cpu = effective_cpu_utilization();
    cpu_hot = cpu > *cpu_avg + cfg_->threshold;
    cpu_cold = cpu < *cpu_avg - cfg_->receiver_margin;
  }

  LoadRole next = LoadRole::kNeutral;
  if (bw_hot || cpu_hot) {
    // Over the line on the bottleneck metric: shed.
    next = LoadRole::kShedder;
  } else if (bw_cold || cpu_cold) {
    // Not hot anywhere and spare headroom on some balanced metric:
    // advertise as receiver.  The per-metric acceptance ceilings (below)
    // protect the metrics this server is *not* cold on.
    next = LoadRole::kReceiver;
  }
  if (next == role_) return;
  // Membership in the Less-Loaded anycast tree tracks the receiver role:
  // "members leave the group when they no longer have extra bandwidth
  // available" (§III).
  if (next == LoadRole::kReceiver) {
    scribe_->join(topics_.less_loaded);
  } else if (role_ == LoadRole::kReceiver) {
    scribe_->leave(topics_.less_loaded);
  }
  role_ = next;
}

void VBundleAgent::rebalance_tick() {
  sheds_this_round_ = 0;
  unshedable_this_round_.clear();
  reevaluate_role();
  try_shed();
}

host::VmId VBundleAgent::pick_vm_to_shed() const {
  // Largest-demand VM (on the hotter metric, normalized by host capacity)
  // not already in motion and not already refused by the whole Less-Loaded
  // tree this round: moving it buys the most relief per migration.
  const host::Host& h = fleet_->host(node_->host());
  host::VmId best = -1;
  double best_score = 0.0;
  for (host::VmId id : fleet_->host(node_->host()).vms()) {
    const host::Vm& v = fleet_->vm(id);
    if (v.migrating) continue;
    if (unshedable_this_round_.contains(id)) continue;
    double score = v.capped_demand() / h.capacity_mbps();
    if (cfg_->balance_cpu) {
      score = std::max(score, v.capped_cpu_demand() / h.cpu_capacity());
    }
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }
  return best;
}

void VBundleAgent::try_shed() {
  if (role_ != LoadRole::kShedder) return;
  if (query_in_flight_) return;
  if (sheds_this_round_ >= cfg_->max_sheds_per_round) return;
  auto avg = cluster_avg_utilization();
  if (!avg) return;
  // Stop condition: "it stops sending load-balance queries if its bandwidth
  // utilization drops down the average line" (§III.C step 4) — on every
  // balanced metric.
  bool bw_over = effective_utilization() > *avg;
  bool cpu_over = false;
  auto cpu_avg = cluster_avg_cpu_utilization();
  if (cfg_->balance_cpu && cpu_avg) {
    cpu_over = effective_cpu_utilization() > *cpu_avg;
  }
  if (!bw_over && !cpu_over) {
    role_ = LoadRole::kNeutral;
    return;
  }
  host::VmId vm = pick_vm_to_shed();
  if (vm == -1) return;
  const host::Vm& v = fleet_->vm(vm);
  // Benefit of moving this VM: the bandwidth by which we exceed the cluster
  // average that the move would relieve (the "unfairly treated" demand the
  // customer is not receiving, §IV Fig. 11 discussion).
  double capacity = fleet_->host(node_->host()).capacity_mbps();
  double excess = std::max(
      0.0, fleet_->host_demand_mbps(node_->host()) - *avg * capacity);
  double deficit = std::min(v.capped_demand(), excess);
  if (cfg_->balance_cpu && cpu_over && !bw_over) {
    // CPU-driven shed: the gate reasons about the CPU deficit expressed in
    // capacity fractions scaled onto the NIC (same units as the benefit).
    double cpu_excess =
        std::max(0.0, effective_cpu_utilization() - *cpu_avg) * capacity;
    deficit = std::min(v.capped_cpu_demand() /
                           fleet_->host(node_->host()).cpu_capacity() * capacity,
                       cpu_excess);
  }
  if (!migration_->worth_migrating(v, deficit)) return;

  auto q = std::make_shared<LoadBalanceQueryMsg>();
  q->vm = vm;
  q->spec = v.spec;
  q->demand_mbps = v.capped_demand();
  q->cpu_demand = v.capped_cpu_demand();
  q->shedder = node_->handle();
  q->query_seq = ++query_seq_;
  query_in_flight_ = true;
  ++stats_.queries_sent;
  std::uint64_t trace = 0;
  if (obs::TraceRecorder* tr = node_->network().trace()) {
    trace = tr->new_trace_id();
    q->trace = trace;
    tr->begin(node_->network().simulator().now(), trace,
              static_cast<int>(node_->handle().host), "vbundle.shuffle",
              "vbundle", "vm", static_cast<double>(vm));
  }
  // Arm the reply timeout before launching the anycast: if neither accept
  // nor failure makes it back (both can die under chaos even with
  // retransmission), declare the query dead and move on.  The seq guard
  // makes stale timers no-ops, so nothing needs cancelling.
  arm_query_timeout(query_seq_, trace);
  scribe_->anycast(topics_.less_loaded, std::move(q), MsgCategory::kVBundle);
}

void VBundleAgent::arm_query_timeout(std::uint64_t seq, std::uint64_t trace) {
  QueryTimer qt;
  qt.seq = seq;
  qt.trace = trace;
  qt.timer = node_->network().simulator().schedule_in(
      cfg_->query_timeout_s,
      [this, seq, trace]() { query_timeout_fired(seq, trace); });
  query_timers_.push_back(qt);
}

void VBundleAgent::query_timeout_fired(std::uint64_t seq, std::uint64_t trace) {
  for (auto it = query_timers_.begin(); it != query_timers_.end(); ++it) {
    if (it->seq == seq) {
      query_timers_.erase(it);
      break;
    }
  }
  if (!query_in_flight_ || seq != query_seq_) return;
  query_in_flight_ = false;
  ++stats_.query_timeouts;
  if (obs::TraceRecorder* tr = node_->network().trace()) {
    tr->end(node_->network().simulator().now(), trace,
            static_cast<int>(node_->handle().host), "vbundle.shuffle",
            "vbundle", "timeout", 1.0);
  }
  try_shed();
}

sim::EventId VBundleAgent::arm_lease(host::VmId vm) {
  return node_->network().simulator().schedule_in(
      cfg_->accept_hold_lease_s, [this, vm]() { lease_expired(vm); });
}

void VBundleAgent::lease_expired(host::VmId vm) {
  if (!pending_accepts_.contains(vm)) return;
  ++stats_.lease_expiries;
  release_accepted(vm);
}

bool VBundleAgent::on_anycast(scribe::ScribeNode& self,
                              const scribe::GroupId& group,
                              const pastry::PayloadPtr& inner,
                              const pastry::NodeHandle& origin) {
  (void)self;
  (void)origin;
  if (group != topics_.less_loaded) return false;
  auto q = std::dynamic_pointer_cast<const LoadBalanceQueryMsg>(inner);
  if (!q) return false;
  if (q->shedder.id == node_->id()) return false;  // never accept our own

  const host::Host& h = fleet_->host(node_->host());
  // Check 1: "if it has sufficient reserved bandwidth to accept the new VM"
  // (and, in multi-metric mode, CPU and memory reservations too).
  if (!h.can_admit(q->spec)) {
    ++stats_.queries_declined;
    return false;
  }
  // Check 2: "after accepting the new VM, if the server's updated bandwidth
  // utilization is still under the cluster mean plus a threshold, which
  // avoids possible oscillation" (§III.C step 3).
  auto avg = cluster_avg_utilization();
  if (!avg) {
    ++stats_.queries_declined;
    return false;
  }
  double post_util = effective_utilization() + q->demand_mbps / h.capacity_mbps();
  if (post_util >= *avg + cfg_->threshold) {
    ++stats_.queries_declined;
    return false;
  }
  if (cfg_->balance_cpu) {
    auto cpu_avg = cluster_avg_cpu_utilization();
    if (!cpu_avg) {
      ++stats_.queries_declined;
      return false;
    }
    double post_cpu =
        effective_cpu_utilization() + q->cpu_demand / h.cpu_capacity();
    if (post_cpu >= *cpu_avg + cfg_->threshold) {
      ++stats_.queries_declined;
      return false;
    }
  }
  // Accept: hold the reservations while the VM is in flight.
  if (auto it = pending_accepts_.find(q->vm); it != pending_accepts_.end()) {
    // We already hold for this VM from an earlier accept whose reply never
    // reached the shedder; re-accept reusing the hold (no double-charge)
    // and re-arm the lease.
    node_->network().simulator().cancel(it->second.lease);
    it->second.lease = arm_lease(q->vm);
    ++stats_.queries_accepted;
    if (obs::TraceRecorder* tr = node_->network().trace()) {
      tr->instant(node_->network().simulator().now(), q->trace,
                  static_cast<int>(node_->handle().host), "shuffle.hold",
                  "vbundle", "vm", static_cast<double>(q->vm), "reused", 1.0);
    }
    return true;
  }
  fleet_->hold_all(node_->host(), q->spec);
  pending_in_demand_ += q->demand_mbps;
  pending_in_cpu_ += q->cpu_demand;
  PendingAccept pending;
  pending.spec = q->spec;
  pending.demand_mbps = q->demand_mbps;
  pending.cpu_demand = q->cpu_demand;
  pending.lease = arm_lease(q->vm);
  pending_accepts_.emplace(q->vm, pending);
  ++stats_.queries_accepted;
  if (obs::TraceRecorder* tr = node_->network().trace()) {
    tr->instant(node_->network().simulator().now(), q->trace,
                static_cast<int>(node_->handle().host), "shuffle.hold",
                "vbundle", "vm", static_cast<double>(q->vm));
  }
  return true;
}

void VBundleAgent::on_anycast_accepted(scribe::ScribeNode& self,
                                       const scribe::GroupId& group,
                                       const pastry::PayloadPtr& inner,
                                       const pastry::NodeHandle& acceptor,
                                       int nodes_visited) {
  (void)self;
  (void)nodes_visited;
  if (group != topics_.less_loaded) return;
  auto q = std::dynamic_pointer_cast<const LoadBalanceQueryMsg>(inner);
  if (!q || q->shedder.id != node_->id()) return;

  host::Vm& v = fleet_->vm(q->vm);
  bool stale = !query_in_flight_ || q->query_seq != query_seq_;
  if (stale || v.host != node_->host() || v.migrating) {
    // The query was timed out / superseded, or the VM's state changed while
    // it was in flight.  Release the receiver's hold by notifying its agent
    // directly (hypervisor-level action); release_accepted looks up the
    // exact amounts held at accept time.
    VBundleAgent* dst = directory_->at(static_cast<std::size_t>(acceptor.host));
    dst->release_accepted(q->vm);
    if (obs::TraceRecorder* tr = node_->network().trace()) {
      tr->instant(node_->network().simulator().now(), q->trace,
                  static_cast<int>(node_->handle().host), "shuffle.stale",
                  "vbundle", "vm", static_cast<double>(q->vm));
    }
    if (!stale) {
      query_in_flight_ = false;
      try_shed();
    }
    return;
  }
  query_in_flight_ = false;

  double moved_demand = v.capped_demand();
  double moved_cpu = v.capped_cpu_demand();
  pending_out_demand_ += moved_demand;
  pending_out_cpu_ += moved_cpu;
  int dst_host = acceptor.host;
  ++stats_.migrations_out;
  ++sheds_this_round_;
  std::uint64_t trace = q->trace;
  if (obs::TraceRecorder* tr = node_->network().trace()) {
    tr->instant(node_->network().simulator().now(), trace,
                static_cast<int>(node_->handle().host), "shuffle.migrate",
                "vbundle", "vm", static_cast<double>(q->vm), "dst_host",
                static_cast<double>(dst_host));
  }
  ShuffleRecord rec;
  rec.vm = q->vm;
  rec.dst_host = dst_host;
  rec.src_host = node_->host();
  rec.moved_demand = moved_demand;
  rec.moved_cpu = moved_cpu;
  rec.trace = trace;
  migration_->start_shuffle(rec, this);
}

void VBundleAgent::shuffle_migration_done(const ShuffleRecord& rec) {
  pending_out_demand_ -= rec.moved_demand;
  pending_out_cpu_ -= rec.moved_cpu;
  if (obs::TraceRecorder* tr = node_->network().trace()) {
    tr->end(node_->network().simulator().now(), rec.trace,
            static_cast<int>(node_->handle().host), "vbundle.shuffle",
            "vbundle", "migrated", 1.0, "dst_host",
            static_cast<double>(rec.dst_host));
  }
  VBundleAgent* receiver =
      directory_->at(static_cast<std::size_t>(rec.dst_host));
  receiver->on_migration_arrived(rec.vm);
  // Keep shedding until we are under the line.
  try_shed();
}

void VBundleAgent::on_anycast_failed(scribe::ScribeNode& self,
                                     const scribe::GroupId& group,
                                     const pastry::PayloadPtr& inner) {
  (void)self;
  if (group != topics_.less_loaded) return;
  auto q = std::dynamic_pointer_cast<const LoadBalanceQueryMsg>(inner);
  if (!q || q->shedder.id != node_->id()) return;
  if (!query_in_flight_ || q->query_seq != query_seq_) return;  // stale
  query_in_flight_ = false;
  ++stats_.anycast_failures;
  if (obs::TraceRecorder* tr = node_->network().trace()) {
    tr->end(node_->network().simulator().now(), q->trace,
            static_cast<int>(node_->handle().host), "vbundle.shuffle",
            "vbundle", "failed", 1.0);
  }
  // Nobody could take this VM (e.g., its reservation fits nowhere).  Try
  // shedding a different, smaller VM within the same round rather than
  // retrying the same one forever.
  unshedable_this_round_.insert(q->vm);
  try_shed();
}

void VBundleAgent::on_migration_arrived(host::VmId vm) {
  if (auto it = pending_accepts_.find(vm); it != pending_accepts_.end()) {
    // Undo exactly what the accept charged (the VM's live demand may have
    // drifted while in flight); the hold itself was consumed by migrate().
    node_->network().simulator().cancel(it->second.lease);
    pending_in_demand_ -= it->second.demand_mbps;
    pending_in_cpu_ -= it->second.cpu_demand;
    pending_accepts_.erase(it);
  } else {
    const host::Vm& v = fleet_->vm(vm);
    pending_in_demand_ -= v.capped_demand();
    pending_in_cpu_ -= v.capped_cpu_demand();
  }
  if (pending_in_demand_ < 0) pending_in_demand_ = 0;
  if (pending_in_cpu_ < 0) pending_in_cpu_ = 0;
  ++stats_.migrations_in;
  reevaluate_role();
}

void VBundleAgent::release_accepted(host::VmId vm) {
  auto it = pending_accepts_.find(vm);
  if (it == pending_accepts_.end()) return;
  node_->network().simulator().cancel(it->second.lease);
  fleet_->release_hold_all(node_->host(), it->second.spec);
  pending_in_demand_ -= it->second.demand_mbps;
  pending_in_cpu_ -= it->second.cpu_demand;
  if (pending_in_demand_ < 0) pending_in_demand_ = 0;
  if (pending_in_cpu_ < 0) pending_in_cpu_ = 0;
  pending_accepts_.erase(it);
  reevaluate_role();
}

}  // namespace vb::core
