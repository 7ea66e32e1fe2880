// Checkpoint payload codec for the v-Bundle layer: the load-balance query
// rides inside Scribe anycast/walk payloads, which can sit in a retransmit
// queue at a checkpoint barrier (see ckpt/payload_codec.h).  Also home of
// VBundleAgent::ckpt_save/ckpt_restore so shuffler.cc stays protocol-only.
#include <memory>
#include <string>

#include "aggregation/topic_manager.h"
#include "ckpt/payload_codec.h"
#include "pastry/pastry_network.h"
#include "vbundle/controller.h"
#include "vbundle/shuffler.h"

namespace vb::core {

namespace {

using ckpt::PayloadCodec;
using ckpt::Reader;
using ckpt::Writer;

void put_spec(Writer& w, const host::VmSpec& s) {
  w.f64(s.reservation_mbps);
  w.f64(s.limit_mbps);
  w.f64(s.ram_mb);
  w.f64(s.cpu_reservation);
  w.f64(s.cpu_limit);
}

host::VmSpec get_spec(Reader& r) {
  host::VmSpec s;
  s.reservation_mbps = r.f64();
  s.limit_mbps = r.f64();
  s.ram_mb = r.f64();
  s.cpu_reservation = r.f64();
  s.cpu_limit = r.f64();
  return s;
}

}  // namespace

void register_ckpt_payload_codecs() {
  PayloadCodec::add(
      "vbundle.lb_query",
      [](Writer& w, const pastry::Payload& p) {
        const auto& m = ckpt::payload_cast<LoadBalanceQueryMsg>(p);
        w.i64(m.vm);
        put_spec(w, m.spec);
        w.f64(m.demand_mbps);
        w.f64(m.cpu_demand);
        ckpt::put_handle(w, m.shedder);
        w.u64(m.query_seq);
        w.u64(m.trace);
      },
      [](Reader& r) -> pastry::PayloadPtr {
        auto m = std::make_shared<LoadBalanceQueryMsg>();
        m->vm = static_cast<host::VmId>(r.i64());
        m->spec = get_spec(r);
        m->demand_mbps = r.f64();
        m->cpu_demand = r.f64();
        m->shedder = ckpt::get_handle(r);
        m->query_seq = r.u64();
        m->trace = r.u64();
        return m;
      });
}

namespace {

void put_opt_value(ckpt::Writer& w, const std::optional<agg::AggValue>& v) {
  w.boolean(v.has_value());
  if (v) agg::TopicManager::put_value(w, *v);
}

std::optional<agg::AggValue> get_opt_value(ckpt::Reader& r) {
  if (!r.boolean()) return std::nullopt;
  return agg::TopicManager::get_value(r);
}

}  // namespace

void VBundleAgent::ckpt_save(ckpt::Writer& w) const {
  if (!pending_boots_.empty()) {
    throw ckpt::CkptError(
        "agent host " + std::to_string(node_->host()) + ": " +
        std::to_string(pending_boots_.size()) +
        " boot placement(s) in flight; boot callbacks are not serializable");
  }
  sim::Simulator& sim = node_->network().simulator();
  w.begin_section("agent");
  w.u8(static_cast<std::uint8_t>(role_));
  put_opt_value(w, last_capacity_global_);
  put_opt_value(w, last_demand_global_);
  put_opt_value(w, last_cpu_capacity_global_);
  put_opt_value(w, last_cpu_demand_global_);
  w.f64(pending_out_demand_);
  w.f64(pending_in_demand_);
  w.f64(pending_out_cpu_);
  w.f64(pending_in_cpu_);
  w.boolean(query_in_flight_);
  w.u64(query_seq_);
  w.i64(sheds_this_round_);
  w.u32(static_cast<std::uint32_t>(unshedable_this_round_.size()));
  for (host::VmId vm : unshedable_this_round_) w.i64(vm);
  w.u32(static_cast<std::uint32_t>(query_timers_.size()));
  for (const QueryTimer& qt : query_timers_) {
    w.u64(qt.seq);
    w.u64(qt.trace);
    w.f64(sim.event_time(qt.timer));
    w.u64(sim.event_seq(qt.timer));
  }
  w.u32(static_cast<std::uint32_t>(pending_accepts_.size()));
  for (const auto& [vm, pa] : pending_accepts_) {
    w.i64(vm);
    put_spec(w, pa.spec);
    w.f64(pa.demand_mbps);
    w.f64(pa.cpu_demand);
    w.f64(sim.event_time(pa.lease));
    w.u64(sim.event_seq(pa.lease));
  }
  w.u64(stats_.queries_sent);
  w.u64(stats_.queries_accepted);
  w.u64(stats_.queries_declined);
  w.u64(stats_.anycast_failures);
  w.u64(stats_.query_timeouts);
  w.u64(stats_.lease_expiries);
  w.u64(stats_.migrations_out);
  w.u64(stats_.migrations_in);
  w.end_section();
}

void VBundleAgent::ckpt_restore(ckpt::Reader& r) {
  sim::Simulator& sim = node_->network().simulator();
  r.enter_section("agent");
  role_ = static_cast<LoadRole>(r.u8());
  last_capacity_global_ = get_opt_value(r);
  last_demand_global_ = get_opt_value(r);
  last_cpu_capacity_global_ = get_opt_value(r);
  last_cpu_demand_global_ = get_opt_value(r);
  pending_out_demand_ = r.f64();
  pending_in_demand_ = r.f64();
  pending_out_cpu_ = r.f64();
  pending_in_cpu_ = r.f64();
  query_in_flight_ = r.boolean();
  query_seq_ = r.u64();
  sheds_this_round_ = static_cast<int>(r.i64());
  unshedable_this_round_.clear();
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    unshedable_this_round_.insert(static_cast<host::VmId>(r.i64()));
  }
  query_timers_.clear();
  n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    QueryTimer qt;
    qt.seq = r.u64();
    qt.trace = r.u64();
    sim::SimTime fire = r.f64();
    std::uint64_t eseq = r.u64();
    qt.timer = sim.schedule_at_with_seq(
        fire, eseq,
        [this, seq = qt.seq, trace = qt.trace]() {
          query_timeout_fired(seq, trace);
        });
    query_timers_.push_back(qt);
  }
  pending_accepts_.clear();
  n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    host::VmId vm = static_cast<host::VmId>(r.i64());
    PendingAccept pa;
    pa.spec = get_spec(r);
    pa.demand_mbps = r.f64();
    pa.cpu_demand = r.f64();
    sim::SimTime fire = r.f64();
    std::uint64_t eseq = r.u64();
    pa.lease = sim.schedule_at_with_seq(
        fire, eseq, [this, vm]() { lease_expired(vm); });
    pending_accepts_.emplace(vm, pa);
  }
  stats_.queries_sent = r.u64();
  stats_.queries_accepted = r.u64();
  stats_.queries_declined = r.u64();
  stats_.anycast_failures = r.u64();
  stats_.query_timeouts = r.u64();
  stats_.lease_expiries = r.u64();
  stats_.migrations_out = r.u64();
  stats_.migrations_in = r.u64();
  pending_boots_.clear();
  r.exit_section();
}

}  // namespace vb::core
