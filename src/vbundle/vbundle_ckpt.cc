// Checkpoint payload codec for the v-Bundle layer: the load-balance query
// rides inside Scribe anycast/walk payloads, which can sit in a retransmit
// queue at a checkpoint barrier (see ckpt/payload_codec.h).  Also home of
// VBundleAgent::ckpt_io so shuffler.cc stays protocol-only.
#include <string>

#include "ckpt/payload_codec.h"
#include "pastry/pastry_network.h"
#include "vbundle/controller.h"
#include "vbundle/shuffler.h"

namespace vb::core {

void register_ckpt_payload_codecs() {
  ckpt::PayloadCodec::add<LoadBalanceQueryMsg>(
      "vbundle.lb_query", [](auto& io, LoadBalanceQueryMsg& m) {
        io.i64(m.vm);
        m.spec.ckpt_io(io);
        io.f64(m.demand_mbps);
        io.f64(m.cpu_demand);
        m.shedder.ckpt_io(io);
        io.u64(m.query_seq);
        io.u64(m.trace);
      });
}

template <class IO>
void VBundleAgent::ckpt_io(IO& io) {
  if (!IO::kLoading && !pending_boots_.empty()) {
    throw ckpt::CkptError(
        "agent host " + std::to_string(node_->host()) + ": " +
        std::to_string(pending_boots_.size()) +
        " boot placement(s) in flight; boot callbacks are not serializable");
  }
  sim::Simulator& sim = node_->network().simulator();
  auto global = [&](std::optional<agg::AggValue>& v) {
    io.opt(v, [&](agg::AggValue& a) { a.ckpt_io(io); });
  };
  io.section("agent", [&] {
    io.u8(role_);
    global(last_capacity_global_);
    global(last_demand_global_);
    global(last_cpu_capacity_global_);
    global(last_cpu_demand_global_);
    io.f64(pending_out_demand_);
    io.f64(pending_in_demand_);
    io.f64(pending_out_cpu_);
    io.f64(pending_in_cpu_);
    io.boolean(query_in_flight_);
    io.u64(query_seq_);
    io.i64(sheds_this_round_);
    io.seq(unshedable_this_round_, [&](host::VmId& vm) { io.i64(vm); });
    io.seq(query_timers_, [&](QueryTimer& qt) {
      io.u64(qt.seq);
      io.u64(qt.trace);
      sim::ckpt_timer(io, sim, qt.timer,
                      [this, seq = qt.seq, trace = qt.trace] {
                        query_timeout_fired(seq, trace);
                      });
    });
    io.map(pending_accepts_, [&](host::VmId& vm, PendingAccept& pa) {
      io.i64(vm);
      pa.spec.ckpt_io(io);
      io.f64(pa.demand_mbps);
      io.f64(pa.cpu_demand);
      sim::ckpt_timer(io, sim, pa.lease,
                      [this, vm = vm] { lease_expired(vm); });
    });
    io.u64(stats_.queries_sent);
    io.u64(stats_.queries_accepted);
    io.u64(stats_.queries_declined);
    io.u64(stats_.anycast_failures);
    io.u64(stats_.query_timeouts);
    io.u64(stats_.lease_expiries);
    io.u64(stats_.migrations_out);
    io.u64(stats_.migrations_in);
    io.loading([&] { pending_boots_.clear(); });
  });
}

template void VBundleAgent::ckpt_io(ckpt::Writer&);
template void VBundleAgent::ckpt_io(ckpt::Reader&);

}  // namespace vb::core
