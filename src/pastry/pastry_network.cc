#include "pastry/pastry_network.h"

#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vb::pastry {

namespace {

/// A direct message in flight: the payload and its accounting category.
struct DirectMsg {
  PayloadPtr payload;
  MsgCategory category;
};

std::uint64_t trace_of(const RouteMsg& m) { return m.trace_id; }
std::uint64_t trace_of(const DirectMsg& m) {
  return m.payload ? m.payload->trace_id() : 0;
}

void arrive(PastryNode& dest, const PastryNode&, RouteMsg& m) {
  dest.handle_route_msg(std::move(m));
}
void arrive(PastryNode& dest, const PastryNode& from, DirectMsg& m) {
  dest.handle_direct_msg(from.handle(), m.payload, m.category);
}

/// What a bounce hands to the sender's handle_send_failure: a route is
/// rerouted around the dead hop, a direct message is not resent.
RouteMsg* undelivered(RouteMsg& m) { return &m; }
RouteMsg* undelivered(DirectMsg&) { return nullptr; }

}  // namespace

PastryNetwork::PastryNetwork(sim::Simulator* simulator, const net::Topology* topo)
    : sim_(simulator), topo_(topo) {
  if (simulator == nullptr || topo == nullptr) {
    throw std::invalid_argument("PastryNetwork: null simulator/topology");
  }
}

PastryNode& PastryNetwork::insert_node(const U128& id, net::HostId host) {
  if (nodes_.contains(id)) {
    throw std::invalid_argument("PastryNetwork: duplicate id " + id.short_hex());
  }
  auto node = std::make_unique<PastryNode>(NodeHandle{id, host}, this);
  PastryNode& fresh = *node;
  nodes_.emplace(id, std::move(node));
  return fresh;
}

PastryNode& PastryNetwork::known_node(const U128& id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::out_of_range("PastryNetwork: unknown node " + id.short_hex());
  }
  return *it->second;
}

PastryNode& PastryNetwork::add_node_oracle(const U128& id, net::HostId host) {
  PastryNode& fresh = insert_node(id, host);
  for (auto& [other_id, other] : nodes_) {
    if (other_id == id || !other->alive_) continue;
    other->learn(fresh.handle());
    fresh.learn(other->handle());
  }
  return fresh;
}

PastryNode& PastryNetwork::add_node_join(const U128& id, net::HostId host,
                                         const NodeHandle& bootstrap) {
  PastryNode& fresh = insert_node(id, host);
  if (bootstrap.valid()) fresh.begin_join(bootstrap);
  return fresh;
}

void PastryNetwork::kill_node(const U128& id) { known_node(id).alive_ = false; }

void PastryNetwork::depart_node(const U128& id) {
  PastryNode& n = known_node(id);
  if (!n.alive_) throw std::logic_error("depart_node: already dead");
  n.announce_departure();
  // Death is atomic with the announcement: the farewells are already on the
  // wire (scheduled above), and from this instant every message addressed to
  // the departed node — including ones that were racing the farewell —
  // bounces to its sender's failure handler.  The old "die one cross-pod
  // latency later" grace period let such racers be delivered to a node that
  // had already said goodbye, so a reply could originate from the dead.
  n.alive_ = false;
}

PastryNode* PastryNetwork::find(const U128& id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second->alive_) return nullptr;
  return it->second.get();
}

const PastryNode* PastryNetwork::find(const U128& id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second->alive_) return nullptr;
  return it->second.get();
}

PastryNode& PastryNetwork::at(const U128& id) {
  PastryNode* n = find(id);
  if (n == nullptr) {
    throw std::out_of_range("PastryNetwork: no live node " + id.short_hex());
  }
  return *n;
}

std::vector<PastryNode*> PastryNetwork::nodes() {
  std::vector<PastryNode*> out;
  out.reserve(nodes_.size());
  for (auto& [id, n] : nodes_) {
    if (n->alive_) out.push_back(n.get());
  }
  return out;
}

std::vector<const PastryNode*> PastryNetwork::nodes() const {
  std::vector<const PastryNode*> out;
  out.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) {
    if (n->alive_) out.push_back(n.get());
  }
  return out;
}

std::size_t PastryNetwork::size() const {
  std::size_t count = 0;
  for (const auto& [id, n] : nodes_) count += n->alive_ ? 1 : 0;
  return count;
}

NodeHandle PastryNetwork::global_closest(const U128& key) const {
  NodeHandle best = kNoHandle;
  for (const auto& [id, n] : nodes_) {
    if (!n->alive_) continue;
    if (!best.valid() || closer_on_ring(key, id, best.id)) {
      best = n->handle();
    }
  }
  if (!best.valid()) throw std::logic_error("PastryNetwork: empty network");
  return best;
}

template <class Msg>
void PastryNetwork::transmit(PastryNode& from, const NodeHandle& to, Msg msg) {
  // A dead node's pending timers can still fire; their sends go nowhere.
  if (!from.alive_) return;
  from.counters_.add(msg.category,
                     msg.payload ? msg.payload->wire_bytes() : 16);
  sim::FaultDecision fault;
  if (fault_plan_ != nullptr) {
    sim::FaultEndpoints ep;
    ep.src_host = static_cast<int>(from.host());
    ep.dst_host = static_cast<int>(to.host);
    ep.src_rack = topo_->rack_of(from.host());
    ep.dst_rack = topo_->rack_of(to.host);
    ep.src_pod = topo_->pod_of(from.host());
    ep.dst_pod = topo_->pod_of(to.host);
    fault = fault_plan_->decide(sim_->now(), ep);
  }
  if (fault.drop) {
    from.counters_.fault_dropped_msgs += 1;
    if (trace_ != nullptr) {
      trace_->instant(sim_->now(), trace_of(msg), static_cast<int>(from.host()),
                      fault.partitioned ? "fault.partition_drop" : "fault.drop",
                      "fault", "dst_host", static_cast<double>(to.host));
    }
    return;  // silent loss: no bounce, no failure callback — pure chaos
  }
  double lat = topo_->latency_s(from.host(), to.host);
  auto it = nodes_.find(to.id);
  PastryNode* dest = it == nodes_.end() ? nullptr : it->second.get();
  PastryNode* src = &from;
  auto deliver = [this, src, dest, to](Msg& m) {
    --wire_in_flight_;  // this copy is off the wire, whatever happens
    if (dest != nullptr && dest->alive_) {
      arrive(*dest, *src, m);
    } else if (src->alive_) {
      // Destination dead: hand the message back to the live sender's
      // failure handler (purge, plus a reroute for a route hop).
      src->handle_send_failure(to, undelivered(m));
    }
  };
  if (fault.duplicate) {
    from.counters_.fault_dup_msgs += 1;
    if (trace_ != nullptr) {
      trace_->instant(sim_->now(), trace_of(msg), static_cast<int>(from.host()),
                      "fault.dup", "fault", "dst_host",
                      static_cast<double>(to.host));
    }
    ++wire_in_flight_;
    sim_->schedule_in(lat + fault.dup_extra_delay_s,
                      [deliver, m = msg]() mutable { deliver(m); });
  }
  auto primary = [deliver, m = std::move(msg)]() mutable { deliver(m); };
  // A route hop is the hottest closure in the simulator; if it outgrows
  // the EventFn inline buffer every hop heap-allocates (~15% throughput).
  static_assert(sizeof(primary) <= sim::EventFn::inline_capacity(),
                "transport closure must stay inline; grow kDefaultInlineBytes");
  ++wire_in_flight_;
  sim_->schedule_in(lat + fault.extra_delay_s, std::move(primary));
}

void PastryNetwork::send_route(PastryNode& from, const NodeHandle& to,
                               RouteMsg msg) {
  transmit(from, to, std::move(msg));
}

void PastryNetwork::send_direct(PastryNode& from, const NodeHandle& to,
                                PayloadPtr payload, MsgCategory category) {
  transmit(from, to, DirectMsg{std::move(payload), category});
}

const TrafficCounters& PastryNetwork::counters(const U128& id) const {
  return known_node(id).counters_;
}

std::vector<std::uint64_t> PastryNetwork::per_node_msgs() const {
  std::vector<std::uint64_t> out;
  for (const auto& [id, n] : nodes_) {
    if (n->alive_) out.push_back(n->counters_.total_msgs());
  }
  return out;
}

std::vector<std::uint64_t> PastryNetwork::per_node_bytes() const {
  std::vector<std::uint64_t> out;
  for (const auto& [id, n] : nodes_) {
    if (n->alive_) out.push_back(n->counters_.total_bytes());
  }
  return out;
}

void PastryNetwork::reset_counters() {
  for (auto& [id, n] : nodes_) n->counters_.reset();
}

std::uint64_t PastryNetwork::total_msgs() const {
  std::uint64_t t = 0;
  for (const auto& [id, n] : nodes_) t += n->counters_.total_msgs();
  return t;
}

std::uint64_t PastryNetwork::total_fault_dropped() const {
  std::uint64_t t = 0;
  for (const auto& [id, n] : nodes_) t += n->counters_.fault_dropped_msgs;
  return t;
}

std::uint64_t PastryNetwork::total_fault_dups() const {
  std::uint64_t t = 0;
  for (const auto& [id, n] : nodes_) t += n->counters_.fault_dup_msgs;
  return t;
}

void PastryNetwork::export_metrics(obs::MetricsRegistry& reg) const {
  static constexpr MsgCategory kAll[] = {
      MsgCategory::kOverlayMaintenance, MsgCategory::kScribeControl,
      MsgCategory::kAggregation,        MsgCategory::kVBundle,
      MsgCategory::kApp,                MsgCategory::kRetransmit,
      MsgCategory::kAck,
  };
  std::array<std::uint64_t, TrafficCounters::kCategories> msgs{};
  std::array<std::uint64_t, TrafficCounters::kCategories> bytes{};
  std::uint64_t dropped = 0;
  std::uint64_t dups = 0;
  std::size_t dedup_entries = 0;
  std::size_t dedup_senders = 0;
  std::size_t pending = 0;
  obs::Distribution& per_node = reg.distribution("pastry.msgs.per_node");
  per_node.reset();  // idempotent collection: rebuild, never accumulate
  for (const auto& [id, n] : nodes_) {
    const TrafficCounters& c = n->counters_;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      msgs[i] += c.msgs_sent[i];
      bytes[i] += c.bytes_sent[i];
    }
    dropped += c.fault_dropped_msgs;
    dups += c.fault_dup_msgs;
    dedup_entries += n->reliable_dedup().entries();
    dedup_senders += n->reliable_dedup().senders();
    pending += n->pending_reliable_count();
    if (n->alive_) per_node.observe(static_cast<double>(c.total_msgs()));
  }
  std::uint64_t total_m = 0;
  std::uint64_t total_b = 0;
  for (MsgCategory c : kAll) {
    auto i = static_cast<std::size_t>(c);
    std::string base = std::string("pastry.msgs.") + to_string(c);
    reg.counter(base).set(msgs[i]);
    reg.counter(std::string("pastry.bytes.") + to_string(c)).set(bytes[i]);
    total_m += msgs[i];
    total_b += bytes[i];
  }
  reg.counter("pastry.msgs.total").set(total_m);
  reg.counter("pastry.bytes.total").set(total_b);
  reg.counter("fault.dropped_msgs").set(dropped);
  reg.counter("fault.dup_msgs").set(dups);
  reg.gauge("pastry.nodes.alive").set(static_cast<double>(size()));
  reg.gauge("pastry.reliable.dedup_entries")
      .set(static_cast<double>(dedup_entries));
  reg.gauge("pastry.reliable.dedup_senders")
      .set(static_cast<double>(dedup_senders));
  reg.gauge("pastry.reliable.pending").set(static_cast<double>(pending));
}

void PastryNetwork::stabilize_all() {
  for (auto& [id, n] : nodes_) {
    if (n->alive_) {
      n->stabilize();
      n->maintain_routing_table();
    }
  }
}

template <class IO>
void PastryNetwork::ckpt_io(IO& io) {
  if (!IO::kLoading && wire_in_flight() != 0) {
    throw ckpt::CkptError(
        "pastry save: " + std::to_string(wire_in_flight()) +
        " transport deliveries still in flight — checkpoints may only be "
        "taken at a quiesce barrier (wire_in_flight() == 0)");
  }
  io.section("pastry", [&] {
    io.i64(last_delivery_hops_);
    auto count = static_cast<std::uint32_t>(nodes_.size());
    io.u32(count);
    io.loading([&] {
      if (count != nodes_.size()) {
        throw ckpt::CkptError(
            "pastry restore: node count differs from the reconstruction");
      }
    });
    for (auto& [id, n] : nodes_) {
      // nodes_ is id-ordered on both sides, so the ids must line up
      // one-to-one.
      U128 saved = id;
      io.u128(saved);
      bool alive = n->alive_;
      io.boolean(alive);
      io.loading([&] {
        if (saved != id) {
          throw ckpt::CkptError("pastry restore: node id mismatch at " +
                                id.short_hex() +
                                " — reconstruction created different nodes");
        }
        if (alive && !n->alive_) {
          throw ckpt::CkptError("pastry restore: node " + id.short_hex() +
                                " is dead in the reconstruction but alive in "
                                "the checkpoint");
        }
        n->alive_ = alive;  // re-kill nodes that had failed by checkpoint time
      });
      for (std::uint64_t& v : n->counters_.msgs_sent) io.u64(v);
      for (std::uint64_t& v : n->counters_.bytes_sent) io.u64(v);
      io.u64(n->counters_.fault_dropped_msgs);
      io.u64(n->counters_.fault_dup_msgs);
      n->ckpt_io(io);
    }
  });
}

template void PastryNetwork::ckpt_io(ckpt::Writer&);
template void PastryNetwork::ckpt_io(ckpt::Reader&);

}  // namespace vb::pastry
