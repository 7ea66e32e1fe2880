#include "pastry/pastry_node.h"

#include <algorithm>

#include "ckpt/payload_codec.h"
#include "obs/trace.h"
#include "pastry/pastry_internal.h"
#include "pastry/pastry_network.h"

namespace vb::pastry {

std::uint64_t TrafficCounters::total_msgs() const {
  std::uint64_t t = 0;
  for (auto v : msgs_sent) t += v;
  return t;
}

std::uint64_t TrafficCounters::total_bytes() const {
  std::uint64_t t = 0;
  for (auto v : bytes_sent) t += v;
  return t;
}

void TrafficCounters::add(MsgCategory c, std::size_t bytes) {
  auto i = static_cast<std::size_t>(c);
  msgs_sent[i] += 1;
  bytes_sent[i] += bytes;
}

void TrafficCounters::reset() {
  msgs_sent.fill(0);
  bytes_sent.fill(0);
  fault_dropped_msgs = 0;
  fault_dup_msgs = 0;
}

PastryNode::PastryNode(NodeHandle handle, PastryNetwork* network)
    : handle_(handle),
      network_(network),
      table_(handle.id),
      leafs_(handle.id, kLeafHalf),
      neighbors_(handle.host, kNeighborCapacity) {}

void PastryNode::add_app(PastryApp* app) { apps_.push_back(app); }

int PastryNode::proximity_to(const NodeHandle& n) const {
  return static_cast<int>(network_->topology().proximity(handle_.host, n.host));
}

void PastryNode::route(const U128& key, PayloadPtr payload,
                       MsgCategory category) {
  RouteMsg msg;
  msg.key = key;
  msg.payload = std::move(payload);
  msg.category = category;
  msg.hops = 0;
  if (obs::TraceRecorder* tr = network_->trace()) {
    // Adopt the payload's chain id if it has one (e.g. a traced anycast
    // being routed), else mint a fresh id for this route.
    std::uint64_t payload_trace = msg.payload ? msg.payload->trace_id() : 0;
    msg.trace_id = payload_trace != 0 ? payload_trace : tr->new_trace_id();
    tr->begin(network_->simulator().now(), msg.trace_id,
              static_cast<int>(handle_.host), "pastry.route", "pastry");
  }
  handle_route_msg(std::move(msg));
}

void PastryNode::send_direct(const NodeHandle& dest, PayloadPtr payload,
                             MsgCategory category) {
  network_->send_direct(*this, dest, std::move(payload), category);
}

void PastryNode::send_reliable(const NodeHandle& dest, PayloadPtr payload,
                               MsgCategory category) {
  auto env = std::make_shared<internal::ReliableEnvelope>();
  env->inner = std::move(payload);
  env->inner_category = category;
  env->seq = next_reliable_seq_++;
  env->floor = env->seq;
  for (const auto& [s, p] : pending_reliable_) {
    if (p.dest.id == dest.id) {
      env->floor = s;  // our oldest send to `dest` still awaiting its ack
      break;
    }
  }
  env->sender = handle_;
  if (obs::TraceRecorder* tr = network_->trace()) {
    // One span covers every copy of this envelope: the original send, all
    // retransmissions, and the eventual ack.  Inherit the inner payload's
    // chain id when it has one so the reliable hop nests in its chain.
    std::uint64_t inner_trace = env->inner ? env->inner->trace_id() : 0;
    env->trace = inner_trace != 0 ? inner_trace : tr->new_trace_id();
    tr->instant(network_->simulator().now(), env->trace,
                static_cast<int>(handle_.host), "rel.send", "reliable", "seq",
                static_cast<double>(env->seq));
  }

  PendingReliable pending;
  pending.dest = dest;
  pending.envelope = env;
  std::uint64_t seq = env->seq;
  pending.timer = network_->simulator().schedule_in(
      pending.rto_s, [this, seq]() { retransmit_reliable(seq); });
  pending_reliable_.emplace(seq, std::move(pending));

  network_->send_direct(*this, dest, std::move(env), category);
}

void PastryNode::retransmit_reliable(std::uint64_t seq) {
  auto it = pending_reliable_.find(seq);
  if (it == pending_reliable_.end()) return;  // acked since the timer fired
  PendingReliable& p = it->second;
  if (p.attempts >= kReliableMaxAttempts) {
    // Give up: the peer is dead, partitioned past our patience, or the acks
    // keep vanishing.  The protocol layers above (heartbeats, periodic
    // maintenance, query timeouts) own recovery from here.
    pending_reliable_.erase(it);
    return;
  }
  p.attempts += 1;
  p.rto_s = std::min(p.rto_s * 2.0, kReliableMaxRtoS);
  p.timer = network_->simulator().schedule_in(
      p.rto_s, [this, seq]() { retransmit_reliable(seq); });
  if (obs::TraceRecorder* tr = network_->trace()) {
    tr->instant(network_->simulator().now(), p.envelope->trace_id(),
                static_cast<int>(handle_.host), "rel.retransmit", "reliable",
                "seq", static_cast<double>(seq), "attempt",
                static_cast<double>(p.attempts));
  }
  network_->send_direct(*this, p.dest, p.envelope, MsgCategory::kRetransmit);
}

void PastryNode::fail_pending_reliable_to(const NodeHandle& dead) {
  for (auto it = pending_reliable_.begin(); it != pending_reliable_.end();) {
    if (it->second.dest.id == dead.id) {
      network_->simulator().cancel(it->second.timer);
      it = pending_reliable_.erase(it);
    } else {
      ++it;
    }
  }
}

NodeHandle PastryNode::next_hop(const U128& key) const {
  if (key == handle_.id) return handle_;

  // Rule 1: the leaf set covers the key -> the numerically closest member
  // (possibly ourselves) is the destination.
  if (leafs_.covers(key)) return leafs_.closest(key, handle_);

  // Rule 2: routing table cell for (shared prefix length, next digit).
  int row = shared_prefix_digits(handle_.id, key);
  int col = key.digit(row);
  if (const NodeHandle* entry = table_.lookup_ptr(row, col)) return *entry;

  // Rule 3 (rare case): any known node that shares at least as long a prefix
  // with the key and is numerically closer to it than we are.  The result is
  // order-independent (closer_on_ring is a strict total preference), so the
  // three tables are scanned in place — route() allocates nothing per hop.
  NodeHandle best = handle_;
  auto try_candidate = [&](const NodeHandle& n) {
    if (shared_prefix_digits(n.id, key) >= row &&
        closer_on_ring(key, n.id, best.id)) {
      best = n;
    }
  };
  leafs_.for_each(try_candidate);
  table_.for_each_entry(try_candidate);
  neighbors_.for_each(try_candidate);
  return best;
}

void PastryNode::learn(const NodeHandle& node) {
  if (node.id == handle_.id || !node.valid()) return;
  int prox = proximity_to(node);
  table_.consider(node, prox);
  leafs_.consider(node);
  neighbors_.consider(node, network_->topology());
}

void PastryNode::purge(const NodeHandle& node) {
  bool known = false;
  known |= table_.remove(node);
  known |= leafs_.remove(node);
  known |= neighbors_.remove(node);
  if (known) {
    for (PastryApp* app : apps_) app->on_node_failed(*this, node);
  }
}

void PastryNode::begin_join(const NodeHandle& bootstrap) {
  learn(bootstrap);
  join_bootstrap_ = bootstrap;
  join_attempts_ = 0;
  send_join_request();
}

void PastryNode::send_join_request() {
  join_attempts_ += 1;
  auto req = std::make_shared<internal::JoinRequest>();
  req->newcomer = handle_;
  RouteMsg msg;
  msg.key = handle_.id;
  msg.payload = std::move(req);
  msg.category = MsgCategory::kOverlayMaintenance;
  msg.hops = 1;
  // The join is routed fire-and-forget, so a lossy network can eat it (or
  // the leaf-set transfer coming back).  Re-issue until that transfer
  // arrives; the whole join protocol is idempotent on duplicates.
  join_timer_ = network_->simulator().schedule_in(
      kJoinRetryS, [this]() { retry_join(); });
  network_->send_route(*this, join_bootstrap_, std::move(msg));
}

void PastryNode::retry_join() {
  join_timer_ = sim::kInvalidEventId;
  if (!join_bootstrap_.valid()) return;  // join already completed
  if (join_attempts_ >= kJoinMaxAttempts) {
    join_bootstrap_ = NodeHandle{};  // give up; periodic repair owns recovery
    return;
  }
  send_join_request();
}

void PastryNode::start_ring_scan() {
  if (scan_started_) return;
  scan_started_ = true;
  scan_active_ = true;
  scan_cursor_ = U128{};
  // Seed the frontier with everything the join harvested; each visited
  // node's reply extends it with that node's leaf-set members, which always
  // include the next unvisited successors — the sweep never skips a live
  // node.
  table_.for_each_entry([this](const NodeHandle& n) { scan_note(n); });
  leafs_.for_each([this](const NodeHandle& n) { scan_note(n); });
  neighbors_.for_each([this](const NodeHandle& n) { scan_note(n); });
  scan_advance();
}

void PastryNode::scan_note(const NodeHandle& n) {
  if (!scan_active_ || !n.valid() || n.id == handle_.id) return;
  U128 d = n.id - handle_.id;  // clockwise ring distance
  if (!(scan_cursor_ < d)) return;  // behind the sweep: visited or in flight
  scan_candidates_.emplace(d, n);
}

void PastryNode::scan_advance() {
  while (!scan_candidates_.empty() &&
         !(scan_cursor_ < scan_candidates_.begin()->first)) {
    scan_candidates_.erase(scan_candidates_.begin());
  }
  if (scan_candidates_.empty()) {
    scan_active_ = false;
    scan_target_ = NodeHandle{};
    return;
  }
  auto it = scan_candidates_.begin();
  scan_cursor_ = it->first;
  scan_target_ = it->second;
  scan_candidates_.erase(it);
  auto ping = std::make_shared<internal::RingScan>();
  ping->origin = handle_;
  scan_timer_ = network_->simulator().schedule_in(
      kScanStepTimeoutS, [this]() { scan_step_timeout(); });
  send_reliable(scan_target_, std::move(ping),
                MsgCategory::kOverlayMaintenance);
}

void PastryNode::scan_step_timeout() {
  scan_timer_ = sim::kInvalidEventId;
  if (!scan_active_) return;
  // The target outlived the reliable channel's patience (dead or partitioned
  // away); skip it and keep sweeping.
  scan_target_ = NodeHandle{};
  scan_advance();
}

void PastryNode::stabilize() {
  auto send_exchange = [this](const NodeHandle& to) {
    if (!to.valid()) return;
    auto x = std::make_shared<internal::LeafExchange>();
    x->leaves = leafs_.members();
    x->leaves.push_back(handle_);
    x->is_reply = false;
    send_direct(to, std::move(x), MsgCategory::kOverlayMaintenance);
  };
  send_exchange(leafs_.farthest_cw());
  send_exchange(leafs_.farthest_ccw());
}

void PastryNode::announce_departure() {
  auto bye = std::make_shared<internal::Depart>();
  bye->who = handle_;
  std::vector<U128> notified;
  auto notify = [&](const NodeHandle& n) {
    if (std::find(notified.begin(), notified.end(), n.id) != notified.end()) {
      return;
    }
    notified.push_back(n.id);
    send_direct(n, bye, MsgCategory::kOverlayMaintenance);
  };
  leafs_.for_each(notify);
  table_.for_each_entry(notify);
  // Neighbor farewells go out in members() order (nearest first) so the
  // send sequence — and with it event tie-breaking — matches historic runs.
  for (const NodeHandle& n : neighbors_.members()) notify(n);
}

void PastryNode::maintain_routing_table() {
  // Scan forward from the last maintained row to the next row that has at
  // least one entry, and ask one of its members for its version of the row.
  for (int probe = 0; probe < kIdDigits; ++probe) {
    int row = (next_maintenance_row_ + probe) % kIdDigits;
    auto entries = table_.row_entries(row);
    if (entries.empty()) continue;
    auto req = std::make_shared<internal::RowRequest>();
    req->row = row;
    // Deterministic pick: rotate through the row's entries over rounds.
    const NodeHandle& peer =
        entries[static_cast<std::size_t>(next_maintenance_row_) % entries.size()];
    send_direct(peer, std::move(req), MsgCategory::kOverlayMaintenance);
    next_maintenance_row_ = row + 1;
    return;
  }
}

void PastryNode::handle_route_msg(RouteMsg msg) {
  // Pastry-internal join handling happens before any app sees the message.
  auto join = std::dynamic_pointer_cast<const internal::JoinRequest>(msg.payload);
  if (join && join->newcomer.id != handle_.id) {
    // Ship the routing rows the newcomer can reuse: rows 0..p where p is the
    // length of the prefix we share with it.
    auto state = std::make_shared<internal::StateTransfer>();
    int p = shared_prefix_digits(handle_.id, join->newcomer.id);
    for (int r = 0; r <= p && r < kIdDigits; ++r) {
      auto row = table_.row_entries(r);
      state->nodes.insert(state->nodes.end(), row.begin(), row.end());
    }
    state->nodes.push_back(handle_);
    send_direct(join->newcomer, state, MsgCategory::kOverlayMaintenance);
  }

  NodeHandle next = next_hop(msg.key);
  if (next == handle_) {
    if (join) {
      if (join->newcomer.id == handle_.id) return;  // our own join looped back
      // We are the numerically closest node: ship our leaf set, which seeds
      // the newcomer's leaf set (Pastry join, step 3).
      auto state = std::make_shared<internal::StateTransfer>();
      state->nodes = leafs_.members();
      state->nodes.push_back(handle_);
      state->from_delivery_node = true;
      send_direct(join->newcomer, state, MsgCategory::kOverlayMaintenance);
      return;
    }
    network_->note_delivery_hops(msg.hops);
    if (obs::TraceRecorder* tr = network_->trace()) {
      tr->end(network_->simulator().now(), msg.trace_id,
              static_cast<int>(handle_.host), "pastry.route", "pastry", "hops",
              static_cast<double>(msg.hops));
    }
    for (PastryApp* app : apps_) app->deliver(*this, msg);
    return;
  }

  if (!join) {
    for (PastryApp* app : apps_) {
      if (!app->forward(*this, msg, next)) return;  // absorbed by the app
    }
  }
  if (obs::TraceRecorder* tr = network_->trace()) {
    tr->instant(network_->simulator().now(), msg.trace_id,
                static_cast<int>(handle_.host), "pastry.hop", "pastry", "hop",
                static_cast<double>(msg.hops), "next_host",
                static_cast<double>(next.host));
  }
  msg.hops += 1;
  network_->send_route(*this, next, std::move(msg));
}

void PastryNode::handle_direct_msg(const NodeHandle& from,
                                   const PayloadPtr& payload,
                                   MsgCategory category) {
  if (auto env =
          std::dynamic_pointer_cast<const internal::ReliableEnvelope>(payload)) {
    // Ack every copy — a lost ack must re-trigger one from the retransmit.
    auto ack = std::make_shared<internal::AckMsg>();
    ack->seq = env->seq;
    send_direct(from, std::move(ack), MsgCategory::kAck);
    if (!seen_reliable_.accept(env->sender.id, env->seq, env->floor)) {
      return;  // duplicate, or a late copy of an abandoned send
    }
    handle_direct_msg(env->sender, env->inner, env->inner_category);
    return;
  }
  if (auto ack = std::dynamic_pointer_cast<const internal::AckMsg>(payload)) {
    auto it = pending_reliable_.find(ack->seq);
    if (it != pending_reliable_.end()) {
      if (obs::TraceRecorder* tr = network_->trace()) {
        tr->instant(network_->simulator().now(),
                    it->second.envelope->trace_id(),
                    static_cast<int>(handle_.host), "rel.acked", "reliable",
                    "seq", static_cast<double>(ack->seq), "attempts",
                    static_cast<double>(it->second.attempts));
      }
      network_->simulator().cancel(it->second.timer);
      pending_reliable_.erase(it);
    }
    return;
  }
  if (auto st = std::dynamic_pointer_cast<const internal::StateTransfer>(payload)) {
    for (const NodeHandle& n : st->nodes) learn(n);
    learn(from);
    if (st->from_delivery_node) {
      // The join's leaf-set transfer: stop re-issuing the JoinRequest.
      join_bootstrap_ = NodeHandle{};
      if (join_timer_ != sim::kInvalidEventId) {
        network_->simulator().cancel(join_timer_);
        join_timer_ = sim::kInvalidEventId;
      }
      // Leaf set received: announce ourselves to everyone we now know.
      auto ann = std::make_shared<internal::Announce>();
      ann->who = handle_;
      std::vector<NodeHandle> known = table_.all_entries();
      auto lm = leafs_.members();
      known.insert(known.end(), lm.begin(), lm.end());
      std::vector<U128> seen;
      for (const NodeHandle& n : known) {
        if (std::find(seen.begin(), seen.end(), n.id) != seen.end()) continue;
        seen.push_back(n.id);
        send_direct(n, ann, MsgCategory::kOverlayMaintenance);
      }
      start_ring_scan();
    }
    return;
  }
  if (auto sc = std::dynamic_pointer_cast<const internal::RingScan>(payload)) {
    learn(sc->origin);
    auto rep = std::make_shared<internal::RingScanReply>();
    rep->nodes = leafs_.members();
    rep->nodes.push_back(handle_);
    send_reliable(sc->origin, std::move(rep),
                  MsgCategory::kOverlayMaintenance);
    return;
  }
  if (auto sr =
          std::dynamic_pointer_cast<const internal::RingScanReply>(payload)) {
    for (const NodeHandle& n : sr->nodes) {
      learn(n);
      scan_note(n);
    }
    learn(from);
    if (scan_active_ && scan_target_.valid() &&
        from.id == scan_target_.id) {
      if (scan_timer_ != sim::kInvalidEventId) {
        network_->simulator().cancel(scan_timer_);
        scan_timer_ = sim::kInvalidEventId;
      }
      scan_target_ = NodeHandle{};
      scan_advance();
    }
    return;
  }
  if (auto ann = std::dynamic_pointer_cast<const internal::Announce>(payload)) {
    bool was_leaf_candidate = leafs_.covers(ann->who.id);
    learn(ann->who);
    if (was_leaf_candidate) {
      // Give the newcomer our neighborhood so its leaf set converges.
      auto x = std::make_shared<internal::LeafExchange>();
      x->leaves = leafs_.members();
      x->leaves.push_back(handle_);
      x->is_reply = true;
      send_direct(ann->who, std::move(x), MsgCategory::kOverlayMaintenance);
    }
    return;
  }
  if (auto lx = std::dynamic_pointer_cast<const internal::LeafExchange>(payload)) {
    for (const NodeHandle& n : lx->leaves) learn(n);
    learn(from);
    if (!lx->is_reply) {
      auto x = std::make_shared<internal::LeafExchange>();
      x->leaves = leafs_.members();
      x->leaves.push_back(handle_);
      x->is_reply = true;
      send_direct(from, std::move(x), MsgCategory::kOverlayMaintenance);
    }
    return;
  }
  if (auto bye = std::dynamic_pointer_cast<const internal::Depart>(payload)) {
    purge(bye->who);
    return;
  }
  if (auto req = std::dynamic_pointer_cast<const internal::RowRequest>(payload)) {
    auto rep = std::make_shared<internal::RowReply>();
    rep->row = req->row;
    rep->entries = table_.row_entries(req->row);
    rep->entries.push_back(handle_);
    send_direct(from, std::move(rep), MsgCategory::kOverlayMaintenance);
    return;
  }
  if (auto rep = std::dynamic_pointer_cast<const internal::RowReply>(payload)) {
    for (const NodeHandle& n : rep->entries) learn(n);
    return;
  }
  for (PastryApp* app : apps_) app->receive_direct(*this, from, payload, category);
}

void PastryNode::handle_send_failure(const NodeHandle& dead,
                                     RouteMsg* undelivered) {
  fail_pending_reliable_to(dead);
  purge(dead);
  if (scan_active_ && scan_target_.valid() && dead.id == scan_target_.id) {
    // The sweep's current target bounced; skip it without waiting for the
    // step timeout.
    if (scan_timer_ != sim::kInvalidEventId) {
      network_->simulator().cancel(scan_timer_);
      scan_timer_ = sim::kInvalidEventId;
    }
    scan_target_ = NodeHandle{};
    scan_advance();
  }
  if (undelivered != nullptr) {
    // Reroute around the failure with our repaired tables.
    handle_route_msg(std::move(*undelivered));
  }
}

template <class IO>
void PastryNode::ckpt_io(IO& io) {
  sim::Simulator& sim = network_->simulator();
  io.section("node", [&] {
    io.i64(next_maintenance_row_);
    table_.ckpt_io(io);
    leafs_.ckpt_io(io);
    neighbors_.ckpt_io(io);
    io.u64(next_reliable_seq_);
    seen_reliable_.ckpt_io(io);
    io.loading([&] {
      for (auto& [seq, p] : pending_reliable_) sim.cancel(p.timer);
    });
    // At a quiesce barrier an unacked send always has an armed timer: it is
    // cancelled only together with erasure (ack / give-up / peer death).
    io.map(pending_reliable_, [&](std::uint64_t& seq, PendingReliable& p) {
      io.u64(seq);
      p.dest.ckpt_io(io);
      ckpt::PayloadCodec::field(io, p.envelope);
      io.loading([&] {
        if (std::dynamic_pointer_cast<const internal::ReliableEnvelope>(
                p.envelope) == nullptr) {
          throw ckpt::CkptError(
              "pastry node restore: pending-reliable entry does not decode "
              "to a ReliableEnvelope");
        }
      });
      io.i64(p.attempts);
      io.f64(p.rto_s);
      sim::ckpt_timer(io, sim, p.timer,
                      [this, seq = seq] { retransmit_reliable(seq); });
    });
    // Join retry + ring-presence sweep.  Invariants at a quiesce barrier:
    // join_timer_ is armed iff join_bootstrap_ is valid, and scan_timer_ is
    // armed (with a valid target) iff the sweep is active.
    io.loading([&] {
      if (join_timer_ != sim::kInvalidEventId) sim.cancel(join_timer_);
      join_timer_ = sim::kInvalidEventId;
      join_bootstrap_ = NodeHandle{};
      join_attempts_ = 0;
      if (scan_timer_ != sim::kInvalidEventId) sim.cancel(scan_timer_);
      scan_timer_ = sim::kInvalidEventId;
      scan_target_ = NodeHandle{};
      scan_cursor_ = U128{};
      scan_candidates_.clear();
    });
    bool joining = join_bootstrap_.valid();
    io.boolean(joining);
    if (joining) {
      join_bootstrap_.ckpt_io(io);
      io.i64(join_attempts_);
      sim::ckpt_timer(io, sim, join_timer_, [this] { retry_join(); });
    }
    io.boolean(scan_started_);
    io.boolean(scan_active_);
    if (scan_active_) {
      io.u128(scan_cursor_);
      scan_target_.ckpt_io(io);
      sim::ckpt_timer(io, sim, scan_timer_, [this] { scan_step_timeout(); });
      // Keyed by clockwise distance, which restore derives from the id.
      io.map(scan_candidates_, [&](U128& dist, NodeHandle& n) {
        n.ckpt_io(io);
        io.loading([&] { dist = n.id - handle_.id; });
      });
    }
  });
}

template void PastryNode::ckpt_io(ckpt::Writer&);
template void PastryNode::ckpt_io(ckpt::Reader&);

}  // namespace vb::pastry
