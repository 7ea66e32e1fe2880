// A single Pastry overlay node (one per physical server, per the paper).
//
// Implements prefix routing with the three classic rules (leaf set, routing
// table, rare-case fallback), the join protocol (state harvested from nodes
// along the join route plus the numerically closest node's leaf set), and
// eager repair on send failures.  Applications layer on top through the
// PastryApp interface (Scribe is the main client).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "pastry/dedup_windows.h"
#include "pastry/leaf_set.h"
#include "pastry/message.h"
#include "pastry/neighbor_set.h"
#include "pastry/node_id.h"
#include "pastry/routing_table.h"
#include "sim/simulator.h"

namespace vb::pastry {

class PastryNetwork;
class PastryNode;

/// Upcall interface for overlay applications (the Pastry "common API").
class PastryApp {
 public:
  virtual ~PastryApp() = default;

  /// Message arrived at the node numerically closest to its key.
  virtual void deliver(PastryNode& self, const RouteMsg& msg) = 0;

  /// Message is about to be forwarded to `next`.  Return false to absorb it
  /// (Scribe intercepts JOINs this way).  May mutate the message.
  virtual bool forward(PastryNode& self, RouteMsg& msg, const NodeHandle& next) {
    (void)self; (void)msg; (void)next;
    return true;
  }

  /// Point-to-point payload addressed to this node (tree edges, replies).
  virtual void receive_direct(PastryNode& self, const NodeHandle& from,
                              const PayloadPtr& payload, MsgCategory category) {
    (void)self; (void)from; (void)payload; (void)category;
  }

  /// A peer was detected dead (send failure) and purged from our tables.
  virtual void on_node_failed(PastryNode& self, const NodeHandle& failed) {
    (void)self; (void)failed;
  }
};

class PastryNode {
 public:
  PastryNode(NodeHandle handle, PastryNetwork* network, int leaf_half = 8,
             int neighbor_capacity = 16);

  PastryNode(const PastryNode&) = delete;
  PastryNode& operator=(const PastryNode&) = delete;

  const NodeHandle& handle() const { return handle_; }
  const U128& id() const { return handle_.id; }
  net::HostId host() const { return handle_.host; }

  /// Registers an application for upcalls.  Not owned; must outlive node.
  void add_app(PastryApp* app);

  /// Routes `payload` toward `key` starting from this node.
  void route(const U128& key, PayloadPtr payload,
             MsgCategory category = MsgCategory::kApp);

  /// Sends `payload` directly to `dest` (no routing).
  void send_direct(const NodeHandle& dest, PayloadPtr payload,
                   MsgCategory category = MsgCategory::kApp);

  /// Sends `payload` directly to `dest` so that it is processed there at
  /// most once, and exactly once unless the send is abandoned: the payload
  /// is wrapped in a ReliableEnvelope, acked by the receiver, and
  /// retransmitted on timeout with bounded exponential backoff
  /// (kReliableBaseRtoS doubling up to kReliableMaxRtoS) until
  /// kReliableMaxAttempts copies have gone — enough to ride out a 5 s
  /// partition.  The envelope carries its seq and a floor, our oldest
  /// unacked seq to `dest` (or its own seq); the receiver's DedupWindows
  /// drops duplicates, retransmitted or fault-injected, and late copies of
  /// abandoned sends below a newer envelope's floor.  Retransmit copies and
  /// acks are charged to their own TrafficCounters categories, so the first
  /// copy's Fig.-15 accounting is unchanged.  Opt-in: plain send_direct
  /// stays fire-and-forget.
  void send_reliable(const NodeHandle& dest, PayloadPtr payload,
                     MsgCategory category = MsgCategory::kApp);

  static constexpr double kReliableBaseRtoS = 0.5;
  static constexpr double kReliableMaxRtoS = 8.0;
  static constexpr int kReliableMaxAttempts = 6;  // ~23.5 s before giving up

  /// Reliable sends still awaiting an ack (test/diagnostic aid).
  std::size_t pending_reliable_count() const { return pending_reliable_.size(); }

  /// Receiver-side dedup state, one window per sender (state-size gauges).
  const DedupWindows& reliable_dedup() const { return seen_reliable_; }

  /// Chooses the next hop for `key`: self if we are the closest known node.
  NodeHandle next_hop(const U128& key) const;

  /// Incorporates knowledge of another live node into all three tables.
  void learn(const NodeHandle& node);

  /// Purges a failed node from all tables and notifies apps.
  void purge(const NodeHandle& node);

  /// Starts the message-based join through `bootstrap` (must be live).
  /// State arrives asynchronously; run the simulator to complete it.
  /// The JoinRequest is re-issued every kJoinRetryS until the delivery
  /// node's leaf-set transfer arrives (routed joins are fire-and-forget and
  /// a lossy network can eat one), and once it does the newcomer runs a
  /// ring-presence sweep (internal::RingScan) that visits every live node —
  /// after quiescence the fleet's state is entry-for-entry identical to a
  /// bulk/oracle bootstrap of the same membership.
  void begin_join(const NodeHandle& bootstrap);

  static constexpr double kJoinRetryS = 10.0;
  static constexpr int kJoinMaxAttempts = 8;
  /// Per-step sweep timeout; exceeds the reliable channel's total patience
  /// (~23.5 s) so a step is only abandoned once retransmission has given up.
  static constexpr double kScanStepTimeoutS = 30.0;

  /// True while the ring-presence sweep is still visiting nodes (test aid).
  bool ring_scan_active() const { return scan_active_; }

  /// One round of leaf-set stabilization: exchange leaf sets with the two
  /// extreme leaves.  Cheap, idempotent; benches call it periodically.
  void stabilize();

  /// One round of routing-table maintenance: fetches one row (round-robin)
  /// from a peer in that row, refreshing entries and filling holes left by
  /// failures.  Classic Pastry periodic repair.
  void maintain_routing_table();

  /// Graceful departure: notifies every known peer so they purge us
  /// immediately (and Scribe re-homes orphaned tree edges) without waiting
  /// for timeout-based failure detection.  The caller kills the node once
  /// the notifications have drained (PastryNetwork::depart_node does both).
  void announce_departure();

  // --- internal plumbing, called by PastryNetwork -----------------------
  void handle_route_msg(RouteMsg msg);
  void handle_direct_msg(const NodeHandle& from, const PayloadPtr& payload,
                         MsgCategory category);
  void handle_send_failure(const NodeHandle& dead, RouteMsg* undelivered);

  const LeafSet& leaf_set() const { return leafs_; }
  const RoutingTable& routing_table() const { return table_; }
  const NeighborSet& neighbor_set() const { return neighbors_; }
  PastryNetwork& network() { return *network_; }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Serializes the three tables, the maintenance cursor, the reliable
  /// channel (dedup windows plus every unacked envelope with its retransmit
  /// timer's fire time/seq), and the join-retry / ring-sweep state.
  /// Envelope payloads go through the ckpt::PayloadCodec registry.
  void ckpt_save(ckpt::Writer& w) const;

  /// Overwrites the same state and re-arms each retransmit timer at its
  /// original (fire time, event seq).
  void ckpt_restore(ckpt::Reader& r);

 private:
  /// One reliable send awaiting its ack.
  struct PendingReliable {
    NodeHandle dest;
    PayloadPtr envelope;  // the ReliableEnvelope, reused verbatim on resend
    int attempts = 1;
    double rto_s = kReliableBaseRtoS;
    sim::EventId timer = sim::kInvalidEventId;
  };

  int proximity_to(const NodeHandle& n) const;
  void send_join_request();
  void retry_join();
  void start_ring_scan();
  void scan_note(const NodeHandle& n);
  void scan_advance();
  void scan_step_timeout();
  void retransmit_reliable(std::uint64_t seq);
  /// Drops every pending reliable send addressed to a node we now know is
  /// dead (its transport bounce already triggered purge + app repair).
  void fail_pending_reliable_to(const NodeHandle& dead);

  NodeHandle handle_;
  PastryNetwork* network_;
  int next_maintenance_row_ = 0;
  RoutingTable table_;
  LeafSet leafs_;
  NeighborSet neighbors_;
  std::vector<PastryApp*> apps_;

  std::uint64_t next_reliable_seq_ = 1;
  std::map<std::uint64_t, PendingReliable> pending_reliable_;
  DedupWindows seen_reliable_;

  // --- join retry + ring-presence sweep ---------------------------------
  // join_bootstrap_ stays valid (with join_timer_ armed) until the delivery
  // node's leaf-set transfer arrives or kJoinMaxAttempts are exhausted.
  NodeHandle join_bootstrap_{};
  int join_attempts_ = 0;
  sim::EventId join_timer_ = sim::kInvalidEventId;
  // The sweep runs at most once per lifetime.  While active, exactly one
  // target is outstanding and scan_timer_ is armed; candidates are keyed by
  // clockwise ring distance from us and visited in increasing order.
  bool scan_started_ = false;
  bool scan_active_ = false;
  U128 scan_cursor_{};
  NodeHandle scan_target_{};
  sim::EventId scan_timer_ = sim::kInvalidEventId;
  std::map<U128, NodeHandle> scan_candidates_;
};

}  // namespace vb::pastry
