// The collection of Pastry nodes plus the simulated transport between them.
//
// All inter-node traffic flows through send_route / send_direct, which share
// one private transmit step: it charges the sending node's message/byte
// counters (the raw data behind the paper's Fig. 15 overhead CDFs), takes
// the fault plan's verdict, and schedules delivery on the discrete-event
// simulator with a latency from the datacenter topology.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/format.h"
#include "net/topology.h"
#include "pastry/pastry_node.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"

namespace vb::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace vb::obs

namespace vb::pastry {

/// One fleet slot for bootstrap_bulk: a CA-assigned node id and the host it
/// runs on.  Ids must be unique; hosts must exist in the topology.
struct BulkFleetEntry {
  U128 id;
  net::HostId host = -1;
};

class PastryNetwork {
 public:
  /// The network borrows the simulator and topology; both must outlive it.
  PastryNetwork(sim::Simulator* simulator, const net::Topology* topo);

  /// Creates a node and instantly bootstraps its tables from the global
  /// view ("oracle" bootstrap — used by large benches where the paper also
  /// starts from an already-formed FreePastry ring).
  PastryNode& add_node_oracle(const U128& id, net::HostId host);

  /// Creates the entire fleet at once and synthesizes the canonical
  /// converged overlay state directly — sorted-id leaf sets, digit-trie
  /// routing tables, proximity neighbor sets — in O(N log N) without
  /// sending a single message.  Bit-identical to bootstrapping the same
  /// fleet one node at a time with add_node_oracle, and entry-for-entry
  /// equal to what sequential protocol joins converge to (locked by
  /// tests/pastry/bulk_bootstrap_property_test.cc).  The network must be
  /// empty.  Defined in bulk_bootstrap.cc; see docs/ARCHITECTURE.md,
  /// "Bulk-join bootstrap".
  void bootstrap_bulk(std::vector<BulkFleetEntry> fleet);

  /// Creates a node empty and runs the real message-based join protocol
  /// through `bootstrap`.  Caller runs the simulator to completion (or for
  /// long enough) before relying on the node's tables.
  PastryNode& add_node_join(const U128& id, net::HostId host,
                            const NodeHandle& bootstrap);

  /// Marks a node dead.  In-flight and future messages to it trigger the
  /// sender's failure handling (purge + reroute), like a TCP timeout would.
  void kill_node(const U128& id);

  /// Graceful departure: the node announces itself to all peers (they purge
  /// it eagerly) and dies *immediately after* the farewells are put on the
  /// wire.  Death is atomic with the announcement — no window exists in
  /// which a racing message can still be delivered to the departed node
  /// (messages already in flight bounce to the sender's failure handler,
  /// exactly like a crash).
  void depart_node(const U128& id);

  PastryNode* find(const U128& id);
  const PastryNode* find(const U128& id) const;
  PastryNode& at(const U128& id);

  /// Live nodes in id order.
  std::vector<PastryNode*> nodes();
  std::vector<const PastryNode*> nodes() const;
  std::size_t size() const;

  /// Ground truth: the live node whose id is numerically closest to `key`
  /// (what correct routing must converge to).  Network must be non-empty.
  NodeHandle global_closest(const U128& key) const;

  // --- transport (used by PastryNode) -----------------------------------
  /// One hop of a routed message: `to` receives it in handle_route_msg, and
  /// a bounce hands it back to the sender's handle_send_failure to reroute.
  void send_route(PastryNode& from, const NodeHandle& to, RouteMsg msg);
  /// A point-to-point message: `to` receives it in handle_direct_msg, and a
  /// bounce only reports the dead peer to the sender.
  void send_direct(PastryNode& from, const NodeHandle& to, PayloadPtr payload,
                   MsgCategory category);

  // --- chaos injection ----------------------------------------------------
  /// Attaches a fault plan to the transport choke point; nullptr detaches.
  /// The plan must outlive the network (tests own it on the stack).  Every
  /// send from a live node consults the plan exactly once, so (seed, plan)
  /// replays are bit-identical.
  void set_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }
  sim::FaultPlan* fault_plan() const { return fault_plan_; }
  /// Messages destroyed / duplicated by the fault plan, summed over nodes.
  std::uint64_t total_fault_dropped() const;
  std::uint64_t total_fault_dups() const;

  // --- instrumentation ---------------------------------------------------
  /// Attaches a trace recorder; nullptr (the default) detaches.  Recording
  /// is passive — it never schedules events or draws randomness — so sim
  /// outcomes are bit-identical with tracing on or off, and the hot paths
  /// pay a single null-pointer test when tracing is disabled.
  void set_trace(obs::TraceRecorder* t) { trace_ = t; }
  obs::TraceRecorder* trace() const { return trace_; }

  /// Pushes transport roll-ups into `reg` as `pastry.*` / `fault.*` series:
  /// per-category message/byte counters, totals, fault drop/dup counts, a
  /// per-node total-messages distribution, and the reliable channel's state
  /// sizes (`pastry.reliable.dedup_entries`: seqs listed above their dedup
  /// window's floor; `pastry.reliable.dedup_senders`: dedup windows;
  /// `pastry.reliable.pending`: unacked sends), summed over every node,
  /// dead ones included: their state stays resident.  Idempotent: counters
  /// are overwritten and distributions rebuilt on every call.
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// The counters of node `id`, dead or alive; throws for an unknown id.
  const TrafficCounters& counters(const U128& id) const;
  /// Snapshot of total messages sent per live node (Fig. 15 input).
  std::vector<std::uint64_t> per_node_msgs() const;
  std::vector<std::uint64_t> per_node_bytes() const;
  void reset_counters();
  std::uint64_t total_msgs() const;

  /// Number of hops the most recent delivered route took (test aid).
  void note_delivery_hops(int hops) { last_delivery_hops_ = hops; }
  int last_delivery_hops() const { return last_delivery_hops_; }

  sim::Simulator& simulator() { return *sim_; }
  const net::Topology& topology() const { return *topo_; }

  /// Runs one stabilization round on every live node (benches call this
  /// between protocol phases to mimic Pastry's periodic maintenance).
  void stabilize_all();

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Scheduled-but-undelivered transport copies (primaries and fault
  /// duplicates).  Zero is the quiesce-barrier condition: every pending
  /// event is then a periodic tick or a component-owned timer.
  std::int64_t wire_in_flight() const { return wire_in_flight_; }

  /// Serializes each node's liveness, traffic counters and protocol state.
  /// Must be called at a quiesce barrier; throws CkptError if
  /// wire_in_flight() != 0.
  void ckpt_save(ckpt::Writer& w) const { ckpt::save(w, *this); }

  /// Restores the same per node.  The reconstruction must contain the same
  /// node ids (all alive — restore re-kills the dead ones); mismatches
  /// throw CkptError.
  void ckpt_restore(ckpt::Reader& r) { ckpt_io(r); }

  /// The one layout behind ckpt_save and ckpt_restore.
  template <class IO>
  void ckpt_io(IO& io);

 private:
  /// Creates node `id` on `host`; throws if the id is taken.
  PastryNode& insert_node(const U128& id, net::HostId host);
  /// Node `id`, dead or alive; throws std::out_of_range for an unknown id.
  PastryNode& known_node(const U128& id) const;

  /// The transport's single choke point, shared by both send kinds (`Msg`
  /// is a RouteMsg or a direct message): a dead sender returns before any
  /// charge or RNG draw; otherwise charge the sender, take the fault
  /// verdict, trace a drop or duplicate, and schedule the duplicate before
  /// the primary.  The destination is resolved here, once per message.
  template <class Msg>
  void transmit(PastryNode& from, const NodeHandle& to, Msg msg);

  sim::Simulator* sim_;
  const net::Topology* topo_;
  // Ordered: gives ring order for oracle ops.  Nodes are never erased, so
  // a PastryNode* taken at send time stays valid until delivery.
  std::map<U128, std::unique_ptr<PastryNode>> nodes_;
  sim::FaultPlan* fault_plan_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  int last_delivery_hops_ = 0;
  std::int64_t wire_in_flight_ = 0;
};

}  // namespace vb::pastry
