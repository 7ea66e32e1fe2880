// Aggregation agent: turns a Scribe group tree into an aggregation /
// dissemination tree (paper §III.C-D, Fig. 4).
//
// "Periodically, the leaf node updates its local state/value and passes the
// update to its parent, and then each successive enclosing subtree updates
// its aggregate value and passes the new value to its parent ... until the
// root holds the desired value.  Finally, the root sends the result down the
// tree to all members."
//
// Two propagation modes are supported:
//  * kPeriodic — nodes push their subtree reduction on explicit tick()
//    calls (the paper's 5-minute updating interval);
//  * kEager   — any local or child change cascades immediately (used to
//    measure pure leaf-to-root latency for Fig. 14).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "aggregation/topic_manager.h"
#include "scribe/scribe_node.h"

namespace vb::agg {

/// Observer of global publishes on this node.
class AggregationListener {
 public:
  virtual ~AggregationListener() = default;
  virtual void on_global(const TopicId& topic, const AggValue& global,
                         sim::SimTime when) = 0;
};

enum class PropagationMode { kPeriodic, kEager };

/// Payload: child -> parent subtree update.
struct AggUpdateMsg : pastry::Payload {
  TopicId topic;
  AggValue value;
  /// Earliest unpublished leaf-update timestamp folded into `value`;
  /// lets the root compute leaf-to-root aggregation latency (Fig. 14).
  sim::SimTime oldest_leaf_time = 0.0;
  std::uint64_t trace = 0;  ///< cascade span id, minted at the leaf
  std::size_t wire_bytes() const override { return 64; }
  std::string name() const override { return "agg.update"; }
  std::uint64_t trace_id() const override { return trace; }
};

/// Payload: root -> members global publish, relayed along tree edges.
struct AggPublishMsg : pastry::Payload {
  TopicId topic;
  AggValue global;
  std::uint64_t trace = 0;  ///< cascade span id, minted at the leaf
  std::size_t wire_bytes() const override { return 56; }
  std::string name() const override { return "agg.publish"; }
  std::uint64_t trace_id() const override { return trace; }
};

/// Per-server aggregation agent.  Registers as BOTH a Pastry app (to receive
/// the direct tree-edge messages) and a Scribe app (to learn of tree
/// membership/edge changes).
class AggregationAgent : public pastry::PastryApp, public scribe::ScribeApp {
 public:
  explicit AggregationAgent(scribe::ScribeNode* scribe,
                            PropagationMode mode = PropagationMode::kPeriodic);

  AggregationAgent(const AggregationAgent&) = delete;
  AggregationAgent& operator=(const AggregationAgent&) = delete;

  /// Subscribes this server to an aggregation topic (joins the Scribe group).
  void subscribe(const TopicId& topic);
  void unsubscribe(const TopicId& topic);
  bool subscribed(const TopicId& topic) const;

  /// Sets this server's local contribution for `topic`.  In kEager mode the
  /// update cascades toward the root immediately.
  void set_local(const TopicId& topic, const AggValue& v);

  /// Periodic-mode driver: pushes the current subtree reduction to the
  /// parent (or publishes, at the root).  Call once per updating interval.
  void tick(const TopicId& topic);

  /// Last global value seen for the topic (empty optional semantics via
  /// has_global()).
  const TopicManager* topic(const TopicId& id) const;

  void add_listener(AggregationListener* l) { listeners_.push_back(l); }

  PropagationMode mode() const { return mode_; }

  scribe::ScribeNode& scribe() { return *scribe_; }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// The topic information bases and the pending-update bookkeeping (no
  /// timers: the periodic ticks that call tick() belong to the cloud).
  template <class IO>
  void ckpt_io(IO& io);

  // --- PastryApp ---------------------------------------------------------
  void deliver(pastry::PastryNode& self, const pastry::RouteMsg& msg) override;
  void receive_direct(pastry::PastryNode& self, const pastry::NodeHandle& from,
                      const pastry::PayloadPtr& payload,
                      pastry::MsgCategory category) override;

  // --- ScribeApp ---------------------------------------------------------
  void on_children_changed(scribe::ScribeNode& self,
                           const scribe::GroupId& group) override;

 private:
  TopicManager& manager(const TopicId& topic);
  /// Sends our subtree reduction up the tree; at the root, publishes down.
  void propagate(const TopicId& topic);
  void publish_down(const TopicId& topic, const AggValue& global,
                    std::uint64_t trace = 0);

  scribe::ScribeNode* scribe_;
  PropagationMode mode_;
  std::map<TopicId, TopicManager> topics_;
  /// Oldest pending (unsent) local-update time per topic, for latency
  /// bookkeeping.
  std::map<TopicId, sim::SimTime> pending_since_;
  /// Trace id of the oldest pending contribution per topic (leaf-minted or
  /// adopted from a child); carried up with the next propagate().  Only
  /// populated while a TraceRecorder is attached.
  std::map<TopicId, std::uint64_t> pending_trace_;
  std::vector<AggregationListener*> listeners_;
};

}  // namespace vb::agg
