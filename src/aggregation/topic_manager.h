// Per-node topic manager (§III.D).
//
// "Each node has one or more topic managers that keep track of the topics in
// which it is interested.  Each topic manager maintains the linkages to its
// ancestor and descendants.  We refer to a store of (ChildNodehandle, value)
// tuples as an information base."  This type is exactly that store, plus the
// node's own local contribution for the topic.
#pragma once

#include <map>
#include <vector>

#include "aggregation/reduce.h"
#include "common/u128.h"
#include "sim/event_queue.h"

namespace vb::agg {

/// Topic identifier = Scribe group id of the aggregation tree.
using TopicId = U128;

class TopicManager {
 public:
  /// Sets this node's own (attributeName, value) contribution.
  void set_local(const AggValue& v) {
    local_ = v;
    has_local_ = true;
  }
  void clear_local() { has_local_ = false; }
  bool has_local() const { return has_local_; }
  const AggValue& local() const { return local_; }

  /// Updates the reduction information base entry for a child subtree.
  void set_child(const U128& child, const AggValue& v) { children_[child] = v; }
  void remove_child(const U128& child) { children_.erase(child); }
  /// Drops every child entry whose id is not in `keep` (tree edge churn).
  void retain_children(const std::vector<U128>& keep);
  std::size_t child_count() const { return children_.size(); }

  /// Reduction of this subtree: own value combined with every child entry.
  AggValue reduce() const;

  /// Last global value published down from the root.
  void set_global(const AggValue& v, sim::SimTime when) {
    global_ = v;
    global_time_ = when;
    has_global_ = true;
  }
  bool has_global() const { return has_global_; }
  const AggValue& global() const { return global_; }
  sim::SimTime global_time() const { return global_time_; }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  template <class IO>
  void ckpt_io(IO& io) {
    local_.ckpt_io(io);
    io.boolean(has_local_);
    global_.ckpt_io(io);
    io.boolean(has_global_);
    io.f64(global_time_);
    io.map(children_, [&](U128& child, AggValue& v) {
      io.u128(child);
      v.ckpt_io(io);
    });
  }

 private:
  AggValue local_{};
  bool has_local_ = false;
  std::map<U128, AggValue> children_;
  AggValue global_{};
  bool has_global_ = false;
  sim::SimTime global_time_ = 0.0;
};

}  // namespace vb::agg
