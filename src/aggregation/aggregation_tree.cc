#include "aggregation/aggregation_tree.h"

#include <algorithm>

#include "obs/trace.h"
#include "pastry/pastry_network.h"

namespace vb::agg {

using pastry::MsgCategory;

AggregationAgent::AggregationAgent(scribe::ScribeNode* scribe,
                                   PropagationMode mode)
    : scribe_(scribe), mode_(mode) {
  scribe_->owner().add_app(this);
  scribe_->add_app(this);
}

TopicManager& AggregationAgent::manager(const TopicId& topic) {
  return topics_[topic];
}

const TopicManager* AggregationAgent::topic(const TopicId& id) const {
  auto it = topics_.find(id);
  return it == topics_.end() ? nullptr : &it->second;
}

void AggregationAgent::subscribe(const TopicId& topic) {
  manager(topic);
  scribe_->join(topic);
}

void AggregationAgent::unsubscribe(const TopicId& topic) {
  scribe_->leave(topic);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return;
  if (scribe_->in_tree(topic)) {
    // Still a forwarder (or the root): stop contributing our own value but
    // keep relaying the children's, and push the corrected reduction up so
    // the cluster total drops promptly.
    it->second.clear_local();
    propagate(topic);
  } else {
    topics_.erase(it);
    pending_since_.erase(topic);
  }
}

bool AggregationAgent::subscribed(const TopicId& topic) const {
  return scribe_->is_member(topic);
}

void AggregationAgent::set_local(const TopicId& topic, const AggValue& v) {
  TopicManager& mgr = manager(topic);
  mgr.set_local(v);
  sim::SimTime now = scribe_->owner().network().simulator().now();
  auto [it, inserted] = pending_since_.emplace(topic, now);
  (void)it;
  (void)inserted;  // keep the oldest pending timestamp if one exists
  if (obs::TraceRecorder* tr = scribe_->owner().network().trace()) {
    // Mint the cascade id at the leaf; a pending id (older contribution not
    // yet sent) wins, matching the oldest-timestamp bookkeeping above.
    pending_trace_.emplace(topic, tr->new_trace_id());
  }
  if (mode_ == PropagationMode::kEager) propagate(topic);
}

void AggregationAgent::tick(const TopicId& topic) { propagate(topic); }

void AggregationAgent::propagate(const TopicId& topic) {
  TopicManager& mgr = manager(topic);
  const scribe::GroupState* st = scribe_->find_group(topic);
  sim::SimTime now = scribe_->owner().network().simulator().now();

  sim::SimTime oldest = now;
  if (auto it = pending_since_.find(topic); it != pending_since_.end()) {
    oldest = it->second;
    pending_since_.erase(it);
  }
  std::uint64_t trace = 0;
  if (auto it = pending_trace_.find(topic); it != pending_trace_.end()) {
    trace = it->second;
    pending_trace_.erase(it);
  }

  if (st != nullptr && st->root) {
    AggValue global = mgr.reduce();
    publish_down(topic, global, trace);
    return;
  }
  if (st == nullptr || !st->attached || !st->parent.valid()) {
    // Detached (e.g., parent failed, rejoin in flight): re-arm the pending
    // marker so the update is not lost.
    pending_since_.emplace(topic, oldest);
    if (trace != 0) pending_trace_.emplace(topic, trace);
    return;
  }
  auto msg = std::make_shared<AggUpdateMsg>();
  msg->topic = topic;
  msg->value = mgr.reduce();
  msg->oldest_leaf_time = oldest;
  msg->trace = trace;
  if (obs::TraceRecorder* tr = scribe_->owner().network().trace()) {
    tr->instant(now, trace, static_cast<int>(scribe_->owner().handle().host),
                "agg.update", "agg", "parent_host",
                static_cast<double>(st->parent.host));
  }
  scribe_->owner().send_direct(st->parent, std::move(msg),
                               MsgCategory::kAggregation);
}

void AggregationAgent::publish_down(const TopicId& topic,
                                    const AggValue& global,
                                    std::uint64_t trace) {
  TopicManager& mgr = manager(topic);
  sim::SimTime now = scribe_->owner().network().simulator().now();
  mgr.set_global(global, now);
  obs::TraceRecorder* tr = scribe_->owner().network().trace();
  if (tr != nullptr) {
    tr->instant(now, trace, static_cast<int>(scribe_->owner().handle().host),
                "agg.global", "agg", "value", global.sum);
  }
  for (AggregationListener* l : listeners_) l->on_global(topic, global, now);

  const scribe::GroupState* st = scribe_->find_group(topic);
  if (st == nullptr) return;
  for (const pastry::NodeHandle& child : st->children) {
    auto msg = std::make_shared<AggPublishMsg>();
    msg->topic = topic;
    msg->global = global;
    msg->trace = trace;
    if (tr != nullptr) {
      tr->instant(now, trace, static_cast<int>(scribe_->owner().handle().host),
                  "agg.publish", "agg", "child_host",
                  static_cast<double>(child.host));
    }
    scribe_->owner().send_direct(child, std::move(msg),
                                 MsgCategory::kAggregation);
  }
}

void AggregationAgent::deliver(pastry::PastryNode& self,
                               const pastry::RouteMsg& msg) {
  (void)self;
  (void)msg;  // aggregation uses only direct tree-edge messages
}

void AggregationAgent::receive_direct(pastry::PastryNode& self,
                                      const pastry::NodeHandle& from,
                                      const pastry::PayloadPtr& payload,
                                      pastry::MsgCategory category) {
  (void)self;
  (void)category;
  if (auto up = std::dynamic_pointer_cast<const AggUpdateMsg>(payload)) {
    TopicManager& mgr = manager(up->topic);
    mgr.set_child(from.id, up->value);
    auto [it, inserted] = pending_since_.emplace(up->topic, up->oldest_leaf_time);
    if (!inserted) it->second = std::min(it->second, up->oldest_leaf_time);
    if (up->trace != 0) pending_trace_.emplace(up->topic, up->trace);
    if (mode_ == PropagationMode::kEager) propagate(up->topic);
    return;
  }
  if (auto pub = std::dynamic_pointer_cast<const AggPublishMsg>(payload)) {
    TopicManager& mgr = manager(pub->topic);
    sim::SimTime now = scribe_->owner().network().simulator().now();
    mgr.set_global(pub->global, now);
    if (obs::TraceRecorder* tr = scribe_->owner().network().trace()) {
      tr->instant(now, pub->trace,
                  static_cast<int>(scribe_->owner().handle().host),
                  "agg.global", "agg", "value", pub->global.sum);
    }
    for (AggregationListener* l : listeners_) {
      l->on_global(pub->topic, pub->global, now);
    }
    // Relay along our tree edges.
    const scribe::GroupState* st = scribe_->find_group(pub->topic);
    if (st == nullptr) return;
    for (const pastry::NodeHandle& child : st->children) {
      scribe_->owner().send_direct(child, payload, MsgCategory::kAggregation);
    }
    return;
  }
}

void AggregationAgent::on_children_changed(scribe::ScribeNode& self,
                                           const scribe::GroupId& group) {
  (void)self;
  auto it = topics_.find(group);
  if (it == topics_.end()) return;
  // Drop information-base entries for children no longer on the tree, so a
  // departed subtree stops contributing to our reduction.
  const scribe::GroupState* st = scribe_->find_group(group);
  if (st == nullptr) return;
  std::vector<U128> keep;
  keep.reserve(st->children.size());
  for (const pastry::NodeHandle& c : st->children) keep.push_back(c.id);
  it->second.retain_children(keep);
}

void AggregationAgent::on_parent_changed(scribe::ScribeNode& self,
                                         const scribe::GroupId& group) {
  (void)self;
  (void)group;  // next propagate() naturally uses the new parent
}

void AggregationAgent::ckpt_save(ckpt::Writer& w) const {
  w.begin_section("agg");
  w.u32(static_cast<std::uint32_t>(topics_.size()));
  for (const auto& [topic, mgr] : topics_) {
    w.u128(topic);
    mgr.ckpt_save(w);
  }
  w.u32(static_cast<std::uint32_t>(pending_since_.size()));
  for (const auto& [topic, t] : pending_since_) {
    w.u128(topic);
    w.f64(t);
  }
  w.u32(static_cast<std::uint32_t>(pending_trace_.size()));
  for (const auto& [topic, id] : pending_trace_) {
    w.u128(topic);
    w.u64(id);
  }
  w.end_section();
}

void AggregationAgent::ckpt_restore(ckpt::Reader& r) {
  r.enter_section("agg");
  topics_.clear();
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    TopicId topic = r.u128();
    topics_[topic].ckpt_restore(r);
  }
  pending_since_.clear();
  n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    TopicId topic = r.u128();
    pending_since_[topic] = r.f64();
  }
  pending_trace_.clear();
  n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    TopicId topic = r.u128();
    pending_trace_[topic] = r.u64();
  }
  r.exit_section();
}

}  // namespace vb::agg
