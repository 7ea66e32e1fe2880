// Scribe: application-level group communication on Pastry (§III.A).
//
// Scribe names a group by a pseudo-random Pastry key (groupId); the node
// whose id is numerically closest becomes the rendezvous root.  JOIN
// messages routed toward the groupId graft the route into a per-group
// multicast tree; multicasts disseminate from the root down the tree;
// anycast performs a distributed depth-first search of the tree, visiting
// topologically close members first.  This file implements the per-node
// Scribe agent as a Pastry application.
#pragma once

#include <map>
#include <vector>

#include "pastry/pastry_node.h"
#include "scribe/scribe_msgs.h"

namespace vb::scribe {

class ScribeNode;

/// Upcall interface for Scribe clients (aggregation layer, v-Bundle).
class ScribeApp {
 public:
  virtual ~ScribeApp() = default;

  /// A multicast reached this node (members only).
  virtual void on_multicast(ScribeNode& self, const GroupId& group,
                            const pastry::PayloadPtr& inner) {
    (void)self; (void)group; (void)inner;
  }

  /// An anycast is offering work to this member.  Return true to accept
  /// (stops the DFS); false passes it on.
  virtual bool on_anycast(ScribeNode& self, const GroupId& group,
                          const pastry::PayloadPtr& inner,
                          const pastry::NodeHandle& origin) {
    (void)self; (void)group; (void)inner; (void)origin;
    return false;
  }

  /// Our earlier anycast was accepted by `acceptor`.
  virtual void on_anycast_accepted(ScribeNode& self, const GroupId& group,
                                   const pastry::PayloadPtr& inner,
                                   const pastry::NodeHandle& acceptor,
                                   int nodes_visited) {
    (void)self; (void)group; (void)inner; (void)acceptor; (void)nodes_visited;
  }

  /// Our earlier anycast walked the whole tree with no acceptor.
  virtual void on_anycast_failed(ScribeNode& self, const GroupId& group,
                                 const pastry::PayloadPtr& inner) {
    (void)self; (void)group; (void)inner;
  }

  /// Tree child set changed (the aggregation layer tracks its children).
  virtual void on_children_changed(ScribeNode& self, const GroupId& group) {
    (void)self; (void)group;
  }

  /// Our parent link for `group` changed (rejoin after failure, first join).
  virtual void on_parent_changed(ScribeNode& self, const GroupId& group) {
    (void)self; (void)group;
  }
};

/// Per-group tree state held by one node.
struct GroupState {
  bool member = false;    ///< subscribed (receives multicasts, anycast offers)
  bool root = false;      ///< rendezvous point for the group
  bool attached = false;  ///< has a parent edge or is the root
  bool join_pending = false;  ///< a JOIN we sent is still routing
  pastry::NodeHandle parent;
  std::vector<pastry::NodeHandle> children;
  // JOIN retransmission: a routed JOIN can be lost hop-by-hop under chaos,
  // so maintenance() re-sends it with bounded exponential backoff until the
  // node attaches.  Times are absolute simulator seconds.
  double next_join_retry_s = 0.0;
  double join_backoff_s = 1.0;

  bool in_tree() const { return member || root || attached || !children.empty(); }
  bool has_child(const pastry::NodeHandle& n) const;
};

/// One anycast DFS step (§III.C step 2): appends to `stack` the candidates,
/// namely `children` plus `*parent` when non-null, whose ids are not in
/// `visited`.  They are appended farthest from `origin` first: proximity tier
/// descending, then host descending, then id descending.  The nearest
/// candidate therefore ends on top of the stack and is popped next.
void push_walk_candidates(const net::Topology& topo, net::HostId origin,
                          const std::vector<U128>& visited,
                          const std::vector<pastry::NodeHandle>& children,
                          const pastry::NodeHandle* parent,
                          std::vector<pastry::NodeHandle>& stack);

class ScribeNode : public pastry::PastryApp {
 public:
  /// Attaches this Scribe agent to `owner` (registers as a Pastry app).
  explicit ScribeNode(pastry::PastryNode* owner);

  ScribeNode(const ScribeNode&) = delete;
  ScribeNode& operator=(const ScribeNode&) = delete;

  /// Registers a client for upcalls (not owned).
  void add_app(ScribeApp* app);

  /// Routes a CREATE so the key owner instantiates the group root.
  void create(const GroupId& group);

  /// Joins the group (becomes a member; grafts a tree path if needed).
  void join(const GroupId& group);

  /// Leaves the group.  The node stays as a silent forwarder while it still
  /// has children; the edge is pruned when childless.
  void leave(const GroupId& group);

  /// Multicasts `inner` to all members via the rendezvous root.
  void multicast(const GroupId& group, pastry::PayloadPtr inner,
                 pastry::MsgCategory category = pastry::MsgCategory::kApp);

  /// Anycasts `inner`: DFS of the group tree starting near this node;
  /// exactly one member may accept.  Result arrives as an
  /// on_anycast_accepted / on_anycast_failed upcall.
  void anycast(const GroupId& group, pastry::PayloadPtr inner,
               pastry::MsgCategory category = pastry::MsgCategory::kApp);

  /// One maintenance round: sends a heartbeat to the parent of every group
  /// we are attached to, and re-sends any JOIN that has been pending past
  /// its backoff deadline (routed JOINs are lost hop-by-hop under chaos).
  /// A dead parent surfaces as a send failure, which triggers rejoin
  /// (Scribe's "self-organizing and self-repairing" trees, §III.E).
  /// Benches call this periodically.
  void maintenance();

  static constexpr double kJoinBackoffBaseS = 1.0;
  static constexpr double kJoinBackoffMaxS = 16.0;

  bool is_member(const GroupId& group) const;
  bool in_tree(const GroupId& group) const;
  const GroupState* find_group(const GroupId& group) const;

  pastry::PastryNode& owner() { return *owner_; }
  const pastry::PastryNode& owner() const { return *owner_; }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Serializes every group's tree state (all plain data: Scribe owns no
  /// one-shot timers — JOIN retry is a deadline field scanned by the
  /// periodic maintenance() tick).  Implemented in scribe_ckpt.cc.
  void ckpt_save(ckpt::Writer& w) const;
  void ckpt_restore(ckpt::Reader& r);

  // --- PastryApp interface ----------------------------------------------
  void deliver(pastry::PastryNode& self, const pastry::RouteMsg& msg) override;
  bool forward(pastry::PastryNode& self, pastry::RouteMsg& msg,
               const pastry::NodeHandle& next) override;
  void receive_direct(pastry::PastryNode& self, const pastry::NodeHandle& from,
                      const pastry::PayloadPtr& payload,
                      pastry::MsgCategory category) override;
  void on_node_failed(pastry::PastryNode& self,
                      const pastry::NodeHandle& failed) override;

 private:
  GroupState& state(const GroupId& group);
  /// (Re)sends our JOIN toward the group key and arms the retry backoff.
  void send_join(const GroupId& group, GroupState& st);
  void add_child(const GroupId& group, const pastry::NodeHandle& child);
  void remove_child(const GroupId& group, const pastry::NodeHandle& child);
  void disseminate(const GroupId& group, const pastry::PayloadPtr& inner,
                   pastry::MsgCategory category);
  /// Starts or continues an anycast DFS at this node.
  void process_walk(std::shared_ptr<WalkMsg> walk);
  /// Pushes unvisited tree neighbors (children, then the parent when we are
  /// attached below the root) onto the walk stack, nearest to the origin
  /// popped first.
  void push_neighbors(WalkMsg& walk, const GroupState& st) const;
  void maybe_prune(const GroupId& group);
  /// Our path to the root is gone: dissolve the subtree below us (children
  /// rejoin on their own) and rejoin ourselves if we are a member.
  void detach_and_rejoin(const GroupId& group);

  pastry::PastryNode* owner_;
  std::map<GroupId, GroupState> groups_;
  std::vector<ScribeApp*> apps_;
};

}  // namespace vb::scribe
