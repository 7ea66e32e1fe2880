// Additional Scribe edge cases: anycast visit bounds and visit order,
// heartbeat edge healing, dissemination message counts, many concurrent
// groups, and the wire-size accounting on Scribe payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "scribe/scribe_network.h"

namespace vb::scribe {
namespace {

struct Note : pastry::Payload {
  int tag = 0;
};

struct Client : ScribeApp {
  int multicasts = 0;
  int offers = 0;
  std::vector<U128> offered;  ///< ids of the members offered, in order
  int accepts_sent = 0;
  int failures = 0;
  std::set<U128> acceptors;
  int last_visited = 0;

  void on_multicast(ScribeNode&, const GroupId&,
                    const pastry::PayloadPtr&) override {
    ++multicasts;
  }
  bool on_anycast(ScribeNode& self, const GroupId&, const pastry::PayloadPtr&,
                  const pastry::NodeHandle&) override {
    ++offers;
    offered.push_back(self.owner().id());
    return acceptors.contains(self.owner().id());
  }
  void on_anycast_accepted(ScribeNode&, const GroupId&,
                           const pastry::PayloadPtr&, const pastry::NodeHandle&,
                           int visited) override {
    ++accepts_sent;
    last_visited = visited;
  }
  void on_anycast_failed(ScribeNode&, const GroupId&,
                         const pastry::PayloadPtr&) override {
    ++failures;
  }
};

struct Harness {
  net::Topology topo;
  sim::Simulator sim;
  pastry::PastryNetwork net;
  std::unique_ptr<ScribeNetwork> scribe;
  Client client;

  explicit Harness(int racks, int hosts, std::uint64_t seed = 42, int pods = 1)
      : topo([&] {
          net::TopologyConfig c;
          c.num_pods = pods;
          c.racks_per_pod = racks;
          c.hosts_per_rack = hosts;
          return net::Topology(c);
        }()),
        net(&sim, &topo) {
    Rng rng(seed);
    for (int h = 0; h < topo.num_hosts(); ++h) {
      net.add_node_oracle(rng.next_u128(), h);
    }
    scribe = std::make_unique<ScribeNetwork>(&net);
    for (ScribeNode* s : scribe->nodes()) s->add_app(&client);
  }
};

TEST(ScribeEdge, AnycastVisitCountSmallWhenEveryoneAccepts) {
  Harness hx(8, 8);
  GroupId g = scribe_group_id("g", "t");
  for (ScribeNode* s : hx.scribe->nodes()) {
    s->join(g);
    hx.client.acceptors.insert(s->owner().id());
  }
  hx.sim.run_to_completion();
  Rng rng(1);
  auto nodes = hx.scribe->nodes();
  int total_visited = 0;
  for (int i = 0; i < 50; ++i) {
    nodes[rng.index(nodes.size())]->anycast(g, std::make_shared<Note>());
    hx.sim.run_to_completion();
    total_visited += hx.client.last_visited;
  }
  EXPECT_EQ(hx.client.accepts_sent, 50);
  // With universal acceptance the first tree node reached accepts:
  // visits stay tiny (<< group size 64).
  EXPECT_LE(total_visited / 50.0, 3.0);
}

TEST(ScribeEdge, AnycastVisitsBoundedByGroupSizeWhenAllDecline) {
  Harness hx(4, 4);
  GroupId g = scribe_group_id("g", "t");
  for (ScribeNode* s : hx.scribe->nodes()) s->join(g);
  hx.sim.run_to_completion();
  hx.scribe->nodes()[3]->anycast(g, std::make_shared<Note>());
  hx.sim.run_to_completion();
  EXPECT_EQ(hx.client.failures, 1);
  // Every member got exactly one offer (full DFS, no duplicates).
  EXPECT_EQ(hx.client.offers, 16);
}

TEST(ScribeEdge, HeartbeatHealsDroppedChildEdge) {
  Harness hx(4, 4);
  GroupId g = scribe_group_id("g", "t");
  for (ScribeNode* s : hx.scribe->nodes()) s->join(g);
  hx.sim.run_to_completion();

  // Forcefully corrupt one parent: drop a child from its list via a fake
  // LeaveMsg, then verify heartbeats restore the edge.
  ScribeNode* child = nullptr;
  ScribeNode* parent = nullptr;
  for (ScribeNode* s : hx.scribe->nodes()) {
    const GroupState* st = s->find_group(g);
    if (st != nullptr && st->attached && !st->root && st->parent.valid()) {
      child = s;
      parent = hx.scribe->find(st->parent.id);
      break;
    }
  }
  ASSERT_NE(child, nullptr);
  ASSERT_NE(parent, nullptr);
  auto fake_leave = std::make_shared<LeaveMsg>();
  fake_leave->group = g;
  fake_leave->child = child->owner().handle();
  parent->owner().handle_direct_msg(child->owner().handle(), fake_leave,
                                    pastry::MsgCategory::kScribeControl);
  ASSERT_FALSE(parent->find_group(g) &&
               parent->find_group(g)->has_child(child->owner().handle()));

  for (ScribeNode* s : hx.scribe->nodes()) s->maintenance();
  hx.sim.run_to_completion();
  const GroupState* pst = parent->find_group(g);
  ASSERT_NE(pst, nullptr);
  EXPECT_TRUE(pst->has_child(child->owner().handle()));
  EXPECT_TRUE(hx.scribe->tree_consistent(g));
}

TEST(ScribeEdge, HeartbeatNackForcesRejoin) {
  Harness hx(4, 4);
  GroupId g = scribe_group_id("g", "t");
  // Node A believes B is its parent, but B is not in the tree at all.
  ScribeNode* a = hx.scribe->nodes()[0];
  ScribeNode* b = hx.scribe->nodes()[1];
  a->join(g);
  hx.sim.run_to_completion();
  // Fabricate a wrong parent pointer by sending a heartbeat to B directly.
  auto hb = std::make_shared<HeartbeatMsg>();
  hb->group = g;
  hb->child = a->owner().handle();
  // B is not in the tree; it must NACK (not silently adopt) only when truly
  // outside.  If B happens to be in the tree (forwarder), skip the check.
  if (!b->in_tree(g)) {
    b->owner().handle_direct_msg(a->owner().handle(), hb,
                                 pastry::MsgCategory::kScribeControl);
    hx.sim.run_to_completion();
    const GroupState* bst = b->find_group(g);
    EXPECT_TRUE(bst == nullptr || !bst->has_child(a->owner().handle()));
  }
}

TEST(ScribeEdge, DisseminationSendsOneMessagePerEdge) {
  Harness hx(4, 4);
  GroupId g = scribe_group_id("g", "t");
  for (ScribeNode* s : hx.scribe->nodes()) s->join(g);
  hx.sim.run_to_completion();
  hx.net.reset_counters();
  hx.scribe->nodes()[0]->multicast(g, std::make_shared<Note>());
  hx.sim.run_to_completion();
  // Tree edges: 15 (16 nodes); plus the route from sender to root.
  std::uint64_t msgs = hx.net.total_msgs();
  EXPECT_GE(msgs, 15u);
  EXPECT_LE(msgs, 15u + 6u);
  EXPECT_EQ(hx.client.multicasts, 16);
}

TEST(ScribeEdge, ManyGroupsCoexist) {
  Harness hx(4, 4, 7);
  std::vector<GroupId> groups;
  for (int i = 0; i < 20; ++i) {
    groups.push_back(scribe_group_id("group-" + std::to_string(i), "t"));
  }
  Rng rng(3);
  auto nodes = hx.scribe->nodes();
  std::vector<int> member_counts;
  for (const GroupId& g : groups) {
    int members = 2 + static_cast<int>(rng.index(8));
    member_counts.push_back(members);
    for (int m = 0; m < members; ++m) {
      nodes[(rng.index(nodes.size()))]->join(g);
    }
  }
  hx.sim.run_to_completion();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_TRUE(hx.scribe->tree_consistent(groups[i])) << i;
    // Joins from the same node are idempotent, so <= requested.
    EXPECT_LE(static_cast<int>(hx.scribe->members_of(groups[i]).size()),
              member_counts[i]);
    EXPECT_GE(hx.scribe->members_of(groups[i]).size(), 1u);
  }
}

// The DFS step's order as a plain comparator sort: proximity tier to the
// origin descending, then host descending, then id descending.  The last
// element is the one the walk pops next.
std::vector<pastry::NodeHandle> reference_order(
    const net::Topology& topo, net::HostId origin,
    const std::vector<U128>& visited,
    const std::vector<pastry::NodeHandle>& children,
    const pastry::NodeHandle* parent) {
  std::vector<pastry::NodeHandle> c = children;
  if (parent != nullptr) c.push_back(*parent);
  std::erase_if(c, [&](const pastry::NodeHandle& n) {
    return std::find(visited.begin(), visited.end(), n.id) != visited.end();
  });
  std::sort(c.begin(), c.end(),
            [&](const pastry::NodeHandle& a, const pastry::NodeHandle& b) {
              auto pa = static_cast<int>(topo.proximity(origin, a.host));
              auto pb = static_cast<int>(topo.proximity(origin, b.host));
              if (pa != pb) return pa > pb;
              if (a.host != b.host) return a.host > b.host;
              return a.id > b.id;
            });
  return c;
}

std::vector<std::pair<U128, net::HostId>> id_host(
    const std::vector<pastry::NodeHandle>& v) {
  std::vector<std::pair<U128, net::HostId>> out;
  for (const pastry::NodeHandle& n : v) out.emplace_back(n.id, n.host);
  return out;
}

TEST(ScribeEdge, WalkCandidateOrderMatchesReference) {
  net::TopologyConfig cfg;
  cfg.num_pods = 2;
  cfg.racks_per_pod = 4;
  cfg.hosts_per_rack = 8;
  const net::Topology topo(cfg);
  Rng rng(13);
  for (int trial = 0; trial < 120; ++trial) {
    // Sizes 0, 1 and 3000 first, then small and large at random.
    std::size_t n = trial == 0   ? 0
                    : trial == 1 ? 1
                    : trial == 2 ? 3000
                    : rng.chance(0.5) ? rng.index(21)
                                      : rng.index(3001);
    // A small host pool makes many candidates share a host, so the id
    // tie-break decides their order.
    std::vector<net::HostId> pool(1 + rng.index(topo.num_hosts()));
    for (net::HostId& h : pool) {
      h = static_cast<net::HostId>(rng.index(topo.num_hosts()));
    }
    auto draw = [&] {
      return pastry::NodeHandle{rng.next_u128(), pool[rng.index(pool.size())]};
    };
    std::vector<pastry::NodeHandle> children(n);
    for (pastry::NodeHandle& c : children) c = draw();
    const pastry::NodeHandle parent_node = draw();
    // An attached node pushes its parent; a root or detached one does not.
    const pastry::NodeHandle* parent =
        rng.index(3) == 0 ? &parent_node : nullptr;

    std::vector<U128> visited;
    const double p = rng.next_double();
    for (const pastry::NodeHandle& c : children) {
      if (rng.chance(p)) visited.push_back(c.id);
    }
    if (rng.chance(0.5)) visited.push_back(parent_node.id);
    visited.push_back(rng.next_u128());  // a visited node that is no candidate
    rng.shuffle(visited);
    const auto origin = static_cast<net::HostId>(rng.index(topo.num_hosts()));

    // Entries already on the stack stay below the new ones.
    std::vector<pastry::NodeHandle> stack{draw(), draw()};
    std::vector<pastry::NodeHandle> expected = stack;
    for (const pastry::NodeHandle& c :
         reference_order(topo, origin, visited, children, parent)) {
      expected.push_back(c);
    }
    push_walk_candidates(topo, origin, visited, children, parent, stack);
    ASSERT_EQ(id_host(stack), id_host(expected))
        << "trial " << trial << " n=" << n << " pool=" << pool.size();
  }
}

// The tree as the DFS sees it: per node, its children and its parent when
// it pushes one (attached, valid, not the root).
struct TreeNode {
  pastry::NodeHandle self;
  std::vector<pastry::NodeHandle> children;
  std::optional<pastry::NodeHandle> parent;
};
using TreeSnapshot = std::map<U128, TreeNode>;

TreeSnapshot snapshot(ScribeNetwork& scribe, const GroupId& g) {
  TreeSnapshot tree;
  for (ScribeNode* s : scribe.nodes()) {
    const GroupState* st = s->find_group(g);
    if (st == nullptr) continue;
    TreeNode& n = tree[s->owner().id()];
    n.self = s->owner().handle();
    n.children = st->children;
    if (st->attached && st->parent.valid() && !st->root) n.parent = st->parent;
  }
  return tree;
}

// Replays the anycast DFS from `origin` (a tree node): offer at the current
// node, push its unvisited neighbours in reference order, pop entries until
// one is unvisited.  Returns the ids offered, in order (every node is a
// member and declines).  `stale_pops` counts popped entries whose node had
// been visited since they were pushed.
std::vector<U128> reference_dfs(const TreeSnapshot& tree,
                                const net::Topology& topo,
                                const pastry::NodeHandle& origin,
                                int* stale_pops = nullptr) {
  std::vector<U128> visited{origin.id};
  std::vector<pastry::NodeHandle> stack;
  std::vector<U128> offers;
  for (const TreeNode* cur = &tree.at(origin.id); cur != nullptr;) {
    offers.push_back(cur->self.id);
    for (const pastry::NodeHandle& c :
         reference_order(topo, origin.host, visited, cur->children,
                         cur->parent ? &*cur->parent : nullptr)) {
      stack.push_back(c);
    }
    cur = nullptr;
    while (cur == nullptr && !stack.empty()) {
      pastry::NodeHandle top = stack.back();
      stack.pop_back();
      if (std::find(visited.begin(), visited.end(), top.id) != visited.end()) {
        if (stale_pops != nullptr) ++*stale_pops;
        continue;
      }
      visited.push_back(top.id);
      cur = &tree.at(top.id);
    }
  }
  return offers;
}

TEST(ScribeEdge, AnycastVisitOrderIsReferenceDfs) {
  Harness hx(3, 4, 42, /*pods=*/2);
  GroupId g = scribe_group_id("g", "t");
  for (ScribeNode* s : hx.scribe->nodes()) s->join(g);
  hx.sim.run_to_completion();
  ASSERT_TRUE(hx.scribe->tree_consistent(g));
  ScribeNode* root = hx.scribe->root_of(g);
  ASSERT_NE(root, nullptr);
  const net::HostId root_host = root->owner().handle().host;
  const std::size_t group_size = hx.scribe->nodes().size();
  TreeSnapshot tree = snapshot(*hx.scribe, g);
  ASSERT_EQ(tree.size(), group_size);

  // One origin in the root's rack, one in another rack of its pod, one in
  // the other pod.
  ScribeNode* same_rack = nullptr;
  ScribeNode* other_rack = nullptr;
  ScribeNode* other_pod = nullptr;
  for (ScribeNode* s : hx.scribe->nodes()) {
    const net::HostId h = s->owner().handle().host;
    switch (hx.topo.proximity(root_host, h)) {
      case net::Proximity::kSameRack:
        if (same_rack == nullptr) same_rack = s;
        break;
      case net::Proximity::kSamePod:
        if (other_rack == nullptr) other_rack = s;
        break;
      case net::Proximity::kCrossPod:
        if (other_pod == nullptr) other_pod = s;
        break;
      default:
        break;
    }
  }
  ASSERT_NE(same_rack, nullptr);
  ASSERT_NE(other_rack, nullptr);
  ASSERT_NE(other_pod, nullptr);

  int failures = 0;
  auto walk_from = [&](ScribeNode* origin) {
    hx.client.offered.clear();
    origin->anycast(g, std::make_shared<Note>());
    hx.sim.run_to_completion();
    EXPECT_EQ(hx.client.failures, ++failures);
    EXPECT_EQ(hx.client.offered.size(), group_size);
    EXPECT_EQ(hx.client.offered,
              reference_dfs(tree, hx.topo, origin->owner().handle()))
        << "origin host " << origin->owner().handle().host;
  };
  for (ScribeNode* origin : {same_rack, other_rack, other_pod}) {
    walk_from(origin);
  }

  // A stale child edge (a heartbeat from a node to a non-parent grafts one)
  // lets two nodes push the same leaf, so the walk must skip a stack entry
  // whose node it has visited since.  Pick a leaf and a node to hold the
  // stale edge for which the reference DFS from that node pops such an
  // entry.
  std::optional<TreeSnapshot> stale;
  ScribeNode* holder = nullptr;
  pastry::NodeHandle leaf;
  for (auto n = tree.begin(); n != tree.end() && !stale; ++n) {
    if (!n->second.children.empty() || !n->second.parent) continue;
    for (auto h = tree.begin(); h != tree.end() && !stale; ++h) {
      if (h == n || h->first == n->second.parent->id) continue;
      TreeSnapshot candidate = tree;
      candidate[h->first].children.push_back(n->second.self);
      int stale_pops = 0;
      reference_dfs(candidate, hx.topo, h->second.self, &stale_pops);
      if (stale_pops > 0) {
        stale = std::move(candidate);
        holder = hx.scribe->find(h->first);
        leaf = n->second.self;
      }
    }
  }
  ASSERT_TRUE(stale.has_value());
  tree = std::move(*stale);
  auto hb = std::make_shared<HeartbeatMsg>();
  hb->group = g;
  hb->child = leaf;
  holder->owner().handle_direct_msg(leaf, hb,
                                    pastry::MsgCategory::kScribeControl);
  ASSERT_TRUE(holder->find_group(g)->has_child(leaf));
  walk_from(holder);
}

TEST(ScribeEdge, PayloadWireBytesScaleWithContents) {
  WalkMsg w;
  std::size_t empty = w.wire_bytes();
  w.visited.resize(10);
  w.stack.resize(4);
  EXPECT_GT(w.wire_bytes(), empty);
  MulticastMsg m;
  std::size_t bare = m.wire_bytes();
  m.inner = std::make_shared<WalkMsg>(w);
  EXPECT_GT(m.wire_bytes(), bare);
}

}  // namespace
}  // namespace vb::scribe
