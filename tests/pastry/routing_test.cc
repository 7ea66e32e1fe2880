// End-to-end Pastry routing correctness: messages must always be delivered
// at the live node whose id is numerically closest to the key, within
// O(log N) hops — from any source, for any key, with oracle or protocol
// bootstrap, and across node failures.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "pastry/pastry_network.h"

namespace vb::pastry {
namespace {

struct Ping : Payload {
  int tag = 0;
  std::string name() const override { return "ping"; }
};

/// Registered on every node; records all deliveries.
struct CaptureApp : PastryApp {
  struct Delivery {
    U128 key;
    NodeHandle at;
    int hops;
    int tag;
  };
  std::vector<Delivery> deliveries;

  void deliver(PastryNode& self, const RouteMsg& msg) override {
    auto ping = std::dynamic_pointer_cast<const Ping>(msg.payload);
    if (!ping) return;
    deliveries.push_back({msg.key, self.handle(), msg.hops, ping->tag});
  }
};

struct Harness {
  net::TopologyConfig tcfg;
  net::Topology topo;
  sim::Simulator sim;
  PastryNetwork net;
  CaptureApp capture;

  explicit Harness(int pods, int racks, int hosts)
      : tcfg([&] {
          net::TopologyConfig c;
          c.num_pods = pods;
          c.racks_per_pod = racks;
          c.hosts_per_rack = hosts;
          return c;
        }()),
        topo(tcfg),
        net(&sim, &topo) {}

  void build_oracle(std::uint64_t seed) {
    Rng rng(seed);
    for (int h = 0; h < topo.num_hosts(); ++h) {
      PastryNode& n = net.add_node_oracle(rng.next_u128(), h);
      n.add_app(&capture);
    }
  }
};

TEST(Routing, SingleNodeDeliversToItself) {
  Harness hx(1, 1, 2);
  Rng rng(1);
  PastryNode& n = hx.net.add_node_oracle(rng.next_u128(), 0);
  n.add_app(&hx.capture);
  auto p = std::make_shared<Ping>();
  p->tag = 7;
  n.route(U128{12345}, p);
  hx.sim.run_to_completion();
  ASSERT_EQ(hx.capture.deliveries.size(), 1u);
  EXPECT_EQ(hx.capture.deliveries[0].at, n.handle());
  EXPECT_EQ(hx.capture.deliveries[0].hops, 0);
  EXPECT_EQ(hx.capture.deliveries[0].tag, 7);
}

class RoutingAtScale : public ::testing::TestWithParam<int> {};

TEST_P(RoutingAtScale, AlwaysDeliversAtGlobalClosest) {
  const int racks = GetParam();
  Harness hx(1, racks, 8);
  hx.build_oracle(42);
  const int n_nodes = hx.topo.num_hosts();
  auto nodes = hx.net.nodes();

  Rng rng(7);
  const int kQueries = 100;
  int tag = 0;
  std::vector<std::pair<U128, NodeHandle>> expect;
  for (int q = 0; q < kQueries; ++q) {
    U128 key = rng.next_u128();
    PastryNode* src = nodes[rng.index(nodes.size())];
    auto p = std::make_shared<Ping>();
    p->tag = tag++;
    src->route(key, p);
    expect.emplace_back(key, hx.net.global_closest(key));
  }
  hx.sim.run_to_completion();

  ASSERT_EQ(hx.capture.deliveries.size(), static_cast<std::size_t>(kQueries));
  double max_hops_bound =
      std::ceil(std::log(static_cast<double>(n_nodes)) / std::log(16.0)) + 2;
  for (const auto& d : hx.capture.deliveries) {
    EXPECT_EQ(d.at, expect[static_cast<std::size_t>(d.tag)].second)
        << "key " << d.key.short_hex();
    EXPECT_EQ(d.key, expect[static_cast<std::size_t>(d.tag)].first);
    EXPECT_LE(d.hops, max_hops_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoutingAtScale, ::testing::Values(2, 8, 32, 64));

TEST(Routing, KeyEqualToNodeIdDeliversThere) {
  Harness hx(1, 8, 8);
  hx.build_oracle(3);
  auto nodes = hx.net.nodes();
  PastryNode* target = nodes[17];
  auto p = std::make_shared<Ping>();
  nodes[0]->route(target->id(), p);
  hx.sim.run_to_completion();
  ASSERT_EQ(hx.capture.deliveries.size(), 1u);
  EXPECT_EQ(hx.capture.deliveries[0].at, target->handle());
}

TEST(Routing, ProtocolJoinConvergesToCorrectRouting) {
  Harness hx(1, 8, 8);  // 64 nodes
  Rng rng(11);
  NodeHandle bootstrap = kNoHandle;
  for (int h = 0; h < hx.topo.num_hosts(); ++h) {
    PastryNode& n = hx.net.add_node_join(rng.next_u128(), h, bootstrap);
    n.add_app(&hx.capture);
    hx.sim.run_to_completion();  // let each join finish
    if (!bootstrap.valid()) bootstrap = n.handle();
  }
  for (int round = 0; round < 3; ++round) {
    hx.net.stabilize_all();
    hx.sim.run_to_completion();
  }

  auto nodes = hx.net.nodes();
  int tag = 0;
  std::vector<NodeHandle> expect;
  for (int q = 0; q < 60; ++q) {
    U128 key = rng.next_u128();
    auto p = std::make_shared<Ping>();
    p->tag = tag++;
    nodes[rng.index(nodes.size())]->route(key, p);
    expect.push_back(hx.net.global_closest(key));
  }
  hx.sim.run_to_completion();
  ASSERT_EQ(hx.capture.deliveries.size(), 60u);
  for (const auto& d : hx.capture.deliveries) {
    EXPECT_EQ(d.at, expect[static_cast<std::size_t>(d.tag)])
        << "key " << d.key.short_hex();
  }
}

TEST(Routing, ProtocolJoinLeafSetsMatchOracleGroundTruth) {
  Harness hx(1, 4, 8);  // 32 nodes
  Rng rng(13);
  NodeHandle bootstrap = kNoHandle;
  std::vector<U128> ids;
  for (int h = 0; h < hx.topo.num_hosts(); ++h) {
    U128 id = rng.next_u128();
    ids.push_back(id);
    hx.net.add_node_join(id, h, bootstrap);
    hx.sim.run_to_completion();
    if (!bootstrap.valid()) bootstrap = NodeHandle{id, h};
  }
  for (int round = 0; round < 3; ++round) {
    hx.net.stabilize_all();
    hx.sim.run_to_completion();
  }
  // Every node's leaf set must contain the true ring neighbors.
  for (PastryNode* n : hx.net.nodes()) {
    // Ground truth: the `half` closest ids on each side.
    std::vector<U128> cw(ids), ccw(ids);
    const U128 self = n->id();
    std::erase_if(cw, [&](const U128& x) {
      return x == self || !((x - self) <= (self - x));
    });
    std::erase_if(ccw, [&](const U128& x) {
      return x == self || ((x - self) <= (self - x));
    });
    std::sort(cw.begin(), cw.end(), [&](const U128& a, const U128& b) {
      return (a - self) < (b - self);
    });
    std::sort(ccw.begin(), ccw.end(), [&](const U128& a, const U128& b) {
      return (self - a) < (self - b);
    });
    int half = n->leaf_set().half();
    for (int i = 0; i < std::min<int>(half, static_cast<int>(cw.size())); ++i) {
      EXPECT_TRUE(n->leaf_set().contains(NodeHandle{cw[static_cast<std::size_t>(i)], 0}))
          << n->handle().to_string() << " missing cw leaf " << i;
    }
    for (int i = 0; i < std::min<int>(half, static_cast<int>(ccw.size())); ++i) {
      EXPECT_TRUE(n->leaf_set().contains(NodeHandle{ccw[static_cast<std::size_t>(i)], 0}))
          << n->handle().to_string() << " missing ccw leaf " << i;
    }
  }
}

TEST(Routing, SurvivesNodeFailures) {
  Harness hx(1, 8, 8);
  hx.build_oracle(21);
  Rng rng(5);
  auto nodes = hx.net.nodes();

  // Kill 8 of 64 nodes, including the owner of a known key.
  U128 key = rng.next_u128();
  NodeHandle owner = hx.net.global_closest(key);
  hx.net.kill_node(owner.id);
  int killed = 1;
  for (PastryNode* n : nodes) {
    if (killed >= 8) break;
    if (n->id() == owner.id) continue;
    if (rng.chance(0.12)) {
      hx.net.kill_node(n->id());
      ++killed;
    }
  }

  auto live = hx.net.nodes();
  ASSERT_EQ(live.size(), 64u - static_cast<std::size_t>(killed));
  int tag = 0;
  std::vector<U128> keys;
  for (int q = 0; q < 40; ++q) {
    U128 k = q == 0 ? key : rng.next_u128();
    keys.push_back(k);
    auto p = std::make_shared<Ping>();
    p->tag = tag++;
    live[rng.index(live.size())]->route(k, p);
  }
  hx.sim.run_to_completion();

  ASSERT_EQ(hx.capture.deliveries.size(), 40u);
  for (const auto& d : hx.capture.deliveries) {
    // Note: global_closest is evaluated after all failures, which is the
    // steady-state owner the repaired overlay must converge on.
    EXPECT_EQ(d.at, hx.net.global_closest(keys[static_cast<std::size_t>(d.tag)]));
    EXPECT_TRUE(hx.net.find(d.at.id) != nullptr);
  }
}

TEST(Routing, HopCountGrowsLogarithmically) {
  // Average hops at 512 nodes should stay near log16(512) ~ 2.25, far from
  // linear in N.
  Harness hx(1, 64, 8);
  hx.build_oracle(31);
  auto nodes = hx.net.nodes();
  Rng rng(17);
  for (int q = 0; q < 200; ++q) {
    auto p = std::make_shared<Ping>();
    p->tag = q;
    nodes[rng.index(nodes.size())]->route(rng.next_u128(), p);
  }
  hx.sim.run_to_completion();
  double total_hops = 0;
  for (const auto& d : hx.capture.deliveries) total_hops += d.hops;
  double avg = total_hops / static_cast<double>(hx.capture.deliveries.size());
  EXPECT_LT(avg, 4.0);
  EXPECT_GT(avg, 0.5);
}

TEST(Routing, MaintenanceRepairsRoutingTableHoles) {
  Harness hx(1, 8, 8);
  hx.build_oracle(77);
  auto nodes = hx.net.nodes();

  // Kill a third of the nodes, then force every survivor to notice (purge)
  // by routing traffic; tables now have holes.
  Rng rng(5);
  int killed = 0;
  for (PastryNode* n : nodes) {
    if (killed < 20 && rng.chance(0.4)) {
      hx.net.kill_node(n->id());
      ++killed;
    }
  }
  for (int q = 0; q < 200; ++q) {
    auto live = hx.net.nodes();
    auto p = std::make_shared<Ping>();
    p->tag = 10000 + q;
    live[rng.index(live.size())]->route(rng.next_u128(), p);
  }
  hx.sim.run_to_completion();
  hx.capture.deliveries.clear();

  std::size_t holes_before = 0;
  for (PastryNode* n : hx.net.nodes()) {
    holes_before += n->routing_table().size();
  }
  // Several maintenance rounds refill tables from peers' rows.
  for (int round = 0; round < 12; ++round) {
    hx.net.stabilize_all();
    hx.sim.run_to_completion();
  }
  std::size_t holes_after = 0;
  for (PastryNode* n : hx.net.nodes()) {
    holes_after += n->routing_table().size();
  }
  EXPECT_GE(holes_after, holes_before);  // tables only get denser

  // Routing still exact after repair.
  auto live = hx.net.nodes();
  std::vector<NodeHandle> expect;
  for (int q = 0; q < 40; ++q) {
    U128 key = rng.next_u128();
    auto p = std::make_shared<Ping>();
    p->tag = q;
    live[rng.index(live.size())]->route(key, p);
    expect.push_back(hx.net.global_closest(key));
  }
  hx.sim.run_to_completion();
  ASSERT_EQ(hx.capture.deliveries.size(), 40u);
  for (const auto& d : hx.capture.deliveries) {
    EXPECT_EQ(d.at, expect[static_cast<std::size_t>(d.tag)]);
  }
}

TEST(Routing, GracefulDepartureNeedsNoFailureDetection) {
  Harness hx(1, 8, 8);
  hx.build_oracle(55);
  Rng rng(2);
  auto nodes = hx.net.nodes();

  // Gracefully retire 10 nodes.
  std::vector<U128> leaving;
  for (int i = 0; i < 10; ++i) leaving.push_back(nodes[6 * i + 1]->id());
  for (const U128& id : leaving) hx.net.depart_node(id);
  hx.sim.run_to_completion();
  for (const U128& id : leaving) EXPECT_FALSE(hx.net.find(id) != nullptr);

  // Survivors have already purged the departed: no live node references
  // them in its leaf set.
  for (PastryNode* n : hx.net.nodes()) {
    for (const U128& id : leaving) {
      EXPECT_FALSE(n->leaf_set().contains(NodeHandle{id, 0}))
          << n->handle().to_string();
    }
  }

  // Routing is exact immediately, with zero send failures (no reroutes
  // needed because nobody targets a dead node).
  std::vector<NodeHandle> expect;
  auto live = hx.net.nodes();
  for (int q = 0; q < 60; ++q) {
    U128 key = rng.next_u128();
    auto p = std::make_shared<Ping>();
    p->tag = q;
    live[rng.index(live.size())]->route(key, p);
    expect.push_back(hx.net.global_closest(key));
  }
  hx.sim.run_to_completion();
  ASSERT_EQ(hx.capture.deliveries.size(), 60u);
  for (const auto& d : hx.capture.deliveries) {
    EXPECT_EQ(d.at, expect[static_cast<std::size_t>(d.tag)]);
  }
}

TEST(Routing, DepartTwiceThrows) {
  Harness hx(1, 2, 2);
  hx.build_oracle(3);
  U128 id = hx.net.nodes()[0]->id();
  hx.net.depart_node(id);
  hx.sim.run_to_completion();
  EXPECT_THROW(hx.net.depart_node(id), std::logic_error);
}

TEST(Routing, MessageCountersAreCharged) {
  Harness hx(1, 4, 4);
  hx.build_oracle(9);
  auto nodes = hx.net.nodes();
  hx.net.reset_counters();
  auto p = std::make_shared<Ping>();
  // Route to the antipode of the source id to force hops.
  PastryNode* src = nodes.front();
  src->route(~src->id(), p);
  hx.sim.run_to_completion();
  EXPECT_GE(hx.net.total_msgs(), 1u);
}

}  // namespace
}  // namespace vb::pastry
