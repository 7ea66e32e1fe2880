// Sustained churn: protocol joins, graceful departures, and crashes
// interleave while Scribe groups and the aggregation service stay live.
// This is the long-haul robustness test a real deployment depends on.
#include <gtest/gtest.h>

#include <set>

#include "aggregation/aggregation_tree.h"
#include "common/hash.h"
#include "common/rng.h"
#include "scribe/scribe_network.h"

namespace vb {
namespace {

struct Probe : scribe::ScribeApp {
  int multicasts = 0;
  void on_multicast(scribe::ScribeNode&, const scribe::GroupId&,
                    const pastry::PayloadPtr&) override {
    ++multicasts;
  }
};

struct Note : pastry::Payload {};

TEST(Churn, OverlayAndGroupsSurviveContinuousMembershipChange) {
  net::TopologyConfig tc;
  tc.num_pods = 1;
  tc.racks_per_pod = 8;
  tc.hosts_per_rack = 8;
  net::Topology topo(tc);
  sim::Simulator sim;
  pastry::PastryNetwork net(&sim, &topo);
  Rng rng(42);

  // Bring up 40 of the 64 slots with real protocol joins.
  pastry::NodeHandle bootstrap = pastry::kNoHandle;
  std::vector<U128> live_ids;
  std::set<int> used_hosts;
  for (int h = 0; h < 40; ++h) {
    U128 id = rng.next_u128();
    net.add_node_join(id, h, bootstrap);
    sim.run_to_completion();
    if (!bootstrap.valid()) bootstrap = pastry::NodeHandle{id, h};
    live_ids.push_back(id);
    used_hosts.insert(h);
  }
  scribe::ScribeNetwork scribe(&net);
  Probe probe;
  scribe::GroupId group = scribe_group_id("churn-group", "t");
  for (scribe::ScribeNode* s : scribe.nodes()) {
    s->add_app(&probe);
    s->join(group);
  }
  sim.run_to_completion();
  ASSERT_TRUE(scribe.tree_consistent(group));

  // 12 churn rounds: one join, one graceful leave, one crash, maintenance.
  int next_host = 40;
  for (int round = 0; round < 12; ++round) {
    // Join a fresh node and subscribe it.
    U128 id = rng.next_u128();
    pastry::PastryNode& fresh = net.add_node_join(
        id, next_host++ % topo.num_hosts(), bootstrap);
    sim.run_to_completion();
    scribe::ScribeNode& sn = scribe.attach(fresh);
    sn.add_app(&probe);
    sn.join(group);
    live_ids.push_back(id);

    // Graceful departure of a random live node (not the bootstrap).
    for (int tries = 0; tries < 10; ++tries) {
      U128 victim = live_ids[rng.index(live_ids.size())];
      if (victim == bootstrap.id || net.find(victim) == nullptr) continue;
      net.depart_node(victim);
      break;
    }
    sim.run_to_completion();

    // Crash another (no goodbye).
    for (int tries = 0; tries < 10; ++tries) {
      U128 victim = live_ids[rng.index(live_ids.size())];
      if (victim == bootstrap.id || net.find(victim) == nullptr) continue;
      net.kill_node(victim);
      break;
    }

    // Maintenance: Pastry stabilization + Scribe heartbeats.
    for (int m = 0; m < 2; ++m) {
      net.stabilize_all();
      for (scribe::ScribeNode* s : scribe.nodes()) s->maintenance();
      sim.run_to_completion();
    }
  }

  // After the storm: routing is exact for fresh keys...
  for (int q = 0; q < 30; ++q) {
    U128 key = rng.next_u128();
    pastry::NodeHandle owner = net.global_closest(key);
    auto nodes = net.nodes();
    // ...verified via next_hop convergence from several starting points.
    // A hop toward a crashed node is handled exactly like the transport
    // does: purge and retry with the repaired tables.
    for (int s = 0; s < 3; ++s) {
      pastry::PastryNode* cur = nodes[rng.index(nodes.size())];
      for (int hop = 0; hop < 48; ++hop) {
        pastry::NodeHandle nh = cur->next_hop(key);
        if (nh == cur->handle()) break;
        pastry::PastryNode* next = net.find(nh.id);
        if (next == nullptr) {
          cur->purge(nh);
          continue;
        }
        cur = next;
      }
      EXPECT_EQ(cur->handle(), owner) << key.short_hex();
    }
  }

  // ...and a multicast reaches every surviving member exactly once.
  ASSERT_TRUE(scribe.tree_consistent(group));
  probe.multicasts = 0;
  scribe.members_of(group).front()->multicast(group,
                                              std::make_shared<Note>());
  sim.run_to_completion();
  EXPECT_EQ(probe.multicasts,
            static_cast<int>(scribe.members_of(group).size()));
}

TEST(Churn, AggregationTotalsTrackMembershipUnderChurn) {
  net::TopologyConfig tc;
  tc.num_pods = 1;
  tc.racks_per_pod = 4;
  tc.hosts_per_rack = 8;
  net::Topology topo(tc);
  sim::Simulator sim;
  pastry::PastryNetwork net(&sim, &topo);
  Rng rng(7);
  for (int h = 0; h < topo.num_hosts(); ++h) {
    net.add_node_oracle(rng.next_u128(), h);
  }
  scribe::ScribeNetwork scribe(&net);
  std::vector<std::unique_ptr<agg::AggregationAgent>> agents;
  agg::TopicId topic = scribe_group_id("BW_Demand", "vbundle");
  for (scribe::ScribeNode* s : scribe.nodes()) {
    agents.push_back(std::make_unique<agg::AggregationAgent>(
        s, agg::PropagationMode::kPeriodic));
    agents.back()->subscribe(topic);
  }
  sim.run_to_completion();
  for (auto& a : agents) a->set_local(topic, agg::AggValue::of(1.0));

  auto run_rounds = [&](int n) {
    for (int r = 0; r < n; ++r) {
      net.stabilize_all();
      for (scribe::ScribeNode* s : scribe.nodes()) s->maintenance();
      sim.run_to_completion();
      for (auto& a : agents) {
        if (net.find(a->scribe().owner().id()) != nullptr) a->tick(topic);
      }
      sim.run_to_completion();
    }
  };
  run_rounds(5);
  EXPECT_DOUBLE_EQ(agents[0]->topic(topic)->global().sum, 32.0);

  // Crash 5 non-root nodes; after repair rounds the total reflects 27.
  scribe::ScribeNode* root = scribe.root_of(topic);
  int crashed = 0;
  for (auto& a : agents) {
    if (crashed >= 5) break;
    if (&a->scribe() == root) continue;
    net.kill_node(a->scribe().owner().id());
    ++crashed;
  }
  run_rounds(8);
  for (auto& a : agents) {
    if (net.find(a->scribe().owner().id()) == nullptr) continue;
    ASSERT_TRUE(a->topic(topic)->has_global());
    EXPECT_DOUBLE_EQ(a->topic(topic)->global().sum, 27.0)
        << a->scribe().owner().handle().to_string();
  }
}

}  // namespace
}  // namespace vb
