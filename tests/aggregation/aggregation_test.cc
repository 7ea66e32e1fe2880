// Aggregation-tree semantics: subtree reduction, periodic rounds, eager
// cascades, global publishes reaching all members, and repair after churn.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "aggregation/aggregation_tree.h"
#include "common/hash.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "scribe/scribe_network.h"

namespace vb::agg {
namespace {

TEST(AggValue, OfAndCombine) {
  AggValue a = AggValue::of(3.0);
  AggValue b = AggValue::of(5.0);
  AggValue c = combine(a, b);
  EXPECT_DOUBLE_EQ(c.sum, 8.0);
  EXPECT_DOUBLE_EQ(c.min, 3.0);
  EXPECT_DOUBLE_EQ(c.max, 5.0);
  EXPECT_EQ(c.count, 2u);
  EXPECT_DOUBLE_EQ(c.avg(), 4.0);
}

TEST(AggValue, ZeroIsIdentity) {
  AggValue a = AggValue::of(7.0);
  EXPECT_EQ(combine(a, AggValue::zero()), a);
  EXPECT_EQ(combine(AggValue::zero(), a), a);
  EXPECT_TRUE(AggValue::zero().empty());
  EXPECT_DOUBLE_EQ(AggValue::zero().avg(), 0.0);
}

TEST(AggValue, CombineIsAssociative) {
  AggValue a = AggValue::of(1), b = AggValue::of(-4), c = AggValue::of(9);
  EXPECT_EQ(combine(combine(a, b), c), combine(a, combine(b, c)));
}

TEST(TopicManager, ReduceCombinesLocalAndChildren) {
  TopicManager tm;
  EXPECT_TRUE(tm.reduce().empty());
  tm.set_local(AggValue::of(2.0));
  tm.set_child(U128{1}, AggValue::of(3.0));
  tm.set_child(U128{2}, AggValue::of(5.0));
  AggValue r = tm.reduce();
  EXPECT_DOUBLE_EQ(r.sum, 10.0);
  EXPECT_EQ(r.count, 3u);
  tm.remove_child(U128{1});
  EXPECT_DOUBLE_EQ(tm.reduce().sum, 7.0);
}

TEST(TopicManager, RetainChildrenDropsStaleEntries) {
  TopicManager tm;
  tm.set_child(U128{1}, AggValue::of(1.0));
  tm.set_child(U128{2}, AggValue::of(2.0));
  tm.set_child(U128{3}, AggValue::of(4.0));
  tm.retain_children({U128{2}});
  EXPECT_DOUBLE_EQ(tm.reduce().sum, 2.0);
  EXPECT_EQ(tm.child_count(), 1u);
}

struct Harness {
  net::Topology topo;
  sim::Simulator sim;
  pastry::PastryNetwork net;
  std::unique_ptr<scribe::ScribeNetwork> scribe;
  std::vector<std::unique_ptr<AggregationAgent>> agents;
  TopicId topic = scribe_group_id("BW_Demand", "vbundle");

  explicit Harness(int racks, int hosts, PropagationMode mode,
                   std::uint64_t seed = 42)
      : topo([&] {
          net::TopologyConfig c;
          c.num_pods = 1;
          c.racks_per_pod = racks;
          c.hosts_per_rack = hosts;
          return net::Topology(c);
        }()),
        net(&sim, &topo) {
    Rng rng(seed);
    for (int h = 0; h < topo.num_hosts(); ++h) {
      net.add_node_oracle(rng.next_u128(), h);
    }
    scribe = std::make_unique<scribe::ScribeNetwork>(&net);
    for (scribe::ScribeNode* s : scribe->nodes()) {
      agents.push_back(std::make_unique<AggregationAgent>(s, mode));
    }
  }

  void subscribe_all() {
    for (auto& a : agents) a->subscribe(topic);
    sim.run_to_completion();
  }

  void tick_all() {
    for (auto& a : agents) a->tick(topic);
    sim.run_to_completion();
  }
};

TEST(Aggregation, PeriodicRoundsConvergeToGlobalSum) {
  Harness hx(4, 4, PropagationMode::kPeriodic);
  hx.subscribe_all();
  double expected = 0;
  for (std::size_t i = 0; i < hx.agents.size(); ++i) {
    double v = static_cast<double>(i + 1);
    hx.agents[i]->set_local(hx.topic, AggValue::of(v));
    expected += v;
  }
  // Height rounds propagate leaves' values to the root; one more publishes.
  for (int round = 0; round < 6; ++round) hx.tick_all();

  for (auto& a : hx.agents) {
    const TopicManager* tm = a->topic(hx.topic);
    ASSERT_NE(tm, nullptr);
    ASSERT_TRUE(tm->has_global());
    EXPECT_DOUBLE_EQ(tm->global().sum, expected);
    EXPECT_EQ(tm->global().count, hx.agents.size());
  }
}

TEST(Aggregation, EagerModeCascadesWithoutTicks) {
  Harness hx(4, 4, PropagationMode::kEager);
  hx.subscribe_all();
  double expected = 0;
  for (std::size_t i = 0; i < hx.agents.size(); ++i) {
    double v = 10.0 * static_cast<double>(i);
    hx.agents[i]->set_local(hx.topic, AggValue::of(v));
    expected += v;
  }
  hx.sim.run_to_completion();
  for (auto& a : hx.agents) {
    const TopicManager* tm = a->topic(hx.topic);
    ASSERT_TRUE(tm->has_global());
    EXPECT_DOUBLE_EQ(tm->global().sum, expected);
  }
}

TEST(Aggregation, MinMaxAndAvgRideTheSameTree) {
  Harness hx(2, 4, PropagationMode::kEager);
  hx.subscribe_all();
  Rng rng(5);
  double mn = 1e18, mx = -1e18, sum = 0;
  for (auto& a : hx.agents) {
    double v = rng.uniform(0.0, 100.0);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    sum += v;
    a->set_local(hx.topic, AggValue::of(v));
  }
  hx.sim.run_to_completion();
  const TopicManager* tm = hx.agents[0]->topic(hx.topic);
  EXPECT_DOUBLE_EQ(tm->global().min, mn);
  EXPECT_DOUBLE_EQ(tm->global().max, mx);
  EXPECT_NEAR(tm->global().avg(), sum / 8.0, 1e-9);
}

TEST(Aggregation, UpdateReplacesOldContribution) {
  Harness hx(2, 2, PropagationMode::kEager);
  hx.subscribe_all();
  for (auto& a : hx.agents) a->set_local(hx.topic, AggValue::of(1.0));
  hx.sim.run_to_completion();
  EXPECT_DOUBLE_EQ(hx.agents[0]->topic(hx.topic)->global().sum, 4.0);
  hx.agents[2]->set_local(hx.topic, AggValue::of(11.0));
  hx.sim.run_to_completion();
  EXPECT_DOUBLE_EQ(hx.agents[0]->topic(hx.topic)->global().sum, 14.0);
}

struct GlobalProbe : AggregationListener {
  std::vector<std::pair<double, sim::SimTime>> publishes;
  void on_global(const TopicId&, const AggValue& g, sim::SimTime when) override {
    publishes.emplace_back(g.sum, when);
  }
};

TEST(Aggregation, ListenersFireOnEveryPublish) {
  Harness hx(2, 2, PropagationMode::kPeriodic);
  GlobalProbe probe;
  hx.agents[1]->add_listener(&probe);
  hx.subscribe_all();
  for (auto& a : hx.agents) a->set_local(hx.topic, AggValue::of(2.5));
  for (int round = 0; round < 3; ++round) hx.tick_all();
  ASSERT_FALSE(probe.publishes.empty());
  EXPECT_DOUBLE_EQ(probe.publishes.back().first, 10.0);
}

TEST(Aggregation, LatencyGrowsWithTreeDepth) {
  // Root-adjacent and deep leaves: publish timestamps must reflect hop
  // latency through the simulated network (non-zero, bounded).
  Harness hx(8, 8, PropagationMode::kEager);
  hx.subscribe_all();
  GlobalProbe probe;
  // Listener on the root so we see the aggregation instant.
  scribe::ScribeNode* root = hx.scribe->root_of(hx.topic);
  ASSERT_NE(root, nullptr);
  for (auto& a : hx.agents) {
    if (&a->scribe() == root) a->add_listener(&probe);
  }
  double t0 = hx.sim.now();
  hx.agents[5]->set_local(hx.topic, AggValue::of(1.0));
  hx.sim.run_to_completion();
  ASSERT_FALSE(probe.publishes.empty());
  double latency = probe.publishes.front().second - t0;
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 1.0);  // a few LAN hops, well under a second
}

TEST(Aggregation, SurvivesInteriorFailureAfterRepair) {
  Harness hx(8, 8, PropagationMode::kPeriodic);  // 64 nodes -> deep tree
  hx.subscribe_all();
  for (auto& a : hx.agents) a->set_local(hx.topic, AggValue::of(1.0));
  for (int r = 0; r < 5; ++r) hx.tick_all();
  EXPECT_DOUBLE_EQ(hx.agents[0]->topic(hx.topic)->global().sum, 64.0);

  // Kill an interior (non-root) tree node.
  scribe::ScribeNode* root = hx.scribe->root_of(hx.topic);
  scribe::ScribeNode* victim = nullptr;
  for (scribe::ScribeNode* s : hx.scribe->nodes()) {
    const scribe::GroupState* st = s->find_group(hx.topic);
    if (s != root && st != nullptr && !st->children.empty()) {
      victim = s;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  U128 dead_id = victim->owner().id();
  hx.net.kill_node(dead_id);

  // Ticks + maintenance let orphans rejoin; then totals reflect 15 nodes.
  for (int r = 0; r < 6; ++r) {
    for (scribe::ScribeNode* s : hx.scribe->nodes()) s->maintenance();
    hx.sim.run_to_completion();
    for (auto& a : hx.agents) {
      if (a->scribe().owner().id() != dead_id) a->tick(hx.topic);
    }
    hx.sim.run_to_completion();
  }
  for (auto& a : hx.agents) {
    if (a->scribe().owner().id() == dead_id) continue;
    ASSERT_TRUE(a->topic(hx.topic)->has_global());
    EXPECT_DOUBLE_EQ(a->topic(hx.topic)->global().sum, 63.0)
        << a->scribe().owner().handle().to_string();
  }
}

TEST(Aggregation, UnsubscribedNodeStopsContributing) {
  Harness hx(2, 2, PropagationMode::kPeriodic);
  hx.subscribe_all();
  for (auto& a : hx.agents) a->set_local(hx.topic, AggValue::of(3.0));
  for (int r = 0; r < 3; ++r) hx.tick_all();
  EXPECT_DOUBLE_EQ(hx.agents[0]->topic(hx.topic)->global().sum, 12.0);

  hx.agents[3]->unsubscribe(hx.topic);
  hx.sim.run_to_completion();
  for (int r = 0; r < 3; ++r) {
    for (std::size_t i = 0; i < 3; ++i) hx.agents[i]->tick(hx.topic);
    hx.sim.run_to_completion();
  }
  EXPECT_DOUBLE_EQ(hx.agents[0]->topic(hx.topic)->global().sum, 9.0);
}

// A leaf that leaves the tree drops its pending cascade id with the rest of
// its pending state: after it re-subscribes, its next agg.update carries
// the id minted for its new contribution, not one minted before it left.
TEST(Aggregation, UnsubscribeDropsThePendingTraceId) {
  Harness hx(2, 4, PropagationMode::kPeriodic);
  obs::TraceRecorder tr;
  hx.net.set_trace(&tr);
  hx.subscribe_all();
  for (auto& a : hx.agents) a->set_local(hx.topic, AggValue::of(1.0));
  for (int r = 0; r < 3; ++r) hx.tick_all();

  AggregationAgent* leaf = nullptr;
  for (auto& a : hx.agents) {
    const scribe::GroupState* st = a->scribe().find_group(hx.topic);
    if (st != nullptr && st->member && !st->root && st->children.empty()) {
      leaf = a.get();
      break;
    }
  }
  ASSERT_NE(leaf, nullptr);
  const int host = static_cast<int>(leaf->scribe().owner().handle().host);

  // A contribution left pending when the leaf leaves.
  leaf->set_local(hx.topic, AggValue::of(2.0));
  leaf->unsubscribe(hx.topic);
  hx.sim.run_to_completion();
  ASSERT_FALSE(leaf->scribe().in_tree(hx.topic));

  leaf->subscribe(hx.topic);
  hx.sim.run_to_completion();
  const std::uint64_t fresh = tr.new_trace_id() + 1;  // set_local mints it
  leaf->set_local(hx.topic, AggValue::of(3.0));
  leaf->tick(hx.topic);
  hx.sim.run_to_completion();

  std::uint64_t sent = 0;
  for (const obs::TraceEvent& e : tr.snapshot()) {
    if (e.node == host && std::strcmp(e.name, "agg.update") == 0) {
      sent = e.trace_id;
    }
  }
  EXPECT_EQ(sent, fresh);
}

}  // namespace
}  // namespace vb::agg
