// Property test for Scribe's self-repair under chaos (§III.E): for random
// topologies, random membership, and random parent-kill + loss schedules,
// every surviving subscriber re-attaches to the tree within a bounded
// number of maintenance rounds, and the aggregation totals flowing over
// that tree re-converge to exactly the surviving members' sum.
//
// Failures print the seed; re-running the suite with the same seed replays
// the identical kill + loss schedule (every random draw, including the
// fault plan's, is derived from it).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "aggregation/aggregation_tree.h"
#include "common/hash.h"
#include "common/rng.h"
#include "scribe/scribe_network.h"
#include "sim/fault_plan.h"

namespace vb::scribe {
namespace {

struct Fixture {
  net::Topology topo;
  sim::Simulator sim;
  pastry::PastryNetwork net;
  std::unique_ptr<ScribeNetwork> scribe;
  std::vector<std::unique_ptr<agg::AggregationAgent>> agents;  // by host
  std::vector<U128> ids;                                       // by host
  agg::TopicId topic = scribe_group_id("BW_Demand", "vbundle");

  Fixture(int pods, int racks, int hosts, Rng& rng)
      : topo([&] {
          net::TopologyConfig c;
          c.num_pods = pods;
          c.racks_per_pod = racks;
          c.hosts_per_rack = hosts;
          return net::Topology(c);
        }()),
        net(&sim, &topo) {
    for (int h = 0; h < topo.num_hosts(); ++h) {
      U128 id = rng.next_u128();
      ids.push_back(id);
      net.add_node_oracle(id, h);
    }
    scribe = std::make_unique<ScribeNetwork>(&net);
    // nodes() iterates in id order; re-index so agents[h] is host h's agent.
    agents.resize(static_cast<std::size_t>(topo.num_hosts()));
    for (ScribeNode* s : scribe->nodes()) {
      agents[static_cast<std::size_t>(s->owner().host())] =
          std::make_unique<agg::AggregationAgent>(
              s, agg::PropagationMode::kPeriodic);
    }
  }

  bool alive(int h) {
    return net.find(ids[static_cast<std::size_t>(h)]) != nullptr;
  }

  /// One protocol round: Scribe maintenance + an aggregation tick on every
  /// surviving agent, then 30 simulated seconds for the traffic (including
  /// retransmissions) to play out.
  void round() {
    for (std::size_t h = 0; h < agents.size(); ++h) {
      if (!alive(static_cast<int>(h))) continue;
      scribe->at(ids[h]).maintenance();
      agents[h]->tick(topic);
    }
    sim.run_until(sim.now() + 30.0);
  }
};

class ScribeRepairProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScribeRepairProperty, SurvivorsReattachAndTotalsReconverge) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);

  // Random topology: 8..64 hosts.
  int pods = 1 + static_cast<int>(rng.index(2));
  int racks = 2 + static_cast<int>(rng.index(3));
  int hosts = 2 + static_cast<int>(rng.index(3));
  Fixture fx(pods, racks, hosts, rng);
  int n = fx.topo.num_hosts();

  // Random membership: at least half the hosts subscribe, each
  // contributing a small integer (sums are order-exact in doubles).
  std::vector<int> members;
  std::vector<double> local(static_cast<std::size_t>(n), 0.0);
  for (int h = 0; h < n; ++h) {
    if (members.size() < 4 || rng.chance(0.7)) members.push_back(h);
  }
  for (int h : members) {
    auto& agent = fx.agents[static_cast<std::size_t>(h)];
    agent->subscribe(fx.topic);
    double v = 1.0 + static_cast<double>(rng.index(97));
    local[static_cast<std::size_t>(h)] = v;
    agent->set_local(fx.topic, agg::AggValue::of(v));
  }
  fx.sim.run_to_completion();
  for (int r = 0; r < 6; ++r) fx.round();
  ASSERT_TRUE(fx.scribe->tree_consistent(fx.topic));

  // Chaos: a loss window with jitter opens now, and 1..3 tree parents
  // (interior nodes — the kills that orphan whole subtrees) die inside it.
  double t0 = fx.sim.now();
  sim::FaultPlan plan(seed);
  plan.uniform_loss(0.05 + 0.15 * rng.uniform(0.0, 1.0), t0, t0 + 180.0)
      .jitter(0.01, t0, t0 + 180.0);
  fx.net.set_fault_plan(&plan);

  std::vector<int> parents;
  for (int h = 0; h < n; ++h) {
    const GroupState* st = fx.scribe->at(fx.ids[static_cast<std::size_t>(h)])
                               .find_group(fx.topic);
    if (st != nullptr && !st->children.empty()) parents.push_back(h);
  }
  ASSERT_FALSE(parents.empty());
  int kills = 1 + static_cast<int>(rng.index(std::min<std::size_t>(
                  3, parents.size())));
  for (int k = 0; k < kills; ++k) {
    std::size_t pick = rng.index(parents.size());
    int victim = parents[pick];
    parents.erase(parents.begin() + static_cast<std::ptrdiff_t>(pick));
    if (fx.alive(victim)) {
      fx.net.kill_node(fx.ids[static_cast<std::size_t>(victim)]);
    }
  }

  // Bounded repair: 6 rounds inside the loss window, then rounds after it
  // closes so the last retransmissions and rejoins land.  12 rounds total
  // (~360 s) is the contract; more would mask a repair-path bug.
  for (int r = 0; r < 12; ++r) fx.round();

  // Property 1: every surviving subscriber is back on the tree.
  std::vector<int> survivors;
  for (int h : members) {
    if (fx.alive(h)) survivors.push_back(h);
  }
  ASSERT_FALSE(survivors.empty());
  for (int h : survivors) {
    const GroupState* st = fx.scribe->at(fx.ids[static_cast<std::size_t>(h)])
                               .find_group(fx.topic);
    ASSERT_NE(st, nullptr) << "host " << h << " lost its group state";
    EXPECT_TRUE(st->member) << "host " << h;
    EXPECT_TRUE(st->attached || st->root)
        << "host " << h << " did not re-attach within 12 rounds";
  }
  EXPECT_TRUE(fx.scribe->tree_consistent(fx.topic));

  // Property 2: aggregation totals re-converge to exactly the survivors'
  // sum — dead members' contributions are flushed, live ones all counted.
  double expected = 0.0;
  for (int h : survivors) expected += local[static_cast<std::size_t>(h)];
  for (int h : survivors) {
    const agg::TopicManager* tm =
        fx.agents[static_cast<std::size_t>(h)]->topic(fx.topic);
    ASSERT_NE(tm, nullptr) << "host " << h;
    ASSERT_TRUE(tm->has_global()) << "host " << h << " never saw a publish";
    EXPECT_DOUBLE_EQ(tm->global().sum, expected) << "host " << h;
    EXPECT_EQ(tm->global().count, survivors.size()) << "host " << h;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScribeRepairProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace vb::scribe
