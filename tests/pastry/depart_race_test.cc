// Regression tests for PastryNetwork::depart_node.
//
// The old implementation announced the departure but kept the node alive
// for "one cross-pod latency plus slack", so a message racing the farewell
// could still be delivered to — and answered by — a node that had already
// said goodbye.  Death is now atomic with the announcement: after
// depart_node returns, delivery to the departed node is impossible by
// construction, and racers bounce to their sender's failure handler
// exactly like sends to a crashed node.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "pastry/pastry_network.h"

namespace vb::pastry {
namespace {

struct Blob : Payload {
  std::size_t wire_bytes() const override { return 32; }
};

/// Per-node sink that records delivery times, so "no delivery at or after
/// the death instant" is directly checkable.
struct Sink : PastryApp {
  sim::Simulator* sim = nullptr;
  int delivered = 0;
  int direct = 0;
  std::vector<double> direct_times;
  std::vector<U128> failures_seen;

  void deliver(PastryNode&, const RouteMsg&) override { ++delivered; }
  void receive_direct(PastryNode&, const NodeHandle&, const PayloadPtr&,
                      MsgCategory) override {
    ++direct;
    direct_times.push_back(sim->now());
  }
  void on_node_failed(PastryNode&, const NodeHandle& failed) override {
    failures_seen.push_back(failed.id);
  }
};

struct Harness {
  net::Topology topo;
  sim::Simulator sim;
  PastryNetwork net;
  std::vector<std::unique_ptr<Sink>> sinks;  // indexed by host
  std::vector<U128> ids;                     // indexed by host

  Harness()
      : topo([] {
          net::TopologyConfig c;
          c.num_pods = 2;
          c.racks_per_pod = 2;
          c.hosts_per_rack = 2;
          return net::Topology(c);
        }()),
        net(&sim, &topo) {
    Rng rng(7);
    for (int h = 0; h < topo.num_hosts(); ++h) {
      U128 id = rng.next_u128();
      ids.push_back(id);
      auto sink = std::make_unique<Sink>();
      sink->sim = &sim;
      net.add_node_oracle(id, h).add_app(sink.get());
      sinks.push_back(std::move(sink));
    }
  }

  PastryNode& node(int h) { return net.at(ids[static_cast<std::size_t>(h)]); }
};

TEST(DepartRace, DeadImmediatelyAfterDepartReturns) {
  Harness hx;
  EXPECT_TRUE(hx.net.find(hx.ids[3]) != nullptr);
  hx.net.depart_node(hx.ids[3]);
  // No grace window: the node is gone before a single event runs.
  EXPECT_FALSE(hx.net.find(hx.ids[3]) != nullptr);
  hx.sim.run_to_completion();
  EXPECT_FALSE(hx.net.find(hx.ids[3]) != nullptr);
}

TEST(DepartRace, DirectMessageRacingFarewellBouncesToSender) {
  Harness hx;
  // Host 0 fires a direct message at host 7 (cross-pod: the longest
  // latency, the exact racer the old grace window let through)...
  hx.node(0).send_direct(hx.node(7).handle(), std::make_shared<Blob>(),
                         MsgCategory::kApp);
  // ...and host 7 departs in the same instant, before delivery.
  hx.net.depart_node(hx.ids[7]);
  hx.sim.run_to_completion();

  // The racer must NOT reach the departed node's app.
  EXPECT_EQ(hx.sinks[7]->direct, 0);
  // It must bounce: the sender detects the failure and purges the peer.
  bool sender_saw_failure = false;
  for (const U128& f : hx.sinks[0]->failures_seen) {
    if (f == hx.ids[7]) sender_saw_failure = true;
  }
  EXPECT_TRUE(sender_saw_failure);
}

TEST(DepartRace, RoutedMessageRacingFarewellIsRerouted) {
  Harness hx;
  // Route straight at the departing node's id from across the network.
  hx.node(0).route(hx.ids[7], std::make_shared<Blob>(), MsgCategory::kApp);
  hx.net.depart_node(hx.ids[7]);
  hx.sim.run_to_completion();

  // The departed node never sees it; after the bounce the sender repairs
  // its tables and the message lands on the new numerically-closest node.
  EXPECT_EQ(hx.sinks[7]->delivered, 0);
  int delivered_elsewhere = 0;
  for (int h = 0; h < 7; ++h) delivered_elsewhere += hx.sinks[h]->delivered;
  EXPECT_EQ(delivered_elsewhere, 1);
}

TEST(DepartRace, NoDeliveryAtOrAfterDeathInstant) {
  Harness hx;
  // Cross-pod latency is 10 ms; sends are staggered across [0, 10 ms], so
  // arrivals span [10 ms, 20 ms] and a death at 15 ms splits the barrage:
  // the early half delivers, the late half races the farewell.
  const double death_time = 0.015;
  // A barrage of direct messages from host 1, staggered so some deliver
  // before the death instant (legitimate) and some would land after.  The
  // handle is captured up front — senders keep stale handles in practice.
  const NodeHandle dest = hx.node(6).handle();
  for (int i = 0; i < 40; ++i) {
    double when = 0.00025 * i;
    hx.sim.schedule_in(when, [&hx, dest]() {
      hx.node(1).send_direct(dest, std::make_shared<Blob>(),
                             MsgCategory::kApp);
    });
  }
  hx.sim.schedule_in(death_time,
                     [&hx]() { hx.net.depart_node(hx.ids[6]); });
  hx.sim.run_to_completion();

  // Every delivery the departed node's app ever saw happened strictly
  // before the death instant — none raced through the farewell.
  EXPECT_GT(hx.sinks[6]->direct, 0);  // the early ones did arrive
  for (double t : hx.sinks[6]->direct_times) EXPECT_LT(t, death_time);
  // And the late ones surfaced as failures at the sender.
  bool sender_saw_failure = false;
  for (const U128& f : hx.sinks[1]->failures_seen) {
    if (f == hx.ids[6]) sender_saw_failure = true;
  }
  EXPECT_TRUE(sender_saw_failure);
}

}  // namespace
}  // namespace vb::pastry
