// Traffic-counter accounting (the Fig. 15 instrumentation): messages and
// bytes are charged to the sender, split by category, and reset cleanly.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pastry/pastry_network.h"
#include "sim/fault_plan.h"

namespace vb::pastry {
namespace {

struct Blob : Payload {
  std::size_t bytes;
  explicit Blob(std::size_t b) : bytes(b) {}
  std::size_t wire_bytes() const override { return bytes; }
};

struct Sink : PastryApp {
  int delivered = 0;
  int direct = 0;
  void deliver(PastryNode&, const RouteMsg&) override { ++delivered; }
  void receive_direct(PastryNode&, const NodeHandle&, const PayloadPtr&,
                      MsgCategory) override {
    ++direct;
  }
};

struct Harness {
  net::Topology topo;
  sim::Simulator sim;
  PastryNetwork net;
  Sink sink;

  Harness()
      : topo([] {
          net::TopologyConfig c;
          c.num_pods = 1;
          c.racks_per_pod = 2;
          c.hosts_per_rack = 4;
          return net::Topology(c);
        }()),
        net(&sim, &topo) {
    Rng rng(42);
    for (int h = 0; h < topo.num_hosts(); ++h) {
      net.add_node_oracle(rng.next_u128(), h).add_app(&sink);
    }
  }
};

TEST(Counters, DirectSendChargesSenderOnly) {
  Harness hx;
  auto nodes = hx.net.nodes();
  hx.net.reset_counters();
  nodes[0]->send_direct(nodes[5]->handle(), std::make_shared<Blob>(100),
                        MsgCategory::kVBundle);
  hx.sim.run_to_completion();
  const TrafficCounters& sender = hx.net.counters(nodes[0]->id());
  const TrafficCounters& receiver = hx.net.counters(nodes[5]->id());
  EXPECT_EQ(sender.total_msgs(), 1u);
  EXPECT_EQ(sender.total_bytes(), 100u);
  EXPECT_EQ(receiver.total_msgs(), 0u);
  EXPECT_EQ(hx.sink.direct, 1);
}

TEST(Counters, CategoriesAreSeparated) {
  Harness hx;
  auto nodes = hx.net.nodes();
  hx.net.reset_counters();
  nodes[0]->send_direct(nodes[1]->handle(), std::make_shared<Blob>(10),
                        MsgCategory::kAggregation);
  nodes[0]->send_direct(nodes[1]->handle(), std::make_shared<Blob>(20),
                        MsgCategory::kVBundle);
  nodes[0]->send_direct(nodes[1]->handle(), std::make_shared<Blob>(30),
                        MsgCategory::kVBundle);
  hx.sim.run_to_completion();
  const TrafficCounters& c = hx.net.counters(nodes[0]->id());
  auto idx = [](MsgCategory m) { return static_cast<std::size_t>(m); };
  EXPECT_EQ(c.msgs_sent[idx(MsgCategory::kAggregation)], 1u);
  EXPECT_EQ(c.bytes_sent[idx(MsgCategory::kAggregation)], 10u);
  EXPECT_EQ(c.msgs_sent[idx(MsgCategory::kVBundle)], 2u);
  EXPECT_EQ(c.bytes_sent[idx(MsgCategory::kVBundle)], 50u);
  EXPECT_EQ(c.total_msgs(), 3u);
  EXPECT_EQ(c.total_bytes(), 60u);
}

TEST(Counters, RoutedMessageChargesEveryHop) {
  Harness hx;
  auto nodes = hx.net.nodes();
  hx.net.reset_counters();
  // Route to the source's antipode: multiple hops, each hop's sender pays.
  PastryNode* src = nodes[0];
  src->route(~src->id(), std::make_shared<Blob>(64), MsgCategory::kApp);
  hx.sim.run_to_completion();
  std::uint64_t total = hx.net.total_msgs();
  int hops = hx.net.last_delivery_hops();
  EXPECT_EQ(total, static_cast<std::uint64_t>(hops));
}

TEST(Counters, ResetClearsEverything) {
  Harness hx;
  auto nodes = hx.net.nodes();
  nodes[0]->send_direct(nodes[1]->handle(), std::make_shared<Blob>(10),
                        MsgCategory::kApp);
  hx.sim.run_to_completion();
  EXPECT_GT(hx.net.total_msgs(), 0u);
  hx.net.reset_counters();
  EXPECT_EQ(hx.net.total_msgs(), 0u);
  for (auto b : hx.net.per_node_bytes()) EXPECT_EQ(b, 0u);
}

TEST(Counters, PerNodeVectorsCoverLiveNodes) {
  Harness hx;
  EXPECT_EQ(hx.net.per_node_msgs().size(), 8u);
  hx.net.kill_node(hx.net.nodes()[0]->id());
  EXPECT_EQ(hx.net.per_node_msgs().size(), 7u);
}

TEST(Counters, ReliableStateGauges) {
  // N reliable sends are N pending envelopes until acked.  Then each
  // receiver holds one dedup window for the sender, listing only the seqs
  // that arrived above its floor: seqs 1-3 each reach a fresh window as its
  // floor and advance it, while 4 and 5 carry floors 1 and 2 (their
  // receivers' earlier seqs were still unacked when they left) and stay
  // listed.
  Harness hx;
  auto nodes = hx.net.nodes();
  constexpr int kSends = 5;
  for (int i = 0; i < kSends; ++i) {
    PastryNode* dest = nodes[static_cast<std::size_t>(1 + i % 3)];
    nodes[0]->send_reliable(dest->handle(), std::make_shared<Blob>(10),
                            MsgCategory::kApp);
  }
  obs::MetricsRegistry reg;
  auto gauge = [&reg](const char* name) {
    const obs::Gauge* g = reg.find_gauge(name);
    return g != nullptr ? g->value() : -1.0;
  };
  hx.net.export_metrics(reg);
  EXPECT_EQ(gauge("pastry.reliable.pending"), kSends);
  EXPECT_EQ(gauge("pastry.reliable.dedup_entries"), 0);
  EXPECT_EQ(gauge("pastry.reliable.dedup_senders"), 0);
  hx.sim.run_to_completion();
  hx.net.export_metrics(reg);
  EXPECT_EQ(hx.sink.direct, kSends);
  EXPECT_EQ(gauge("pastry.reliable.pending"), 0);
  EXPECT_EQ(gauge("pastry.reliable.dedup_entries"), 2);
  EXPECT_EQ(gauge("pastry.reliable.dedup_senders"), 3);
}

/// Fault verdicts seen by the transport in one phase: per-sender sums,
/// network totals, and the trace instants recorded for them.
struct Verdicts {
  std::uint64_t sender_drops = 0;
  std::uint64_t sender_dups = 0;
  std::uint64_t traced_drops = 0;
  std::uint64_t traced_dups = 0;
};

Verdicts tally(Harness& hx, const obs::TraceRecorder& trace) {
  Verdicts v;
  for (const PastryNode* n : hx.net.nodes()) {
    v.sender_drops += n->counters().fault_dropped_msgs;
    v.sender_dups += n->counters().fault_dup_msgs;
  }
  for (const obs::TraceEvent& e : trace.snapshot()) {
    if (std::strcmp(e.name, "fault.drop") == 0 ||
        std::strcmp(e.name, "fault.partition_drop") == 0) {
      ++v.traced_drops;
    } else if (std::strcmp(e.name, "fault.dup") == 0) {
      ++v.traced_dups;
    }
  }
  return v;
}

TEST(Counters, FaultVerdictsAreChargedAndTraced) {
  // Both send kinds go through one choke point: every send is charged to
  // its sender, and each drop or duplicate is counted once on the sender
  // and traced once.
  Harness hx;
  obs::TraceRecorder trace;
  hx.net.set_trace(&trace);
  sim::FaultPlan plan(5);
  plan.uniform_loss(0.3).uniform_duplication(0.3);
  hx.net.set_fault_plan(&plan);
  auto nodes = hx.net.nodes();
  constexpr int kSends = 200;

  hx.net.reset_counters();
  for (int i = 0; i < kSends; ++i) {
    // Every ordered pair of distinct nodes, never a send to self.
    PastryNode* from = nodes[static_cast<std::size_t>(i % 8)];
    PastryNode* to = nodes[static_cast<std::size_t>((i + 1 + i / 8 % 7) % 8)];
    from->send_direct(to->handle(), std::make_shared<Blob>(10));
  }
  hx.sim.run_to_completion();
  EXPECT_EQ(hx.net.wire_in_flight(), 0);
  EXPECT_EQ(hx.net.total_msgs(), static_cast<std::uint64_t>(kSends));
  Verdicts direct = tally(hx, trace);
  EXPECT_GT(direct.sender_drops, 0u);
  EXPECT_GT(direct.sender_dups, 0u);
  EXPECT_EQ(direct.sender_drops, hx.net.total_fault_dropped());
  EXPECT_EQ(direct.sender_dups, hx.net.total_fault_dups());
  EXPECT_EQ(direct.traced_drops, direct.sender_drops);
  EXPECT_EQ(direct.traced_dups, direct.sender_dups);
  EXPECT_EQ(static_cast<std::uint64_t>(hx.sink.direct),
            kSends - direct.sender_drops + direct.sender_dups);
  EXPECT_EQ(trace.dropped(), 0u);

  hx.net.reset_counters();
  trace.clear();
  Rng keys(9);
  for (int i = 0; i < kSends; ++i) {
    nodes[static_cast<std::size_t>(i % 8)]->route(keys.next_u128(),
                                                  std::make_shared<Blob>(10));
  }
  hx.sim.run_to_completion();
  EXPECT_EQ(hx.net.wire_in_flight(), 0);
  Verdicts routed = tally(hx, trace);
  EXPECT_GT(routed.sender_drops, 0u);
  EXPECT_GT(routed.sender_dups, 0u);
  EXPECT_EQ(routed.sender_drops, hx.net.total_fault_dropped());
  EXPECT_EQ(routed.sender_dups, hx.net.total_fault_dups());
  EXPECT_EQ(routed.traced_drops, routed.sender_drops);
  EXPECT_EQ(routed.traced_dups, routed.sender_dups);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Counters, DeadSenderIsNotChargedAndSendsNothing) {
  // A dead node's leftover timers may still try to send: nothing is
  // charged, the fault plan draws nothing, and nothing reaches the wire.
  Harness hx;
  sim::FaultPlan plan(5);
  plan.uniform_loss(0.3);
  hx.net.set_fault_plan(&plan);
  auto nodes = hx.net.nodes();
  PastryNode* victim = nodes[2];
  hx.net.kill_node(victim->id());
  std::uint64_t rng_before = plan.ckpt_rng_state().state;

  victim->send_direct(nodes[5]->handle(), std::make_shared<Blob>(100));
  victim->route(~victim->id(), std::make_shared<Blob>(64));
  EXPECT_FALSE(victim->alive());
  EXPECT_EQ(victim->counters().total_msgs(), 0u);
  EXPECT_EQ(victim->counters().total_bytes(), 0u);
  EXPECT_EQ(hx.net.total_msgs(), 0u);
  EXPECT_EQ(plan.ckpt_rng_state().state, rng_before);
  EXPECT_EQ(hx.net.wire_in_flight(), 0);
  EXPECT_TRUE(hx.sim.idle());
  hx.sim.run_to_completion();
  EXPECT_EQ(hx.sink.direct, 0);
  EXPECT_EQ(hx.sink.delivered, 0);
}

TEST(Counters, UnknownNodeThrows) {
  Harness hx;
  EXPECT_THROW(hx.net.counters(U128{12345}), std::out_of_range);
}

}  // namespace
}  // namespace vb::pastry
