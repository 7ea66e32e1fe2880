// Receiver-side dedup of the reliable channel (PastryNode::send_reliable):
// one window per sender — a floor plus the seqs processed above it — keeps
// delivery exactly-once under loss, duplication and reordering, holds state
// flat across rounds of traffic, drops a late copy of an abandoned send,
// and checkpoints only well-formed windows.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/format.h"
#include "ckpt/payload_codec.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "pastry/dedup_windows.h"
#include "pastry/pastry_internal.h"
#include "pastry/pastry_network.h"
#include "sim/fault_plan.h"

namespace vb::pastry {
namespace {

struct Tagged : Payload {
  int tag;
  explicit Tagged(int t) : tag(t) {}
  std::size_t wire_bytes() const override { return 16; }
};

struct TagSink : PastryApp {
  std::map<int, int> delivered;  // tag -> times processed
  void deliver(PastryNode&, const RouteMsg&) override {}
  void receive_direct(PastryNode&, const NodeHandle&, const PayloadPtr& p,
                      MsgCategory) override {
    if (auto t = std::dynamic_pointer_cast<const Tagged>(p)) {
      ++delivered[t->tag];
    }
  }
};

// Eight oracle-booted nodes, one per host, two racks of four.
struct Harness {
  net::Topology topo;
  sim::Simulator sim;
  PastryNetwork net;
  TagSink sink;

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

  PastryNode* on_host(int host) {
    for (PastryNode* n : net.nodes()) {
      if (n->host() == host) return n;
    }
    return nullptr;
  }

  double gauge(const char* name) {
    obs::MetricsRegistry reg;
    net.export_metrics(reg);
    const obs::Gauge* g = reg.find_gauge(name);
    return g != nullptr ? g->value() : -1.0;
  }
};

TEST(ReliableDedup, ExactlyOnceUnderChaos) {
  constexpr int kSends = 400;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Harness hx;
    // Faults end at t = 10.  A send leaves by t = 9.5, and its sixth and
    // last copy leaves 15.5 s later, so no send is ever abandoned.
    sim::FaultPlan plan(seed);
    plan.uniform_loss(0.3, 0.0, 10.0);
    plan.uniform_duplication(0.3, 0.0, 10.0);
    plan.jitter(0.4, 0.0, 10.0);
    hx.net.set_fault_plan(&plan);

    auto nodes = hx.net.nodes();
    Rng rng(seed);
    for (int tag = 0; tag < kSends; ++tag) {
      std::size_t from = rng.index(nodes.size());
      std::size_t to = (from + 1 + rng.index(nodes.size() - 1)) % nodes.size();
      PastryNode* src = nodes[from];
      NodeHandle dest = nodes[to]->handle();
      hx.sim.schedule_at(rng.uniform(0.0, 9.5), [src, dest, tag] {
        src->send_reliable(dest, std::make_shared<Tagged>(tag),
                           MsgCategory::kApp);
      });
    }
    hx.sim.run_to_completion();

    for (int tag = 0; tag < kSends; ++tag) {
      ASSERT_EQ(hx.sink.delivered[tag], 1) << "seed " << seed << " tag " << tag;
    }
    EXPECT_EQ(hx.gauge("pastry.reliable.pending"), 0) << "seed " << seed;
    // Most seqs end below their window's floor; remembering every one would
    // list all 400.
    EXPECT_LT(hx.gauge("pastry.reliable.dedup_entries"), kSends)
        << "seed " << seed;
  }
}

TEST(ReliableDedup, StateStaysFlatOverRounds) {
  // Each round is Counters.ReliableStateGauges' traffic: node 0 sends five
  // envelopes round-robin to three peers and every one is acked.
  Harness hx;
  auto nodes = hx.net.nodes();
  for (int round = 1; round <= 100; ++round) {
    for (int i = 0; i < 5; ++i) {
      PastryNode* dest = nodes[static_cast<std::size_t>(1 + i % 3)];
      nodes[0]->send_reliable(dest->handle(), std::make_shared<Tagged>(i),
                              MsgCategory::kApp);
    }
    hx.sim.run_to_completion();
    ASSERT_LE(hx.gauge("pastry.reliable.dedup_entries"), 5)
        << "round " << round;
  }
}

TEST(ReliableDedup, LateCopyOfAbandonedSendIsNotProcessed) {
  Harness hx;
  PastryNode* src = hx.on_host(0);
  PastryNode* dst = hx.on_host(4);  // rack 1
  ASSERT_NE(src, nullptr);
  ASSERT_NE(dst, nullptr);
  // The first copy is held on the wire for 40 s; every retransmit falls in
  // the partition, so the sender abandons the send at t = 23.5.
  sim::FaultPlan plan(1);
  plan.delay_spike(40.0, 0.0, 0.1);
  plan.partition_rack(1, 0.1, 30.0);
  hx.net.set_fault_plan(&plan);

  src->send_reliable(dst->handle(), std::make_shared<Tagged>(1),
                     MsgCategory::kApp);
  hx.sim.run_until(31.0);
  EXPECT_EQ(src->pending_reliable_count(), 0u);  // abandoned
  src->send_reliable(dst->handle(), std::make_shared<Tagged>(2),
                     MsgCategory::kApp);
  hx.sim.run_to_completion();

  EXPECT_GE(hx.sim.now(), 40.0);
  // The receiver acked both arrivals: the second send and, at t = 40, the
  // late first copy, which the second send's floor had already passed.
  auto ack = static_cast<std::size_t>(MsgCategory::kAck);
  EXPECT_EQ(hx.net.counters(dst->id()).msgs_sent[ack], 2u);
  EXPECT_EQ(hx.sink.delivered[2], 1);
  EXPECT_EQ(hx.sink.delivered.count(1), 0u);
}

TEST(DedupWindows, DropsDuplicatesAndSeqsBelowTheFloor) {
  DedupWindows d;
  const U128 a{7};
  EXPECT_TRUE(d.accept(a, 1, 1));
  EXPECT_FALSE(d.accept(a, 1, 1));  // duplicate below the floor (2)
  EXPECT_TRUE(d.accept(a, 4, 2));
  EXPECT_FALSE(d.accept(a, 4, 2));  // duplicate listed above the floor
  EXPECT_EQ(d.senders(), 1u);
  EXPECT_EQ(d.entries(), 1u);
  EXPECT_TRUE(d.accept(a, 3, 2));  // seq 2 went to another receiver
  EXPECT_EQ(d.entries(), 2u);
  EXPECT_TRUE(d.accept(a, 6, 6));  // floor 6: listed 3 and 4 are dropped
  EXPECT_EQ(d.entries(), 0u);
  EXPECT_FALSE(d.accept(a, 5, 5));  // below the floor (7)
  EXPECT_TRUE(d.accept(U128{3}, 5, 5));  // windows are per sender
  EXPECT_EQ(d.senders(), 2u);
}

TEST(DedupWindows, FloorAdvancesOverContiguousSeqs) {
  DedupWindows d;
  const U128 a{7};
  EXPECT_TRUE(d.accept(a, 3, 1));
  EXPECT_TRUE(d.accept(a, 2, 1));
  EXPECT_EQ(d.entries(), 2u);
  EXPECT_TRUE(d.accept(a, 1, 1));  // 1, 2 and 3 are now contiguous
  EXPECT_EQ(d.entries(), 0u);
  EXPECT_FALSE(d.accept(a, 3, 1));
  EXPECT_TRUE(d.accept(a, 4, 1));
}

// --- checkpoint ------------------------------------------------------------

std::vector<std::uint8_t> image_of(const DedupWindows& d) {
  ckpt::Writer w;
  d.ckpt_save(w);
  return w.finish();
}

TEST(DedupWindowsCkpt, RoundTripIsByteIdentical) {
  DedupWindows d;
  d.accept(U128{9}, 1, 1);
  d.accept(U128{9}, 5, 2);
  d.accept(U128{9}, 7, 2);
  d.accept(U128{4}, 3, 3);
  std::vector<std::uint8_t> img = image_of(d);
  ckpt::Reader r(img);
  DedupWindows restored;
  restored.ckpt_restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.senders(), 2u);
  EXPECT_EQ(restored.entries(), 2u);
  EXPECT_EQ(image_of(restored), img);
  EXPECT_FALSE(restored.accept(U128{9}, 5, 2));
  EXPECT_TRUE(restored.accept(U128{9}, 6, 2));
}

struct RawWindow {
  U128 sender;
  std::uint64_t floor;
  std::vector<std::uint64_t> above;
};

// Restores a hand-built image and returns the CkptError message ("" if
// restore accepted it).
std::string restore_error(const std::vector<RawWindow>& windows) {
  ckpt::Writer w;
  w.u32(static_cast<std::uint32_t>(windows.size()));
  for (const RawWindow& win : windows) {
    w.u128(win.sender);
    w.u64(win.floor);
    w.u32(static_cast<std::uint32_t>(win.above.size()));
    for (std::uint64_t s : win.above) w.u64(s);
  }
  std::vector<std::uint8_t> img = w.finish();
  ckpt::Reader r(img);
  DedupWindows d;
  try {
    d.ckpt_restore(r);
  } catch (const ckpt::CkptError& e) {
    return e.what();
  }
  return "";
}

TEST(DedupWindowsCkpt, AcceptsWellFormedImage) {
  EXPECT_EQ(restore_error({{U128{1}, 3, {5, 9}}, {U128{2}, 0, {}}}), "");
}

TEST(DedupWindowsCkpt, RefusesSendersOutOfOrder) {
  for (U128 second : {U128{1}, U128{2}}) {
    EXPECT_NE(restore_error({{U128{2}, 3, {}}, {second, 3, {}}})
                  .find("senders not in strictly ascending order"),
              std::string::npos);
  }
}

TEST(DedupWindowsCkpt, RefusesListedSeqAtOrBelowFloor) {
  for (std::uint64_t s : {3u, 2u}) {
    EXPECT_NE(restore_error({{U128{1}, 3, {s}}})
                  .find("listed seq " + std::to_string(s) +
                        " at or below its floor 3"),
              std::string::npos);
  }
}

TEST(DedupWindowsCkpt, RefusesListedSeqsOutOfOrder) {
  for (std::vector<std::uint64_t> above : {std::vector<std::uint64_t>{6, 5},
                                           std::vector<std::uint64_t>{5, 5}}) {
    EXPECT_NE(restore_error({{U128{1}, 3, above}})
                  .find("listed seqs not in strictly ascending order"),
              std::string::npos);
  }
}

TEST(DedupWindowsCkpt, RefusesEnvelopeFloorAboveSeq) {
  register_ckpt_payload_codecs();
  internal::ReliableEnvelope env;
  env.seq = 3;
  env.floor = 5;
  ckpt::Writer w;
  ckpt::PayloadCodec::encode(w, env);
  std::vector<std::uint8_t> img = w.finish();
  ckpt::Reader r(img);
  try {
    ckpt::PayloadCodec::decode(r);
    ADD_FAILURE() << "envelope with floor 5 above seq 3 accepted";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("pastry.rel: floor 5 above seq 3"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace vb::pastry
