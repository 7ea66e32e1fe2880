// Checkpoint/restore of a bulk-bootstrapped fleet (see
// src/pastry/bulk_bootstrap.h): an image saved at a quiesce barrier restores
// into a freshly bulk-booted world and resumes bit-identically, and a save
// attempted while transport copies are still in flight is refused.  Every
// host routes tokens to random keys and the receivers ack them over the
// reliable channel, so the wire is busy most of the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ckpt/format.h"
#include "ckpt/payload_codec.h"
#include "common/rng.h"
#include "net/topology.h"
#include "pastry/bulk_bootstrap.h"
#include "pastry/pastry_network.h"
#include "sim/simulator.h"

namespace vb {
namespace {

constexpr double kSaveFrom = 8.0;  // quiesce starts here; periodics run to 12
constexpr double kPeriodicUntil = 12.0;
constexpr double kEnd = 15.0;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

struct TokenPayload : pastry::Payload {
  explicit TokenPayload(std::uint64_t t) : token(t) {}
  std::size_t wire_bytes() const override { return 48; }
  std::string name() const override { return "test.bulk_token"; }
  std::uint64_t token;
};

void register_codecs() {
  pastry::register_ckpt_payload_codecs();
  ckpt::PayloadCodec::add(
      "test.bulk_token",
      [](ckpt::Writer& w, const pastry::Payload& p) {
        w.u64(ckpt::payload_cast<TokenPayload>(p).token);
      },
      [](ckpt::Reader& r) -> pastry::PayloadPtr {
        return std::make_shared<TokenPayload>(r.u64());
      });
}

class TokenApp : public pastry::PastryApp {
 public:
  explicit TokenApp(std::uint64_t seed) : rng(seed) {}

  void deliver(pastry::PastryNode& self, const pastry::RouteMsg& msg) override {
    auto tok = std::dynamic_pointer_cast<const TokenPayload>(msg.payload);
    if (!tok) return;
    registry.push_back(tok->token);
    self.send_reliable(msg.source,
                       std::make_shared<TokenPayload>(tok->token ^ 0xACCULL));
  }

  void receive_direct(pastry::PastryNode&, const pastry::NodeHandle&,
                      const pastry::PayloadPtr& payload,
                      pastry::MsgCategory) override {
    if (std::dynamic_pointer_cast<const TokenPayload>(payload)) ++acks_in;
  }

  Rng rng;
  std::vector<std::uint64_t> registry;
  std::uint64_t acks_in = 0;
};

/// Deterministic reconstruction with a bulk-booted fleet.
struct World {
  explicit World(std::uint64_t seed) : topo(make_tcfg()), net(&sim, &topo) {
    Rng ids(seed);
    for (int h = 0; h < topo.num_hosts(); ++h) {
      node_ids.push_back(ids.next_u128());
    }
    net.bootstrap_bulk(pastry::fleet_one_per_host(node_ids));
    for (int h = 0; h < topo.num_hosts(); ++h) {
      pastry::PastryNode* node = &net.at(node_ids[static_cast<std::size_t>(h)]);
      apps.push_back(std::make_unique<TokenApp>(seed ^ (0xB17ULL + h)));
      node->add_app(apps.back().get());
      TokenApp* app = apps.back().get();
      sim.schedule_periodic(
          0.05 + 0.001 * h, 0.25,
          [app, node] {
            node->route(app->rng.next_u128(),
                        std::make_shared<TokenPayload>(app->rng.next_u64()));
            return true;
          },
          kPeriodicUntil);
    }
  }

  static net::TopologyConfig make_tcfg() {
    net::TopologyConfig tcfg;
    tcfg.num_pods = 2;
    tcfg.racks_per_pod = 4;
    tcfg.hosts_per_rack = 4;  // 32 hosts, 8 racks
    return tcfg;
  }

  /// Runs in fixed 50 ms steps from `from` until the wire is empty, so every
  /// run that quiesces from the same time takes the same steps.
  void quiesce(double from) {
    int guard = 0;
    while (net.wire_in_flight() > 0) {
      sim.run_until(from + (++guard) * 0.05);
      if (guard > 5000) throw std::logic_error("quiesce: wire never drained");
    }
  }

  net::Topology topo;
  sim::Simulator sim;
  pastry::PastryNetwork net;
  std::vector<U128> node_ids;
  std::vector<std::unique_ptr<TokenApp>> apps;
};

std::vector<std::uint8_t> save(const World& w) {
  ckpt::Writer wr;
  wr.begin_section("bulk_ckpt_test");
  w.sim.ckpt_save(wr);
  w.net.ckpt_save(wr);
  wr.begin_section("apps");
  wr.u32(static_cast<std::uint32_t>(w.apps.size()));
  for (const auto& app : w.apps) {
    Rng::State s = app->rng.ckpt_state();
    wr.u64(s.state);
    wr.boolean(s.have_spare_normal);
    wr.f64(s.spare_normal);
    wr.u64(app->acks_in);
    wr.u64(app->registry.size());
    for (std::uint64_t t : app->registry) wr.u64(t);
  }
  wr.end_section();
  wr.end_section();
  return wr.finish();
}

void restore(World& w, const std::vector<std::uint8_t>& image) {
  ckpt::Reader r(image);
  r.enter_section("bulk_ckpt_test");
  w.sim.ckpt_restore(r);
  w.net.ckpt_restore(r);
  r.enter_section("apps");
  std::uint32_t n = r.u32();
  if (n != w.apps.size()) throw ckpt::CkptError("apps: count mismatch");
  for (auto& app : w.apps) {
    Rng::State s;
    s.state = r.u64();
    s.have_spare_normal = r.boolean();
    s.spare_normal = r.f64();
    app->rng.ckpt_restore(s);
    app->acks_in = r.u64();
    app->registry.assign(r.u64(), 0);
    for (std::uint64_t& t : app->registry) t = r.u64();
  }
  r.exit_section();
  r.exit_section();
  if (!r.at_end()) throw ckpt::CkptError("apps: trailing bytes");
}

struct Fingerprint {
  std::uint64_t events_executed = 0;
  std::uint64_t acks = 0;
  std::uint64_t token_hash = 0;
  std::uint64_t traffic_hash = 0;
  std::uint64_t total_msgs = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const World& w) {
  Fingerprint fp;
  fp.events_executed = w.sim.events_executed();
  fp.token_hash = 1469598103934665603ULL;
  fp.traffic_hash = 1469598103934665603ULL;
  for (int h = 0; h < w.topo.num_hosts(); ++h) {
    const TokenApp& app = *w.apps[static_cast<std::size_t>(h)];
    fp.acks += app.acks_in;
    for (std::uint64_t t : app.registry) fp.token_hash = fnv1a(fp.token_hash, t);
    const pastry::TrafficCounters& c =
        w.net.counters(w.node_ids[static_cast<std::size_t>(h)]);
    fp.traffic_hash = fnv1a(fp.traffic_hash, c.total_msgs());
    fp.traffic_hash = fnv1a(fp.traffic_hash, c.total_bytes());
  }
  fp.total_msgs = w.net.total_msgs();
  return fp;
}

Fingerprint run_uninterrupted(std::uint64_t seed) {
  World w(seed);
  w.sim.run_until(kSaveFrom);
  w.quiesce(kSaveFrom);
  w.sim.run_until(kEnd);
  return fingerprint(w);
}

Fingerprint run_with_save(std::uint64_t seed,
                          std::vector<std::uint8_t>& image_out) {
  World w(seed);
  w.sim.run_until(kSaveFrom);
  w.quiesce(kSaveFrom);
  image_out = save(w);
  w.sim.run_until(kEnd);
  return fingerprint(w);
}

Fingerprint run_restored(std::uint64_t seed,
                         const std::vector<std::uint8_t>& image) {
  World w(seed);
  restore(w, image);
  w.sim.run_until(kEnd);
  return fingerprint(w);
}

TEST(CkptBulk, SerialResumeBitIdentical) {
  register_codecs();
  Fingerprint base = run_uninterrupted(19);
  std::vector<std::uint8_t> image;
  Fingerprint saved = run_with_save(19, image);
  EXPECT_TRUE(base == saved) << "save perturbed the serial run";
  Fingerprint restored = run_restored(19, image);
  EXPECT_TRUE(base == restored) << "serial restore diverged";
  EXPECT_GT(base.acks, 0u);
  EXPECT_GT(base.total_msgs, 0u);
}

TEST(CkptBulk, SaveOffBarrierIsRefused) {
  register_codecs();
  World w(7);
  // Step one event at a time until a transport copy is on the wire: the
  // transport must refuse to serialize it rather than drop it.
  std::uint64_t guard = 0;
  while (w.net.wire_in_flight() == 0) {
    ASSERT_TRUE(w.sim.step()) << "queue drained before any send";
    ASSERT_LT(++guard, 100'000u) << "no send within 100k events";
  }
  EXPECT_THROW(save(w), ckpt::CkptError);
  // After a proper quiesce, the same call succeeds.
  w.quiesce(w.sim.now());
  EXPECT_EQ(w.net.wire_in_flight(), 0);
  EXPECT_FALSE(save(w).empty());
}

}  // namespace
}  // namespace vb
