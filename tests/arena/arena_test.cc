// Unit coverage for src/arena: generator streams, tree packing, admission
// bookkeeping and its departure index, fragmentation accounting, and the
// closed-world equivalence that makes bench/fig8_growth.cc a special case of
// the arena (the regression lock for that rewrite).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "arena/arena.h"
#include "baselines/greedy_placement.h"
#include "net/traffic_matrix.h"

namespace vb {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

core::CloudConfig small_config(std::uint64_t seed = 42) {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 2;
  cfg.topology.hosts_per_rack = 4;  // 16 servers
  cfg.topology.host_nic_mbps = 1000.0;
  cfg.seed = seed;
  return cfg;
}

bool same_request(const arena::VcRequest& a, const arena::VcRequest& b) {
  return a.id == b.id && a.tenant == b.tenant &&
         std::bit_cast<std::uint64_t>(a.arrival_s) ==
             std::bit_cast<std::uint64_t>(b.arrival_s) &&
         std::bit_cast<std::uint64_t>(a.lifetime_s) ==
             std::bit_cast<std::uint64_t>(b.lifetime_s) &&
         a.n_vms == b.n_vms &&
         a.spec.reservation_mbps == b.spec.reservation_mbps &&
         a.spec.limit_mbps == b.spec.limit_mbps &&
         a.shape.kind == b.shape.kind &&
         std::bit_cast<std::uint64_t>(a.shape.period_s) ==
             std::bit_cast<std::uint64_t>(b.shape.period_s) &&
         std::bit_cast<std::uint64_t>(a.shape.phase_s) ==
             std::bit_cast<std::uint64_t>(b.shape.phase_s) &&
         a.shape.seed == b.shape.seed;
}

// --- generator -------------------------------------------------------------

TEST(OpenWorldGenerator, SameSeedSameStream) {
  arena::GeneratorConfig cfg;
  cfg.seed = 7;
  arena::OpenWorldGenerator a(cfg), b(cfg);
  for (int i = 0; i < 200; ++i) {
    auto ra = a.next();
    auto rb = b.next();
    ASSERT_TRUE(ra && rb);
    EXPECT_TRUE(same_request(*ra, *rb)) << "request " << i;
  }
}

TEST(OpenWorldGenerator, DifferentSeedDifferentStream) {
  arena::GeneratorConfig cfg;
  cfg.seed = 7;
  arena::OpenWorldGenerator a(cfg);
  cfg.seed = 8;
  arena::OpenWorldGenerator b(cfg);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (!same_request(*a.next(), *b.next())) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(OpenWorldGenerator, ArrivalsIncreaseAndFieldsAreSane) {
  arena::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.n_min = 2;
  cfg.n_max = 16;
  arena::OpenWorldGenerator g(cfg);
  double last = 0.0;
  double lifetime_sum = 0.0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    auto r = g.next();
    ASSERT_TRUE(r);
    EXPECT_GT(r->arrival_s, last);
    last = r->arrival_s;
    EXPECT_GE(r->n_vms, cfg.n_min);
    EXPECT_LE(r->n_vms, cfg.n_max);
    EXPECT_GT(r->lifetime_s, 0.0);
    EXPECT_TRUE(r->spec.valid());
    EXPECT_NE(r->shape.kind, arena::ProfileKind::kNone);
    lifetime_sum += r->lifetime_s;
  }
  // Exponential with mean 4h: the sample mean of 2000 draws should land
  // well within a factor of 1.25.
  double mean = lifetime_sum / kDraws;
  EXPECT_GT(mean, cfg.mean_lifetime_s / 1.25);
  EXPECT_LT(mean, cfg.mean_lifetime_s * 1.25);
  // The realized rate stays inside the diurnal envelope
  // [base*(1-amp), base*(1+amp)] (2000 draws cover only part of a period,
  // so the mean does not collapse to base).
  double rate = kDraws / last;
  EXPECT_GT(rate, cfg.base_arrival_per_s * (1.0 - cfg.diurnal_amplitude));
  EXPECT_LT(rate,
            cfg.base_arrival_per_s * (1.0 + cfg.diurnal_amplitude) * 1.05);
}

TEST(OpenWorldGenerator, LognormalLifetimesMatchConfiguredMean) {
  arena::GeneratorConfig cfg;
  cfg.seed = 13;
  cfg.lognormal_lifetimes = true;
  cfg.mean_lifetime_s = 1000.0;
  arena::OpenWorldGenerator g(cfg);
  double sum = 0.0;
  const int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) sum += g.next()->lifetime_s;
  double mean = sum / kDraws;
  EXPECT_GT(mean, 700.0);
  EXPECT_LT(mean, 1400.0);
}

TEST(OpenWorldGenerator, CheckpointResumesStreamBitIdentically) {
  arena::GeneratorConfig cfg;
  cfg.seed = 21;
  arena::OpenWorldGenerator a(cfg);
  for (int i = 0; i < 50; ++i) a.next();
  ckpt::Writer w;
  a.ckpt_save(w);
  std::vector<std::uint8_t> image = w.finish();

  std::vector<arena::VcRequest> expect;
  for (int i = 0; i < 50; ++i) expect.push_back(*a.next());

  arena::OpenWorldGenerator b(cfg);
  ckpt::Reader r(image);
  b.ckpt_restore(r);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(same_request(expect[static_cast<std::size_t>(i)], *b.next()))
        << "request " << i;
  }
}

TEST(ClosedWorldSource, ReplaysBatchesInOrderWithAlternatingSpecs) {
  std::vector<arena::ClosedWorldSource::Batch> batches = {
      {"A", 3, {host::VmSpec{100, 200}, host::VmSpec{200, 400}}},
      {"B", 2, {host::VmSpec{50, 50}}},
  };
  arena::ClosedWorldSource src(batches);
  std::vector<arena::VcRequest> all;
  while (auto r = src.next()) all.push_back(*r);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].tenant, "A");
  EXPECT_EQ(all[0].spec.reservation_mbps, 100);
  EXPECT_EQ(all[1].spec.reservation_mbps, 200);
  EXPECT_EQ(all[2].spec.reservation_mbps, 100);
  EXPECT_EQ(all[3].tenant, "B");
  EXPECT_EQ(all[3].spec.reservation_mbps, 50);
  for (const auto& r : all) {
    EXPECT_EQ(r.n_vms, 1);
    EXPECT_EQ(r.arrival_s, 0.0);
    EXPECT_TRUE(std::isinf(r.lifetime_s));
    EXPECT_EQ(r.shape.kind, arena::ProfileKind::kNone);
  }
}

// --- tree packer -----------------------------------------------------------

core::CloudConfig packer_config() {
  core::CloudConfig cfg = small_config();
  cfg.topology.tor_oversubscription = 1.0;  // ToR uplink = 4000 Mbps
  return cfg;
}

TEST(GreedyTreePacker, WholeBundleInOneRackCostsNoUplink) {
  core::VBundleCloud cloud(packer_config());
  baseline::GreedyTreePacker packer(&cloud.fleet(), &cloud.topology());
  auto res = packer.pack(4, host::VmSpec{200, 400});
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.hosts.size(), 4u);
  int rack = cloud.topology().rack_of(res.hosts[0]);
  for (int h : res.hosts) EXPECT_EQ(cloud.topology().rack_of(h), rack);
  EXPECT_TRUE(res.uplink_holds.empty());
}

TEST(GreedyTreePacker, SpreadPaysHoseModelUplinkBandwidth) {
  core::VBundleCloud cloud(packer_config());
  baseline::GreedyTreePacker packer(&cloud.fleet(), &cloud.topology());
  // 20 slots per rack (4 hosts x 1000/200); 25 VMs must span two racks.
  auto res = packer.pack(25, host::VmSpec{200, 400});
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.hosts.size(), 25u);
  // One pod, two racks, 20 + 5; each rack cut carries min(m, N-m)*B.
  int pod = cloud.topology().pod_of(res.hosts[0]);
  for (int h : res.hosts) EXPECT_EQ(cloud.topology().pod_of(h), pod);
  ASSERT_EQ(res.uplink_holds.size(), 2u);
  for (const auto& [link, mbps] : res.uplink_holds) {
    EXPECT_DOUBLE_EQ(mbps, std::min(20, 25 - 20) * 200.0);
  }
}

TEST(GreedyTreePacker, LedgerBlocksCongestedRacksAndFindsAnotherPod) {
  core::VBundleCloud cloud(packer_config());
  const net::Topology& topo = cloud.topology();
  baseline::GreedyTreePacker packer(&cloud.fleet(), &cloud.topology());
  // Exhaust pod 0's ToR uplink budgets: any spread into pod 0 now fails its
  // min(m, N-m)*B check, so the packer must use pod 1.
  packer.reserve_uplinks({{topo.tor_up(0), 3500.0}, {topo.tor_up(1), 3500.0}});
  auto res = packer.pack(25, host::VmSpec{200, 400});
  ASSERT_TRUE(res.ok);
  for (int h : res.hosts) EXPECT_EQ(cloud.topology().pod_of(h), 1);
  EXPECT_DOUBLE_EQ(packer.uplink_reserved(topo.tor_up(0)), 3500.0);
}

TEST(GreedyTreePacker, RejectsWhenTheCloudIsFull) {
  core::VBundleCloud cloud(packer_config());
  baseline::GreedyTreePacker packer(&cloud.fleet(), &cloud.topology());
  // Capacity is 16 hosts x 5 slots = 80 VMs of 200 Mbps.
  auto res = packer.pack(81, host::VmSpec{200, 400});
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.hosts.empty());
}

// --- fragmentation metric --------------------------------------------------

TEST(ReservationFragmentation, ZeroWhenAllFreeCapacityIsOneRack) {
  net::TopologyConfig tc;
  tc.num_pods = 1;
  tc.racks_per_pod = 4;
  tc.hosts_per_rack = 2;
  net::Topology topo(tc);
  std::vector<double> free(8, 0.0);
  free[0] = 500.0;
  free[1] = 300.0;  // rack 0 holds everything
  EXPECT_DOUBLE_EQ(net::reservation_fragmentation(topo, free), 0.0);
}

TEST(ReservationFragmentation, EvenSpreadApproachesOne) {
  net::TopologyConfig tc;
  tc.num_pods = 1;
  tc.racks_per_pod = 4;
  tc.hosts_per_rack = 2;
  net::Topology topo(tc);
  std::vector<double> free(8, 250.0);  // every rack holds 1/4 of the free pool
  EXPECT_DOUBLE_EQ(net::reservation_fragmentation(topo, free), 0.75);
}

TEST(ReservationFragmentation, FullCloudIsFullyFragmented) {
  net::TopologyConfig tc;
  tc.num_pods = 1;
  tc.racks_per_pod = 2;
  tc.hosts_per_rack = 2;
  net::Topology topo(tc);
  EXPECT_DOUBLE_EQ(
      net::reservation_fragmentation(topo, std::vector<double>(4, 0.0)), 1.0);
}

// --- admission -------------------------------------------------------------

arena::VcRequest bundle_request(std::uint64_t id, const std::string& tenant,
                                int n, double lifetime_s = 7200.0) {
  arena::VcRequest r;
  r.id = id;
  r.tenant = tenant;
  r.arrival_s = 0.0;
  r.lifetime_s = lifetime_s;
  r.n_vms = n;
  r.spec = host::VmSpec{200, 400};
  return r;
}

TEST(Admission, PriceIsVmHoursPlusBandwidthHours) {
  core::VBundleCloud cloud(small_config());
  arena::GreedyTreeEmbedder emb(&cloud);
  arena::AdmissionController::Config cfg;
  cfg.horizon_s = 86400.0;
  arena::AdmissionController adm(&cloud, &emb, nullptr, cfg);
  arena::VcRequest r = bundle_request(0, "t", 4, 7200.0);
  r.spec = host::VmSpec{100, 200};
  // 2 hours * 4 VMs * (0.04 + 0.1 Gbps * 0.29)
  EXPECT_NEAR(adm.price(r), 2.0 * 4.0 * (0.04 + 0.1 * 0.29), 1e-12);
  // Infinite lifetimes bill to the horizon.
  r.lifetime_s = std::numeric_limits<double>::infinity();
  EXPECT_NEAR(adm.price(r), 24.0 * 4.0 * (0.04 + 0.1 * 0.29), 1e-12);
}

TEST(Admission, AcceptsUntilFullTracksSloStreaksAndRecovers) {
  // 2 hosts x 1000 Mbps: exactly 10 slots of 200 Mbps.
  core::CloudConfig cfg = small_config();
  cfg.topology.num_pods = 1;
  cfg.topology.racks_per_pod = 1;
  cfg.topology.hosts_per_rack = 2;
  core::VBundleCloud cloud(cfg);
  arena::GreedyTreeEmbedder emb(&cloud);
  arena::AdmissionController::Config acfg;
  acfg.slo_reject_streak = 3;
  arena::AdmissionController adm(&cloud, &emb, nullptr, acfg);

  EXPECT_TRUE(adm.offer(bundle_request(0, "t", 4)));
  EXPECT_TRUE(adm.offer(bundle_request(1, "t", 4)));
  // 2 slots left; three 4-VM asks in a row fail -> one SLO violation.
  EXPECT_FALSE(adm.offer(bundle_request(2, "t", 4)));
  EXPECT_FALSE(adm.offer(bundle_request(3, "t", 4)));
  EXPECT_FALSE(adm.offer(bundle_request(4, "t", 4)));
  EXPECT_EQ(adm.slo_violations(), 1u);
  // A small ask still fits and resets the streak.
  EXPECT_TRUE(adm.offer(bundle_request(5, "t", 2)));
  EXPECT_EQ(adm.tenants().at("t").consecutive_rejects, 0u);

  const arena::AdmissionStats& s = adm.stats();
  EXPECT_EQ(s.offered, 6u);
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.rejected_capacity, 3u);
  EXPECT_EQ(s.vms_accepted, 10u);
  EXPECT_GT(s.revenue, 0.0);
  EXPECT_GT(s.offered_revenue, s.revenue);
}

TEST(Admission, DeparturesReleaseCapacityAndUplinkLedger) {
  core::CloudConfig cfg = packer_config();
  core::VBundleCloud cloud(cfg);
  arena::GreedyTreeEmbedder emb(&cloud);
  arena::AdmissionController adm(&cloud, &emb, nullptr, {});

  // 25 VMs spread over two racks -> uplink holds ledgered.
  EXPECT_TRUE(adm.offer(bundle_request(0, "t", 25, 100.0)));
  const net::Topology& topo = cloud.topology();
  double held = 0.0;
  for (int r = 0; r < topo.num_racks(); ++r) {
    held += emb.packer().uplink_reserved(topo.tor_up(r));
  }
  EXPECT_GT(held, 0.0);
  EXPECT_EQ(adm.active().size(), 1u);

  EXPECT_EQ(adm.process_departures(100.0), 1);
  EXPECT_TRUE(adm.active().empty());
  held = 0.0;
  for (int r = 0; r < topo.num_racks(); ++r) {
    held += emb.packer().uplink_reserved(topo.tor_up(r));
  }
  EXPECT_DOUBLE_EQ(held, 0.0);
  for (const auto& vm : cloud.fleet().all_vms()) EXPECT_TRUE(vm.destroyed);
  // Full capacity is back.
  EXPECT_TRUE(adm.offer(bundle_request(1, "t", 80, 100.0)));
}

// Records the first VM of every released bundle, in release order.
class ReleaseOrderEmbedder : public arena::GreedyTreeEmbedder {
 public:
  using GreedyTreeEmbedder::GreedyTreeEmbedder;
  void release(const arena::EmbedOutcome& o) override {
    released.push_back(o.vms.front());
    GreedyTreeEmbedder::release(o);
  }
  std::vector<host::VmId> released;
};

TEST(Admission, DeparturesLeaveInDepartTimeThenRequestIdOrder) {
  core::VBundleCloud cloud(packer_config());
  ReleaseOrderEmbedder emb(&cloud);
  arena::AdmissionController adm(&cloud, &emb, nullptr, {});
  // Ids 7 and 3 share a departure time; id 9 leaves earlier.
  ASSERT_TRUE(adm.offer(bundle_request(7, "a", 2, 100.0)));
  ASSERT_TRUE(adm.offer(bundle_request(3, "b", 2, 100.0)));
  ASSERT_TRUE(adm.offer(bundle_request(9, "c", 2, 50.0)));
  const std::vector<host::VmId> expect = {
      adm.active().at(9).outcome.vms.front(),
      adm.active().at(3).outcome.vms.front(),
      adm.active().at(7).outcome.vms.front()};
  EXPECT_EQ(adm.next_departure(), 50.0);
  EXPECT_EQ(adm.process_departures(100.0), 3);
  EXPECT_EQ(emb.released, expect);
  EXPECT_TRUE(std::isinf(adm.next_departure()));
}

TEST(Admission, MigratingBundleIsDeferredAndLeavesOnceSettled) {
  core::VBundleCloud cloud(packer_config());
  arena::GreedyTreeEmbedder emb(&cloud);
  arena::AdmissionController adm(&cloud, &emb, nullptr, {});
  ASSERT_TRUE(adm.offer(bundle_request(0, "t", 4, 100.0)));
  const host::VmId v = adm.active().at(0).outcome.vms[1];
  cloud.fleet().vm(v).migrating = true;

  EXPECT_EQ(adm.process_departures(120.0, 5.0), 0);
  EXPECT_EQ(adm.active().size(), 1u);
  EXPECT_EQ(adm.next_departure(), 125.0);
  EXPECT_EQ(adm.active().at(0).depart_s, 125.0);
  // Still on the wire at its new departure time: deferred again.
  EXPECT_EQ(adm.process_departures(125.0, 5.0), 0);
  EXPECT_EQ(adm.next_departure(), 130.0);

  cloud.fleet().vm(v).migrating = false;
  EXPECT_EQ(adm.process_departures(129.0), 0);  // not due yet
  EXPECT_EQ(adm.process_departures(130.0), 1);
  EXPECT_TRUE(adm.active().empty());
  EXPECT_TRUE(std::isinf(adm.next_departure()));
  EXPECT_TRUE(cloud.fleet().destroyed(v));
}

TEST(CompetitiveEmbedder, RejectsOnCostOnceUtilizationClimbs) {
  core::CloudConfig cfg = small_config();
  cfg.topology.num_pods = 1;
  cfg.topology.racks_per_pod = 1;
  cfg.topology.hosts_per_rack = 4;
  core::VBundleCloud cloud(cfg);
  arena::CompetitiveConfig ccfg;
  ccfg.mu = 16.0;
  ccfg.reject_threshold = 0.2;  // cuts off near u ~ 0.5
  arena::CompetitiveEmbedder emb(&cloud, ccfg);
  arena::AdmissionController adm(&cloud, &emb, nullptr, {});

  bool saw_cost_reject = false;
  for (std::uint64_t i = 0; i < 10; ++i) {
    adm.offer(bundle_request(i, "t", 2));
    if (adm.stats().rejected_cost > 0) {
      saw_cost_reject = true;
      break;
    }
  }
  EXPECT_TRUE(saw_cost_reject);
  // The gate kept headroom: utilization stays well below 1.
  EXPECT_LT(emb.utilization(), 0.75);
  EXPECT_EQ(adm.stats().rejected_capacity, 0u);
}

// --- closed-world equivalence (fig8 regression lock) ------------------------

std::uint64_t placement_hash(const core::VBundleCloud& cloud) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int host = 0; host < cloud.fleet().num_hosts(); ++host) {
    h = fnv1a(h, static_cast<std::uint64_t>(host));
    for (host::VmId v : cloud.fleet().host(host).vms()) {
      h = fnv1a(h, static_cast<std::uint64_t>(v));
    }
  }
  return h;
}

TEST(ClosedWorldArena, ReproducesTheHandRolledFig8LoopsExactly) {
  const std::vector<std::string> customers = {"IBM", "Dell"};
  const int kVmsPerPhase = 30;
  auto spec_at = [](int i) {
    return i % 2 == 0 ? host::VmSpec{100, 200} : host::VmSpec{200, 400};
  };
  // 32 hosts: both phases together load the fleet to ~56%, so placement
  // succeeds everywhere and the comparison is purely about ordering.
  core::CloudConfig ccfg = small_config();
  ccfg.topology.hosts_per_rack = 8;

  // Shape 1: the original bench/fig8_growth.cc loops, verbatim.
  core::VBundleCloud direct(ccfg);
  std::map<std::string, host::CustomerId> ids;
  std::map<std::string, std::vector<host::VmId>> direct_placed;
  for (const std::string& name : customers) {
    ids[name] = direct.add_customer(name);
    for (int i = 0; i < kVmsPerPhase; ++i) {
      auto r = direct.boot_vm(ids[name], spec_at(i));
      if (r.ok) direct_placed[name].push_back(r.vm);
    }
  }
  baseline::GreedyPlacer greedy(&direct.fleet());
  for (const std::string& name : customers) {
    for (int i = 0; i < kVmsPerPhase; ++i) {
      host::VmId v = direct.fleet().create_vm(ids[name], spec_at(i));
      if (greedy.place(v) >= 0) direct_placed[name].push_back(v);
    }
  }

  // Shape 2: the same schedule through the arena in closed-world mode.
  core::VBundleCloud clouded(ccfg);
  arena::ArenaConfig acfg;
  acfg.embedder = arena::EmbedderKind::kVBundle;
  acfg.demand_apply_interval_s = 0;
  arena::Arena a(&clouded, acfg);
  std::vector<arena::ClosedWorldSource::Batch> batches;
  for (const std::string& name : customers) {
    batches.push_back({name, kVmsPerPhase,
                       {host::VmSpec{100, 200}, host::VmSpec{200, 400}}});
  }
  arena::ClosedWorldSource phase1(batches);
  a.run_closed(phase1);
  arena::ClosedWorldSource phase2(batches, /*first_id=*/100);
  arena::FirstFitEmbedder first_fit(&clouded);
  a.run_closed(phase2, &first_fit);

  // Identical placements, identical per-tenant VM lists, identical sim time.
  EXPECT_EQ(placement_hash(direct), placement_hash(clouded));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.now()),
            std::bit_cast<std::uint64_t>(clouded.now()));
  for (const std::string& name : customers) {
    EXPECT_EQ(direct_placed[name], a.admission().placed_by_tenant().at(name))
        << name;
  }
}

// --- arena campaign smoke ---------------------------------------------------

TEST(Arena, OpenWorldCampaignRunsAndExportsMetrics) {
  core::VBundleCloud cloud(small_config());
  arena::ArenaConfig acfg;
  acfg.embedder = arena::EmbedderKind::kGreedyTree;
  acfg.generator.seed = 5;
  acfg.generator.base_arrival_per_s = 0.05;
  acfg.generator.mean_lifetime_s = 600.0;
  acfg.max_requests = 60;
  acfg.horizon_s = 4000.0;
  acfg.sample_every_s = 500.0;
  arena::Arena a(&cloud, acfg);
  a.run();

  const arena::AdmissionStats& s = a.admission().stats();
  EXPECT_EQ(s.offered, 60u);
  EXPECT_GT(s.accepted, 0u);
  EXPECT_GT(s.revenue, 0.0);
  EXPECT_GE(a.fragmentation(), 0.0);
  EXPECT_LE(a.fragmentation(), 1.0);

  obs::MetricsRegistry reg;
  a.collect_metrics(reg);
  EXPECT_TRUE(reg.has("arena.requests_offered"));
  EXPECT_TRUE(reg.has("arena.acceptance_rate"));
  EXPECT_TRUE(reg.has("arena.revenue"));
  EXPECT_TRUE(reg.has("arena.fragmentation"));
  EXPECT_TRUE(reg.has("arena.migration_churn"));
  EXPECT_EQ(reg.find_counter("arena.requests_offered")->value(), 60u);
}

TEST(Arena, RestoredCampaignReportsTheSameNextDeparture) {
  arena::ArenaConfig acfg;
  acfg.embedder = arena::EmbedderKind::kGreedyTree;
  acfg.generator.seed = 5;
  acfg.generator.base_arrival_per_s = 0.05;
  acfg.generator.mean_lifetime_s = 600.0;
  acfg.max_requests = 60;
  acfg.horizon_s = 4000.0;
  acfg.sample_every_s = 500.0;
  core::VBundleCloud cloud(small_config());
  arena::Arena a(&cloud, acfg);
  a.run_until(1500.0);
  ASSERT_FALSE(a.admission().active().empty());
  std::vector<std::uint8_t> image = a.save_checkpoint();

  core::VBundleCloud other(small_config());
  arena::Arena b(&other, acfg);
  b.restore_checkpoint(image);
  EXPECT_TRUE(std::isfinite(b.admission().next_departure()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.admission().next_departure()),
            std::bit_cast<std::uint64_t>(b.admission().next_departure()));

  a.run();
  b.run();
  EXPECT_EQ(a.admission().stats().decision_fingerprint,
            b.admission().stats().decision_fingerprint);
  EXPECT_EQ(a.admission().active().size(), b.admission().active().size());
}

TEST(Arena, RestoreUnderDifferentConfigThrows) {
  core::VBundleCloud cloud(small_config());
  arena::ArenaConfig acfg;
  acfg.embedder = arena::EmbedderKind::kGreedyTree;
  acfg.max_requests = 20;
  acfg.horizon_s = 1000.0;
  arena::Arena a(&cloud, acfg);
  a.run_until(500.0);
  std::vector<std::uint8_t> image = a.save_checkpoint();

  core::VBundleCloud other(small_config());
  acfg.embedder = arena::EmbedderKind::kCompetitive;
  arena::Arena b(&other, acfg);
  EXPECT_THROW(b.restore_checkpoint(image), ckpt::CkptError);
}

}  // namespace
}  // namespace vb
