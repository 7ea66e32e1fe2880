// Unit coverage for src/arena: generator streams, tree packing, admission
// bookkeeping and its departure index, fragmentation accounting, and the
// closed-world equivalence that makes bench/fig8_growth.cc a special case of
// the arena (the regression lock for that rewrite).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arena/arena.h"
#include "baselines/greedy_placement.h"
#include "ckpt/format.h"
#include "common/rng.h"
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
    EXPECT_NE(r->shape.kind, load::Demand::Kind::kNone);
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
    EXPECT_EQ(r.shape.kind, load::Demand::Kind::kNone);
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

// --- tree packer: cached slot counts vs a full scan ------------------------

// The tree packer's plan as computed before it cached slot counts: every
// call re-derives every host's slot count from the fleet.  It keeps its own
// uplink ledger and records which level planned the last call in `level`
// (1 one rack, 2 one pod, 3 cross-pod, 0 rejected).
class FullScanPacker {
 public:
  FullScanPacker(const host::Fleet* fleet, const net::Topology* topo)
      : fleet_(fleet),
        topo_(topo),
        uplink_reserved_(static_cast<std::size_t>(topo->num_links()), 0.0) {}

  baseline::GreedyTreePacker::Result pack(int n_vms, const host::VmSpec& spec);

  void reserve_uplinks(
      const std::vector<std::pair<net::LinkId, double>>& holds) {
    for (const auto& [l, mbps] : holds) {
      uplink_reserved_[static_cast<std::size_t>(l)] += mbps;
    }
  }
  void release_uplinks(
      const std::vector<std::pair<net::LinkId, double>>& holds) {
    for (const auto& [l, mbps] : holds) {
      uplink_reserved_[static_cast<std::size_t>(l)] -= mbps;
    }
  }
  std::uint64_t hosts_examined() const { return hosts_examined_; }

  int level = 0;

 private:
  static constexpr double kEps = 1e-9;

  double uplink_free(net::LinkId l) const {
    return topo_->link_capacity_mbps(l) -
           uplink_reserved_[static_cast<std::size_t>(l)];
  }

  const host::Fleet* fleet_;
  const net::Topology* topo_;
  std::vector<double> uplink_reserved_;
  std::uint64_t hosts_examined_ = 0;
};

baseline::GreedyTreePacker::Result FullScanPacker::pack(
    int n_vms, const host::VmSpec& spec) {
  baseline::GreedyTreePacker::Result res;
  level = 0;
  if (n_vms <= 0) return res;
  const int n = n_vms;
  const int nh = fleet_->num_hosts();
  const int nr = topo_->num_racks();
  const int np = topo_->num_pods();
  const double bw = spec.reservation_mbps;

  const double cpu = spec.cpu_reservation;
  const double ram = spec.ram_mb;
  const double bw_roomy = (n + 2) * bw;
  const double cpu_roomy = (n + 2) * cpu;
  const double ram_roomy = (n + 2) * ram;
  const int hosts_per_rack = topo_->config().hosts_per_rack;
  std::vector<int> slots(static_cast<std::size_t>(nh));
  std::vector<int> rack_slots(static_cast<std::size_t>(nr));
  for (int r = 0, h = 0; r < nr; ++r) {
    int pool = 0;
    for (const int end = h + hosts_per_rack; h < end; ++h) {
      const host::Host& hh = fleet_->host(h);
      double s = n;
      double x = hh.free_reservation_mbps() + kEps;
      if (bw > 0 && x < bw_roomy) s = std::min(s, std::floor(x / bw));
      x = hh.cpu_capacity() - hh.reserved_cpu() + kEps;
      if (cpu > 0 && x < cpu_roomy) s = std::min(s, std::floor(x / cpu));
      x = hh.mem_capacity_mb() - hh.reserved_mem_mb() + kEps;
      if (ram > 0 && x < ram_roomy) s = std::min(s, std::floor(x / ram));
      const int k = std::max(0, static_cast<int>(s));
      slots[static_cast<std::size_t>(h)] = k;
      pool += k;
    }
    rack_slots[static_cast<std::size_t>(r)] = pool;
  }
  res.hosts_examined = static_cast<std::uint64_t>(nh);
  hosts_examined_ += static_cast<std::uint64_t>(nh);

  auto fill_rack = [&](int r, int m) {
    int h = topo_->rack_first_host(r);
    int end = h + hosts_per_rack;
    for (; h < end && m > 0; ++h) {
      int take = std::min(slots[static_cast<std::size_t>(h)], m);
      for (int i = 0; i < take; ++i) res.hosts.push_back(h);
      m -= take;
    }
  };

  int best = -1;
  for (int r = 0; r < nr; ++r) {
    if (rack_slots[static_cast<std::size_t>(r)] < n) continue;
    if (best == -1 || rack_slots[static_cast<std::size_t>(r)] <
                          rack_slots[static_cast<std::size_t>(best)]) {
      best = r;
    }
  }
  if (best != -1) {
    fill_rack(best, n);
    res.ok = true;
    level = 1;
    return res;
  }

  auto plan_racks = [&](std::vector<int> racks,
                        int need) -> std::vector<std::pair<int, int>> {
    std::sort(racks.begin(), racks.end(), [&](int a, int b) {
      int sa = rack_slots[static_cast<std::size_t>(a)];
      int sb = rack_slots[static_cast<std::size_t>(b)];
      if (sa != sb) return sa > sb;
      return a < b;
    });
    std::vector<std::pair<int, int>> out;
    for (int r : racks) {
      if (need == 0) break;
      int m = std::min(rack_slots[static_cast<std::size_t>(r)], need);
      if (m == 0) continue;
      double uplink = std::min(m, n - m) * bw;
      if (uplink > uplink_free(topo_->tor_up(r)) + kEps) continue;
      out.emplace_back(r, m);
      need -= m;
    }
    if (need != 0) out.clear();
    return out;
  };

  auto commit_racks = [&](const std::vector<std::pair<int, int>>& plan) {
    for (const auto& [r, m] : plan) {
      double uplink = std::min(m, n - m) * bw;
      if (uplink > 0) res.uplink_holds.emplace_back(topo_->tor_up(r), uplink);
      fill_rack(r, m);
    }
  };

  const int racks_per_pod = topo_->config().racks_per_pod;
  std::vector<int> pod_slots(static_cast<std::size_t>(np), 0);
  for (int r = 0; r < nr; ++r) {
    pod_slots[static_cast<std::size_t>(r / racks_per_pod)] +=
        rack_slots[static_cast<std::size_t>(r)];
  }

  std::vector<int> pods;
  for (int p = 0; p < np; ++p) {
    if (pod_slots[static_cast<std::size_t>(p)] >= n) pods.push_back(p);
  }
  std::sort(pods.begin(), pods.end(), [&](int a, int b) {
    int sa = pod_slots[static_cast<std::size_t>(a)];
    int sb = pod_slots[static_cast<std::size_t>(b)];
    if (sa != sb) return sa < sb;
    return a < b;
  });
  for (int p : pods) {
    std::vector<int> racks;
    for (int r = p * racks_per_pod; r < (p + 1) * racks_per_pod; ++r) {
      racks.push_back(r);
    }
    auto plan = plan_racks(racks, n);
    if (!plan.empty()) {
      commit_racks(plan);
      res.ok = true;
      level = 2;
      return res;
    }
  }

  std::vector<int> all_pods(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) all_pods[static_cast<std::size_t>(p)] = p;
  std::sort(all_pods.begin(), all_pods.end(), [&](int a, int b) {
    int sa = pod_slots[static_cast<std::size_t>(a)];
    int sb = pod_slots[static_cast<std::size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  std::vector<std::pair<int, int>> pod_plan;
  int need = n;
  for (int p : all_pods) {
    if (need == 0) break;
    int m = std::min(pod_slots[static_cast<std::size_t>(p)], need);
    if (m == 0) continue;
    double agg = std::min(m, n - m) * bw;
    if (agg > uplink_free(topo_->agg_up(p)) + kEps) continue;
    pod_plan.emplace_back(p, m);
    need -= m;
  }
  if (need != 0) return res;

  std::vector<std::pair<int, int>> rack_plan;
  for (const auto& [p, m] : pod_plan) {
    std::vector<int> racks;
    for (int r = p * racks_per_pod; r < (p + 1) * racks_per_pod; ++r) {
      racks.push_back(r);
    }
    auto plan = plan_racks(racks, m);
    if (plan.empty()) return res;
    rack_plan.insert(rack_plan.end(), plan.begin(), plan.end());
  }
  for (const auto& [p, m] : pod_plan) {
    double agg = std::min(m, n - m) * bw;
    if (agg > 0) res.uplink_holds.emplace_back(topo_->agg_up(p), agg);
  }
  commit_racks(rack_plan);
  res.ok = true;
  level = 3;
  return res;
}

// Random bundles and churn through every Fleet reservation mutator, plus
// demand updates and an in-place checkpoint restore of an older image: the
// cached packer must plan exactly what the full scan plans, on every call.
TEST(GreedyTreePackerProperty, MatchesFullScanUnderChurn) {
  net::TopologyConfig tc;
  tc.num_pods = 2;
  tc.racks_per_pod = 4;
  tc.hosts_per_rack = 5;  // 40 hosts
  tc.host_nic_mbps = 1000.0;
  tc.tor_oversubscription = 2.0;  // 2500 Mbps ToR uplinks: spreads can block
  const net::Topology topo(tc);
  // Finite CPU and memory, so every resource binds for some spec.
  host::Fleet fleet(topo.num_hosts(), tc.host_nic_mbps, /*cpu_capacity=*/16.0,
                    /*mem_capacity_mb=*/8192.0);
  baseline::GreedyTreePacker packer(&fleet, &topo);
  FullScanPacker ref(&fleet, &topo);

  // Bandwidth binds for the first two specs, CPU for the third and memory
  // for the fourth, which shares the first's bandwidth.  1000/12 Mbps is not
  // a double: reserving and releasing it leaves residue on hosts' totals.
  const std::vector<host::VmSpec> menu = {
      {.reservation_mbps = 100.0, .limit_mbps = 200.0, .ram_mb = 512.0},
      {.reservation_mbps = 1000.0 / 12, .limit_mbps = 100.0, .ram_mb = 256.0},
      {.reservation_mbps = 50.0,
       .limit_mbps = 100.0,
       .ram_mb = 1024.0,
       .cpu_reservation = 4.0,
       .cpu_limit = 8.0},
      {.reservation_mbps = 100.0, .limit_mbps = 200.0, .ram_mb = 1536.0},
  };

  struct Bundle {
    std::vector<host::VmId> vms;  // not yet destroyed
    std::vector<std::pair<net::LinkId, double>> holds;
  };
  std::vector<Bundle> bundles;
  std::vector<std::pair<int, host::VmSpec>> holds;  // outstanding hold_all()s
  std::vector<std::uint8_t> image;                  // fleet checkpoint
  std::vector<Bundle> saved_bundles;
  std::vector<std::pair<int, host::VmSpec>> saved_holds;

  Rng rng(2024);
  auto random_host = [&] {
    return static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(topo.num_hosts())));
  };
  auto other_host = [&](int h) {
    int d = random_host();
    return d == h ? (d + 1) % topo.num_hosts() : d;
  };
  // A random live VM as (bundle, index), or {-1, -1} if there is none.
  auto random_vm = [&]() -> std::pair<int, int> {
    if (bundles.empty()) return {-1, -1};
    int b = static_cast<int>(rng.index(bundles.size()));
    if (bundles[static_cast<std::size_t>(b)].vms.empty()) return {-1, -1};
    return {b, static_cast<int>(
                   rng.index(bundles[static_cast<std::size_t>(b)].vms.size()))};
  };
  auto both_ledgers = [&](const Bundle& b, bool reserve) {
    if (reserve) {
      packer.reserve_uplinks(b.holds);
      ref.reserve_uplinks(b.holds);
    } else {
      packer.release_uplinks(b.holds);
      ref.release_uplinks(b.holds);
    }
  };

  int levels[4] = {0, 0, 0, 0};  // rejected, rack, pod, cross-pod
  const int kSteps = 4000;
  for (int step = 0; step < kSteps; ++step) {
    if (step % 500 == 100) {
      ckpt::Writer w;
      fleet.ckpt_save(w);
      image = w.finish();
      saved_bundles = bundles;
      saved_holds = holds;
    }
    if (step % 500 == 400) {
      // Roll the fleet back 300 steps in place; the ledgers follow.
      for (const Bundle& b : bundles) both_ledgers(b, false);
      ckpt::Reader r(image);
      fleet.ckpt_restore(r);
      bundles = saved_bundles;
      holds = saved_holds;
      for (const Bundle& b : bundles) both_ledgers(b, true);
    }
    const std::uint64_t op = rng.next_below(16);
    if (op < 6) {
      const int n = 1 + static_cast<int>(rng.next_below(40));
      const host::VmSpec& spec = menu[rng.index(menu.size())];
      baseline::GreedyTreePacker::Result got = packer.pack(n, spec);
      baseline::GreedyTreePacker::Result want = ref.pack(n, spec);
      ASSERT_EQ(got.ok, want.ok) << "step " << step << " n=" << n;
      ASSERT_EQ(got.hosts, want.hosts) << "step " << step << " n=" << n;
      ASSERT_EQ(got.uplink_holds, want.uplink_holds) << "step " << step;
      ASSERT_EQ(got.hosts_examined, want.hosts_examined) << "step " << step;
      ++levels[ref.level];
      if (!got.ok) continue;
      Bundle b;
      b.holds = got.uplink_holds;
      for (int h : got.hosts) {
        host::VmId v = fleet.create_vm(0, spec);
        b.vms.push_back(v);
        // A plan can exceed a host by float residue below kEps.
        if (!fleet.place(v, h)) break;
      }
      if (fleet.vm(b.vms.back()).host == -1) {
        for (host::VmId v : b.vms) fleet.destroy_vm(v);
        continue;
      }
      both_ledgers(b, true);
      bundles.push_back(std::move(b));
    } else if (op < 8) {
      if (bundles.empty()) continue;
      // The bundle departs.
      std::size_t i = rng.index(bundles.size());
      for (host::VmId v : bundles[i].vms) fleet.destroy_vm(v);
      both_ledgers(bundles[i], false);
      bundles[i] = std::move(bundles.back());
      bundles.pop_back();
    } else if (op == 8) {
      auto [b, i] = random_vm();
      if (b < 0) continue;
      host::VmId v = bundles[static_cast<std::size_t>(b)]
                         .vms[static_cast<std::size_t>(i)];
      if (fleet.vm(v).host == -1) {
        (void)fleet.place(v, random_host());
      } else {
        fleet.unplace(v);
      }
    } else if (op == 9 || op == 10) {
      auto [b, i] = random_vm();
      if (b < 0) continue;
      host::VmId v = bundles[static_cast<std::size_t>(b)]
                         .vms[static_cast<std::size_t>(i)];
      if (fleet.vm(v).host == -1) continue;
      int dst = other_host(fleet.vm(v).host);
      bool consume = op == 10;
      if (consume) fleet.hold_all(dst, fleet.vm(v).spec);
      fleet.migrate(v, dst, consume);
    } else if (op == 11) {
      holds.emplace_back(random_host(), menu[rng.index(menu.size())]);
      fleet.hold_all(holds.back().first, holds.back().second);
    } else if (op == 12) {
      if (holds.empty()) continue;
      std::size_t i = rng.index(holds.size());
      fleet.release_hold_all(holds[i].first, holds[i].second);
      holds[i] = holds.back();
      holds.pop_back();
    } else if (op == 13) {
      auto [b, i] = random_vm();
      if (b < 0) continue;
      std::vector<host::VmId>& vms = bundles[static_cast<std::size_t>(b)].vms;
      fleet.destroy_vm(vms[static_cast<std::size_t>(i)]);
      vms.erase(vms.begin() + i);
    } else {
      auto [b, i] = random_vm();
      if (b < 0) continue;
      fleet.set_demand(
          bundles[static_cast<std::size_t>(b)].vms[static_cast<std::size_t>(i)],
          rng.uniform(0.0, 300.0));
    }
  }
  EXPECT_EQ(packer.hosts_examined(), ref.hosts_examined());
  EXPECT_GT(levels[1], 0) << "no single-rack plan";
  EXPECT_GT(levels[2], 0) << "no single-pod plan";
  EXPECT_GT(levels[3], 0) << "no cross-pod plan";
  EXPECT_GT(levels[0], 0) << "no rejection";
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
  arena::AdmissionController adm(&cloud, &emb, cfg);
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
  arena::AdmissionController adm(&cloud, &emb, acfg);

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
  arena::AdmissionController adm(&cloud, &emb, {});

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
  arena::AdmissionController adm(&cloud, &emb, {});
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
  arena::AdmissionController adm(&cloud, &emb, {});
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
  arena::AdmissionController adm(&cloud, &emb, {});

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

// --- per-VM demand curves ---------------------------------------------------

// vm_demand(shape, ordinal, 5).at(t) for every active kind, VMs 0, 1 and 4
// of a 5-VM bundle, as bit patterns recorded from the virtual profile
// classes the Demand value type replaced: the per-VM phase stagger, slot
// length and seed, and each kind's arithmetic, must not move by one bit.
TEST(VmDemand, CurvesMatchRecordedBitPatterns) {
  const double times[] = {0.0,    100.0,      611.5, 700.0,
                          4321.0, 123456.789, 2.5e6};
  struct Row {
    int kind;
    int ordinal;
    std::uint64_t bits[7];
  };
  const Row rows[] = {
      {1, 0, {0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL}},
      {1, 1, {0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL}},
      {1, 4, {0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL, 0x406769999999999aULL}},
      {2, 0, {0x406769999999999aULL, 0x406769999999999aULL, 0x4029000000000000ULL, 0x4029000000000000ULL, 0x4029000000000000ULL, 0x406769999999999aULL, 0x406769999999999aULL}},
      {2, 1, {0x406769999999999aULL, 0x4029000000000000ULL, 0x4029000000000000ULL, 0x406769999999999aULL, 0x4029000000000000ULL, 0x406769999999999aULL, 0x4029000000000000ULL}},
      {2, 4, {0x406769999999999aULL, 0x406769999999999aULL, 0x4029000000000000ULL, 0x4029000000000000ULL, 0x4029000000000000ULL, 0x406769999999999aULL, 0x406769999999999aULL}},
      {3, 0, {0x40676368cf0f48eaULL, 0x4065a7126d6ff0ecULL, 0x40291f186196b3d8ULL, 0x4036b0bd634661f4ULL, 0x402966df3732c768ULL, 0x40675b518c3e2512ULL, 0x40645bb22ad87b36ULL}},
      {3, 1, {0x405e548849b41779ULL, 0x40535446b0be8b41ULL, 0x40530092014941e2ULL, 0x405cbf8b5260acb6ULL, 0x4053a591ac6abfa7ULL, 0x405d985dde524838ULL, 0x404edad6f9fb15abULL}},
      {3, 4, {0x40608c06788ee224ULL, 0x4064f989aaf38b30ULL, 0x405173ff3a968eb5ULL, 0x40428b62fadeced6ULL, 0x4050d48b182af7aaULL, 0x4060e51b922a8031ULL, 0x4066202a0c7b9affULL}},
      {4, 0, {0x4055fb970acd6825ULL, 0x4055fb970acd6825ULL, 0x402d095ba518e5f0ULL, 0x40433c88e845aab4ULL, 0x406589b2c8a7131bULL, 0x4058031285a1ed73ULL, 0x405a7960f9a8ac25ULL}},
      {4, 1, {0x4061db9ad6a01e40ULL, 0x4061db9ad6a01e40ULL, 0x405b7f5271225e04ULL, 0x404f69d69ee7863bULL, 0x40318f5011f147ecULL, 0x405327619e43e7c2ULL, 0x4058c76dae7195b6ULL}},
      {4, 4, {0x40650fc455c5c095ULL, 0x40650fc455c5c095ULL, 0x403ee1880906c583ULL, 0x405a97c3a60fd2afULL, 0x404bdddc0f6676ccULL, 0x4054f42354c8e8feULL, 0x40480c9a6f0081cdULL}},
  };
  for (const Row& row : rows) {
    load::Demand shape;
    shape.kind = static_cast<load::Demand::Kind>(row.kind);
    shape.low_mbps = 12.5;
    shape.high_mbps = 187.3;
    shape.period_s = 1234.5;
    shape.phase_s = 321.7;
    shape.seed = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 7; ++i) {
      double t = times[i];
      double got = arena::vm_demand(shape, row.ordinal, 5).at(t);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), row.bits[i])
          << "kind " << row.kind << " ordinal " << row.ordinal << " t " << t;
    }
  }
}

// After a campaign with churn, every live bundle VM carries its curve's
// value at the last demand pass, bit for bit, and every destroyed VM reads
// 0; the same holds for a campaign restored from a mid-run checkpoint.
void expect_demands_follow_live_bundles(const arena::Arena& a,
                                        const core::VBundleCloud& cloud,
                                        double t_last) {
  const host::Fleet& fleet = cloud.fleet();
  std::vector<bool> live(fleet.num_vms(), false);
  std::set<load::Demand::Kind> kinds;
  std::size_t checked = 0;
  for (const auto& [id, b] : a.admission().active()) {
    kinds.insert(b.shape.kind);
    for (std::size_t i = 0; i < b.outcome.vms.size(); ++i) {
      host::VmId v = b.outcome.vms[i];
      live[static_cast<std::size_t>(v)] = true;
      double want =
          arena::vm_demand(b.shape, static_cast<int>(i), b.n_vms).at(t_last);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fleet.vm(v).demand_mbps),
                std::bit_cast<std::uint64_t>(want))
          << "bundle " << id << " vm " << v;
      ++checked;
    }
  }
  std::size_t destroyed = 0;
  for (std::size_t v = 0; v < fleet.num_vms(); ++v) {
    const host::Vm& vm = fleet.vm(static_cast<host::VmId>(v));
    if (!vm.destroyed) continue;
    ++destroyed;
    EXPECT_FALSE(live[v]) << "vm " << v;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(vm.demand_mbps), 0u) << "vm " << v;
  }
  EXPECT_GE(checked, 20u);
  EXPECT_GE(destroyed, 50u);
  EXPECT_EQ(kinds.count(load::Demand::Kind::kNone), 0u);
  EXPECT_EQ(kinds.size(), 4u);
}

TEST(Arena, DemandPassSetsLiveBundleVmsFromTheirShapes) {
  arena::ArenaConfig acfg;
  acfg.embedder = arena::EmbedderKind::kGreedyTree;
  acfg.generator.seed = 17;
  acfg.generator.base_arrival_per_s = 0.05;
  acfg.generator.mean_lifetime_s = 600.0;
  acfg.max_requests = 400;
  acfg.horizon_s = 3000.0;
  acfg.demand_apply_interval_s = 60.0;
  core::VBundleCloud cloud(small_config());
  arena::Arena a(&cloud, acfg);
  // The passes run every 60 s from the time the campaign starts (the
  // simulator re-arms a periodic task at now + period).  Stopping at a pass
  // time runs that pass after every arrival before it.
  double t_last = cloud.now();
  while (t_last + 60.0 <= 3000.0) t_last += 60.0;
  a.run_until(1530.0);
  std::vector<std::uint8_t> image = a.save_checkpoint();
  a.run_until(t_last);
  expect_demands_follow_live_bundles(a, cloud, t_last);

  core::VBundleCloud other(small_config());
  arena::Arena b(&other, acfg);
  b.restore_checkpoint(image);
  b.run_until(t_last);
  expect_demands_follow_live_bundles(b, other, t_last);
  EXPECT_EQ(a.admission().stats().decision_fingerprint,
            b.admission().stats().decision_fingerprint);
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
