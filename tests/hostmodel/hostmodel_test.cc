// TC shaper semantics (rate/ceil with borrowing) and fleet bookkeeping
// (admission, placement, migration, utilization snapshots, the cached
// free-capacity total).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hostmodel/host.h"
#include "hostmodel/tc_shaper.h"

namespace vb::host {
namespace {

TEST(Shaper, EmptyClasses) {
  EXPECT_TRUE(shape(1000.0, {}).empty());
}

TEST(Shaper, GuaranteeIsAlwaysMet) {
  // Two classes, both demanding their rate exactly.
  std::vector<ShaperClass> c{{300, 300, 300}, {700, 700, 700}};
  auto a = shape(1000.0, c);
  EXPECT_DOUBLE_EQ(a[0], 300.0);
  EXPECT_DOUBLE_EQ(a[1], 700.0);
}

TEST(Shaper, BorrowUpToCeil) {
  // One idle class leaves surplus; the other borrows up to its ceil.
  std::vector<ShaperClass> c{{500, 500, 0}, {100, 800, 900}};
  auto a = shape(1000.0, c);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 800.0);  // ceil caps the borrow below demand
}

TEST(Shaper, BorrowCappedByDemand) {
  std::vector<ShaperClass> c{{500, 500, 0}, {100, 800, 350}};
  auto a = shape(1000.0, c);
  EXPECT_DOUBLE_EQ(a[1], 350.0);
}

TEST(Shaper, SurplusSharedFairly) {
  // Both hungry beyond their rates; 400 surplus splits 200/200.
  std::vector<ShaperClass> c{{300, 1000, 1000}, {300, 1000, 1000}};
  auto a = shape(1000.0, c);
  EXPECT_NEAR(a[0], 500.0, 1e-6);
  EXPECT_NEAR(a[1], 500.0, 1e-6);
}

TEST(Shaper, UnevenCeilsWaterfill) {
  // Class 0 hits its ceil at 400; remaining surplus flows to class 1.
  std::vector<ShaperClass> c{{300, 400, 1000}, {300, 1000, 1000}};
  auto a = shape(1000.0, c);
  EXPECT_NEAR(a[0], 400.0, 1e-6);
  EXPECT_NEAR(a[1], 600.0, 1e-6);
}

TEST(Shaper, OverbookedGuaranteesScaleProportionally) {
  std::vector<ShaperClass> c{{800, 800, 800}, {400, 400, 400}};
  auto a = shape(600.0, c);
  EXPECT_NEAR(a[0], 400.0, 1e-6);
  EXPECT_NEAR(a[1], 200.0, 1e-6);
}

TEST(Shaper, RejectsInvalidInput) {
  EXPECT_THROW(shape(-1.0, {}), std::invalid_argument);
  EXPECT_THROW(shape(100.0, {{100, 50, 10}}), std::invalid_argument);  // ceil<rate
  EXPECT_THROW(shape(100.0, {{-1, 50, 10}}), std::invalid_argument);
  EXPECT_THROW(shape(100.0, {{10, 50, -2}}), std::invalid_argument);
}

// Property: allocations never exceed demand, ceil, or capacity; guarantees
// are honored when not overbooked.
class ShaperProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShaperProperty, Invariants) {
  Rng rng(GetParam());
  double cap = rng.uniform(100.0, 2000.0);
  std::vector<ShaperClass> classes;
  int n = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < n; ++i) {
    double rate = rng.uniform(0.0, 300.0);
    double ceil = rate + rng.uniform(0.0, 500.0);
    double demand = rng.uniform(0.0, 800.0);
    classes.push_back({rate, ceil, demand});
  }
  auto a = shape(cap, classes);
  double total = 0, guaranteed_need = 0;
  for (int i = 0; i < n; ++i) {
    auto u = static_cast<std::size_t>(i);
    EXPECT_GE(a[u], -1e-9);
    EXPECT_LE(a[u], classes[u].demand_mbps + 1e-9);
    EXPECT_LE(a[u], classes[u].ceil_mbps + 1e-9);
    total += a[u];
    guaranteed_need += std::min(classes[u].demand_mbps, classes[u].rate_mbps);
  }
  EXPECT_LE(total, cap + 1e-6);
  if (guaranteed_need <= cap) {
    for (int i = 0; i < n; ++i) {
      auto u = static_cast<std::size_t>(i);
      EXPECT_GE(a[u] + 1e-9,
                std::min(classes[u].demand_mbps, classes[u].rate_mbps));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShaperProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Fleet, CreateAndPlaceVm) {
  Fleet f(4, 1000.0);
  VmId v = f.create_vm(0, VmSpec{200, 400, 128});
  EXPECT_EQ(f.vm(v).host, -1);
  EXPECT_TRUE(f.place(v, 2));
  EXPECT_EQ(f.vm(v).host, 2);
  EXPECT_EQ(f.host(2).vm_count(), 1u);
  EXPECT_DOUBLE_EQ(f.host(2).reserved_mbps(), 200.0);
}

TEST(Fleet, AdmissionControlRejectsOverbooking) {
  Fleet f(1, 1000.0);
  VmId a = f.create_vm(0, VmSpec{600, 800});
  VmId b = f.create_vm(0, VmSpec{600, 800});
  EXPECT_TRUE(f.place(a, 0));
  EXPECT_FALSE(f.place(b, 0));  // 600 + 600 > 1000
  EXPECT_EQ(f.vm(b).host, -1);
}

TEST(Fleet, HoldsCountAgainstAdmission) {
  Fleet f(1, 1000.0);
  const VmSpec inbound{800, 800};
  f.hold_all(0, inbound);
  EXPECT_DOUBLE_EQ(f.host(0).reserved_mbps(), 800.0);
  VmId a = f.create_vm(0, VmSpec{300, 300});
  EXPECT_FALSE(f.place(a, 0));
  f.release_hold_all(0, inbound);
  EXPECT_DOUBLE_EQ(f.host(0).reserved_mem_mb(), 0.0);
  EXPECT_TRUE(f.place(a, 0));
}

TEST(Fleet, PlaceTwiceThrows) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{100, 100});
  ASSERT_TRUE(f.place(v, 0));
  EXPECT_THROW(f.place(v, 1), std::logic_error);
}

TEST(Fleet, UnplaceReleasesReservation) {
  Fleet f(1, 1000.0);
  VmId v = f.create_vm(0, VmSpec{400, 400});
  ASSERT_TRUE(f.place(v, 0));
  f.unplace(v);
  EXPECT_EQ(f.vm(v).host, -1);
  EXPECT_DOUBLE_EQ(f.host(0).reserved_mbps(), 0.0);
  EXPECT_THROW(f.unplace(v), std::logic_error);
}

TEST(Fleet, MigrateMovesReservation) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{400, 400});
  ASSERT_TRUE(f.place(v, 0));
  f.migrate(v, 1, /*consume_hold=*/false);
  EXPECT_EQ(f.vm(v).host, 1);
  EXPECT_DOUBLE_EQ(f.host(0).reserved_mbps(), 0.0);
  EXPECT_DOUBLE_EQ(f.host(1).reserved_mbps(), 400.0);
}

TEST(Fleet, MigrateConsumesHold) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{400, 400});
  ASSERT_TRUE(f.place(v, 0));
  f.hold_all(1, f.vm(v).spec);
  f.migrate(v, 1, /*consume_hold=*/true);
  // Hold replaced by the real reservation: still 400 total.
  EXPECT_DOUBLE_EQ(f.host(1).reserved_mbps(), 400.0);
  EXPECT_DOUBLE_EQ(f.host(1).reserved_mem_mb(), f.vm(v).spec.ram_mb);
}

TEST(Fleet, DemandAndUtilization) {
  Fleet f(1, 1000.0);
  VmId a = f.create_vm(0, VmSpec{100, 200});
  VmId b = f.create_vm(0, VmSpec{100, 300});
  ASSERT_TRUE(f.place(a, 0));
  ASSERT_TRUE(f.place(b, 0));
  f.set_demand(a, 150.0);
  f.set_demand(b, 500.0);  // clipped to limit 300
  EXPECT_DOUBLE_EQ(f.host_demand_mbps(0), 450.0);
  EXPECT_DOUBLE_EQ(f.host_utilization(0), 0.45);
  EXPECT_THROW(f.set_demand(a, -1.0), std::invalid_argument);
}

TEST(Fleet, ShapeHostAppliesReservationAndBorrow) {
  Fleet f(1, 1000.0);
  VmId a = f.create_vm(0, VmSpec{600, 600});
  VmId b = f.create_vm(0, VmSpec{100, 900});
  ASSERT_TRUE(f.place(a, 0));
  ASSERT_TRUE(f.place(b, 0));
  f.set_demand(a, 200.0);   // uses a third of its reservation
  f.set_demand(b, 900.0);   // wants to borrow
  auto shaped = f.shape_host(0);
  ASSERT_EQ(shaped.size(), 2u);
  EXPECT_DOUBLE_EQ(shaped[0].second, 200.0);
  EXPECT_DOUBLE_EQ(shaped[1].second, 800.0);  // 100 rate + 700 borrowed
}

TEST(Fleet, TotalsMatchAcrossHosts) {
  Fleet f(3, 1000.0);
  Rng rng(8);
  for (int i = 0; i < 9; ++i) {
    VmId v = f.create_vm(i % 2, VmSpec{100, 400});
    ASSERT_TRUE(f.place(v, i % 3));
    f.set_demand(v, rng.uniform(0.0, 500.0));
  }
  double demand = f.total_demand_mbps();
  double satisfied = f.total_satisfied_mbps();
  EXPECT_GT(demand, 0.0);
  EXPECT_LE(satisfied, demand + 1e-9);
  auto snap = f.utilization_snapshot();
  ASSERT_EQ(snap.size(), 3u);
  double sum = 0;
  for (double u : snap) sum += u * 1000.0;
  EXPECT_NEAR(sum, demand, 1e-6);
}

TEST(Fleet, RejectsBadConstruction) {
  EXPECT_THROW(Fleet(0, 1000.0), std::invalid_argument);
  EXPECT_THROW(Fleet(4, 0.0), std::invalid_argument);
  Fleet f(1, 100.0);
  EXPECT_THROW(f.create_vm(0, VmSpec{200, 100}), std::invalid_argument);
}

TEST(Fleet, DestroyVmReleasesResources) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{400, 600});
  ASSERT_TRUE(f.place(v, 0));
  f.set_demand(v, 300.0);
  f.destroy_vm(v);
  EXPECT_TRUE(f.destroyed(v));
  EXPECT_EQ(f.vm(v).host, -1);
  EXPECT_DOUBLE_EQ(f.host(0).reserved_mbps(), 0.0);
  EXPECT_DOUBLE_EQ(f.host_demand_mbps(0), 0.0);
  EXPECT_THROW(f.destroy_vm(v), std::logic_error);
}

TEST(Fleet, DestroyUnplacedVmIsFine) {
  Fleet f(1, 1000.0);
  VmId v = f.create_vm(0, VmSpec{100, 100});
  f.destroy_vm(v);
  EXPECT_TRUE(f.destroyed(v));
}

TEST(Fleet, DestroyedCapacityIsReusable) {
  Fleet f(1, 1000.0);
  VmId a = f.create_vm(0, VmSpec{800, 900});
  ASSERT_TRUE(f.place(a, 0));
  VmId b = f.create_vm(0, VmSpec{800, 900});
  EXPECT_FALSE(f.place(b, 0));
  f.destroy_vm(a);
  EXPECT_TRUE(f.place(b, 0));
}

TEST(Fleet, CannotDestroyMigratingVm) {
  Fleet f(2, 1000.0);
  VmId v = f.create_vm(0, VmSpec{100, 200});
  ASSERT_TRUE(f.place(v, 0));
  f.vm(v).migrating = true;
  EXPECT_THROW(f.destroy_vm(v), std::logic_error);
}

// --- cached free-capacity total ---------------------------------------------

// The fold free_reservation_total() must reproduce bit for bit: 64 fixed
// chunks of the per-host free vector, each summed from 0.0 in host order,
// chunk sums added in chunk order.
double chunked_fold(const std::vector<double>& v) {
  constexpr std::size_t kChunks = 64;
  double total = 0.0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    double s = 0.0;
    std::size_t hi = v.size() * (c + 1) / kChunks;
    for (std::size_t i = v.size() * c / kChunks; i < hi; ++i) s += v[i];
    total += s;
  }
  return total;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool total_matches_fold(const Fleet& f) {
  return bits(f.free_reservation_total()) ==
         bits(chunked_fold(f.free_reservation_snapshot()));
}

class FreeTotalProperty : public ::testing::TestWithParam<int> {};

// Random reservation churn through every Fleet mutator, with the cached
// total checked after each step.  37 hosts leave some chunks empty; 1000 is
// not a multiple of 64, so chunks differ in size.
TEST_P(FreeTotalProperty, BitIdenticalToChunkedFoldUnderChurn) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  Fleet f(n, 1000.0);
  std::vector<VmId> placed;
  std::vector<VmId> unplaced;
  std::vector<std::pair<int, VmSpec>> holds;  // outstanding hold_all()s

  auto random_host = [&] {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  auto random_spec = [&] {
    VmSpec s;
    s.reservation_mbps = rng.uniform(1.0, 150.0);
    s.limit_mbps = 2.0 * s.reservation_mbps;
    s.ram_mb = rng.uniform(64.0, 512.0);
    return s;
  };
  auto take = [&](std::vector<VmId>& from) {
    std::size_t i = rng.index(from.size());
    VmId v = from[i];
    from[i] = from.back();
    from.pop_back();
    return v;
  };
  auto other_host = [&](int h) {
    int d = random_host();
    return d == h ? (d + 1) % n : d;
  };

  ASSERT_TRUE(total_matches_fold(f)) << "fresh fleet";
  const int kSteps = 3000;
  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2) {
      // Restore into a fresh fleet whose cache already holds the all-free
      // total: restore must invalidate every chunk.
      ckpt::Writer w;
      f.ckpt_save(w);
      std::vector<std::uint8_t> image = w.finish();
      Fleet restored(n, 1000.0);
      ASSERT_TRUE(total_matches_fold(restored));
      ckpt::Reader r(image);
      restored.ckpt_restore(r);
      ASSERT_EQ(bits(restored.free_reservation_total()),
                bits(f.free_reservation_total()));
      f = std::move(restored);
    }
    const char* op = "";
    switch (rng.next_below(8)) {
      case 0: {
        op = "create+place";
        VmId v = f.create_vm(0, random_spec());
        (f.place(v, random_host()) ? placed : unplaced).push_back(v);
        break;
      }
      case 1: {
        if (unplaced.empty()) continue;
        op = "place";
        VmId v = take(unplaced);
        (f.place(v, random_host()) ? placed : unplaced).push_back(v);
        break;
      }
      case 2: {
        if (placed.empty()) continue;
        op = "unplace";
        VmId v = take(placed);
        f.unplace(v);
        unplaced.push_back(v);
        break;
      }
      case 3: {
        if (placed.empty()) continue;
        op = "migrate";
        VmId v = placed[rng.index(placed.size())];
        f.migrate(v, other_host(f.vm(v).host), /*consume_hold=*/false);
        break;
      }
      case 4: {
        if (placed.empty()) continue;
        op = "hold_all+migrate(consume_hold)";
        VmId v = placed[rng.index(placed.size())];
        int dst = other_host(f.vm(v).host);
        f.hold_all(dst, f.vm(v).spec);
        ASSERT_TRUE(total_matches_fold(f)) << "n=" << n << " step " << step;
        f.migrate(v, dst, /*consume_hold=*/true);
        break;
      }
      case 5: {
        if (placed.empty() && unplaced.empty()) continue;
        op = "destroy";
        bool pick_unplaced =
            placed.empty() || (!unplaced.empty() && rng.chance(0.3));
        f.destroy_vm(take(pick_unplaced ? unplaced : placed));
        break;
      }
      case 6: {
        op = "hold_all";
        holds.emplace_back(random_host(), random_spec());
        f.hold_all(holds.back().first, holds.back().second);
        break;
      }
      default: {
        if (holds.empty()) continue;
        op = "release_hold_all";
        std::size_t i = rng.index(holds.size());
        f.release_hold_all(holds[i].first, holds[i].second);
        holds[i] = holds.back();
        holds.pop_back();
        break;
      }
    }
    ASSERT_TRUE(total_matches_fold(f))
        << "n=" << n << " step " << step << " after " << op;
  }
  EXPECT_FALSE(placed.empty());
}

INSTANTIATE_TEST_SUITE_P(HostCounts, FreeTotalProperty,
                         ::testing::Values(37, 1000));

TEST(Vm, CappedDemandAndToString) {
  Vm v;
  v.id = 3;
  v.spec = VmSpec{100, 250};
  v.demand_mbps = 400.0;
  EXPECT_DOUBLE_EQ(v.capped_demand(), 250.0);
  v.demand_mbps = 100.0;
  EXPECT_DOUBLE_EQ(v.capped_demand(), 100.0);
  EXPECT_NE(v.to_string().find("vm3"), std::string::npos);
}

}  // namespace
}  // namespace vb::host
