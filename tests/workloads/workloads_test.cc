// Demand curves, the SIPp call model, and scenario builders.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/stats.h"
#include "workloads/demand.h"
#include "workloads/scenario.h"
#include "workloads/sip_model.h"

namespace vb::load {
namespace {

TEST(Demand, ConstantIsFlat) {
  Demand d = Demand::constant(120.0);
  EXPECT_DOUBLE_EQ(d.at(0), 120.0);
  EXPECT_DOUBLE_EQ(d.at(1e6), 120.0);
}

TEST(Demand, NoneIsZero) {
  EXPECT_DOUBLE_EQ(Demand{}.at(0), 0.0);
  EXPECT_DOUBLE_EQ(Demand{}.at(1e6), 0.0);
}

TEST(Demand, PeakTroughSquareWave) {
  Demand d = Demand::peak_trough(10.0, 90.0, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(d.at(0.0), 90.0);
  EXPECT_DOUBLE_EQ(d.at(49.9), 90.0);
  EXPECT_DOUBLE_EQ(d.at(50.0), 10.0);
  EXPECT_DOUBLE_EQ(d.at(99.0), 10.0);
  EXPECT_DOUBLE_EQ(d.at(100.0), 90.0);  // periodic
}

TEST(Demand, PeakTroughPhaseShiftsRoles) {
  Demand hot = Demand::peak_trough(10.0, 90.0, 100.0, 0.0);
  Demand cold = Demand::peak_trough(10.0, 90.0, 100.0, 50.0);
  EXPECT_DOUBLE_EQ(hot.at(0), 90.0);
  EXPECT_DOUBLE_EQ(cold.at(0), 10.0);
  EXPECT_DOUBLE_EQ(hot.at(60), 10.0);
  EXPECT_DOUBLE_EQ(cold.at(60), 90.0);
}

TEST(Demand, PeakTroughRejectsBadParams) {
  EXPECT_THROW(Demand::peak_trough(1, 2, 0, 0), std::invalid_argument);
  EXPECT_THROW(Demand::peak_trough(5, 2, 10, 0), std::invalid_argument);
}

TEST(Demand, SineAndRandomSlotRejectBadParams) {
  EXPECT_THROW(Demand::sine(1, 2, 0, 0), std::invalid_argument);
  EXPECT_THROW(Demand::sine(5, 2, 10, 0), std::invalid_argument);
  EXPECT_THROW(Demand::random_slot(1, 2, 0, 7), std::invalid_argument);
  EXPECT_THROW(Demand::random_slot(5, 2, 10, 7), std::invalid_argument);
}

TEST(Demand, SineIsClampedAtZero) {
  // Midpoint 10, half-range 50: the wave dips to -40 and is clamped.
  Demand d = Demand::sine(-40.0, 60.0, 100.0, 0.0);
  double mn = 1e18, mx = -1e18;
  for (double t = 0; t < 100; t += 1) {
    double v = d.at(t);
    EXPECT_GE(v, 0.0);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_DOUBLE_EQ(mn, 0.0);
  EXPECT_NEAR(mx, 60.0, 1.0);
}

TEST(Demand, RandomSlotIsDeterministicAndPiecewiseConstant) {
  Demand d = Demand::random_slot(10.0, 20.0, 5.0, 77);
  EXPECT_DOUBLE_EQ(d.at(1.0), d.at(4.9));   // same slot
  EXPECT_DOUBLE_EQ(d.at(2.0), Demand::random_slot(10.0, 20.0, 5.0, 77).at(2.0));
  EXPECT_NE(Demand::random_slot(10, 20, 5, 1).at(0),
            Demand::random_slot(10, 20, 5, 2).at(0));
  for (double t = 0; t < 100; t += 3.1) {
    EXPECT_GE(d.at(t), 10.0);
    EXPECT_LE(d.at(t), 20.0);
  }
}

TEST(DemandModel, AppliesToFleet) {
  host::Fleet f(2, 1000.0);
  host::VmId a = f.create_vm(0, host::VmSpec{100, 500});
  host::VmId b = f.create_vm(0, host::VmSpec{100, 500});
  ASSERT_TRUE(f.place(a, 0));
  ASSERT_TRUE(f.place(b, 1));
  DemandModel m;
  m.assign(a, Demand::constant(42.0));
  m.assign(b, Demand::peak_trough(0.0, 200.0, 10.0, 0.0));
  m.apply(f, 0.0);
  EXPECT_DOUBLE_EQ(f.vm(a).demand_mbps, 42.0);
  EXPECT_DOUBLE_EQ(f.vm(b).demand_mbps, 200.0);
  m.apply(f, 6.0);
  EXPECT_DOUBLE_EQ(f.vm(b).demand_mbps, 0.0);
  EXPECT_DOUBLE_EQ(m.demand_of(a, 3.0), 42.0);
  EXPECT_DOUBLE_EQ(m.demand_of(999, 3.0), 0.0);
  EXPECT_TRUE(m.has(a));
  EXPECT_FALSE(m.has(999));
}

// The curve table: ids assigned out of order, a curve replaced, absent ids
// read as no curve, and a negative id refused.
TEST(DemandModel, TableAssignsAndReplaces) {
  host::Fleet f(2, 1000.0);
  std::vector<host::VmId> v;
  for (int i = 0; i < 5; ++i) {
    v.push_back(f.create_vm(0, host::VmSpec{100, 500}));
    ASSERT_TRUE(f.place(v.back(), i % 2));
    f.set_demand(v.back(), 7.0);
  }
  DemandModel m;
  m.assign(v[3], Demand::constant(30.0));
  m.assign(v[1], Demand::constant(10.0));
  EXPECT_TRUE(m.has(v[1]));
  EXPECT_TRUE(m.has(v[3]));
  EXPECT_FALSE(m.has(v[0]));
  EXPECT_FALSE(m.has(v[2]));  // inside the table, no curve
  EXPECT_FALSE(m.has(v[4]));  // past the end of the table
  EXPECT_FALSE(m.has(-1));

  m.assign(v[3], Demand::constant(33.0));
  EXPECT_DOUBLE_EQ(m.demand_of(v[3], 0.0), 33.0);
  EXPECT_DOUBLE_EQ(m.demand_of(v[1], 5.0), 10.0);
  EXPECT_DOUBLE_EQ(m.demand_of(v[2], 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.demand_of(v[4], 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.demand_of(-1, 0.0), 0.0);

  // apply() sets only the VMs with a curve.
  m.apply(f, 0.0);
  EXPECT_DOUBLE_EQ(f.vm(v[0]).demand_mbps, 7.0);
  EXPECT_DOUBLE_EQ(f.vm(v[1]).demand_mbps, 10.0);
  EXPECT_DOUBLE_EQ(f.vm(v[2]).demand_mbps, 7.0);
  EXPECT_DOUBLE_EQ(f.vm(v[3]).demand_mbps, 33.0);
  EXPECT_DOUBLE_EQ(f.vm(v[4]).demand_mbps, 7.0);

  EXPECT_THROW(m.assign(-1, Demand::constant(1.0)), std::invalid_argument);
  EXPECT_FALSE(m.has(v[0]));
}

TEST(Sip, RateRampMatchesPaper) {
  SipModel sip{SipConfig{}};
  EXPECT_DOUBLE_EQ(sip.offered_rate_cps(0), 800.0);
  EXPECT_DOUBLE_EQ(sip.offered_rate_cps(10), 900.0);
  EXPECT_DOUBLE_EQ(sip.offered_rate_cps(220), 3000.0);  // capped
  EXPECT_DOUBLE_EQ(sip.offered_rate_cps(1000), 3000.0);
}

TEST(Sip, NoFailuresWhenFullyProvisioned) {
  SipModel sip{SipConfig{}};
  for (int t = 0; t < 60; ++t) sip.step(sip.demand_mbps(sip.elapsed_s()));
  EXPECT_EQ(sip.stats().calls_failed, 0u);
  // Response times stay at base latency.
  for (double rt : sip.stats().response_samples_ms) {
    EXPECT_NEAR(rt, sip.config().base_response_ms, 1e-9);
  }
}

TEST(Sip, StarvationFailsCallsProportionally) {
  SipModel sip{SipConfig{}};
  double need = sip.demand_mbps(0);
  sip.step(need / 2.0);  // half the media bandwidth
  EXPECT_NEAR(static_cast<double>(sip.stats().calls_failed), 400.0, 1.0);
}

TEST(Sip, StarvationInflatesResponseTime) {
  SipModel good{SipConfig{}};
  SipModel bad{SipConfig{}};
  for (int t = 0; t < 30; ++t) {
    good.step(good.demand_mbps(good.elapsed_s()));
    bad.step(bad.demand_mbps(bad.elapsed_s()) * 0.6);
  }
  double good_p90 = percentile(good.stats().response_samples_ms, 90);
  double bad_p90 = percentile(bad.stats().response_samples_ms, 90);
  EXPECT_LT(good_p90, 10.0);
  EXPECT_GT(bad_p90, 30.0);
}

TEST(Sip, ZeroAllocationFailsEverything) {
  SipModel sip{SipConfig{}};
  sip.step(0.0);
  EXPECT_EQ(sip.stats().calls_failed, sip.stats().calls_attempted);
  EXPECT_THROW(sip.step(-1.0), std::invalid_argument);
}

TEST(Sip, FinishedAfterTotalCalls) {
  SipConfig cfg;
  cfg.total_calls = 1000;
  SipModel sip{cfg};
  EXPECT_FALSE(sip.finished());
  sip.step(sip.demand_mbps(0));  // 800 calls
  sip.step(sip.demand_mbps(1));  // +810
  EXPECT_TRUE(sip.finished());
}

TEST(Scenario, PaperCustomersAreTheFigure7Five) {
  const auto& names = paper_customers();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "Accolade");
  EXPECT_EQ(names[4], "Epyx");
}

TEST(Scenario, CustomerVmsAlternateSpecs) {
  host::Fleet f(4, 1000.0);
  auto vms = make_customer_vms(f, 2, 6);
  ASSERT_EQ(vms.size(), 6u);
  EXPECT_DOUBLE_EQ(f.vm(vms[0]).spec.reservation_mbps, 100.0);
  EXPECT_DOUBLE_EQ(f.vm(vms[1]).spec.reservation_mbps, 200.0);
  EXPECT_DOUBLE_EQ(f.vm(vms[1]).spec.limit_mbps, 400.0);
  for (auto v : vms) EXPECT_EQ(f.vm(v).customer, 2);
}

TEST(Scenario, ChattingFlowsAreIntraCustomerAndPlaced) {
  host::Fleet f(4, 1000.0);
  auto vms = make_customer_vms(f, 0, 8);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    ASSERT_TRUE(f.place(vms[i], static_cast<int>(i % 4)));
  }
  Rng rng(4);
  auto flows = chatting_flows(f, vms, 2, 25.0, rng);
  EXPECT_FALSE(flows.empty());
  for (const auto& fl : flows) {
    EXPECT_DOUBLE_EQ(fl.demand_mbps, 25.0);
    EXPECT_GE(fl.src, 0);
    EXPECT_LT(fl.src, 4);
  }
}

TEST(Scenario, SkewedUtilizationsSpanTheRange) {
  host::Fleet f(50, 1000.0);
  for (int h = 0; h < 50; ++h) {
    for (int i = 0; i < 5; ++i) {
      host::VmId v = f.create_vm(0, host::VmSpec{100, 400});
      ASSERT_TRUE(f.place(v, h));
    }
  }
  Rng rng(12);
  skew_host_utilizations(f, 0.2, 1.0, rng);
  auto snap = f.utilization_snapshot();
  Summary s = summarize(snap);
  EXPECT_GT(s.mean, 0.35);
  EXPECT_LT(s.mean, 0.85);
  EXPECT_GT(s.max, 0.8);
  EXPECT_LT(s.min, 0.45);
}

}  // namespace
}  // namespace vb::load
