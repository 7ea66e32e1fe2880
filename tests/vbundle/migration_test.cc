#include "vbundle/migration.h"

#include <gtest/gtest.h>

namespace vb::core {
namespace {

struct Env {
  sim::Simulator sim;
  host::Fleet fleet{4, 1000.0};
  MigrationConfig cfg;
  Env() { cfg.rate_mbps = 1024.0; cfg.downtime_s = 0.5; }
};

TEST(Migration, DurationScalesWithRam) {
  Env e;
  MigrationManager mgr(&e.sim, &e.fleet, e.cfg);
  host::Vm small;
  small.spec.ram_mb = 128;
  host::Vm big;
  big.spec.ram_mb = 1024;
  EXPECT_DOUBLE_EQ(mgr.duration_s(small), 128 * 8 / 1024.0 + 0.5);
  EXPECT_GT(mgr.duration_s(big), mgr.duration_s(small));
}

TEST(Migration, StartMovesVmAtCutover) {
  Env e;
  MigrationManager mgr(&e.sim, &e.fleet, e.cfg);
  host::VmId v = e.fleet.create_vm(0, host::VmSpec{100, 200, 128});
  ASSERT_TRUE(e.fleet.place(v, 0));
  e.fleet.hold_all(2, e.fleet.vm(v).spec);

  int done_host = -1;
  sim::SimTime eta = mgr.start(v, 2, [&](host::VmId, int dst) { done_host = dst; });
  EXPECT_TRUE(e.fleet.vm(v).migrating);
  EXPECT_EQ(e.fleet.vm(v).host, 0);  // still at source pre-cutover
  EXPECT_EQ(mgr.in_flight(), 1u);

  e.sim.run_until(eta + 0.001);
  EXPECT_EQ(done_host, 2);
  EXPECT_EQ(e.fleet.vm(v).host, 2);
  EXPECT_FALSE(e.fleet.vm(v).migrating);
  EXPECT_EQ(mgr.completed(), 1u);
  // Hold converted to real reservation: total reserved stays 100.
  EXPECT_DOUBLE_EQ(e.fleet.host(2).reserved_mbps(), 100.0);
}

TEST(Migration, RejectsUnplacedOrDoubleMigration) {
  Env e;
  MigrationManager mgr(&e.sim, &e.fleet, e.cfg);
  host::VmId v = e.fleet.create_vm(0, host::VmSpec{100, 200});
  EXPECT_THROW(mgr.start(v, 1, nullptr), std::logic_error);
  ASSERT_TRUE(e.fleet.place(v, 0));
  e.fleet.hold_all(1, e.fleet.vm(v).spec);
  mgr.start(v, 1, nullptr);
  EXPECT_THROW(mgr.start(v, 1, nullptr), std::logic_error);
}

TEST(Migration, CostBenefitGate) {
  Env e;
  e.cfg.cost_factor = 1.0;
  e.cfg.stability_window_s = 10.0;
  MigrationManager mgr(&e.sim, &e.fleet, e.cfg);
  host::Vm v;
  v.spec.ram_mb = 128;  // cost = 1024 megabits
  // benefit = deficit * 10 s; gate needs benefit >= 1024.
  EXPECT_FALSE(mgr.worth_migrating(v, 50.0));    // 500 < 1024
  EXPECT_TRUE(mgr.worth_migrating(v, 200.0));    // 2000 >= 1024
}

TEST(Migration, GateDisabledByDefault) {
  Env e;
  MigrationManager mgr(&e.sim, &e.fleet, e.cfg);
  host::Vm v;
  EXPECT_TRUE(mgr.worth_migrating(v, 0.0));
}

TEST(Migration, StatsAccumulate) {
  Env e;
  MigrationManager mgr(&e.sim, &e.fleet, e.cfg);
  for (int i = 0; i < 3; ++i) {
    host::VmId v = e.fleet.create_vm(0, host::VmSpec{50, 100, 256});
    ASSERT_TRUE(e.fleet.place(v, 0));
    e.fleet.hold_all(1, e.fleet.vm(v).spec);
    mgr.start(v, 1, nullptr);
  }
  e.sim.run_to_completion();
  EXPECT_EQ(mgr.started(), 3u);
  EXPECT_EQ(mgr.completed(), 3u);
  EXPECT_DOUBLE_EQ(mgr.total_downtime_s(), 1.5);
  EXPECT_DOUBLE_EQ(mgr.total_megabits_moved(), 3 * 256 * 8.0);
}

TEST(Migration, RejectsBadConfig) {
  Env e;
  MigrationConfig bad = e.cfg;
  bad.rate_mbps = 0;
  EXPECT_THROW(MigrationManager(&e.sim, &e.fleet, bad), std::invalid_argument);
  EXPECT_THROW(MigrationManager(nullptr, &e.fleet, e.cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace vb::core
