// Property-based end-to-end invariants: under randomized topologies,
// demands, and rebalancing activity, the system must conserve resource
// accounting, respect capacities, and remain live — on a clean network
// AND under the canned chaos schedules (loss, duplication, jitter, delay
// spikes, rack partition) injected at the transport choke point.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "sim/fault_plan.h"
#include "vbundle/cloud.h"
#include "workloads/demand.h"

namespace vb::core {
namespace {

/// Boots a randomized fleet (customers, VM mixes, demand model) drawn from
/// `rng`.  Returns the number of successfully booted VMs.
int boot_random_fleet(VBundleCloud& cloud, load::DemandModel& model, Rng& rng) {
  int booted = 0;
  int n_customers = 2 + static_cast<int>(rng.index(3));
  for (int c = 0; c < n_customers; ++c) {
    auto cust = cloud.add_customer("cust-" + std::to_string(c));
    int vms = 3 + static_cast<int>(rng.index(8));
    for (int i = 0; i < vms; ++i) {
      double res = rng.uniform(20.0, 200.0);
      host::VmSpec spec{res, res + rng.uniform(0.0, 300.0),
                        64.0 + rng.uniform(0.0, 192.0)};
      auto r = cloud.boot_vm(cust, spec);
      if (!r.ok) continue;
      ++booted;
      model.assign(r.vm, load::Demand::random_slot(0.0, spec.limit_mbps, 120.0,
                                                   rng.next_u64()));
    }
  }
  return booted;
}

/// The invariant battery shared by the clean and chaos scenarios.
/// `require_live` skips the liveness check for runs that deliberately
/// stopped the periodic drivers before asserting.
void check_invariants(VBundleCloud& cloud, int booted, bool require_live) {
  // Invariant 1: every booted VM is placed on exactly one live host, and
  // host membership lists agree with VM records.
  int counted = 0;
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    for (host::VmId id : cloud.fleet().host(h).vms()) {
      EXPECT_EQ(cloud.fleet().vm(id).host, h);
      ++counted;
    }
  }
  EXPECT_EQ(counted, booted);

  // Invariant 2: once migrations drain, reservations on hosts equal the
  // reservations of hosted VMs (no leaked holds — a dropped or duplicated
  // handshake must never strand bandwidth), and never exceed capacity.
  EXPECT_EQ(cloud.migrations().in_flight(), 0u);
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    double expected = 0.0;
    for (host::VmId id : cloud.fleet().host(h).vms()) {
      expected += cloud.fleet().vm(id).spec.reservation_mbps;
    }
    EXPECT_NEAR(cloud.fleet().host(h).reserved_mbps(), expected, 1e-6) << h;
    EXPECT_LE(cloud.fleet().host(h).reserved_mbps(),
              cloud.fleet().host(h).capacity_mbps() + 1e-6)
        << h;
  }

  // Invariant 3: shaped allocations never exceed demand, limit, or NIC.
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    double total = 0.0;
    for (const auto& [id, mbps] : cloud.fleet().shape_host(h)) {
      const host::Vm& v = cloud.fleet().vm(id);
      EXPECT_LE(mbps, v.capped_demand() + 1e-6);
      EXPECT_LE(mbps, v.spec.limit_mbps + 1e-6);
      total += mbps;
    }
    EXPECT_LE(total, cloud.fleet().host(h).capacity_mbps() + 1e-6);
  }

  // Invariant 4: migration bookkeeping is consistent.  Under chaos the
  // retransmit/dedup layer must keep this exact: a duplicated accept must
  // not double-start, a lost one must not leave a half-recorded transfer.
  std::uint64_t in = 0, out = 0;
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    in += cloud.agent(h).stats().migrations_in;
    out += cloud.agent(h).stats().migrations_out;
  }
  EXPECT_EQ(in, out);
  EXPECT_EQ(out, cloud.migrations().completed());

  // Invariant 5: the simulator stays live (periodic tasks pending).
  if (require_live) {
    EXPECT_FALSE(cloud.simulator().idle());
  }
}

CloudConfig random_config(Rng& rng, std::uint64_t seed) {
  CloudConfig cfg;
  cfg.topology.num_pods = 1 + static_cast<int>(rng.index(2));
  cfg.topology.racks_per_pod = 2 + static_cast<int>(rng.index(3));
  cfg.topology.hosts_per_rack = 2 + static_cast<int>(rng.index(4));
  cfg.seed = seed;
  cfg.vbundle.threshold = rng.uniform(0.08, 0.3);
  cfg.vbundle.update_interval_s = 60.0;
  cfg.vbundle.rebalance_interval_s = 240.0;
  return cfg;
}

class CloudInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CloudInvariants, HoldUnderChurn) {
  std::uint64_t seed = GetParam();
  Rng rng(seed);
  VBundleCloud cloud(random_config(rng, seed));

  load::DemandModel model;
  int booted = boot_random_fleet(cloud, model, rng);
  ASSERT_GT(booted, 0);

  cloud.attach_demand_model(&model, 60.0);
  cloud.start_rebalancing(0.0, 240.0);
  cloud.run_until(3600.0);

  check_invariants(cloud, booted, /*require_live=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CloudInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- chaos schedules -------------------------------------------------------

sim::FaultPlan canned_schedule(int which, std::uint64_t seed) {
  switch (which) {
    case 0: return sim::FaultPlan::canned_loss(seed);
    case 1: return sim::FaultPlan::canned_partition(seed);
    default: return sim::FaultPlan::canned_storm(seed);
  }
}

/// (schedule index, seed).  Every canned schedule is quiescent after
/// t=2400, so the run stops rebalancing at t=3000 and drains to t=3600
/// before asserting: convergence, not mid-storm snapshots, is the claim.
class ChaosInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ChaosInvariants, HoldUnderCannedChaos) {
  auto [schedule, seed] = GetParam();
  SCOPED_TRACE("schedule=" + std::to_string(schedule) +
               " seed=" + std::to_string(seed));
  Rng rng(seed);
  VBundleCloud cloud(random_config(rng, seed));

  sim::FaultPlan plan = canned_schedule(schedule, seed);
  ASSERT_TRUE(plan.quiescent_after(2400.0)) << plan.describe();
  cloud.pastry().set_fault_plan(&plan);

  load::DemandModel model;
  int booted = boot_random_fleet(cloud, model, rng);
  ASSERT_GT(booted, 0);

  cloud.attach_demand_model(&model, 60.0);
  cloud.start_rebalancing(0.0, 240.0);
  cloud.run_until(3000.0);
  cloud.stop_rebalancing();
  cloud.run_until(3600.0);

  check_invariants(cloud, booted, /*require_live=*/false);
  cloud.pastry().set_fault_plan(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ChaosInvariants,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Range<std::uint64_t>(1, 21)));

// --- (seed, plan) replay determinism ---------------------------------------

/// Runs the acceptance scenario (2% loss + duplication + one 5 s rack
/// partition) and serializes every externally visible metric with full
/// precision.  Two invocations must agree byte-for-byte.
std::string chaos_run_fingerprint(std::uint64_t seed) {
  Rng rng(seed);
  VBundleCloud cloud(random_config(rng, seed));
  sim::FaultPlan plan = sim::FaultPlan::canned_partition(seed);
  cloud.pastry().set_fault_plan(&plan);

  load::DemandModel model;
  boot_random_fleet(cloud, model, rng);
  cloud.attach_demand_model(&model, 60.0);
  cloud.start_rebalancing(0.0, 240.0);
  cloud.run_until(3000.0);
  cloud.stop_rebalancing();
  cloud.run_until(3600.0);

  std::ostringstream os;
  os.precision(17);
  os << "plan " << plan.describe() << '\n';
  os << "msgs " << cloud.pastry().total_msgs() << " dropped "
     << cloud.pastry().total_fault_dropped() << " dups "
     << cloud.pastry().total_fault_dups() << '\n';
  os << "migrations " << cloud.migrations().completed() << '\n';
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    const ShuffleStats& s = cloud.agent(h).stats();
    os << "host " << h << " reserved " << cloud.fleet().host(h).reserved_mbps()
       << " vms " << cloud.fleet().host(h).vms().size() << " q " << s.queries_sent
       << '/' << s.queries_accepted << '/' << s.queries_declined << '/'
       << s.query_timeouts << '/' << s.lease_expiries << " mig "
       << s.migrations_in << '/' << s.migrations_out << '\n';
  }
  return os.str();
}

TEST(ChaosReplay, SameSeedAndPlanIsBitIdentical) {
  std::string a = chaos_run_fingerprint(11);
  std::string b = chaos_run_fingerprint(11);
  EXPECT_EQ(a, b);
  // Different seed must actually perturb the run (guards against the
  // fingerprint accidentally ignoring the chaos).
  EXPECT_NE(a, chaos_run_fingerprint(12));
}

}  // namespace
}  // namespace vb::core
