// End-to-end tests of the VBundleCloud facade: placement protocol behaviour
// (locality, spillover, nacks) and the decentralized rebalancing service
// (roles, migrations, convergence, conservation invariants).
#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "vbundle/cloud.h"

namespace vb::core {
namespace {

CloudConfig small_cloud(int pods = 1, int racks = 4, int hosts = 4) {
  CloudConfig cfg;
  cfg.topology.num_pods = pods;
  cfg.topology.racks_per_pod = racks;
  cfg.topology.hosts_per_rack = hosts;
  cfg.topology.host_nic_mbps = 1000.0;
  cfg.seed = 42;
  return cfg;
}

/// Sum of reservations on hosts must equal the reservations of placed VMs
/// once no migration is in flight (no leaked holds).
void expect_reservations_conserved(VBundleCloud& cloud) {
  double on_hosts = 0.0;
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    on_hosts += cloud.fleet().host(h).reserved_mbps();
  }
  double on_vms = 0.0;
  for (const auto& vm : cloud.fleet().all_vms()) {
    if (vm.host != -1) on_vms += vm.spec.reservation_mbps;
  }
  EXPECT_NEAR(on_hosts, on_vms, 1e-6);
}

TEST(Cloud, ConstructionBuildsOverlayAndTrees) {
  CloudConfig cfg = small_cloud();
  VBundleCloud cloud(cfg);
  EXPECT_EQ(cloud.num_hosts(), 16);
  EXPECT_EQ(cloud.pastry().size(), 16u);
  // Every agent subscribed to both aggregation topics.
  EXPECT_EQ(cloud.scribe().members_of(cloud.topics().bw_capacity).size(), 16u);
  EXPECT_EQ(cloud.scribe().members_of(cloud.topics().bw_demand).size(), 16u);
  EXPECT_TRUE(cloud.scribe().tree_consistent(cloud.topics().bw_capacity));
}

TEST(Cloud, BootLandsOnKeyOwner) {
  VBundleCloud cloud(small_cloud());
  auto c = cloud.add_customer("IBM");
  auto r = cloud.boot_vm(c, host::VmSpec{100, 200});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.visits, 1);
  pastry::NodeHandle owner = cloud.pastry().global_closest(cloud.customer_key(c));
  EXPECT_EQ(r.host, owner.host);
  EXPECT_EQ(cloud.fleet().vm(r.vm).host, r.host);
}

TEST(Cloud, CustomerKeyIsSha1OfName) {
  VBundleCloud cloud(small_cloud());
  auto c = cloud.add_customer("Accolade");
  EXPECT_EQ(cloud.customer_key(c), sha1_key("Accolade"));
  EXPECT_EQ(cloud.customer_name(c), "Accolade");
}

TEST(Cloud, SpilloverStaysPhysicallyClose) {
  VBundleCloud cloud(small_cloud(2, 4, 4));  // 32 hosts, 2 pods
  auto c = cloud.add_customer("Beenox");
  // Each host fits 2 such reservations (400 x 2 <= 1000); boot 8 VMs so the
  // key owner overflows into neighbors.
  auto results = cloud.boot_vms(c, host::VmSpec{400, 800}, 8);
  std::set<int> hosts_used;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok);
    hosts_used.insert(r.host);
  }
  EXPECT_GE(hosts_used.size(), 4u);
  // All hosts must share the key owner's pod (spillover is proximity-first).
  int anchor = cloud.pastry().global_closest(cloud.customer_key(c)).host;
  for (int h : hosts_used) {
    EXPECT_NE(cloud.topology().proximity(anchor, h), net::Proximity::kCrossPod)
        << "VM spilled across pods while the pod had room";
  }
  expect_reservations_conserved(cloud);
}

TEST(Cloud, DistinctCustomersLandOnDistinctAnchors) {
  VBundleCloud cloud(small_cloud(1, 8, 4));
  std::set<int> anchors;
  for (const char* name : {"Accolade", "Beenox", "Crystal", "Deck13", "Epyx"}) {
    auto c = cloud.add_customer(name);
    auto r = cloud.boot_vm(c, host::VmSpec{100, 200});
    ASSERT_TRUE(r.ok);
    anchors.insert(r.host);
  }
  // Five random keys over 32 hosts: collisions are possible but most must
  // be distinct (this seed gives all-distinct).
  EXPECT_GE(anchors.size(), 4u);
}

TEST(Cloud, BootNackWhenCloudIsFull) {
  VBundleCloud cloud(small_cloud(1, 2, 2));  // 4 hosts x 1000
  auto c = cloud.add_customer("Greedy");
  // 4 x 2 = 8 reservations of 500 fill everything.
  auto results = cloud.boot_vms(c, host::VmSpec{500, 800}, 8);
  for (const auto& r : results) ASSERT_TRUE(r.ok);
  auto r = cloud.boot_vm(c, host::VmSpec{500, 800});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.host, -1);
  EXPECT_EQ(cloud.fleet().vm(r.vm).host, -1);
  expect_reservations_conserved(cloud);
}

TEST(Cloud, SameCustomerVmsClusterTightlyVsRandomKeys) {
  VBundleCloud cloud(small_cloud(1, 16, 4));  // 64 hosts
  auto c = cloud.add_customer("Crystal");
  auto results = cloud.boot_vms(c, host::VmSpec{200, 400}, 16);
  std::set<int> racks;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok);
    racks.insert(cloud.topology().rack_of(r.host));
  }
  // 16 VMs x 200 = 3200 Mbps of reservations need >= 4 hosts = 1 rack, plus
  // spillover; they must not smear over more than 3 racks.
  EXPECT_LE(racks.size(), 3u);
}

TEST(Cloud, ProtocolJoinCloudAlsoPlacesCorrectly) {
  CloudConfig cfg = small_cloud(1, 4, 2);
  cfg.protocol_join = true;
  VBundleCloud cloud(cfg);
  auto c = cloud.add_customer("IBM");
  auto r = cloud.boot_vm(c, host::VmSpec{100, 200});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.host,
            cloud.pastry().global_closest(cloud.customer_key(c)).host);
}

// ---------------------------------------------------------------------------
// Rebalancing integration
// ---------------------------------------------------------------------------

struct RebalanceEnv {
  VBundleCloud cloud;
  std::vector<host::VmId> heavy, light;

  RebalanceEnv() : cloud(small_cloud(1, 2, 4)) {  // 8 hosts x 1000 Mbps
    // Hosts 0-1: six VMs at 150 Mbps each (util 0.9).
    for (int h = 0; h < 2; ++h) {
      for (int i = 0; i < 6; ++i) {
        host::VmId v = cloud.fleet().create_vm(0, host::VmSpec{100, 400});
        EXPECT_TRUE(cloud.fleet().place(v, h));
        cloud.fleet().set_demand(v, 150.0);
        heavy.push_back(v);
      }
    }
    // Hosts 2-7: one VM at 100 Mbps (util 0.1).
    for (int h = 2; h < 8; ++h) {
      host::VmId v = cloud.fleet().create_vm(0, host::VmSpec{100, 400});
      EXPECT_TRUE(cloud.fleet().place(v, h));
      cloud.fleet().set_demand(v, 100.0);
      light.push_back(v);
    }
  }
};

TEST(Rebalancing, RolesMatchMeanPlusThreshold) {
  RebalanceEnv env;
  env.cloud.start_rebalancing(0.0, 1e9);  // updates only, no shedding yet
  env.cloud.run_until(2000.0);            // several aggregation rounds
  // avg = (2*900 + 6*100) / 8000 = 0.30; threshold 0.183.
  auto avg = env.cloud.agent(0).cluster_avg_utilization();
  ASSERT_TRUE(avg.has_value());
  EXPECT_NEAR(*avg, 0.30, 1e-6);
  EXPECT_EQ(env.cloud.agent(0).role(), LoadRole::kShedder);
  EXPECT_EQ(env.cloud.agent(1).role(), LoadRole::kShedder);
  for (int h = 2; h < 8; ++h) {
    EXPECT_EQ(env.cloud.agent(h).role(), LoadRole::kReceiver) << h;
  }
  // Receivers joined the Less-Loaded tree.
  EXPECT_EQ(env.cloud.scribe().members_of(env.cloud.topics().less_loaded).size(),
            6u);
}

TEST(Rebalancing, RelievesHotServers) {
  RebalanceEnv env;
  double sd_before = env.cloud.utilization_stddev();
  env.cloud.start_rebalancing(0.0, 1500.0);
  env.cloud.run_until(6000.0);

  double sd_after = env.cloud.utilization_stddev();
  EXPECT_LT(sd_after, sd_before * 0.6);
  // Shedders dropped to (or below) the neighborhood of the average line.
  auto avg = env.cloud.agent(0).cluster_avg_utilization();
  ASSERT_TRUE(avg.has_value());
  for (int h = 0; h < 2; ++h) {
    EXPECT_LE(env.cloud.fleet().host_utilization(h),
              *avg + env.cloud.vbundle_config().threshold + 1e-6)
        << "host " << h << " still hot";
  }
  EXPECT_GT(env.cloud.migrations().completed(), 0u);
  EXPECT_EQ(env.cloud.migrations().in_flight(), 0u);
  expect_reservations_conserved(env.cloud);
}

TEST(Rebalancing, NoOscillationAfterConvergence) {
  RebalanceEnv env;
  env.cloud.start_rebalancing(0.0, 1500.0);
  env.cloud.run_until(6000.0);
  auto migrations_settled = env.cloud.migrations().completed();
  // Three more rebalancing rounds with unchanged demands: nothing moves.
  env.cloud.run_until(6000.0 + 3 * 1500.0);
  EXPECT_EQ(env.cloud.migrations().completed(), migrations_settled);
}

TEST(Rebalancing, ReceiversRespectOscillationGuard) {
  RebalanceEnv env;
  env.cloud.start_rebalancing(0.0, 1500.0);
  env.cloud.run_until(8000.0);
  auto avg = env.cloud.agent(0).cluster_avg_utilization();
  ASSERT_TRUE(avg.has_value());
  double ceiling = *avg + env.cloud.vbundle_config().threshold;
  for (int h = 0; h < env.cloud.num_hosts(); ++h) {
    EXPECT_LE(env.cloud.fleet().host_utilization(h), ceiling + 1e-6)
        << "host " << h << " pushed above the oscillation ceiling";
  }
}

TEST(Rebalancing, UniformLoadTriggersNothing) {
  VBundleCloud cloud(small_cloud(1, 2, 4));
  for (int h = 0; h < 8; ++h) {
    host::VmId v = cloud.fleet().create_vm(0, host::VmSpec{100, 400});
    ASSERT_TRUE(cloud.fleet().place(v, h));
    cloud.fleet().set_demand(v, 300.0);
  }
  cloud.start_rebalancing(0.0, 1500.0);
  cloud.run_until(6000.0);
  EXPECT_EQ(cloud.migrations().started(), 0u);
  for (int h = 0; h < 8; ++h) {
    EXPECT_EQ(cloud.agent(h).role(), LoadRole::kNeutral);
  }
}

TEST(Rebalancing, DemandModelDrivesDynamicImbalance) {
  CloudConfig cfg = small_cloud(1, 2, 4);
  cfg.vbundle.threshold = 0.1;
  VBundleCloud cloud(cfg);
  load::DemandModel model;
  // Hosts 0-1: four VMs that peak at 225 Mbps in the first half-period
  // (host demand 900); hosts 2-7: two VMs idling at 50 (host demand 100).
  // avg = 0.30, so hot hosts shed (0.9 > 0.4) and receivers can take one
  // 225-demand VM each without crossing the 0.4 oscillation ceiling.
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 4; ++i) {
      host::VmId v = cloud.fleet().create_vm(0, host::VmSpec{100, 500});
      ASSERT_TRUE(cloud.fleet().place(v, h));
      model.assign(v, std::make_unique<load::PeakTroughDemand>(50.0, 225.0,
                                                               10000.0, 0.0));
    }
  }
  for (int h = 2; h < 8; ++h) {
    for (int i = 0; i < 2; ++i) {
      host::VmId v = cloud.fleet().create_vm(0, host::VmSpec{100, 500});
      ASSERT_TRUE(cloud.fleet().place(v, h));
      model.assign(v, std::make_unique<load::PeakTroughDemand>(
                           50.0, 225.0, 10000.0, 5000.0));
    }
  }
  cloud.attach_demand_model(&model, 300.0);
  cloud.start_rebalancing(10.0, 1500.0);
  cloud.run_until(4800.0);  // inside first half-period
  // The two hot hosts should have been relieved by migration.
  EXPECT_GT(cloud.migrations().completed(), 0u);
  double max_util = 0.0;
  for (int h = 0; h < 8; ++h) {
    max_util = std::max(max_util, cloud.fleet().host_utilization(h));
  }
  EXPECT_LT(max_util, 0.9);
  expect_reservations_conserved(cloud);
}

TEST(Rebalancing, ShufflerStatsAreCharged) {
  RebalanceEnv env;
  env.cloud.start_rebalancing(0.0, 1500.0);
  env.cloud.run_until(6000.0);
  std::uint64_t queries = 0, accepted = 0, inbound = 0, outbound = 0;
  for (int h = 0; h < env.cloud.num_hosts(); ++h) {
    const ShuffleStats& s = env.cloud.agent(h).stats();
    queries += s.queries_sent;
    accepted += s.queries_accepted;
    inbound += s.migrations_in;
    outbound += s.migrations_out;
  }
  EXPECT_GT(queries, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(inbound, outbound);
  EXPECT_EQ(outbound, env.cloud.migrations().completed());
}

}  // namespace
}  // namespace vb::core
