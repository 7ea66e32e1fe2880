// Scale smoke (slow tier, Release builds only — see tests/CMakeLists.txt):
// an arena campaign on a 32k-server cloud.  Cloud construction goes through
// pastry bootstrap_bulk (the oracle join path), so this doubles as a check
// that the bulk-join bootstrap and the arena compose at datacenter scale.
#include <gtest/gtest.h>

#include "arena/arena.h"
#include "vbundle/cloud.h"

namespace vb {
namespace {

TEST(ArenaScale, CampaignOn32kServers) {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 128;
  cfg.topology.racks_per_pod = 10;
  cfg.topology.hosts_per_rack = 25;  // 32000 servers
  cfg.seed = 3;
  cfg.protocol_join = false;  // oracle join: pastry bootstrap_bulk
  core::VBundleCloud cloud(cfg);
  ASSERT_EQ(cloud.num_hosts(), 32000);

  arena::ArenaConfig acfg;
  acfg.embedder = arena::EmbedderKind::kCompetitive;
  acfg.generator.seed = 9;
  acfg.generator.base_arrival_per_s = 5.0;
  acfg.generator.mean_lifetime_s = 300.0;
  acfg.max_requests = 2000;
  acfg.horizon_s = 2000.0;
  acfg.sample_every_s = 500.0;
  acfg.demand_apply_interval_s = 0;  // placement study; skip demand churn
  arena::Arena a(&cloud, acfg);
  a.run();

  const arena::AdmissionStats& s = a.admission().stats();
  EXPECT_EQ(s.offered, 2000u);
  // 32k servers dwarf 2000 short-lived bundles: everything placeable fits.
  EXPECT_GT(s.acceptance_rate(), 0.9);
  EXPECT_GT(s.revenue, 0.0);
  EXPECT_GE(a.fragmentation(), 0.0);
  EXPECT_LE(a.fragmentation(), 1.0);
  EXPECT_GT(a.utilization(), 0.0);
}

}  // namespace
}  // namespace vb
