// Golden checkpoint images: three fixed scenarios are saved at fixed times
// and each image's size and FNV-1a-64 of its bytes are compared with
// constants recorded from a known-good build.  Round-trip tests only show
// that save and restore agree with each other; these pin the bytes, so a
// field written in another order, width or section fails here even when it
// still restores.  Optimized and -O0 builds write the same bytes for these
// states, so one set of constants serves every build type.
//
// A change that alters the image layout on purpose bumps ckpt::kVersion and
// records new constants here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arena/arena.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "vbundle/cloud.h"
#include "workloads/scenario.h"

namespace vb {
namespace {

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

// --- the 100-server rebalancing world of ckpt_resume_test, 20% loss --------

std::vector<std::uint8_t> lossy_rebalance_image() {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 5;
  cfg.topology.hosts_per_rack = 10;  // 100 servers
  cfg.topology.host_nic_mbps = 1000.0;
  cfg.seed = 42;
  core::VBundleCloud cloud(cfg);
  sim::FaultPlan plan(42);
  plan.uniform_loss(0.2, 1495.0, 1560.0)
      .uniform_duplication(0.02, 1495.0, 1560.0);
  cloud.pastry().set_fault_plan(&plan);
  obs::TraceRecorder trace;
  cloud.set_trace_recorder(&trace);
  host::CustomerId customer = cloud.add_customer("CkptResume");
  const int servers = cloud.fleet().num_hosts();
  for (int i = 0; i < servers * 10; ++i) {
    host::VmId v =
        cloud.fleet().create_vm(customer, host::VmSpec{20.0, 100.0});
    cloud.fleet().place(v, i % servers);
  }
  Rng rng(42);
  load::skew_host_utilizations(cloud.fleet(), 0.2, 0.95, rng);
  cloud.start_rebalancing(0.0, 1500.0);
  cloud.run_until(1503.0);
  return cloud.save_checkpoint();
}

// --- the two campaigns of arena_determinism_test ----------------------------

std::vector<std::uint8_t> competitive_campaign_image() {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 8;
  cfg.topology.hosts_per_rack = 10;  // 160 servers
  cfg.seed = 11;
  core::VBundleCloud cloud(cfg);
  arena::ArenaConfig acfg;
  acfg.embedder = arena::EmbedderKind::kCompetitive;
  acfg.generator.seed = 17;
  acfg.generator.base_arrival_per_s = 2.0;
  acfg.generator.mean_lifetime_s = 600.0;
  acfg.generator.n_min = 2;
  acfg.generator.n_max = 12;
  acfg.max_requests = 10000;
  acfg.horizon_s = 20000.0;
  acfg.sample_every_s = 300.0;
  arena::Arena a(&cloud, acfg);
  a.run_until(2500.0);
  return a.save_checkpoint();
}

std::vector<std::uint8_t> faulted_vbundle_campaign_image() {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 5;
  cfg.topology.hosts_per_rack = 10;  // 100 servers
  cfg.seed = 77;
  core::VBundleCloud cloud(cfg);
  sim::FaultPlan plan(77);
  plan.uniform_loss(0.02, 1600.0, 1900.0)
      .uniform_duplication(0.02, 1600.0, 1900.0);
  cloud.pastry().set_fault_plan(&plan);
  arena::ArenaConfig acfg;
  acfg.embedder = arena::EmbedderKind::kVBundle;
  acfg.enable_rebalancing = true;
  acfg.generator.seed = 23;
  acfg.generator.base_arrival_per_s = 0.2;
  acfg.generator.mean_lifetime_s = 600.0;
  acfg.generator.n_min = 2;
  acfg.generator.n_max = 6;
  acfg.max_requests = 200;
  acfg.horizon_s = 2600.0;
  acfg.sample_every_s = 300.0;
  arena::Arena a(&cloud, acfg);
  a.run_until(1750.0);
  return a.save_checkpoint();
}

TEST(CkptGolden, LossyRebalanceImageAtT1503) {
  std::vector<std::uint8_t> image = lossy_rebalance_image();
  EXPECT_EQ(image.size(), 857858u);
  EXPECT_EQ(fnv1a64(image), 0xd1f658dc2d4d45d8ULL);
}

TEST(CkptGolden, CompetitiveCampaignImageAtT2500) {
  std::vector<std::uint8_t> image = competitive_campaign_image();
  EXPECT_EQ(image.size(), 780054u);
  EXPECT_EQ(fnv1a64(image), 0xf1941a0ddb428d44ULL);
}

TEST(CkptGolden, FaultedVBundleCampaignImageAtT1750) {
  std::vector<std::uint8_t> image = faulted_vbundle_campaign_image();
  EXPECT_EQ(image.size(), 328813u);
  EXPECT_EQ(fnv1a64(image), 0xba6b241939a06e97ULL);
}

}  // namespace
}  // namespace vb
