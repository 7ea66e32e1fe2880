// Campaign-level determinism: the arena's contract that (seed ->
// accept/reject sequence, revenue, metrics) is bit-identical across a
// mid-campaign checkpoint/restore split, with or without an attached
// FaultPlan.  The split is where derived admission state (the departure
// index, the Fleet's cached free-capacity total) must be rebuilt exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arena/arena.h"
#include "obs/metrics.h"
#include "sim/fault_plan.h"
#include "vbundle/cloud.h"

namespace vb {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Outcome {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t revenue_bits = 0;
  std::uint64_t placement_hash = 0;
  std::uint64_t now_bits = 0;
  std::string metrics_json;
};

Outcome capture(arena::Arena& a) {
  Outcome out;
  const arena::AdmissionStats& s = a.admission().stats();
  out.offered = s.offered;
  out.accepted = s.accepted;
  out.fingerprint = s.decision_fingerprint;
  out.revenue_bits = std::bit_cast<std::uint64_t>(s.revenue);
  out.now_bits = std::bit_cast<std::uint64_t>(a.cloud().now());
  out.placement_hash = 1469598103934665603ULL;
  const host::Fleet& fleet = a.cloud().fleet();
  for (int h = 0; h < fleet.num_hosts(); ++h) {
    out.placement_hash =
        fnv1a(out.placement_hash, static_cast<std::uint64_t>(h));
    for (host::VmId v : fleet.host(h).vms()) {
      out.placement_hash =
          fnv1a(out.placement_hash, static_cast<std::uint64_t>(v));
    }
  }
  obs::MetricsRegistry reg;
  a.collect_metrics(reg);
  out.metrics_json = reg.to_json();
  return out;
}

void expect_same(const Outcome& a, const Outcome& b, const char* label) {
  EXPECT_EQ(a.offered, b.offered) << label;
  EXPECT_EQ(a.accepted, b.accepted) << label;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << label;
  EXPECT_EQ(a.revenue_bits, b.revenue_bits) << label;
  EXPECT_EQ(a.placement_hash, b.placement_hash) << label;
  EXPECT_EQ(a.now_bits, b.now_bits) << label;
  EXPECT_EQ(a.metrics_json, b.metrics_json) << label;
}

// --- 10k requests through the competitive embedder --------------------------

core::CloudConfig big_cloud_config() {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 8;
  cfg.topology.hosts_per_rack = 10;  // 160 servers
  cfg.seed = 11;
  return cfg;
}

arena::ArenaConfig campaign_config() {
  arena::ArenaConfig cfg;
  cfg.embedder = arena::EmbedderKind::kCompetitive;
  cfg.generator.seed = 17;
  cfg.generator.base_arrival_per_s = 2.0;
  cfg.generator.mean_lifetime_s = 600.0;
  cfg.generator.n_min = 2;
  cfg.generator.n_max = 12;
  cfg.max_requests = 10000;
  cfg.horizon_s = 20000.0;
  cfg.sample_every_s = 300.0;
  return cfg;
}

Outcome run_campaign() {
  core::VBundleCloud cloud(big_cloud_config());
  arena::Arena a(&cloud, campaign_config());
  a.run();
  return capture(a);
}

Outcome run_campaign_split(double split_at) {
  std::vector<std::uint8_t> image;
  {
    core::VBundleCloud cloud(big_cloud_config());
    arena::Arena a(&cloud, campaign_config());
    a.run_until(split_at);
    image = a.save_checkpoint();
  }
  core::VBundleCloud cloud(big_cloud_config());
  arena::Arena b(&cloud, campaign_config());
  b.restore_checkpoint(image);
  b.run();
  return capture(b);
}

TEST(ArenaDeterminism, TenThousandRequestsSurviveCheckpointSplit) {
  Outcome base = run_campaign();
  ASSERT_EQ(base.offered, 10000u);
  ASSERT_GT(base.accepted, 0u);
  ASSERT_LT(base.accepted, base.offered);  // contention: both paths exercised
  ASSERT_NE(base.fingerprint, 1469598103934665603ULL);
  expect_same(base, run_campaign_split(2500.0), "split @2500");
  expect_same(base, run_campaign_split(4100.0), "split @4100");
}

// --- v-Bundle embedder with shuffling, +/- FaultPlan ------------------------

core::CloudConfig vbundle_cloud_config() {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 5;
  cfg.topology.hosts_per_rack = 10;  // 100 servers
  cfg.seed = 77;
  return cfg;
}

arena::ArenaConfig vbundle_campaign_config() {
  arena::ArenaConfig cfg;
  cfg.embedder = arena::EmbedderKind::kVBundle;
  cfg.enable_rebalancing = true;
  cfg.generator.seed = 23;
  cfg.generator.base_arrival_per_s = 0.2;
  cfg.generator.mean_lifetime_s = 600.0;
  cfg.generator.n_min = 2;
  cfg.generator.n_max = 6;
  cfg.max_requests = 200;
  cfg.horizon_s = 2600.0;
  cfg.sample_every_s = 300.0;
  return cfg;
}

sim::FaultPlan make_fault_plan() {
  sim::FaultPlan plan(77);
  // Windows straddle the checkpoint split at t=1750 and sit well past the
  // last arrival (~1000s for 200 requests at 0.2/s): loss/duplication hits
  // the retransmit-hardened shuffle and departure traffic, not boot_vm's
  // placement protocol, which has no retry and would stall on a lost
  // request.
  plan.uniform_loss(0.02, 1600.0, 1900.0)
      .uniform_duplication(0.02, 1600.0, 1900.0);
  return plan;
}

/// Cloud plus (optionally) an attached fault plan, built identically for
/// uninterrupted and restored runs.
struct VWorld {
  explicit VWorld(bool with_faults) : cloud(vbundle_cloud_config()) {
    if (with_faults) {
      plan.emplace(make_fault_plan());
      cloud.pastry().set_fault_plan(&*plan);
    }
  }
  core::VBundleCloud cloud;
  std::optional<sim::FaultPlan> plan;
};

Outcome run_vbundle(bool with_faults) {
  VWorld w(with_faults);
  arena::Arena a(&w.cloud, vbundle_campaign_config());
  a.run();
  return capture(a);
}

Outcome run_vbundle_split(bool with_faults, double split_at) {
  std::vector<std::uint8_t> image;
  {
    VWorld w(with_faults);
    arena::Arena a(&w.cloud, vbundle_campaign_config());
    a.run_until(split_at);
    image = a.save_checkpoint();
  }
  VWorld w(with_faults);
  arena::Arena b(&w.cloud, vbundle_campaign_config());
  b.restore_checkpoint(image);
  b.run();
  return capture(b);
}

TEST(ArenaDeterminism, VBundleCampaignIsRepeatableAndSplitsCleanly) {
  for (bool faults : {false, true}) {
    const char* tag = faults ? "faults" : "no-faults";
    Outcome base = run_vbundle(faults);
    ASSERT_GT(base.accepted, 0u) << tag;
    expect_same(base, run_vbundle(faults), tag);
    // Checkpoint in the middle of the fault window / shuffle activity.
    expect_same(base, run_vbundle_split(faults, 1750.0), tag);
  }
}

}  // namespace
}  // namespace vb
