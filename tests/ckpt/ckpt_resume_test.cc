// Bit-identical resume: a run that checkpoints mid-flight and a fresh
// process that restores the image must both end in exactly the state of a
// run that never stopped — same event counts, same placement, same
// utilization bits, same metrics JSON, same trace timeline.  Verified with
// and without a FaultPlan; the checkpoint lands between a rebalance round
// and its migrations settling, so in-flight shuffle state (query timers,
// accept leases, live migrations, retransmit queues) rides the image.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hostmodel/host.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "vbundle/cloud.h"
#include "workloads/scenario.h"

namespace vb {
namespace {

constexpr double kSaveAt = 1503.0;  // mid-shuffle: rebalance fires at ~1500
constexpr double kEnd = 1800.0;

core::CloudConfig make_config(std::uint64_t seed) {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 2;
  cfg.topology.racks_per_pod = 5;
  cfg.topology.hosts_per_rack = 10;  // 100 servers
  cfg.topology.host_nic_mbps = 1000.0;
  cfg.seed = seed;
  return cfg;
}

sim::FaultPlan make_fault_plan(std::uint64_t seed, double loss) {
  sim::FaultPlan plan(seed);
  // Windows straddle the checkpoint so the serial decide() Rng stream is
  // mid-flight in the image.
  plan.uniform_loss(loss, 1495.0, 1560.0).uniform_duplication(0.02, 1495.0, 1560.0);
  return plan;
}

/// Deterministic setup shared by all three run shapes.  Does not run the
/// simulator beyond what the cloud constructor and boot-less placement do.
struct World {
  explicit World(std::uint64_t seed, bool with_faults, bool place_vms,
                 double loss = 0.02)
      : cloud(make_config(seed)) {
    if (with_faults) {
      plan.emplace(make_fault_plan(seed, loss));
      cloud.pastry().set_fault_plan(&*plan);
    }
    cloud.set_trace_recorder(&trace);
    customer = cloud.add_customer("CkptResume");
    if (place_vms) {
      const int servers = cloud.fleet().num_hosts();
      for (int i = 0; i < servers * 10; ++i) {
        host::VmId v = cloud.fleet().create_vm(customer, host::VmSpec{20.0, 100.0});
        cloud.fleet().place(v, i % servers);
      }
      Rng rng(seed);
      load::skew_host_utilizations(cloud.fleet(), 0.2, 0.95, rng);
    }
    cloud.start_rebalancing(0.0, 1500.0);
  }

  core::VBundleCloud cloud;
  std::optional<sim::FaultPlan> plan;
  obs::TraceRecorder trace;
  host::CustomerId customer = -1;
};

struct Outcome {
  std::string metrics_json;
  std::vector<obs::TraceEvent> trace_events;
  std::uint64_t placement_hash = 0;
  std::uint64_t utilization_hash = 0;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

Outcome finish(World& w) {
  w.cloud.run_until(kEnd);
  w.cloud.stop_rebalancing();
  Outcome out;
  obs::MetricsRegistry reg;
  w.cloud.collect_metrics(reg);
  out.metrics_json = reg.to_json();
  out.trace_events = w.trace.snapshot();
  out.placement_hash = 1469598103934665603ULL;
  for (int h = 0; h < w.cloud.fleet().num_hosts(); ++h) {
    out.placement_hash = fnv1a(out.placement_hash, static_cast<std::uint64_t>(h));
    for (host::VmId v : w.cloud.fleet().host(h).vms()) {
      out.placement_hash = fnv1a(out.placement_hash, static_cast<std::uint64_t>(v));
    }
  }
  out.utilization_hash = 1469598103934665603ULL;
  for (double u : w.cloud.fleet().utilization_snapshot()) {
    out.utilization_hash =
        fnv1a(out.utilization_hash, std::bit_cast<std::uint64_t>(u));
  }
  return out;
}

void expect_same_outcome(const Outcome& a, const Outcome& b,
                         const char* label) {
  EXPECT_EQ(a.metrics_json, b.metrics_json) << label;
  EXPECT_EQ(a.placement_hash, b.placement_hash) << label;
  EXPECT_EQ(a.utilization_hash, b.utilization_hash) << label;
  ASSERT_EQ(a.trace_events.size(), b.trace_events.size()) << label;
  for (std::size_t i = 0; i < a.trace_events.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.trace_events[i].ts_s),
              std::bit_cast<std::uint64_t>(b.trace_events[i].ts_s))
        << label << " event " << i;
    EXPECT_EQ(a.trace_events[i].trace_id, b.trace_events[i].trace_id)
        << label << " event " << i;
    EXPECT_EQ(a.trace_events[i].node, b.trace_events[i].node)
        << label << " event " << i;
    EXPECT_STREQ(a.trace_events[i].name, b.trace_events[i].name)
        << label << " event " << i;
    if (::testing::Test::HasFailure()) break;
  }
}

/// Runs the three shapes and returns the checkpoint image they share.
std::vector<std::uint8_t> run_resume_matrix(std::uint64_t seed,
                                            bool with_faults,
                                            double loss = 0.02) {
  // Shape 1: never interrupted.
  World uninterrupted(seed, with_faults, /*place_vms=*/true, loss);
  Outcome base = finish(uninterrupted);

  // Shape 2: same run, but a checkpoint is taken mid-flight.  Saving must
  // not perturb anything downstream.
  World saver(seed, with_faults, /*place_vms=*/true, loss);
  saver.cloud.run_until(kSaveAt);
  std::vector<std::uint8_t> image = saver.cloud.save_checkpoint();
  EXPECT_FALSE(image.empty());
  Outcome with_save = finish(saver);
  expect_same_outcome(base, with_save, "with-save vs uninterrupted");

  // Shape 3: a fresh world restores the image and runs to the end.  The
  // reconstruction replays the deterministic setup but skips VM placement —
  // the fleet section carries it.
  World restored(seed, with_faults, /*place_vms=*/false, loss);
  restored.cloud.restore_checkpoint(image);
  Outcome resumed = finish(restored);
  expect_same_outcome(base, resumed, "restored vs uninterrupted");

  // The scenario must actually have had shuffle machinery in flight.
  EXPECT_NE(base.metrics_json.find("vbundle.queries_sent"), std::string::npos);
  return image;
}

/// True if `image` holds `name` as the payload codecs write it: a u32
/// length, then the bytes.
bool holds_payload(const std::vector<std::uint8_t>& image,
                   const std::string& name) {
  std::vector<std::uint8_t> needle;
  for (int i = 0; i < 4; ++i) {
    needle.push_back(static_cast<std::uint8_t>(name.size() >> (8 * i)));
  }
  needle.insert(needle.end(), name.begin(), name.end());
  return std::search(image.begin(), image.end(), needle.begin(),
                     needle.end()) != image.end();
}

TEST(CkptResume, BitIdenticalWithoutFaultPlan) { run_resume_matrix(42, false); }

TEST(CkptResume, BitIdenticalUnderFaultPlan) { run_resume_matrix(42, true); }

TEST(CkptResume, BitIdenticalWithPendingEnvelopes) {
  // At 20% loss the save point holds unacked reliable sends of every layer
  // that has a codec: the envelope, Scribe walks, heartbeats and anycast
  // replies, and the v-Bundle query a walk carries.
  std::vector<std::uint8_t> image = run_resume_matrix(42, true, 0.2);
  for (const char* name : {"pastry.rel", "scribe.walk", "scribe.heartbeat",
                           "scribe.anycast_ok", "vbundle.lb_query"}) {
    EXPECT_TRUE(holds_payload(image, name)) << name;
  }
}

TEST(CkptResume, SecondSeedAlsoResumesBitIdentically) {
  run_resume_matrix(1234567, false);
}

TEST(CkptResume, RestoreIntoMismatchedWorldThrows) {
  World saver(42, false, /*place_vms=*/true);
  saver.cloud.run_until(kSaveAt);
  std::vector<std::uint8_t> image = saver.cloud.save_checkpoint();

  // Different seed → different reconstruction → refused.
  World other(43, false, /*place_vms=*/false);
  EXPECT_THROW(other.cloud.restore_checkpoint(image), ckpt::CkptError);
}

TEST(CkptResume, SaveIsIdempotentAtTheBarrier) {
  // Two checkpoints taken back-to-back at the same quiesce barrier are
  // byte-identical: the save path draws no randomness and schedules nothing.
  World w(42, false, /*place_vms=*/true);
  w.cloud.run_until(kSaveAt);
  std::vector<std::uint8_t> a = w.cloud.save_checkpoint();
  std::vector<std::uint8_t> b = w.cloud.save_checkpoint();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace vb
