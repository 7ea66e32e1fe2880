// Determinism regression: the same scenario, run twice from the same seed,
// must produce bit-identical results — same event counts, same final VM
// placement, same utilizations, same shuffle statistics.
//
// This is the contract that makes every figure in the paper reproducible,
// and it is exactly what hot-path rewrites (event-queue internals, routing
// fast paths) are most likely to break silently: a different-but-still-
// "valid" event order changes which host wins a shuffle query, which
// cascades into a different cloud.  Equal-timestamp events must fire in
// schedule order, whatever the queue's internal layout.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "hostmodel/host.h"
#include "obs/trace.h"
#include "vbundle/cloud.h"
#include "workloads/scenario.h"

namespace vb {
namespace {

bool same_stats(const core::ShuffleStats& a, const core::ShuffleStats& b) {
  return a.queries_sent == b.queries_sent &&
         a.queries_accepted == b.queries_accepted &&
         a.queries_declined == b.queries_declined &&
         a.anycast_failures == b.anycast_failures &&
         a.migrations_out == b.migrations_out &&
         a.migrations_in == b.migrations_in;
}

struct RunFingerprint {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t migrations = 0;
  std::uint64_t placement_hash = 0;    // host assignment of every VM
  std::uint64_t utilization_hash = 0;  // exact bits of every host utilization
  core::ShuffleStats stats;            // summed over all agents
};

bool same_fingerprint(const RunFingerprint& a, const RunFingerprint& b) {
  return a.events_executed == b.events_executed &&
         a.events_scheduled == b.events_scheduled &&
         a.events_cancelled == b.events_cancelled &&
         a.migrations == b.migrations &&
         a.placement_hash == b.placement_hash &&
         a.utilization_hash == b.utilization_hash && same_stats(a.stats, b.stats);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

// One 500-server shuffle scenario: skewed load, periodic update ticks, one
// full rebalancing round, migrations settled.  An attached TraceRecorder
// must be invisible to the fingerprint (recording is passive).
RunFingerprint run_scenario(std::uint64_t seed,
                            obs::TraceRecorder* trace = nullptr) {
  core::CloudConfig cfg;
  cfg.topology.num_pods = 5;
  cfg.topology.racks_per_pod = 5;
  cfg.topology.hosts_per_rack = 20;  // 500 servers
  cfg.topology.host_nic_mbps = 1000.0;
  cfg.seed = seed;

  core::VBundleCloud cloud(cfg);
  cloud.set_trace_recorder(trace);
  auto c = cloud.add_customer("DeterminismCheck");
  const int servers = cloud.fleet().num_hosts();
  const int vms = servers * 10;
  for (int i = 0; i < vms; ++i) {
    host::VmId v = cloud.fleet().create_vm(c, host::VmSpec{20.0, 100.0});
    cloud.fleet().place(v, i % servers);
  }
  Rng rng(seed);
  load::skew_host_utilizations(cloud.fleet(), 0.2, 0.95, rng);

  cloud.start_rebalancing(0.0, 1500.0);
  cloud.run_until(1800.0);
  cloud.stop_rebalancing();

  RunFingerprint fp;
  fp.events_executed = cloud.simulator().events_executed();
  fp.events_scheduled = cloud.simulator().events_scheduled();
  fp.events_cancelled = cloud.simulator().events_cancelled();
  fp.migrations = cloud.migrations().completed();
  fp.placement_hash = 1469598103934665603ULL;
  for (int h = 0; h < servers; ++h) {
    fp.placement_hash = fnv1a(fp.placement_hash, static_cast<std::uint64_t>(h));
    for (host::VmId v : cloud.fleet().host(h).vms()) {
      fp.placement_hash =
          fnv1a(fp.placement_hash, static_cast<std::uint64_t>(v));
    }
  }
  fp.utilization_hash = 1469598103934665603ULL;
  for (double u : cloud.fleet().utilization_snapshot()) {
    fp.utilization_hash = fnv1a(fp.utilization_hash, std::bit_cast<std::uint64_t>(u));
  }
  for (int h = 0; h < servers; ++h) {
    const core::ShuffleStats& s = cloud.agent(h).stats();
    fp.stats.queries_sent += s.queries_sent;
    fp.stats.queries_accepted += s.queries_accepted;
    fp.stats.queries_declined += s.queries_declined;
    fp.stats.anycast_failures += s.anycast_failures;
    fp.stats.migrations_out += s.migrations_out;
    fp.stats.migrations_in += s.migrations_in;
  }
  return fp;
}

TEST(Determinism, IdenticalSeedGivesBitIdenticalShuffleOutcome) {
  RunFingerprint a = run_scenario(42);
  RunFingerprint b = run_scenario(42);

  // Compare field by field first so a regression names the divergent metric.
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.events_cancelled, b.events_cancelled);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.placement_hash, b.placement_hash);
  EXPECT_EQ(a.utilization_hash, b.utilization_hash);
  EXPECT_EQ(a.stats.queries_sent, b.stats.queries_sent);
  EXPECT_EQ(a.stats.queries_accepted, b.stats.queries_accepted);
  EXPECT_EQ(a.stats.queries_declined, b.stats.queries_declined);
  EXPECT_EQ(a.stats.anycast_failures, b.stats.anycast_failures);
  EXPECT_EQ(a.stats.migrations_out, b.stats.migrations_out);
  EXPECT_EQ(a.stats.migrations_in, b.stats.migrations_in);
  EXPECT_TRUE(same_fingerprint(a, b));

  // The scenario must actually exercise the machinery being locked in.
  EXPECT_GT(a.migrations, 0u);
  EXPECT_GT(a.stats.queries_sent, 0u);
  EXPECT_GT(a.events_cancelled, 0u)
      << "expected the run to exercise event cancellation";
}

TEST(Determinism, TracingDoesNotPerturbSimOutcomes) {
  // The observability tentpole's core promise: attaching a TraceRecorder
  // records thousands of events but schedules nothing and draws no
  // randomness, so the traced run is bit-identical to the untraced one.
  RunFingerprint untraced = run_scenario(42);
  obs::TraceRecorder trace;
  RunFingerprint traced = run_scenario(42, &trace);

  EXPECT_EQ(untraced.events_executed, traced.events_executed);
  EXPECT_EQ(untraced.events_scheduled, traced.events_scheduled);
  EXPECT_EQ(untraced.events_cancelled, traced.events_cancelled);
  EXPECT_EQ(untraced.migrations, traced.migrations);
  EXPECT_EQ(untraced.placement_hash, traced.placement_hash);
  EXPECT_EQ(untraced.utilization_hash, traced.utilization_hash);
  EXPECT_TRUE(same_fingerprint(untraced, traced));

  // ...and the recorder actually captured the run.
  EXPECT_GT(trace.total_recorded(), 0u);
}

TEST(Determinism, DifferentSeedsActuallyDiverge) {
  // Sanity check that the fingerprint is sensitive: two different seeds
  // should not collide on everything (if they do, the fingerprint is too
  // weak to defend determinism).
  RunFingerprint a = run_scenario(1);
  RunFingerprint b = run_scenario(2);
  EXPECT_FALSE(same_fingerprint(a, b));
}

}  // namespace
}  // namespace vb
