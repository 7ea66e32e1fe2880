// Chaos fuzzing: sample random FaultPlans (random loss/dup/jitter/spike
// windows plus occasional rack partitions), run the full cloud scenario
// under each, and check the conservation invariants after the faults
// quiesce.  A failure prints the seed and the plan script — replaying the
// same (seed, plan) reproduces the run bit-for-bit — and then shrinks the
// plan (drop whole windows, halve the survivors) to a minimal failing
// script before reporting.
//
// The shrinker itself is exercised deterministically against a synthetic
// predicate, so its correctness never depends on finding a real bug.
//
// On a real failure the minimal plan is replayed once more with the flight
// recorder attached: the dump (trace + metrics + the plan's describe()/
// to_json() repro) lands in chaos_flight/ and its path is embedded in the
// gtest failure message.  The dump pipeline itself is covered by the
// synthetic FlightRecorder test below, so it cannot rot while the fuzzer
// keeps passing.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "vbundle/cloud.h"
#include "workloads/demand.h"

namespace vb::core {
namespace {

// --- scenario under test ---------------------------------------------------

CloudConfig fuzz_config(std::uint64_t seed) {
  CloudConfig cfg;
  cfg.topology.num_pods = 1;
  cfg.topology.racks_per_pod = 3;
  cfg.topology.hosts_per_rack = 3;
  cfg.seed = seed;
  cfg.vbundle.threshold = 0.15;
  cfg.vbundle.update_interval_s = 60.0;
  cfg.vbundle.rebalance_interval_s = 240.0;
  return cfg;
}

/// Returns a description of every violated invariant, empty when clean.
/// Mirrors invariants_test.cc but reports instead of asserting, so the
/// shrinker can re-evaluate candidate plans without gtest machinery.
std::string violations(VBundleCloud& cloud, int booted) {
  std::ostringstream os;

  int counted = 0;
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    for (host::VmId id : cloud.fleet().host(h).vms()) {
      if (cloud.fleet().vm(id).host != h) {
        os << "vm " << id << " record disagrees with host " << h << "; ";
      }
      ++counted;
    }
  }
  if (counted != booted) {
    os << "placed " << counted << " vms, booted " << booted << "; ";
  }

  if (cloud.migrations().in_flight() != 0) {
    os << cloud.migrations().in_flight() << " migrations still in flight; ";
  }
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    double expected = 0.0;
    for (host::VmId id : cloud.fleet().host(h).vms()) {
      expected += cloud.fleet().vm(id).spec.reservation_mbps;
    }
    double reserved = cloud.fleet().host(h).reserved_mbps();
    if (std::abs(reserved - expected) > 1e-6) {
      os << "host " << h << " reserved " << reserved << " != hosted "
         << expected << "; ";
    }
    if (reserved > cloud.fleet().host(h).capacity_mbps() + 1e-6) {
      os << "host " << h << " over capacity; ";
    }
  }

  std::uint64_t in = 0, out = 0;
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    in += cloud.agent(h).stats().migrations_in;
    out += cloud.agent(h).stats().migrations_out;
  }
  if (in != out || out != cloud.migrations().completed()) {
    os << "migration ledger in=" << in << " out=" << out
       << " completed=" << cloud.migrations().completed() << "; ";
  }
  return os.str();
}

/// Runs the scenario under `plan` (taken by value: each evaluation gets a
/// pristine Rng, so the run is a pure function of (seed, plan)).  An
/// optional trace recorder / metrics registry capture the run for a
/// flight-recorder dump; recording is passive, so the traced replay is
/// bit-identical to the untraced evaluation that failed.
std::string run_with_plan(std::uint64_t seed, sim::FaultPlan plan,
                          obs::TraceRecorder* trace = nullptr,
                          obs::MetricsRegistry* metrics = nullptr,
                          std::vector<std::uint8_t>* ckpt_out = nullptr) {
  Rng rng(seed);
  VBundleCloud cloud(fuzz_config(seed));
  cloud.set_trace_recorder(trace);
  cloud.pastry().set_fault_plan(&plan);

  load::DemandModel model;
  int booted = 0;
  auto cust = cloud.add_customer("fuzz");
  int vms = 6 + static_cast<int>(rng.index(8));
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
  cloud.attach_demand_model(&model, 60.0);
  cloud.start_rebalancing(0.0, 240.0);
  cloud.run_until(2400.0);
  cloud.stop_rebalancing();
  cloud.run_until(3000.0);
  std::string bad = violations(cloud, booted);
  if (metrics != nullptr) cloud.collect_metrics(*metrics);
  // End-state image for the flight dump: restoring it puts a debugger
  // straight into the violated cloud, no replay needed.
  if (ckpt_out != nullptr) *ckpt_out = cloud.save_checkpoint();
  return bad;
}

// --- random plan generation ------------------------------------------------

/// Samples a random FaultPlan.  All windows close by t=2200 and partitions
/// stay under 8 s, so every sampled plan is quiescent well before the
/// scenario stops rebalancing at t=2400.
sim::FaultPlan random_plan(std::uint64_t plan_seed) {
  Rng rng(plan_seed ^ 0x9e3779b97f4a7c15ULL);
  sim::FaultPlan plan(plan_seed);
  int n = 1 + static_cast<int>(rng.index(4));
  for (int i = 0; i < n; ++i) {
    sim::FaultWindow w;
    w.start_s = rng.uniform(100.0, 1800.0);
    w.end_s = std::min(w.start_s + rng.uniform(30.0, 400.0), 2200.0);
    switch (rng.index(4)) {
      case 0: w.drop_prob = rng.uniform(0.005, 0.08); break;
      case 1: w.dup_prob = rng.uniform(0.005, 0.05); break;
      case 2: w.jitter_max_s = rng.uniform(0.005, 0.2); break;
      default: w.delay_extra_s = rng.uniform(0.1, 1.0); break;
    }
    plan.add_window(w);
  }
  if (rng.chance(0.5)) {
    double start = rng.uniform(200.0, 1800.0);
    plan.partition_rack(static_cast<int>(rng.index(3)), start,
                        start + rng.uniform(1.0, 8.0));
  }
  return plan;
}

// --- shrinker --------------------------------------------------------------

sim::FaultPlan rebuild(std::uint64_t seed,
                       const std::vector<sim::FaultWindow>& ws,
                       const std::vector<sim::PartitionWindow>& ps) {
  sim::FaultPlan p(seed);
  for (const auto& w : ws) p.add_window(w);
  for (const auto& q : ps) p.add_partition(q);
  return p;
}

/// Greedy delta-debugging: drop whole windows/partitions, then repeatedly
/// halve surviving windows (keeping whichever half still fails), down to
/// 1 s granularity.  `fails` must be a pure predicate of the plan script —
/// run_with_plan qualifies because the plan's Rng restarts every run.
sim::FaultPlan shrink_plan(
    const sim::FaultPlan& failing,
    const std::function<bool(const sim::FaultPlan&)>& fails) {
  std::uint64_t seed = failing.seed();
  std::vector<sim::FaultWindow> ws = failing.windows();
  std::vector<sim::PartitionWindow> ps = failing.partitions();

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ws.size();) {
      auto trial = ws;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(rebuild(seed, trial, ps))) {
        ws = trial;
        changed = true;
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < ps.size();) {
      auto trial = ps;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(rebuild(seed, ws, trial))) {
        ps = trial;
        changed = true;
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (!std::isfinite(ws[i].end_s) || ws[i].end_s - ws[i].start_s < 2.0) {
        continue;
      }
      double mid = 0.5 * (ws[i].start_s + ws[i].end_s);
      for (int half = 0; half < 2; ++half) {
        auto trial = ws;
        if (half == 0) {
          trial[i].end_s = mid;
        } else {
          trial[i].start_s = mid;
        }
        if (fails(rebuild(seed, trial, ps))) {
          ws = trial;
          changed = true;
          break;
        }
      }
    }
  }
  return rebuild(seed, ws, ps);
}

// --- tests -----------------------------------------------------------------

TEST(ChaosFuzz, RandomPlansPreserveInvariants) {
  for (std::uint64_t seed = 1000; seed < 1015; ++seed) {
    sim::FaultPlan plan = random_plan(seed);
    std::string bad = run_with_plan(seed, plan);
    if (bad.empty()) continue;

    // Shrink before reporting: the minimal script is the bug report.
    auto still_fails = [seed](const sim::FaultPlan& p) {
      return !run_with_plan(seed, p).empty();
    };
    sim::FaultPlan minimal = shrink_plan(plan, still_fails);

    // Replay the minimal plan with the flight recorder attached; the dump
    // (last-N trace events + metrics + the exact repro plan) is the bug
    // report, one click away from the CI log.
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    std::vector<std::uint8_t> ckpt;
    std::string replay_bad =
        run_with_plan(seed, minimal.fresh(), &trace, &metrics, &ckpt);
    obs::FlightDump dump = obs::dump_flight(
        "chaos_flight", "seed" + std::to_string(seed), &trace, &metrics,
        minimal.describe(), minimal.to_json(),
        replay_bad.empty() ? bad : replay_bad, &ckpt);

    ADD_FAILURE() << "chaos fuzz violation, seed=" << seed << "\n  full plan:    "
                  << plan.describe() << "\n  violations:   " << bad
                  << "\n  minimal repro: " << minimal.describe()
                  << "\n  " << dump.message()
                  << "\n  (rebuild this plan with the printed seed/windows to"
                     " replay bit-identically)";
    break;  // one shrunk repro per run is enough signal
  }
}

TEST(ChaosShrinker, ReducesToCulpritWindow) {
  // Three windows and a partition; only the heavy-loss window covering
  // t=1000 "causes" the synthetic failure.
  sim::FaultPlan plan(42);
  plan.jitter(0.05, 100.0, 500.0);
  sim::FaultWindow culprit;
  culprit.start_s = 800.0;
  culprit.end_s = 1600.0;
  culprit.drop_prob = 0.6;
  plan.add_window(culprit);
  plan.uniform_duplication(0.02, 300.0, 900.0);
  plan.partition_rack(1, 700.0, 710.0);

  int evals = 0;
  auto fails = [&evals](const sim::FaultPlan& p) {
    ++evals;
    for (const auto& w : p.windows()) {
      if (w.drop_prob >= 0.5 && w.start_s <= 1000.0 && 1000.0 < w.end_s) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(fails(plan));

  sim::FaultPlan minimal = shrink_plan(plan, fails);
  EXPECT_TRUE(fails(minimal));
  ASSERT_EQ(minimal.windows().size(), 1u);
  EXPECT_TRUE(minimal.partitions().empty());
  const sim::FaultWindow& w = minimal.windows().front();
  EXPECT_GE(w.drop_prob, 0.5);
  EXPECT_LE(w.start_s, 1000.0);
  EXPECT_GT(w.end_s, 1000.0);
  // Halving narrows the original 800 s window to a sliver around t=1000.
  EXPECT_LE(w.end_s - w.start_s, 25.0);
  EXPECT_LT(evals, 200);  // greedy shrink stays cheap
}

TEST(FlightRecorder, DumpEmbedsReproAndValidates) {
  // Synthetic end-to-end check of the failure path that (hopefully) never
  // fires for real: run a small chaos scenario with the recorder attached,
  // dump it exactly the way the fuzzer would, and verify every artifact.
  sim::FaultPlan plan = sim::FaultPlan::canned_partition(7);
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  std::vector<std::uint8_t> ckpt;
  std::string bad = run_with_plan(7, plan.fresh(), &trace, &metrics, &ckpt);
  EXPECT_TRUE(bad.empty()) << bad;
  ASSERT_GT(trace.size(), 0u);
  ASSERT_GT(metrics.series_count(), 0u);
  ASSERT_FALSE(ckpt.empty());

  obs::FlightDump dump =
      obs::dump_flight("chaos_flight", "synthetic", &trace, &metrics,
                       plan.describe(), plan.to_json(), "synthetic check",
                       &ckpt);
  ASSERT_TRUE(dump.ok) << dump.error;
  EXPECT_NE(dump.message().find(dump.manifest_path), std::string::npos);

  // Every artifact exists and the JSON ones parse / validate.
  for (const std::string& path :
       {dump.manifest_path, dump.trace_chrome_path, dump.trace_jsonl_path,
        dump.metrics_csv_path, dump.metrics_json_path, dump.checkpoint_path}) {
    std::ifstream probe(path);
    EXPECT_TRUE(probe.good()) << "missing dump artifact: " << path;
  }
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  std::string err;
  EXPECT_TRUE(obs::validate_chrome_trace(slurp(dump.trace_chrome_path), &err))
      << err;

  // The manifest embeds the exact repro: its fault_plan record must parse
  // and carry the plan's seed, and the repro script must rebuild the plan.
  auto manifest = obs::parse_json(slurp(dump.manifest_path), &err);
  ASSERT_TRUE(manifest.has_value()) << err;
  ASSERT_NE(manifest->find("reason"), nullptr);
  EXPECT_EQ(manifest->find("reason")->str, "synthetic check");
  const obs::JsonValue* fp = manifest->find("fault_plan");
  ASSERT_NE(fp, nullptr);
  ASSERT_TRUE(fp->is_object());
  EXPECT_DOUBLE_EQ(fp->find("seed")->number, 7.0);
  EXPECT_EQ(fp->find("windows")->array.size(), plan.windows().size());
  EXPECT_EQ(fp->find("partitions")->array.size(), plan.partitions().size());
  ASSERT_NE(manifest->find("repro"), nullptr);
  auto rebuilt = sim::FaultPlan::parse_describe(manifest->find("repro")->str);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->describe(), plan.describe());

  const obs::JsonValue* tinfo = manifest->find("trace");
  ASSERT_NE(tinfo, nullptr);
  EXPECT_DOUBLE_EQ(tinfo->find("events")->number,
                   static_cast<double>(trace.size()));

  // The checkpoint rides next to the repro and is byte-complete on disk.
  const obs::JsonValue* cinfo = manifest->find("checkpoint");
  ASSERT_NE(cinfo, nullptr);
  ASSERT_TRUE(cinfo->is_object());
  EXPECT_DOUBLE_EQ(cinfo->find("bytes")->number,
                   static_cast<double>(ckpt.size()));
  EXPECT_EQ(slurp(dump.checkpoint_path).size(), ckpt.size());
}

TEST(ChaosShrinker, AlreadyMinimalPlanIsUnchanged) {
  sim::FaultPlan plan(7);
  plan.uniform_loss(0.9, 500.0, 501.0);
  auto fails = [](const sim::FaultPlan& p) { return !p.windows().empty(); };
  sim::FaultPlan minimal = shrink_plan(plan, fails);
  ASSERT_EQ(minimal.windows().size(), 1u);
  EXPECT_DOUBLE_EQ(minimal.windows().front().start_s, 500.0);
  EXPECT_DOUBLE_EQ(minimal.windows().front().end_s, 501.0);
}

}  // namespace
}  // namespace vb::core
