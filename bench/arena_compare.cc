// arena_compare: open-world admission campaigns, v-Bundle vs baselines.
//
// Runs the SAME seeded VC(N, B) request stream (src/arena generator:
// diurnal Poisson arrivals, exponential lifetimes, the paper's two VM
// classes) against three embedders on identically-sized clouds:
//
//   arena_vbundle      the paper's system — DHT placement + shuffling
//   arena_greedy_tree  Oktopus-style oversubscription-aware tree packing
//   arena_competitive  exponential-cost online admission (arXiv:1810.03162
//                      family) on top of tree packing
//
// and reports, per (embedder, fleet size): acceptance rate, booked and
// offered revenue, bisection-bandwidth fragmentation, fleet utilization,
// migration churn, and the accept/reject decision fingerprint.  Everything
// except wall-clock seconds is deterministic (seeded workload, fixed-order
// reductions), so the JSON doubles as a cross-machine behaviour pin:
// tools/check_bench.py compares counters EXACTLY and the ratio metrics
// against absolute [0, 1] bands (the BANDED class).
//
// Usage:
//   arena_compare [--sizes=3000,16000] [--requests=N]
//                 [--out=BENCH_arena.json] [--smoke]
//
// --requests=0 (the default) auto-scales to 1.4 requests per server, the
// point where the offered load overruns fleet capacity by ~1.5x.
// --smoke shrinks to one 256-server fleet so CI can run
// the full matrix on every ctest invocation (bench_arena_smoke); smoke
// output defaults to BENCH_arena.smoke.json so the committed full-run
// numbers are never clobbered.  The JSON is written via temp-file rename,
// so an interrupted run leaves no half-written artifact.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "arena/arena.h"
#include "common/flags.h"
#include "vbundle/cloud.h"

using namespace vb;

namespace {

double wall_seconds(const std::function<void()>& body) {
  auto t0 = std::chrono::steady_clock::now();
  body();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

core::CloudConfig cloud_config(int servers) {
  core::CloudConfig cfg;
  // 25 hosts/rack, 10 racks/pod at scale; the smoke fleet is 4x4x16.
  if (servers % 250 == 0) {
    cfg.topology.num_pods = servers / 250;
    cfg.topology.racks_per_pod = 10;
    cfg.topology.hosts_per_rack = 25;
  } else {
    cfg.topology.num_pods = 4;
    cfg.topology.racks_per_pod = 4;
    cfg.topology.hosts_per_rack = servers / 16;
  }
  cfg.seed = 42;
  return cfg;
}

struct RowResult {
  arena::AdmissionStats stats;
  std::uint64_t slo_violations = 0;
  std::uint64_t migration_churn = 0;
  double fragmentation = 0.0;
  double utilization = 0.0;
  double seconds = 0.0;
};

RowResult run_campaign(int servers, arena::EmbedderKind kind,
                       std::uint64_t requests) {
  core::VBundleCloud cloud(cloud_config(servers));

  arena::ArenaConfig cfg;
  cfg.embedder = kind;
  // The paper's shuffling service is part of the v-Bundle offering; the
  // tree-packing baselines have no rebalancer.  Demand shapes are applied
  // for everyone (the shuffler needs utilization skew to act on).
  cfg.enable_rebalancing = kind == arena::EmbedderKind::kVBundle;
  cfg.demand_apply_interval_s = 60.0;
  cfg.generator.seed = 1234;       // same stream for every embedder
  // Arrival rate and request count both scale with the fleet, so every size
  // sees real contention: the live population peaks near ~1.5x capacity and
  // the embedders have to reject.
  cfg.generator.base_arrival_per_s = servers * 0.002;
  cfg.generator.mean_lifetime_s = 1200.0;
  cfg.generator.n_min = 2;
  cfg.generator.n_max = 12;
  cfg.max_requests = requests;
  // Arrival span plus one lifetime: runs past the first rebalance round
  // (t=1500) so the v-Bundle shuffler's migration churn shows up.
  cfg.horizon_s =
      static_cast<double>(requests) / cfg.generator.base_arrival_per_s +
      1200.0;
  cfg.sample_every_s = 60.0;

  arena::Arena a(&cloud, cfg);
  RowResult out;
  out.seconds = wall_seconds([&] { a.run(); });
  out.stats = a.admission().stats();
  out.slo_violations = a.admission().slo_violations();
  out.migration_churn = cloud.migrations().completed();
  out.fragmentation = a.fragmentation();
  out.utilization = a.utilization();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc - 1, argv + 1);
  bool smoke = flags.has("smoke");
  // 0 = auto: 1.4 requests per server, the overload point for the default
  // bundle mix (mean 7 VMs at mean 150 Mbps vs 1000 Mbps hosts).
  int requests_flag = flags.get_int("requests", 0);
  std::string out_path = flags.get_string(
      "out", smoke ? "BENCH_arena.smoke.json" : "BENCH_arena.json");

  std::vector<int> sizes;
  {
    std::string spec = flags.get_string("sizes", smoke ? "256" : "3000,16000");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      sizes.push_back(std::stoi(spec.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  }

  const arena::EmbedderKind kinds[] = {arena::EmbedderKind::kVBundle,
                                       arena::EmbedderKind::kGreedyTree,
                                       arena::EmbedderKind::kCompetitive};

#if defined(__clang__)
  std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  std::string compiler = std::string("gcc ") + __VERSION__;
#else
  std::string compiler = "unknown";
#endif
#ifdef VB_BUILD_TYPE
  std::string build_type = VB_BUILD_TYPE;
#else
  std::string build_type = "unknown";
#endif

  std::string json = "{\n";
  json += "  \"bench\": \"arena_compare\",\n";
  json += "  \"schema_version\": 3,\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"timestamp_unix\": " + std::to_string(std::time(nullptr)) + ",\n";
  json += "  \"config\": {\"compiler\": \"" + compiler +
          "\", \"build_type\": \"" + build_type + "\"},\n";
  json += "  \"results\": [\n";
  bool first = true;
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };

  for (int servers : sizes) {
    std::uint64_t requests = requests_flag > 0
                                 ? static_cast<std::uint64_t>(requests_flag)
                                 : static_cast<std::uint64_t>(servers) * 7 / 5;
    std::printf("== %d servers, %llu requests ==\n", servers,
                static_cast<unsigned long long>(requests));
    for (arena::EmbedderKind kind : kinds) {
      RowResult r = run_campaign(servers, kind, requests);
      const arena::AdmissionStats& s = r.stats;
      std::string name =
          std::string("arena_") + arena::embedder_kind_name(kind);
      std::printf(
          "%-22s accept %5.1f%%  revenue $%9.2f (%4.1f%% of offered)  "
          "frag %.3f  util %.3f  churn %llu  [%.2fs]\n",
          name.c_str(), 100.0 * s.acceptance_rate(), s.revenue,
          s.offered_revenue > 0 ? 100.0 * s.revenue / s.offered_revenue : 0.0,
          r.fragmentation, r.utilization,
          static_cast<unsigned long long>(r.migration_churn), r.seconds);

      char fp[32];
      std::snprintf(fp, sizeof(fp), "0x%016llx",
                    static_cast<unsigned long long>(s.decision_fingerprint));
      if (!first) json += ",\n";
      first = false;
      json += "    {\"name\": \"" + name + "\"";
      json += ", \"servers\": " + std::to_string(servers);
      json += ", \"requests\": " + std::to_string(s.offered);
      json += ", \"accepted\": " + std::to_string(s.accepted);
      json += ", \"rejected_capacity\": " + std::to_string(s.rejected_capacity);
      json += ", \"rejected_cost\": " + std::to_string(s.rejected_cost);
      json += ", \"vms_accepted\": " + std::to_string(s.vms_accepted);
      json += ", \"slo_violations\": " + std::to_string(r.slo_violations);
      json += ", \"migration_churn\": " + std::to_string(r.migration_churn);
      json += ", \"acceptance_rate\": " + num(s.acceptance_rate());
      json += ", \"revenue\": " + num(s.revenue);
      json += ", \"offered_revenue\": " + num(s.offered_revenue);
      json += ", \"revenue_capture\": " +
              num(s.offered_revenue > 0 ? s.revenue / s.offered_revenue : 0.0);
      json += ", \"fragmentation\": " + num(r.fragmentation);
      json += ", \"utilization\": " + num(r.utilization);
      json += ", \"decision_fingerprint\": \"" + std::string(fp) + "\"";
      json += ", \"seconds\": " + num(r.seconds);
      json += "}";
    }
  }
  json += "\n  ]\n}\n";

  // Temp-file + rename: a crashed run leaves the previous artifact intact.
  std::string tmp_path = out_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "arena_compare: cannot open %s\n", tmp_path.c_str());
    return 1;
  }
  if (std::fputs(json.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "arena_compare: write to %s failed\n",
                 tmp_path.c_str());
    return 1;
  }
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    std::fprintf(stderr, "arena_compare: rename to %s failed\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
