// perf_core: microbenchmark suite for the simulation hot path.
//
// Unlike the fig*/table* benches (which reproduce the paper's results), this
// binary measures how fast the machinery itself runs and emits machine-
// readable JSON (BENCH_core.json) so successive PRs can track the perf
// trajectory.  Four benchmarks, each at 1k/4k/16k simulated servers:
//
//   event_churn        raw event-loop throughput: N self-rescheduling actors
//                      whose closures carry a RouteMsg-sized capture.
//   route_throughput   Pastry prefix routing over an oracle-bootstrapped
//                      overlay: random (source, key) lookups per second.
//   aggregation_round  one set_local + tick on every node of a cluster-wide
//                      aggregation tree, to global publication.
//   shuffle_epoch      a full v-Bundle epoch on a skewed cloud: update
//                      ticks, one rebalancing round, migrations settled.
//   ckpt_roundtrip     src/ckpt snapshot + restore of a mid-rebalance cloud
//                      at 64/512/3000 servers (64 in smoke): save wall time
//                      (including the quiesce), restore wall time, image
//                      bytes, and a bit-identical-resume self-check.  Runs
//                      at its own fixed sizes, independent of --sizes.
//
// Usage:
//   perf_core [--sizes=1000,4000,16000] [--out=BENCH_core.json] [--smoke]
//             [--churn-events=2000000] [--routes=20000] [--agg-rounds=5]
//             [--trace=<path>] [--metrics=<path>]
//
// The JSON's top-level "config" block (schema_version 3) records the
// compiler and build type.
//
// --smoke shrinks everything (<=100 servers, small counts) so CI can
// exercise the harness on every ctest run (the bench_smoke test); smoke
// runs default to BENCH_core.smoke.json so they never clobber the
// committed full-run numbers.  The JSON is written to a temp file and
// renamed into place only after every bench succeeded — a crashed or
// interrupted run leaves no half-written (or empty) BENCH_core.json.
//
// --trace / --metrics attach a TraceRecorder / MetricsRegistry to the
// route-throughput and shuffle-epoch benches and export them at exit (the
// obs overhead measurement described in docs/ARCHITECTURE.md).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/hash.h"
#include "common/rng.h"
#include "aggregation/aggregation_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pastry/bulk_bootstrap.h"
#include "pastry/pastry_network.h"
#include "scribe/scribe_network.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "vbundle/cloud.h"
#include "workloads/scenario.h"

using namespace vb;

namespace {

double wall_seconds(const std::function<void()>& body) {
  auto t0 = std::chrono::steady_clock::now();
  body();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// event_churn: N actors, each event re-arms itself until `target` events
// have been pushed.  The captured Blob matches the size of the overlay
// transport's largest closure (a RouteMsg in flight, ~96 bytes).

struct Blob {
  std::uint64_t w[12];
};

struct ChurnDriver {
  sim::EventQueue q;
  std::uint64_t target = 0;
  std::uint64_t pushed = 0;
  std::uint64_t executed = 0;
  std::uint64_t rng_state = 0;
  std::uint64_t sink = 0;  // defeats dead-code elimination

  double next_delay() {
    rng_state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = rng_state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    return 1e-4 * static_cast<double>(1 + (z & 0xFF));
  }

  void arm(double now) {
    ++pushed;
    Blob b{};
    b.w[0] = pushed;
    double t = now + next_delay();
    q.push(t, [this, t, b] { fire(t, b); });
  }

  void fire(double t, const Blob& b) {
    ++executed;
    sink += b.w[0];
    if (pushed < target) arm(t);
  }

  void run(int actors, std::uint64_t total_events, std::uint64_t seed) {
    target = total_events;
    rng_state = seed;
    for (int i = 0; i < actors && pushed < target; ++i) {
      arm(0.0);
    }
    while (!q.empty()) q.run_top();  // in-place, the way Simulator drains
  }
};

struct ChurnResult {
  std::uint64_t events = 0;
  double seconds = 0.0;
};

ChurnResult bench_event_churn(int servers, std::uint64_t total_events) {
  ChurnResult r;
  r.events = total_events;
  ChurnDriver d;
  r.seconds = wall_seconds([&] { d.run(servers, total_events, 1234); });
  if (d.executed != total_events) {
    std::fprintf(stderr, "event_churn: executed %llu != target %llu\n",
                 static_cast<unsigned long long>(d.executed),
                 static_cast<unsigned long long>(total_events));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Shared overlay setup for route_throughput / aggregation_round.

net::TopologyConfig topology_for(int servers) {
  net::TopologyConfig t;
  int hpr = servers % 25 == 0 ? 25 : (servers % 8 == 0 ? 8 : servers);
  int racks = servers / hpr;
  int rpp = racks % 10 == 0 ? 10 : (racks % 4 == 0 ? 4 : racks);
  t.hosts_per_rack = hpr;
  t.racks_per_pod = rpp;
  t.num_pods = racks / rpp;
  t.host_nic_mbps = 1000.0;
  t.tor_oversubscription = 8.0;
  return t;
}

std::vector<U128> random_unique_ids(int n, Rng& rng) {
  std::set<U128> seen;
  std::vector<U128> ids;
  ids.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(ids.size()) < n) {
    U128 id = rng.next_u128();
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

struct RouteResult {
  std::uint64_t routes = 0;
  double bootstrap_seconds = 0.0;
  double seconds = 0.0;
  std::uint64_t sim_events = 0;
};

struct NullPayload : pastry::Payload {
  std::size_t wire_bytes() const override { return 16; }
  std::string name() const override { return "perf.null"; }
};

RouteResult bench_route_throughput(int servers, std::uint64_t routes,
                                   obs::TraceRecorder* trace = nullptr,
                                   obs::MetricsRegistry* metrics = nullptr) {
  sim::Simulator sim;
  net::Topology topo(topology_for(servers));
  pastry::PastryNetwork net(&sim, &topo);
  net.set_trace(trace);
  Rng rng(99);
  std::vector<U128> ids = random_unique_ids(servers, rng);

  RouteResult r;
  r.routes = routes;
  r.bootstrap_seconds = wall_seconds(
      [&] { net.bootstrap_bulk(pastry::fleet_one_per_host(ids)); });

  auto payload = std::make_shared<NullPayload>();
  std::uint64_t events_before = sim.events_executed();
  r.seconds = wall_seconds([&] {
    for (std::uint64_t i = 0; i < routes; ++i) {
      pastry::PastryNode& src =
          net.at(ids[rng.index(ids.size())]);
      src.route(rng.next_u128(), payload);
    }
    sim.run_to_completion();
  });
  r.sim_events = sim.events_executed() - events_before;
  if (metrics != nullptr) net.export_metrics(*metrics);
  return r;
}

struct AggResult {
  int rounds = 0;
  double setup_seconds = 0.0;
  double seconds = 0.0;
  std::uint64_t sim_events = 0;
  int tree_height = -1;
};

AggResult bench_aggregation_round(int servers, int rounds) {
  sim::Simulator sim;
  net::Topology topo(topology_for(servers));
  pastry::PastryNetwork net(&sim, &topo);
  Rng rng(7);
  std::vector<U128> ids = random_unique_ids(servers, rng);

  AggResult r;
  r.rounds = rounds;
  agg::TopicId topic = scribe_group_id("BW_Demand", "perf_core");
  std::unique_ptr<scribe::ScribeNetwork> scribes;
  std::vector<std::unique_ptr<agg::AggregationAgent>> agents;
  r.setup_seconds = wall_seconds([&] {
    net.bootstrap_bulk(pastry::fleet_one_per_host(ids));
    scribes = std::make_unique<scribe::ScribeNetwork>(&net);
    agents.reserve(static_cast<std::size_t>(servers));
    for (pastry::PastryNode* n : net.nodes()) {
      agents.push_back(std::make_unique<agg::AggregationAgent>(
          &scribes->at(n->id()), agg::PropagationMode::kPeriodic));
      agents.back()->subscribe(topic);
    }
    sim.run_to_completion();
    r.tree_height = scribes->tree_height(topic);
  });

  std::uint64_t events_before = sim.events_executed();
  r.seconds = wall_seconds([&] {
    for (int round = 0; round < rounds; ++round) {
      for (auto& a : agents) {
        a->set_local(topic, agg::AggValue::of(rng.next_double()));
      }
      for (auto& a : agents) a->tick(topic);
      sim.run_to_completion();
    }
  });
  r.sim_events = sim.events_executed() - events_before;
  return r;
}

struct EpochResult {
  std::uint64_t vms = 0;
  double build_seconds = 0.0;
  double seconds = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t migrations = 0;
};

EpochResult bench_shuffle_epoch(int servers, std::uint64_t seed,
                                obs::TraceRecorder* trace = nullptr,
                                obs::MetricsRegistry* metrics = nullptr) {
  core::CloudConfig cfg;
  cfg.topology = topology_for(servers);
  cfg.seed = seed;
  cfg.vbundle.threshold = 0.183;

  EpochResult r;
  std::unique_ptr<core::VBundleCloud> cloud;
  r.build_seconds = wall_seconds([&] {
    cloud = std::make_unique<core::VBundleCloud>(cfg);
    auto c = cloud->add_customer("PerfCore");
    // 10 VMs per host at limit 100 Mbps lets a 1 Gbps host reach full
    // utilization, so the skew below actually produces shedders.
    int vms = servers * 10;
    for (int i = 0; i < vms; ++i) {
      host::VmId v = cloud->fleet().create_vm(c, host::VmSpec{20.0, 100.0});
      cloud->fleet().place(v, i % servers);
    }
    Rng rng(seed);
    load::skew_host_utilizations(cloud->fleet(), 0.2, 0.95, rng);
    r.vms = static_cast<std::uint64_t>(vms);
  });

  cloud->set_trace_recorder(trace);
  std::uint64_t events_before = cloud->simulator().events_executed();
  r.seconds = wall_seconds([&] {
    cloud->start_rebalancing(0.0, 1500.0);
    cloud->run_until(1800.0);  // update ticks + one rebalancing round, settled
    cloud->stop_rebalancing();
  });
  r.sim_events = cloud->simulator().events_executed() - events_before;
  r.migrations = cloud->migrations().completed();
  if (metrics != nullptr) cloud->collect_metrics(*metrics);
  return r;
}

// ---------------------------------------------------------------------------
// ckpt_roundtrip: serialize a 10-VMs/host cloud mid-rebalance (t=1503, inside
// the post-1500 migration burst, so in-flight shuffle state rides the image),
// restore into a fresh reconstruction, and verify the resumed run ends
// bit-identical to the saving one at t=1800.

std::uint64_t ckpt_fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t ckpt_fingerprint(core::VBundleCloud& cloud) {
  std::uint64_t h = 1469598103934665603ULL;
  h = ckpt_fnv1a(h, cloud.simulator().events_executed());
  h = ckpt_fnv1a(h, cloud.migrations().completed());
  for (int i = 0; i < cloud.fleet().num_hosts(); ++i) {
    for (host::VmId v : cloud.fleet().host(i).vms()) {
      h = ckpt_fnv1a(h, static_cast<std::uint64_t>(v));
    }
  }
  for (double u : cloud.fleet().utilization_snapshot()) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof u);
    std::memcpy(&bits, &u, sizeof bits);
    h = ckpt_fnv1a(h, bits);
  }
  return h;
}

struct CkptResult {
  std::uint64_t vms = 0;
  double save_seconds = 0.0;
  double restore_seconds = 0.0;
  std::uint64_t bytes = 0;
  bool resume_identical = false;
};

CkptResult bench_ckpt_roundtrip(int servers, std::uint64_t seed) {
  core::CloudConfig cfg;
  cfg.topology = topology_for(servers);
  cfg.seed = seed;
  cfg.vbundle.threshold = 0.183;

  auto build = [&](bool place_vms) {
    auto cloud = std::make_unique<core::VBundleCloud>(cfg);
    auto c = cloud->add_customer("PerfCkpt");
    if (place_vms) {
      int vms = servers * 10;
      for (int i = 0; i < vms; ++i) {
        host::VmId v = cloud->fleet().create_vm(c, host::VmSpec{20.0, 100.0});
        cloud->fleet().place(v, i % servers);
      }
      Rng rng(seed);
      load::skew_host_utilizations(cloud->fleet(), 0.2, 0.95, rng);
    }
    cloud->start_rebalancing(0.0, 1500.0);
    return cloud;
  };

  CkptResult r;
  r.vms = static_cast<std::uint64_t>(servers) * 10;

  auto saver = build(/*place_vms=*/true);
  saver->run_until(1503.0);
  std::vector<std::uint8_t> image;
  r.save_seconds = wall_seconds([&] { image = saver->save_checkpoint(); });
  r.bytes = image.size();
  saver->run_until(1800.0);
  saver->stop_rebalancing();
  std::uint64_t want = ckpt_fingerprint(*saver);

  auto restored = build(/*place_vms=*/false);
  r.restore_seconds =
      wall_seconds([&] { restored->restore_checkpoint(image); });
  restored->run_until(1800.0);
  restored->stop_rebalancing();
  r.resume_identical = ckpt_fingerprint(*restored) == want;
  if (!r.resume_identical) {
    std::fprintf(stderr, "ckpt_roundtrip: resumed run DIVERGED at %d servers\n",
                 servers);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::parse(argc - 1, argv + 1);
  bool smoke = flags.get_bool("smoke", false);

  std::vector<int> sizes;
  {
    std::string spec =
        flags.get_string("sizes", smoke ? "64" : "1000,4000,16000");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      sizes.push_back(std::stoi(spec.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  }
  std::uint64_t churn_events = static_cast<std::uint64_t>(
      flags.get_int("churn-events", smoke ? 20000 : 2000000));
  std::uint64_t routes =
      static_cast<std::uint64_t>(flags.get_int("routes", smoke ? 500 : 20000));
  int agg_rounds = flags.get_int("agg-rounds", smoke ? 2 : 5);
  // Smoke runs get their own default output so CI never overwrites the
  // committed full-run BENCH_core.json with tiny numbers.
  std::string out_path = flags.get_string(
      "out", smoke ? "BENCH_core.smoke.json" : "BENCH_core.json");
  std::string trace_path = flags.get_string("trace", "");
  std::string metrics_path = flags.get_string("metrics", "");

  obs::TraceRecorder trace_rec;
  obs::MetricsRegistry metrics_reg;
  obs::TraceRecorder* trace = trace_path.empty() ? nullptr : &trace_rec;
  obs::MetricsRegistry* metrics =
      metrics_path.empty() ? nullptr : &metrics_reg;

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
  json += "  \"bench\": \"perf_core\",\n";
  json += "  \"schema_version\": 3,\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"timestamp_unix\": " + std::to_string(std::time(nullptr)) + ",\n";
  json += "  \"config\": {\"compiler\": \"" + compiler +
          "\", \"build_type\": \"" + build_type + "\"},\n";
  json += "  \"results\": [\n";
  bool first = true;
  auto emit = [&](const std::string& row) {
    if (!first) json += ",\n";
    first = false;
    json += "    " + row;
  };
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };

  for (int n : sizes) {
    std::printf("== %d servers ==\n", n);

    ChurnResult c = bench_event_churn(n, churn_events);
    double eps = static_cast<double>(c.events) / c.seconds;
    std::printf("event_churn        %10.0f ev/s\n", eps);
    emit("{\"name\": \"event_churn\", \"servers\": " + std::to_string(n) +
         ", \"events\": " + std::to_string(c.events) +
         ", \"seconds\": " + num(c.seconds) +
         ", \"events_per_sec\": " + num(eps) + "}");

    RouteResult rt = bench_route_throughput(n, routes, trace, metrics);
    double rps = static_cast<double>(rt.routes) / rt.seconds;
    std::printf("route_throughput   %10.0f routes/s  (bootstrap %.2fs)\n", rps,
                rt.bootstrap_seconds);
    emit("{\"name\": \"route_throughput\", \"servers\": " + std::to_string(n) +
         ", \"routes\": " + std::to_string(rt.routes) +
         ", \"bootstrap_seconds\": " + num(rt.bootstrap_seconds) +
         ", \"seconds\": " + num(rt.seconds) +
         ", \"routes_per_sec\": " + num(rps) +
         ", \"sim_events\": " + std::to_string(rt.sim_events) +
         ", \"events_per_sec\": " +
         num(static_cast<double>(rt.sim_events) / rt.seconds) + "}");

    AggResult ag = bench_aggregation_round(n, agg_rounds);
    double rps2 = static_cast<double>(ag.rounds) / ag.seconds;
    std::printf("aggregation_round  %10.2f rounds/s (height %d)\n", rps2,
                ag.tree_height);
    emit("{\"name\": \"aggregation_round\", \"servers\": " + std::to_string(n) +
         ", \"rounds\": " + std::to_string(ag.rounds) +
         ", \"setup_seconds\": " + num(ag.setup_seconds) +
         ", \"seconds\": " + num(ag.seconds) +
         ", \"rounds_per_sec\": " + num(rps2) +
         ", \"sim_events\": " + std::to_string(ag.sim_events) +
         ", \"tree_height\": " + std::to_string(ag.tree_height) + "}");

    EpochResult ep = bench_shuffle_epoch(n, 42, trace, metrics);
    std::printf("shuffle_epoch      %10.2fs wall (%llu migrations)\n",
                ep.seconds, static_cast<unsigned long long>(ep.migrations));
    emit("{\"name\": \"shuffle_epoch\", \"servers\": " + std::to_string(n) +
         ", \"vms\": " + std::to_string(ep.vms) +
         ", \"build_seconds\": " + num(ep.build_seconds) +
         ", \"seconds\": " + num(ep.seconds) +
         ", \"sim_events\": " + std::to_string(ep.sim_events) +
         ", \"events_per_sec\": " +
         num(static_cast<double>(ep.sim_events) / ep.seconds) +
         ", \"migrations\": " + std::to_string(ep.migrations) + "}");
  }

  // ckpt_roundtrip has its own size schedule: snapshot cost scales with state
  // volume, not event throughput, so it covers small/medium/large fleets
  // regardless of what --sizes asked the hot-path benches to run.
  std::vector<int> ckpt_sizes = smoke ? std::vector<int>{64}
                                      : std::vector<int>{64, 512, 3000};
  for (int n : ckpt_sizes) {
    CkptResult ck = bench_ckpt_roundtrip(n, 42);
    std::printf(
        "ckpt_roundtrip     %6d servers: save %.4fs, restore %.4fs, "
        "%llu bytes (%s)\n",
        n, ck.save_seconds, ck.restore_seconds,
        static_cast<unsigned long long>(ck.bytes),
        ck.resume_identical ? "resume bit-identical" : "DIVERGED");
    emit("{\"name\": \"ckpt_roundtrip\", \"servers\": " + std::to_string(n) +
         ", \"vms\": " + std::to_string(ck.vms) +
         ", \"save_seconds\": " + num(ck.save_seconds) +
         ", \"restore_seconds\": " + num(ck.restore_seconds) +
         ", \"bytes\": " + std::to_string(ck.bytes) +
         ", \"resume_identical\": " +
         std::string(ck.resume_identical ? "true" : "false") + "}");
    if (!ck.resume_identical) return 1;
  }

  json += "\n  ]\n}\n";
  // Write-to-temp + rename: the result file only ever appears complete.  An
  // interrupted run leaves the previous BENCH_core.json untouched.
  std::string tmp_path = out_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_core: cannot open %s\n", tmp_path.c_str());
    return 1;
  }
  if (std::fputs(json.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "perf_core: write to %s failed\n", tmp_path.c_str());
    std::remove(tmp_path.c_str());
    return 1;
  }
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    std::fprintf(stderr, "perf_core: rename %s -> %s failed\n",
                 tmp_path.c_str(), out_path.c_str());
    std::remove(tmp_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());

  if (trace != nullptr) {
    trace->write(trace_path);
    std::printf("wrote %s (%zu trace events, %llu dropped)\n",
                trace_path.c_str(), trace->size(),
                static_cast<unsigned long long>(trace->dropped()));
  }
  if (metrics != nullptr) {
    metrics->write(metrics_path);
    std::printf("wrote %s (%zu series)\n", metrics_path.c_str(),
                metrics->series_count());
  }
  return 0;
}
