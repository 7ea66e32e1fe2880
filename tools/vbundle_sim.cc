// vbundle_sim: command-line front end for running v-Bundle scenarios.
//
// Subcommands:
//   placement   boot VM fleets for N customers and report clustering
//   rebalance   run the decentralized shuffler on a skewed cloud (SD series)
//   sipp        the VoIP QoS experiment (failed calls / response times)
//   overhead    per-host message overhead of the running service
//   arena       open-world admission campaign (also spelled --arena)
//
// Run `vbundle_sim --help` for the full flag reference; the same text lives
// in help() below and must stay in sync with the subcommand code.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "arena/arena.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vbundle/cloud.h"
#include "workloads/scenario.h"
#include "workloads/sip_model.h"

using namespace vb;

namespace {

core::CloudConfig config_from(const Flags& flags) {
  core::CloudConfig cfg;
  cfg.topology.num_pods = flags.get_int("pods", 2);
  cfg.topology.racks_per_pod = flags.get_int("racks", 4);
  cfg.topology.hosts_per_rack = flags.get_int("hosts", 4);
  cfg.topology.host_nic_mbps = flags.get_double("nic", 1000.0);
  cfg.topology.tor_oversubscription = flags.get_double("oversub", 8.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  cfg.vbundle.threshold = flags.get_double("threshold", 0.183);
  cfg.vbundle.update_interval_s = flags.get_double("update-interval", 300.0);
  cfg.vbundle.rebalance_interval_s =
      flags.get_double("rebalance-interval", 1500.0);
  cfg.vbundle.balance_cpu = flags.get_bool("balance-cpu", false);
  if (cfg.vbundle.balance_cpu) {
    cfg.host_cpu_capacity = flags.get_double("cpu-capacity", 32.0);
  }
  return cfg;
}

// Attaches the --trace/--metrics observability sinks to a cloud and flushes
// them when the subcommand returns (any exit path after construction).
struct ObsSink {
  ObsSink(const Flags& flags, core::VBundleCloud& c)
      : trace_path_(flags.get_string("trace", "")),
        metrics_path_(flags.get_string("metrics", "")),
        cloud_(&c) {
    if (!trace_path_.empty()) cloud_->set_trace_recorder(&trace_);
  }
  ~ObsSink() {
    if (!trace_path_.empty()) {
      cloud_->set_trace_recorder(nullptr);
      trace_.write(trace_path_);
      std::printf("wrote %s (%zu trace events, %llu dropped)\n",
                  trace_path_.c_str(), trace_.size(),
                  static_cast<unsigned long long>(trace_.dropped()));
    }
    if (!metrics_path_.empty()) {
      cloud_->collect_metrics(metrics_);
      metrics_.write(metrics_path_);
      std::printf("wrote %s (%zu series)\n", metrics_path_.c_str(),
                  metrics_.series_count());
    }
  }

 private:
  obs::TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  std::string trace_path_;
  std::string metrics_path_;
  core::VBundleCloud* cloud_;
};

void write_image(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open checkpoint file for writing: " + path);
  }
  std::size_t n = std::fwrite(b.data(), 1, b.size(), f);
  if (std::fclose(f) != 0 || n != b.size()) {
    throw std::runtime_error("short write to checkpoint file: " + path);
  }
}

std::vector<std::uint8_t> read_image(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open checkpoint file: " + path);
  }
  std::vector<std::uint8_t> b;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    b.insert(b.end(), buf, buf + n);
  }
  bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw std::runtime_error("read error on checkpoint file: " + path);
  return b;
}

int run_placement(const Flags& flags) {
  core::CloudConfig cfg = config_from(flags);
  cfg.vbundle.max_placement_visits = flags.get_int("max-visits", 1024);
  core::VBundleCloud cloud(cfg);
  ObsSink obs_sink(flags, cloud);
  int n_customers = flags.get_int("customers", 3);
  int vms_each = flags.get_int("vms", 50);

  TextTable t;
  t.set_header({"customer", "placed", "hosts", "racks", "anchor host"});
  for (int c = 0; c < n_customers; ++c) {
    std::string name = c < static_cast<int>(load::paper_customers().size())
                           ? load::paper_customers()[static_cast<std::size_t>(c)]
                           : "customer-" + std::to_string(c);
    auto cust = cloud.add_customer(name);
    std::vector<host::VmId> placed;
    for (int i = 0; i < vms_each; ++i) {
      host::VmSpec spec = i % 2 == 0 ? host::VmSpec{100, 200}
                                     : host::VmSpec{200, 400};
      auto r = cloud.boot_vm(cust, spec);
      if (r.ok) placed.push_back(r.vm);
    }
    std::vector<char> host_used(static_cast<std::size_t>(cloud.num_hosts()), 0);
    std::vector<char> rack_used(static_cast<std::size_t>(cloud.topology().num_racks()), 0);
    for (host::VmId v : placed) {
      int h = cloud.fleet().vm(v).host;
      host_used[static_cast<std::size_t>(h)] = 1;
      rack_used[static_cast<std::size_t>(cloud.topology().rack_of(h))] = 1;
    }
    int hosts = 0, racks = 0;
    for (char u : host_used) hosts += u;
    for (char u : rack_used) racks += u;
    int anchor = cloud.pastry().global_closest(cloud.customer_key(cust)).host;
    t.add_row({name, TextTable::num(placed.size()),
               TextTable::num(static_cast<std::size_t>(hosts)),
               TextTable::num(static_cast<std::size_t>(racks)),
               TextTable::num(static_cast<std::size_t>(anchor))});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int run_rebalance(const Flags& flags) {
  core::CloudConfig cfg = config_from(flags);
  core::VBundleCloud cloud(cfg);
  ObsSink obs_sink(flags, cloud);
  int vms_per_host = flags.get_int("vms-per-host", 10);
  double duration = flags.get_double("duration", 4800.0);
  double ckpt_every = flags.get_double("checkpoint-every", 0.0);
  std::string ckpt_file = flags.get_string("checkpoint-file", "vbundle_sim.ckpt");
  std::string restore_from = flags.get_string("restore-from", "");

  // Deterministic setup.  When restoring, the VM placement and skew are
  // skipped — the image's fleet section carries them (and any VMs the saved
  // run migrated since).
  auto c = cloud.add_customer("cli");
  if (restore_from.empty()) {
    for (int h = 0; h < cloud.num_hosts(); ++h) {
      for (int i = 0; i < vms_per_host; ++i) {
        host::VmId v = cloud.fleet().create_vm(c, host::VmSpec{20, 150});
        cloud.fleet().place(v, h);
      }
    }
    Rng rng(cfg.seed + 1);
    load::skew_host_utilizations(cloud.fleet(), flags.get_double("lo-util", 0.25),
                                 flags.get_double("hi-util", 1.0), rng);
  }

  cloud.start_rebalancing(0.0, cfg.vbundle.rebalance_interval_s);
  if (!restore_from.empty()) {
    cloud.restore_checkpoint(read_image(restore_from));
    std::printf("restored %s at t=%.3f\n", restore_from.c_str(), cloud.now());
  }
  std::unique_ptr<CsvWriter> csv;
  if (flags.has("csv")) {
    csv = std::make_unique<CsvWriter>(flags.get_string("csv", ""));
    csv->row({"t_seconds", "utilization_sd", "max_utilization", "migrations"});
  }
  TextTable t;
  t.set_header({"t (s)", "util SD", "max util", "migrations"});
  int steps = 16;
  double next_ckpt = ckpt_every > 0 ? ckpt_every : duration + 1.0;
  for (int i = 0; i <= steps; ++i) {
    double at = duration * i / steps;
    if (at < cloud.now()) continue;  // already past (resumed mid-series)
    cloud.run_until(at);
    double sd = cloud.utilization_stddev();
    double mx = 0;
    for (double u : cloud.utilization_snapshot()) mx = std::max(mx, u);
    auto migr = cloud.migrations().completed();
    t.add_row({TextTable::num(at, 0), TextTable::num(sd, 4),
               TextTable::num(mx, 3), TextTable::num(static_cast<std::size_t>(migr))});
    if (csv) {
      csv->row_numeric({at, sd, mx, static_cast<double>(migr)});
    }
    // Checkpoint after sampling: the row grid stays identical between a
    // checkpointing run and a plain one (save quiesces, which steps the
    // clock slightly past `at`).
    if (ckpt_every > 0 && at >= next_ckpt) {
      write_image(ckpt_file, cloud.save_checkpoint());
      std::printf("checkpoint %s at t=%.3f\n", ckpt_file.c_str(), cloud.now());
      while (next_ckpt <= at) next_ckpt += ckpt_every;
    }
  }
  std::printf("%s", t.to_string().c_str());
  if (csv) std::printf("wrote %zu CSV rows\n", csv->rows_written());
  return 0;
}

int run_sipp(const Flags& flags) {
  core::CloudConfig cfg = config_from(flags);
  cfg.vbundle.threshold = flags.get_double("threshold", 0.15);
  cfg.vbundle.update_interval_s = flags.get_double("update-interval", 60.0);
  cfg.vbundle.rebalance_interval_s =
      flags.get_double("rebalance-interval", 75.0);
  core::VBundleCloud cloud(cfg);
  ObsSink obs_sink(flags, cloud);
  auto cust = cloud.add_customer("voip");

  host::VmId sipp_vm = cloud.fleet().create_vm(cust, host::VmSpec{100, 400});
  cloud.fleet().place(sipp_vm, 0);
  int iperf = flags.get_int("iperf-vms", 12);
  for (int i = 0; i < iperf; ++i) {
    host::VmId v = cloud.fleet().create_vm(cust, host::VmSpec{40, 200});
    cloud.fleet().place(v, 0);
    cloud.fleet().set_demand(v, 100.0);
  }
  for (int h = 1; h < cloud.num_hosts(); ++h) {
    for (int i = 0; i < 4; ++i) {
      host::VmId v = cloud.fleet().create_vm(cust, host::VmSpec{20, 100});
      cloud.fleet().place(v, h);
      cloud.fleet().set_demand(v, 10.0);
    }
  }

  load::SipModel sip{load::SipConfig{}};
  double rebalance_at = flags.get_double("rebalance-at", 300.0);
  cloud.start_rebalancing(0.0, rebalance_at);

  std::unique_ptr<CsvWriter> csv;
  if (flags.has("csv")) {
    csv = std::make_unique<CsvWriter>(flags.get_string("csv", ""));
    csv->row({"t_seconds", "offered_cps", "granted_mbps", "failed_calls"});
  }
  int duration = flags.get_int("duration", 500);
  std::uint64_t total_failed = 0;
  for (int t = 0; t < duration; ++t) {
    cloud.run_until(static_cast<double>(t));
    cloud.fleet().set_demand(sipp_vm, sip.demand_mbps(sip.elapsed_s()));
    int h = cloud.fleet().vm(sipp_vm).host;
    double granted = 0;
    for (const auto& [vm, mbps] : cloud.fleet().shape_host(h)) {
      if (vm == sipp_vm) granted = mbps;
    }
    std::uint64_t failed = sip.step(granted);
    total_failed += failed;
    if (csv) {
      csv->row_numeric({static_cast<double>(t), sip.offered_rate_cps(t),
                        granted, static_cast<double>(failed)});
    }
  }
  std::printf("calls attempted %llu, failed %llu; migrations %llu\n",
              static_cast<unsigned long long>(sip.stats().calls_attempted),
              static_cast<unsigned long long>(sip.stats().calls_failed),
              static_cast<unsigned long long>(cloud.migrations().completed()));
  return 0;
}

int run_overhead(const Flags& flags) {
  core::CloudConfig cfg = config_from(flags);
  core::VBundleCloud cloud(cfg);
  ObsSink obs_sink(flags, cloud);
  auto c = cloud.add_customer("cli");
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    for (int i = 0; i < 6; ++i) {
      host::VmId v = cloud.fleet().create_vm(c, host::VmSpec{20, 150});
      cloud.fleet().place(v, h);
    }
  }
  Rng rng(cfg.seed + 1);
  load::skew_host_utilizations(cloud.fleet(), 0.25, 1.0, rng);
  cloud.start_rebalancing(0.0, cfg.vbundle.rebalance_interval_s);
  int rounds = flags.get_int("rounds", 10);
  cloud.run_until(cfg.vbundle.update_interval_s);  // warm up one round
  cloud.pastry().reset_counters();
  cloud.run_until(cfg.vbundle.update_interval_s * (1 + rounds));

  std::vector<double> per_node;
  for (auto m : cloud.pastry().per_node_msgs()) {
    per_node.push_back(static_cast<double>(m) / rounds);
  }
  TextTable t;
  t.set_header({"percentile", "msgs/round"});
  for (double p : {50.0, 90.0, 99.0, 100.0}) {
    t.add_row({TextTable::num(p, 0), TextTable::num(percentile(per_node, p), 1)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

// Open-world admission campaign: the src/arena subsystem behind a CLI.
// Boots a cloud, streams seeded VC(N, B) requests through the chosen
// embedder's admission control, and reports the campaign outcome.  Supports
// the same checkpoint/restore workflow as `rebalance` — the whole campaign
// (loop state, generator stream, admission ledgers, cloud image) round-trips
// and the resumed run is bit-identical to one that never stopped.
int run_arena(const Flags& flags) {
  core::CloudConfig cfg = config_from(flags);
  core::VBundleCloud cloud(cfg);

  arena::ArenaConfig acfg;
  acfg.embedder =
      arena::embedder_kind_from(flags.get_string("embedder", "vbundle"));
  // The shuffling service is part of the v-Bundle offering; baselines run
  // without it unless explicitly asked.
  acfg.enable_rebalancing = flags.get_bool(
      "rebalance", acfg.embedder == arena::EmbedderKind::kVBundle);
  acfg.generator.seed =
      static_cast<std::uint64_t>(flags.get_int("arena-seed", 1));
  acfg.generator.base_arrival_per_s = flags.get_double("arrival-rate", 0.05);
  acfg.generator.diurnal_amplitude =
      flags.get_double("diurnal-amplitude", 0.5);
  acfg.generator.diurnal_period_s =
      flags.get_double("diurnal-period", 86400.0);
  acfg.generator.lognormal_lifetimes = flags.get_bool("lognormal", false);
  acfg.generator.mean_lifetime_s = flags.get_double("lifetime", 4 * 3600.0);
  acfg.generator.n_min = flags.get_int("n-min", 2);
  acfg.generator.n_max = flags.get_int("n-max", 16);
  acfg.competitive.mu = flags.get_double("mu", 16.0);
  acfg.competitive.reject_threshold =
      flags.get_double("reject-threshold", 0.6);
  acfg.max_requests = static_cast<std::uint64_t>(flags.get_int("requests", 1000));
  acfg.horizon_s = flags.get_double("duration", 86400.0);
  acfg.sample_every_s = flags.get_double("sample-every", 600.0);
  acfg.demand_apply_interval_s = flags.get_double("demand-interval", 60.0);

  arena::Arena a(&cloud, acfg);

  obs::TraceRecorder trace;
  std::string trace_path = flags.get_string("trace", "");
  if (!trace_path.empty()) cloud.set_trace_recorder(&trace);

  std::string restore_from = flags.get_string("restore-from", "");
  if (!restore_from.empty()) {
    a.restore_checkpoint(read_image(restore_from));
    std::printf("restored %s at t=%.3f\n", restore_from.c_str(), cloud.now());
  }

  double ckpt_every = flags.get_double("checkpoint-every", 0.0);
  std::string ckpt_file =
      flags.get_string("checkpoint-file", "vbundle_sim.ckpt");
  if (ckpt_every > 0) {
    for (double at = ckpt_every; at < acfg.horizon_s; at += ckpt_every) {
      if (at <= cloud.now()) continue;  // already past (resumed mid-campaign)
      a.run_until(at);
      write_image(ckpt_file, a.save_checkpoint());
      std::printf("checkpoint %s at t=%.3f\n", ckpt_file.c_str(), cloud.now());
    }
  }
  a.run();

  const arena::AdmissionStats& s = a.admission().stats();
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(s.decision_fingerprint));
  TextTable t;
  t.set_header({"metric", "value"});
  t.add_row({"embedder", arena::embedder_kind_name(acfg.embedder)});
  t.add_row({"requests offered", TextTable::num(s.offered)});
  t.add_row({"accepted", TextTable::num(s.accepted)});
  t.add_row({"rejected (capacity)", TextTable::num(s.rejected_capacity)});
  t.add_row({"rejected (cost gate)", TextTable::num(s.rejected_cost)});
  t.add_row({"acceptance rate", TextTable::num(s.acceptance_rate(), 4)});
  t.add_row({"revenue booked ($)", TextTable::num(s.revenue, 2)});
  t.add_row({"revenue offered ($)", TextTable::num(s.offered_revenue, 2)});
  t.add_row({"SLO violations", TextTable::num(a.admission().slo_violations())});
  t.add_row({"migration churn",
             TextTable::num(static_cast<std::size_t>(
                 cloud.migrations().completed()))});
  t.add_row({"fragmentation", TextTable::num(a.fragmentation(), 4)});
  t.add_row({"utilization", TextTable::num(a.utilization(), 4)});
  t.add_row({"decision fingerprint", fp});
  std::printf("%s", t.to_string().c_str());

  std::string metrics_path = flags.get_string("metrics", "");
  if (!metrics_path.empty()) {
    obs::MetricsRegistry reg;
    cloud.collect_metrics(reg);
    a.collect_metrics(reg);
    reg.write(metrics_path);
    std::printf("wrote %s (%zu series)\n", metrics_path.c_str(),
                reg.series_count());
  }
  if (!trace_path.empty()) {
    cloud.set_trace_recorder(nullptr);
    trace.write(trace_path);
    std::printf("wrote %s (%zu trace events, %llu dropped)\n",
                trace_path.c_str(), trace.size(),
                static_cast<unsigned long long>(trace.dropped()));
  }
  return 0;
}

int help() {
  std::printf(
      "usage: vbundle_sim <subcommand> [--flags]\n"
      "\n"
      "Subcommands:\n"
      "  placement   boot VM fleets for N customers, report clustering\n"
      "  rebalance   run the decentralized shuffler on a skewed cloud\n"
      "  sipp        the VoIP QoS experiment (failed calls over time)\n"
      "  overhead    per-host message overhead of the running service\n"
      "  arena       open-world admission campaign (also: vbundle_sim\n"
      "              --arena); v-Bundle or a baseline embedder\n"
      "\n"
      "Common flags (every subcommand):\n"
      "  --pods N --racks N --hosts N   topology shape (default 2x4x4)\n"
      "  --nic MBPS                     host NIC capacity (default 1000)\n"
      "  --oversub R                    ToR oversubscription (default 8)\n"
      "  --seed S                       cloud RNG seed (default 42)\n"
      "  --threshold T                  shed/receive margin (default 0.183;\n"
      "                                 sipp defaults to 0.15)\n"
      "  --update-interval S            stat aggregation period (default 300;\n"
      "                                 sipp defaults to 60)\n"
      "  --rebalance-interval S         shuffling period (default 1500; sipp\n"
      "                                 defaults to 75)\n"
      "  --balance-cpu                  shuffle on max(net, cpu) utilization\n"
      "  --cpu-capacity C               host CPU capacity with --balance-cpu\n"
      "                                 (default 32)\n"
      "  --trace PATH                   record causal traces; Chrome JSON,\n"
      "                                 or JSONL if PATH ends in .jsonl\n"
      "  --metrics PATH                 final metrics snapshot; CSV, or JSON\n"
      "                                 if PATH ends in .json (arena adds\n"
      "                                 its arena.* series)\n"
      "\n"
      "placement:\n"
      "  --customers N                  tenants to boot (default 3)\n"
      "  --vms N                        VMs per tenant (default 50)\n"
      "  --max-visits N                 placement walk budget (default 1024)\n"
      "\n"
      "rebalance:\n"
      "  --vms-per-host N               initial packing (default 10)\n"
      "  --duration S                   simulated seconds (default 4800)\n"
      "  --lo-util F --hi-util F        initial skew range (default 0.25, 1)\n"
      "  --csv PATH                     dump the SD series as CSV\n"
      "\n"
      "sipp:\n"
      "  --duration S                   simulated seconds (default 500)\n"
      "  --iperf-vms N                  colocated load VMs (default 12)\n"
      "  --rebalance-at S               first shuffle round (default 300)\n"
      "  --csv PATH                     per-second call/bandwidth series\n"
      "\n"
      "overhead:\n"
      "  --rounds N                     measured update rounds (default 10)\n"
      "\n"
      "arena:\n"
      "  --embedder KIND                vbundle | greedy_tree | competitive |\n"
      "                                 first_fit (default vbundle)\n"
      "  --requests N                   stop offering after N arrivals\n"
      "                                 (default 1000)\n"
      "  --duration S                   campaign horizon (default 86400)\n"
      "  --arena-seed S                 request-stream seed (default 1)\n"
      "  --arrival-rate R               base arrivals/s (default 0.05)\n"
      "  --diurnal-amplitude A          sine modulation in [0,1) (default .5)\n"
      "  --diurnal-period S             modulation period (default 86400)\n"
      "  --lifetime S                   mean bundle lifetime (default 14400)\n"
      "  --lognormal                    lognormal lifetimes (default\n"
      "                                 exponential)\n"
      "  --n-min N --n-max N            bundle size range (default 2..16)\n"
      "  --mu B                         competitive cost base (default 16)\n"
      "  --reject-threshold T           competitive gate: reject when\n"
      "                                 (mu^u-1)/(mu-1) > T (default 0.6)\n"
      "  --rebalance[=0|1]              run the shuffling service (default:\n"
      "                                 on for --embedder vbundle, else off)\n"
      "  --sample-every S               frag/util sampling period (default\n"
      "                                 600)\n"
      "  --demand-interval S            demand-shape application period;\n"
      "                                 0 disables (default 60)\n"
      "\n"
      "Checkpointing (rebalance and arena; see docs/ARCHITECTURE.md):\n"
      "  --checkpoint-every S           save an image every S simulated\n"
      "                                 seconds (taken at quiesce barriers)\n"
      "  --checkpoint-file PATH         where to write it (default\n"
      "                                 vbundle_sim.ckpt, overwritten)\n"
      "  --restore-from PATH            resume from an image instead of\n"
      "                                 starting at t=0.  All scenario flags\n"
      "                                 (seed, shape, intervals, arena\n"
      "                                 workload) and the presence of --trace\n"
      "                                 must match the saving run; the\n"
      "                                 resumed run is bit-identical to one\n"
      "                                 that never stopped.  Re-running the\n"
      "                                 same tail with --trace added is the\n"
      "                                 time-travel workflow (EXPERIMENTS.md)\n"
      "\n"
      "Examples:\n"
      "  vbundle_sim placement --customers 5 --vms 200 --racks 8\n"
      "  vbundle_sim rebalance --threshold 0.1 --duration 4800 --csv sd.csv\n"
      "  vbundle_sim rebalance --duration 4800 --checkpoint-every 1200\n"
      "  vbundle_sim rebalance --duration 4800 --restore-from vbundle_sim.ckpt\n"
      "  vbundle_sim sipp --duration 500\n"
      "  vbundle_sim arena --embedder competitive --requests 5000 \\\n"
      "      --arrival-rate 0.5 --duration 12000\n"
      "  vbundle_sim arena --requests 2000 --checkpoint-every 3000 \\\n"
      "      --metrics arena.metrics.json\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: vbundle_sim <placement|rebalance|sipp|overhead|arena> "
               "[--flags]\n(run `vbundle_sim --help` for the full flag "
               "reference)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Flags flags = Flags::parse(argc - 2, argv + 2);
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return help();
  try {
    if (cmd == "placement") return run_placement(flags);
    if (cmd == "rebalance") return run_rebalance(flags);
    if (cmd == "sipp") return run_sipp(flags);
    if (cmd == "overhead") return run_overhead(flags);
    if (cmd == "arena" || cmd == "--arena") return run_arena(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbundle_sim: %s\n", e.what());
    return 1;
  }
  return usage();
}
