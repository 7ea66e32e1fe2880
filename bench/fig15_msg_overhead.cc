// Figure 15: CDF of per-host message overhead (messages per round) for 512
// and 1024 servers, running the full v-Bundle service (aggregation
// framework + v-Bundle on top).
//
// Paper claims: for 90% of the servers the overhead stays under ~140
// messages/round and ~40 KB/round at 1024 hosts, and overhead grows
// "organically, in a very logarithmic fashion" with system size.
#include "bench_util.h"

using namespace vb;

namespace {

struct Overhead {
  std::vector<double> msgs_per_round;
  std::vector<double> kb_per_round;
  std::array<std::uint64_t, pastry::TrafficCounters::kCategories> by_category{};
};

Overhead run(int pods, int racks, int hosts, std::uint64_t seed) {
  core::CloudConfig cfg;
  cfg.topology.num_pods = pods;
  cfg.topology.racks_per_pod = racks;
  cfg.topology.hosts_per_rack = hosts;
  cfg.seed = seed;
  cfg.vbundle.threshold = 0.183;
  core::VBundleCloud cloud(cfg);

  auto c = cloud.add_customer("FigFifteen");
  // Demands redrawn every 5 minutes keep the v-Bundle service active in
  // steady state (the paper's hosts run live, varying workloads).
  static load::DemandModel model;  // outlives the cloud run
  model = load::DemandModel{};
  Rng rng(seed + 1);
  for (int h = 0; h < cloud.num_hosts(); ++h) {
    for (int i = 0; i < 8; ++i) {
      host::VmId v = cloud.fleet().create_vm(c, host::VmSpec{20.0, 150.0});
      cloud.fleet().place(v, h);
      model.assign(v, load::Demand::random_slot(0.0, 140.0, 300.0,
                                                rng.next_u64()));
    }
  }
  cloud.attach_demand_model(&model, 300.0);

  // Warm up the service so tree joins and the first classification are not
  // charged to the steady-state rounds.
  cloud.start_rebalancing(0.0, 1500.0);
  cloud.run_until(1800.0);
  cloud.pastry().reset_counters();

  // Measure R steady-state update rounds (one round = one 5-min updating
  // interval, including any rebalancing activity that fires within).
  const int kRounds = 10;
  cloud.run_until(1800.0 + kRounds * 300.0);

  Overhead out;
  for (const pastry::PastryNode* n : cloud.pastry().nodes()) {
    const pastry::TrafficCounters& tc = n->counters();
    out.msgs_per_round.push_back(static_cast<double>(tc.total_msgs()) / kRounds);
    out.kb_per_round.push_back(static_cast<double>(tc.total_bytes()) / 1024.0 /
                               kRounds);
    for (int cat = 0; cat < pastry::TrafficCounters::kCategories; ++cat) {
      out.by_category[static_cast<std::size_t>(cat)] +=
          tc.msgs_sent[static_cast<std::size_t>(cat)];
    }
  }
  return out;
}

void report(const char* label, const Overhead& o) {
  std::printf("\n--- %s ---\n", label);
  TextTable t;
  t.set_header({"percentile", "msgs/round", "KB/round"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    t.add_row({TextTable::num(p, 0),
               TextTable::num(percentile(o.msgs_per_round, p), 1),
               TextTable::num(percentile(o.kb_per_round, p), 1)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("90%% of servers send <= %.0f msgs/round and <= %.0f KB/round\n",
              percentile(o.msgs_per_round, 90), percentile(o.kb_per_round, 90));

  std::uint64_t total = 0;
  for (auto v : o.by_category) total += v;
  std::printf("message breakdown:");
  for (int cat = 0; cat < pastry::TrafficCounters::kCategories; ++cat) {
    std::printf(" %s=%.1f%%",
                pastry::to_string(static_cast<pastry::MsgCategory>(cat)),
                total ? 100.0 * static_cast<double>(
                                    o.by_category[static_cast<std::size_t>(cat)]) /
                            static_cast<double>(total)
                      : 0.0);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  benchutil::print_header(
      "Figure 15 - CDF of per-host messages/round, 512 vs 1024 servers",
      "90% of hosts stay under ~140 msgs/round and ~40 KB/round at 1024 "
      "servers; growth with system size is logarithmic, not linear");

  Overhead o512 = run(4, 8, 16, 42);    // 512 servers
  Overhead o1024 = run(4, 16, 16, 42);  // 1024 servers
  report("512 servers", o512);
  report("1024 servers", o1024);

  double m512 = percentile(o512.msgs_per_round, 90);
  double m1024 = percentile(o1024.msgs_per_round, 90);
  std::printf(
      "\ndoubling servers changed the p90 per-host load by %.2fx "
      "(logarithmic growth => ratio stays near 1.0, far from 2.0)\n",
      m1024 / std::max(1e-9, m512));
  return 0;
}
