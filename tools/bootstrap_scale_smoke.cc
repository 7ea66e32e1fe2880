// Scale smoke for the bulk-join bootstrap (src/pastry/bulk_bootstrap.h):
// bring up a 100,000-server overlay in one bootstrap_bulk call, assert it
// fits a wall-clock budget and a peak-RSS budget, and spot-check routes
// against the global-closest oracle.  Registered as the Release-only
// `bootstrap_scale_smoke` ctest (label: bench) — debug allocators make both
// budgets meaningless in other build types.
//
// Usage: bootstrap_scale_smoke [--servers=N] [--budget-s=S] [--routes=R]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <sys/resource.h>

#include "common/rng.h"
#include "common/u128.h"
#include "net/topology.h"
#include "pastry/bulk_bootstrap.h"
#include "pastry/pastry_network.h"
#include "sim/simulator.h"

using namespace vb;

namespace {

long flag(int argc, char** argv, const char* name, long fallback) {
  std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::strtol(argv[i] + len + 1, nullptr, 10);
    }
  }
  return fallback;
}

/// Follows next_hop pointers without touching the simulator; returns the
/// final node's id.
U128 walk(pastry::PastryNetwork& net, const U128& start, const U128& key) {
  const pastry::PastryNode* cur = net.find(start);
  for (int hop = 0; hop < 64; ++hop) {
    pastry::NodeHandle next = cur->next_hop(key);
    if (next.id == cur->id()) return cur->id();
    cur = net.find(next.id);
    if (cur == nullptr) break;
  }
  std::fprintf(stderr, "bootstrap_scale_smoke: route for %s did not "
               "terminate\n", key.short_hex().c_str());
  std::exit(1);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  const int servers = static_cast<int>(flag(argc, argv, "--servers", 100'000));
  const double budget_s =
      static_cast<double>(flag(argc, argv, "--budget-s", 10));
  constexpr double kBudgetRssMib = 1024;
  const int route_checks = static_cast<int>(flag(argc, argv, "--routes", 256));
  if (servers <= 0 || budget_s <= 0 || route_checks < 0) {
    std::fprintf(stderr, "bootstrap_scale_smoke: --servers and --budget-s "
                 "must be positive, --routes non-negative\n");
    return 2;
  }

  // 25 hosts/rack * 10 racks/pod * ceil(servers/250) pods.
  net::TopologyConfig tc;
  tc.hosts_per_rack = 25;
  tc.racks_per_pod = 10;
  tc.num_pods = (servers + 249) / 250;
  net::Topology topo(tc);
  if (topo.num_hosts() < servers) {
    std::fprintf(stderr, "bootstrap_scale_smoke: topology too small\n");
    return 1;
  }

  Rng rng(20120612);  // ICDCS'12
  std::vector<U128> ids;
  ids.reserve(static_cast<std::size_t>(servers));
  {
    std::vector<U128> sorted;
    while (static_cast<int>(ids.size()) < servers) {
      U128 id = rng.next_u128();
      ids.push_back(id);
    }
    sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == sorted[i - 1]) {
        std::fprintf(stderr, "bootstrap_scale_smoke: id collision\n");
        return 1;  // 2^-94 per pair; seed is fixed, so this never fires
      }
    }
  }

  sim::Simulator sim;
  pastry::PastryNetwork net(&sim, &topo);
  auto t0 = std::chrono::steady_clock::now();
  net.bootstrap_bulk(pastry::fleet_one_per_host(ids));
  double boot_s = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  std::printf("bootstrap_scale_smoke: booted %d servers in %.3f s "
              "(budget %.1f s)\n", servers, boot_s, budget_s);
  if (boot_s > budget_s) {
    std::fprintf(stderr, "bootstrap_scale_smoke: FAIL: bulk boot took "
                 "%.3f s > %.1f s budget\n", boot_s, budget_s);
    return 1;
  }
  const double rss_mib = peak_rss_mib();
  std::printf("bootstrap_scale_smoke: peak RSS %.1f MiB (budget %.0f MiB)\n",
              rss_mib, kBudgetRssMib);
  if (rss_mib > kBudgetRssMib) {
    std::fprintf(stderr, "bootstrap_scale_smoke: FAIL: peak RSS %.1f MiB > "
                 "%.0f MiB budget\n", rss_mib, kBudgetRssMib);
    return 1;
  }

  // Sampled route sanity: every walk must terminate on the globally closest
  // node, from arbitrary starting points, for arbitrary keys.
  for (int i = 0; i < route_checks; ++i) {
    U128 key = rng.next_u128();
    const U128& start = ids[rng.index(ids.size())];
    U128 dest = walk(net, start, key);
    U128 want = net.global_closest(key).id;
    if (!(dest == want)) {
      std::fprintf(stderr, "bootstrap_scale_smoke: FAIL: route %d for key %s "
                   "landed on %s, closest is %s\n", i, key.short_hex().c_str(),
                   dest.short_hex().c_str(), want.short_hex().c_str());
      return 1;
    }
  }
  std::printf("bootstrap_scale_smoke: %d sampled routes all landed on the "
              "globally closest node\n", route_checks);
  std::printf("bootstrap_scale_smoke: OK\n");
  return 0;
}
