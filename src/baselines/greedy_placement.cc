#include "baselines/greedy_placement.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace vb::baseline {

namespace {
// Feasibility comparisons tolerate tiny float residue from repeated
// reserve/release cycles; the slack is far below any real reservation.
constexpr double kEps = 1e-9;

// VMs with these reservations that `hh` can still admit: the tightest of its
// bandwidth, CPU and memory headroom, clamped into [0, INT_MAX].
int uncapped_slots(const host::Host& hh, double bw, double cpu, double ram) {
  double s = std::numeric_limits<int>::max();
  if (bw > 0) {
    s = std::min(s, std::floor((hh.free_reservation_mbps() + kEps) / bw));
  }
  if (cpu > 0) {
    s = std::min(
        s, std::floor((hh.cpu_capacity() - hh.reserved_cpu() + kEps) / cpu));
  }
  if (ram > 0) {
    s = std::min(
        s, std::floor((hh.mem_capacity_mb() - hh.reserved_mem_mb() + kEps) /
                      ram));
  }
  return s > 0 ? static_cast<int>(s) : 0;
}
}  // namespace

GreedyPlacer::GreedyPlacer(host::Fleet* fleet) : fleet_(fleet) {
  if (fleet == nullptr) throw std::invalid_argument("GreedyPlacer: null fleet");
}

int GreedyPlacer::place(host::VmId vm) {
  for (int h = 0; h < fleet_->num_hosts(); ++h) {
    ++hosts_examined_;
    if (fleet_->place(vm, h)) return h;
  }
  return -1;
}

GreedyTreePacker::GreedyTreePacker(host::Fleet* fleet,
                                   const net::Topology* topo)
    : fleet_(fleet), topo_(topo) {
  if (fleet == nullptr || topo == nullptr) {
    throw std::invalid_argument("GreedyTreePacker: null fleet/topology");
  }
  if (fleet->num_hosts() != topo->num_hosts()) {
    throw std::invalid_argument("GreedyTreePacker: fleet/topology disagree");
  }
  uplink_reserved_.assign(static_cast<std::size_t>(topo->num_links()), 0.0);
}

double GreedyTreePacker::uplink_free(net::LinkId l) const {
  return topo_->link_capacity_mbps(l) -
         uplink_reserved_[static_cast<std::size_t>(l)];
}

const std::vector<int>& GreedyTreePacker::slots_for(const host::VmSpec& spec) {
  auto it = std::find_if(
      slot_caches_.begin(), slot_caches_.end(), [&](const SlotCache& c) {
        return c.bw == spec.reservation_mbps &&
               c.cpu == spec.cpu_reservation && c.ram == spec.ram_mb;
      });
  if (it == slot_caches_.end()) {
    // Seq 0 precedes every stamp, so the first refresh derives every host.
    slot_caches_.push_back(SlotCache{
        spec.reservation_mbps, spec.cpu_reservation, spec.ram_mb, 0,
        std::vector<int>(static_cast<std::size_t>(fleet_->num_hosts()))});
    it = slot_caches_.end() - 1;
  }
  SlotCache& c = *it;
  fleet_->for_each_host_changed_since(c.seq, [&](int h) {
    c.slots[static_cast<std::size_t>(h)] =
        uncapped_slots(fleet_->host(h), c.bw, c.cpu, c.ram);
  });
  c.seq = fleet_->reservation_seq();
  return c.slots;
}

GreedyTreePacker::Result GreedyTreePacker::pack(int n_vms,
                                                const host::VmSpec& spec) {
  Result res;
  if (n_vms <= 0) return res;
  const int n = n_vms;
  const int nh = fleet_->num_hosts();
  const int nr = topo_->num_racks();
  const int np = topo_->num_pods();
  const double bw = spec.reservation_mbps;

  // VMs of `spec` each host can still admit, capped at n, and their
  // per-rack totals, in one pass over each rack's contiguous host ids.
  const std::vector<int>& slots = slots_for(spec);
  const int hosts_per_rack = topo_->config().hosts_per_rack;
  std::vector<int> rack_slots(static_cast<std::size_t>(nr));
  for (int r = 0, h = 0; r < nr; ++r) {
    int pool = 0;
    for (const int end = h + hosts_per_rack; h < end; ++h) {
      pool += std::min(n, slots[static_cast<std::size_t>(h)]);
    }
    rack_slots[static_cast<std::size_t>(r)] = pool;
  }
  res.hosts_examined = static_cast<std::uint64_t>(nh);
  hosts_examined_ += static_cast<std::uint64_t>(nh);

  // Appends `m` (<= n) VM placements from rack `r`, hosts in id order.
  auto fill_rack = [&](int r, int m) {
    int h = topo_->rack_first_host(r);
    int end = h + hosts_per_rack;
    for (; h < end && m > 0; ++h) {
      int take = std::min(slots[static_cast<std::size_t>(h)], m);
      for (int i = 0; i < take; ++i) res.hosts.push_back(h);
      m -= take;
    }
  };

  // Level 1: the whole bundle in one rack — zero bi-section bandwidth.
  // Best fit: the *smallest* rack pool that still holds N, preserving big
  // contiguous pools for later large bundles.
  int best = -1;
  for (int r = 0; r < nr; ++r) {
    if (rack_slots[static_cast<std::size_t>(r)] < n) continue;
    if (best == -1 || rack_slots[static_cast<std::size_t>(r)] <
                          rack_slots[static_cast<std::size_t>(best)]) {
      best = r;
    }
  }
  if (best != -1) {
    fill_rack(best, n);
    res.ok = true;
    return res;
  }

  // Greedy rack fill for a spread placement: racks descending by free slots
  // (ties by id), each taking as many VMs as it can.  A rack holding m of
  // the N VMs needs min(m, N - m) * B on its ToR uplink (hose-model cut);
  // racks whose uplink budget can't carry their share are skipped, and the
  // fill fails (empty plan) if the remainder can't be placed — conservative,
  // no backtracking.
  auto plan_racks = [&](std::vector<int> racks,
                        int need) -> std::vector<std::pair<int, int>> {
    std::sort(racks.begin(), racks.end(), [&](int a, int b) {
      int sa = rack_slots[static_cast<std::size_t>(a)];
      int sb = rack_slots[static_cast<std::size_t>(b)];
      if (sa != sb) return sa > sb;
      return a < b;
    });
    std::vector<std::pair<int, int>> out;
    for (int r : racks) {
      if (need == 0) break;
      int m = std::min(rack_slots[static_cast<std::size_t>(r)], need);
      if (m == 0) continue;
      double uplink = std::min(m, n - m) * bw;
      if (uplink > uplink_free(topo_->tor_up(r)) + kEps) continue;
      out.emplace_back(r, m);
      need -= m;
    }
    if (need != 0) out.clear();
    return out;
  };

  auto commit_racks = [&](const std::vector<std::pair<int, int>>& plan) {
    for (const auto& [r, m] : plan) {
      double uplink = std::min(m, n - m) * bw;
      if (uplink > 0) res.uplink_holds.emplace_back(topo_->tor_up(r), uplink);
      fill_rack(r, m);
    }
  };

  const int racks_per_pod = topo_->config().racks_per_pod;
  std::vector<int> pod_slots(static_cast<std::size_t>(np), 0);
  for (int r = 0; r < nr; ++r) {
    pod_slots[static_cast<std::size_t>(r / racks_per_pod)] +=
        rack_slots[static_cast<std::size_t>(r)];
  }

  // Level 2: one pod, spread across its racks.  Best fit again: pods
  // ascending by pool size (ties by id), first feasible plan wins.
  std::vector<int> pods;
  for (int p = 0; p < np; ++p) {
    if (pod_slots[static_cast<std::size_t>(p)] >= n) pods.push_back(p);
  }
  std::sort(pods.begin(), pods.end(), [&](int a, int b) {
    int sa = pod_slots[static_cast<std::size_t>(a)];
    int sb = pod_slots[static_cast<std::size_t>(b)];
    if (sa != sb) return sa < sb;
    return a < b;
  });
  for (int p : pods) {
    std::vector<int> racks;
    for (int r = p * racks_per_pod; r < (p + 1) * racks_per_pod; ++r) {
      racks.push_back(r);
    }
    auto plan = plan_racks(racks, n);
    if (!plan.empty()) {
      commit_racks(plan);
      res.ok = true;
      return res;
    }
  }

  // Level 3: cross-pod.  Pods descending by pool size take what they can;
  // a pod holding m of N needs min(m, N - m) * B on its agg uplink on top
  // of the per-rack ToR budgets inside it.
  std::vector<int> all_pods(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) all_pods[static_cast<std::size_t>(p)] = p;
  std::sort(all_pods.begin(), all_pods.end(), [&](int a, int b) {
    int sa = pod_slots[static_cast<std::size_t>(a)];
    int sb = pod_slots[static_cast<std::size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  std::vector<std::pair<int, int>> pod_plan;  // (pod, m)
  int need = n;
  for (int p : all_pods) {
    if (need == 0) break;
    int m = std::min(pod_slots[static_cast<std::size_t>(p)], need);
    if (m == 0) continue;
    double agg = std::min(m, n - m) * bw;
    if (agg > uplink_free(topo_->agg_up(p)) + kEps) continue;
    pod_plan.emplace_back(p, m);
    need -= m;
  }
  if (need != 0) return res;  // cloud genuinely full (or too fragmented)

  std::vector<std::pair<int, int>> rack_plan;
  for (const auto& [p, m] : pod_plan) {
    std::vector<int> racks;
    for (int r = p * racks_per_pod; r < (p + 1) * racks_per_pod; ++r) {
      racks.push_back(r);
    }
    auto plan = plan_racks(racks, m);
    if (plan.empty()) return res;  // a ToR budget blocks this pod's share
    rack_plan.insert(rack_plan.end(), plan.begin(), plan.end());
  }
  for (const auto& [p, m] : pod_plan) {
    double agg = std::min(m, n - m) * bw;
    if (agg > 0) res.uplink_holds.emplace_back(topo_->agg_up(p), agg);
  }
  commit_racks(rack_plan);
  res.ok = true;
  return res;
}

void GreedyTreePacker::reserve_uplinks(
    const std::vector<std::pair<net::LinkId, double>>& holds) {
  for (const auto& [l, mbps] : holds) {
    uplink_reserved_[static_cast<std::size_t>(l)] += mbps;
  }
}

void GreedyTreePacker::release_uplinks(
    const std::vector<std::pair<net::LinkId, double>>& holds) {
  for (const auto& [l, mbps] : holds) {
    uplink_reserved_[static_cast<std::size_t>(l)] -= mbps;
  }
}

}  // namespace vb::baseline
