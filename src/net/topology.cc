#include "net/topology.h"

#include <stdexcept>

namespace vb::net {

Topology::Topology(TopologyConfig cfg) : cfg_(cfg) {
  if (cfg_.num_pods <= 0 || cfg_.racks_per_pod <= 0 || cfg_.hosts_per_rack <= 0) {
    throw std::invalid_argument("Topology: all dimensions must be positive");
  }
  if (cfg_.host_nic_mbps <= 0 || cfg_.tor_oversubscription <= 0 ||
      cfg_.agg_oversubscription <= 0) {
    throw std::invalid_argument("Topology: capacities must be positive");
  }
  num_racks_ = cfg_.num_pods * cfg_.racks_per_pod;
  num_hosts_ = num_racks_ * cfg_.hosts_per_rack;
  num_links_ = 2 * num_hosts_ + 2 * num_racks_ + 2 * cfg_.num_pods;
}

int Topology::rack_of(HostId h) const { return h / cfg_.hosts_per_rack; }

int Topology::pod_of(HostId h) const { return rack_of(h) / cfg_.racks_per_pod; }

int Topology::slot_in_rack(HostId h) const { return h % cfg_.hosts_per_rack; }

HostId Topology::rack_first_host(int r) const { return r * cfg_.hosts_per_rack; }

Proximity Topology::proximity(HostId a, HostId b) const {
  if (a == b) return Proximity::kSameHost;
  if (rack_of(a) == rack_of(b)) return Proximity::kSameRack;
  if (pod_of(a) == pod_of(b)) return Proximity::kSamePod;
  return Proximity::kCrossPod;
}

double Topology::latency_s(HostId a, HostId b) const {
  double ms;
  switch (proximity(a, b)) {
    case Proximity::kSameHost: ms = cfg_.same_host_ms; break;
    case Proximity::kSameRack: ms = cfg_.same_rack_ms; break;
    case Proximity::kSamePod: ms = cfg_.same_pod_ms; break;
    default: ms = cfg_.cross_pod_ms; break;
  }
  return ms / 1000.0;
}

std::vector<LinkId> Topology::path(HostId src, HostId dst) const {
  std::vector<LinkId> out;
  if (src == dst) return out;
  out.push_back(host_up(src));
  if (rack_of(src) != rack_of(dst)) {
    out.push_back(tor_up(rack_of(src)));
    if (pod_of(src) != pod_of(dst)) {
      out.push_back(agg_up(pod_of(src)));
      out.push_back(agg_down(pod_of(dst)));
    }
    out.push_back(tor_down(rack_of(dst)));
  }
  out.push_back(host_down(dst));
  return out;
}

double Topology::link_capacity_mbps(LinkId l) const {
  if (l < 0 || l >= num_links_) throw std::out_of_range("Topology: bad link id");
  if (l < 2 * num_hosts_) return cfg_.host_nic_mbps;
  double tor_cap = cfg_.hosts_per_rack * cfg_.host_nic_mbps /
                   cfg_.tor_oversubscription;
  if (l < 2 * num_hosts_ + 2 * num_racks_) return tor_cap;
  return tor_cap * cfg_.racks_per_pod / cfg_.agg_oversubscription;
}

bool Topology::is_bisection_link(LinkId l) const {
  if (l < 0 || l >= num_links_) throw std::out_of_range("Topology: bad link id");
  return l >= 2 * num_hosts_;
}

std::string Topology::link_name(LinkId l) const {
  if (l < 0 || l >= num_links_) throw std::out_of_range("Topology: bad link id");
  if (l < num_hosts_) return "host_up[" + std::to_string(l) + "]";
  if (l < 2 * num_hosts_) {
    return "host_down[" + std::to_string(l - num_hosts_) + "]";
  }
  int base = 2 * num_hosts_;
  if (l < base + num_racks_) return "tor_up[" + std::to_string(l - base) + "]";
  if (l < base + 2 * num_racks_) {
    return "tor_down[" + std::to_string(l - base - num_racks_) + "]";
  }
  base += 2 * num_racks_;
  if (l < base + cfg_.num_pods) return "agg_up[" + std::to_string(l - base) + "]";
  return "agg_down[" + std::to_string(l - base - cfg_.num_pods) + "]";
}

double Topology::bisection_capacity_mbps() const {
  double total = 0.0;
  for (int r = 0; r < num_racks_; ++r) {
    total += link_capacity_mbps(tor_up(r)) + link_capacity_mbps(tor_down(r));
  }
  return total;
}

Topology Topology::paper_testbed() {
  // 16 slots across 4 racks; the paper's 15th..16th slot asymmetry (4+4+4+3)
  // is modeled by callers simply not placing VMs on the last host.
  TopologyConfig cfg;
  cfg.num_pods = 1;
  cfg.racks_per_pod = 4;
  cfg.hosts_per_rack = 4;
  cfg.host_nic_mbps = 1000.0;
  cfg.tor_oversubscription = 8.0;
  return Topology(cfg);
}

}  // namespace vb::net
