// Hierarchical datacenter network model.
//
// The paper targets the "currently prevalent hierarchical networks in
// datacenter systems" (§I): hosts under top-of-rack (ToR) switches, racks
// grouped into pods under aggregation switches, pods joined by a core.
// ToR and aggregation uplinks are oversubscribed (the paper cites 1:5 to
// 1:20; its own testbed uses 8:1), which makes bi-section bandwidth the
// scarce resource v-Bundle preserves.
//
// The model is a capacitated tree of *directed* links (up and down
// separately, as NICs and switch ports are full duplex):
//
//   host_up[h] / host_down[h]   host NIC,              capacity = nic
//   tor_up[r]  / tor_down[r]    ToR uplink to agg,     capacity = hosts*nic / tor_oversub
//   agg_up[p]  / agg_down[p]    agg uplink to core,    capacity = pod_hosts*nic / (tor_oversub*agg_oversub)
//
// The core itself is assumed non-blocking.  Switch fabric within a tier is
// also non-blocking, so a flow's path is fully determined by the tree.
#pragma once

#include <string>
#include <vector>

namespace vb::net {

/// Index of a directed link in the topology (see layout above).
using LinkId = int;

/// Physical host index in [0, num_hosts).
using HostId = int;

/// Shape and capacity parameters of the datacenter tree.
struct TopologyConfig {
  int num_pods = 1;
  int racks_per_pod = 4;
  int hosts_per_rack = 4;
  double host_nic_mbps = 1000.0;      ///< per-host NIC capacity (paper: 1 Gbps)
  double tor_oversubscription = 8.0;  ///< paper's testbed ratio (§IV)
  double agg_oversubscription = 1.0;

  // One-way latencies by proximity tier, in milliseconds.  Cross-pod matches
  // the paper's "10 ms local-area network latency" per extra tree layer
  // observation (§V.C, Fig. 14 discussion).
  double same_host_ms = 0.05;
  double same_rack_ms = 0.5;
  double same_pod_ms = 2.0;
  double cross_pod_ms = 10.0;
};

/// Proximity tier between two hosts; doubles as Pastry's scalar proximity
/// metric (smaller = closer).
enum class Proximity { kSameHost = 0, kSameRack = 1, kSamePod = 2, kCrossPod = 3 };

/// Immutable capacitated tree topology with path and latency queries.
class Topology {
 public:
  explicit Topology(TopologyConfig cfg);

  const TopologyConfig& config() const { return cfg_; }

  int num_hosts() const { return num_hosts_; }
  int num_racks() const { return num_racks_; }
  int num_pods() const { return cfg_.num_pods; }
  int num_links() const { return num_links_; }

  int rack_of(HostId h) const;
  int pod_of(HostId h) const;
  /// Index of `h` within its rack, in [0, hosts_per_rack).
  int slot_in_rack(HostId h) const;
  /// First host of rack `r`.
  HostId rack_first_host(int r) const;

  Proximity proximity(HostId a, HostId b) const;
  /// One-way latency between hosts, in **seconds** (simulator units).
  double latency_s(HostId a, HostId b) const;

  /// Directed links traversed by a flow from `src` to `dst`.  Empty when
  /// src == dst (intra-host traffic never touches the network).
  std::vector<LinkId> path(HostId src, HostId dst) const;

  double link_capacity_mbps(LinkId l) const;
  /// True for ToR/agg uplinks and downlinks — the links whose load is the
  /// datacenter's bi-section traffic.
  bool is_bisection_link(LinkId l) const;
  /// Human-readable link name, e.g. "tor_up[3]".
  std::string link_name(LinkId l) const;

  // Link id layout helpers.
  LinkId host_up(HostId h) const { return h; }
  LinkId host_down(HostId h) const { return num_hosts_ + h; }
  LinkId tor_up(int rack) const { return 2 * num_hosts_ + rack; }
  LinkId tor_down(int rack) const { return 2 * num_hosts_ + num_racks_ + rack; }
  LinkId agg_up(int pod) const { return 2 * num_hosts_ + 2 * num_racks_ + pod; }
  LinkId agg_down(int pod) const {
    return 2 * num_hosts_ + 2 * num_racks_ + cfg_.num_pods + pod;
  }

  /// Total two-way bi-section capacity (sum of all ToR uplink+downlink
  /// capacities), the denominator for bi-section utilization reports.
  double bisection_capacity_mbps() const;

  /// Convenience: a topology shaped like the paper's testbed — 15 hosts on
  /// 4 edge switches (4+4+4+3), 1 Gbps ports, 8:1 oversubscription.  The
  /// last rack simply has one empty slot.
  static Topology paper_testbed();

 private:
  TopologyConfig cfg_;
  int num_hosts_;
  int num_racks_;
  int num_links_;
};

}  // namespace vb::net
