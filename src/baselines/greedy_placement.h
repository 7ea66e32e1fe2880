// Greedy placement baselines (paper Fig. 8b and the arena's tree packer).
//
// "The greedy algorithm makes decisions on the basis of information at hand
// without considering the effects these decisions may have in the future.
// It places the new coming VMs on the first server it finds with enough
// resources."
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "hostmodel/host.h"
#include "net/topology.h"

namespace vb::baseline {

class GreedyPlacer {
 public:
  explicit GreedyPlacer(host::Fleet* fleet);

  /// Places `vm` on the first host (scanning from host 0) that can admit its
  /// reservation.  Returns the host id, or -1 if the cloud is full.
  int place(host::VmId vm);

  /// Hosts examined across all placements (decision-cost accounting).
  std::uint64_t hosts_examined() const { return hosts_examined_; }

 private:
  host::Fleet* fleet_;
  std::uint64_t hosts_examined_ = 0;
};

/// Oversubscription-aware tree packing for VC(N, B) bundles — the Oktopus
/// family of virtual-cluster embedders, used by the arena as the
/// "greedy_tree" baseline.
///
/// Under the hose model, any subtree holding m of the bundle's N VMs must
/// carry min(m, N - m) * B on its uplink; placing the whole bundle in one
/// rack therefore costs zero bi-section bandwidth.  The packer searches
/// lowest-subtree-first (single rack, then single pod, then cross-pod),
/// best-fit at each level, and accounts the uplink bandwidth a spread
/// placement consumes in its own ledger so concurrent bundles cannot
/// oversubscribe a ToR/agg uplink's reservable capacity.
///
/// pack() only *plans*: it never mutates the fleet.  The caller places the
/// VMs and calls reserve_uplinks() on acceptance, and release_uplinks() when
/// the bundle departs.  The search is conservative (a greedy fill that
/// violates an uplink budget rejects the level rather than backtracking) and
/// fully deterministic: every ordering is by (capacity, id) with explicit
/// tie-breaks.
class GreedyTreePacker {
 public:
  struct Result {
    bool ok = false;
    /// Planned host for each of the bundle's N VMs (index = VM ordinal).
    std::vector<int> hosts;
    /// ToR/agg uplink bandwidth this placement consumes, as (link, Mbps)
    /// pairs — empty for single-rack placements.
    std::vector<std::pair<net::LinkId, double>> uplink_holds;
    std::uint64_t hosts_examined = 0;
  };

  GreedyTreePacker(host::Fleet* fleet, const net::Topology* topo);

  /// Plans placement of an N-VM bundle where every VM has spec `spec` and
  /// the hose bandwidth B is spec.reservation_mbps.
  Result pack(int n_vms, const host::VmSpec& spec);

  /// Commits / returns the uplink bandwidth of an accepted / departed
  /// bundle against this packer's ledger.
  void reserve_uplinks(
      const std::vector<std::pair<net::LinkId, double>>& holds);
  void release_uplinks(
      const std::vector<std::pair<net::LinkId, double>>& holds);

  /// Ledgered reservation on one uplink, Mbps.
  double uplink_reserved(net::LinkId l) const {
    return uplink_reserved_.at(static_cast<std::size_t>(l));
  }

  /// Hosts examined across all pack() calls (decision-cost accounting).
  std::uint64_t hosts_examined() const { return hosts_examined_; }

 private:
  double uplink_free(net::LinkId l) const;

  host::Fleet* fleet_;
  const net::Topology* topo_;
  std::vector<double> uplink_reserved_;
  std::uint64_t hosts_examined_ = 0;
};

}  // namespace vb::baseline
