// Pastry neighbor set: the |M| nodes closest to the owner under the
// *physical* proximity metric (not the id space).
//
// v-Bundle's placement algorithm leans on this set: when the server owning a
// customer's key cannot host a new VM, "the query will be forwarded to its
// neighbor set of servers ... closest according to the proximity metric"
// (§II.B).  Within one proximity tier, nearer host indices are preferred so
// spillover stays rack-local as long as possible.
//
// A pure nearest-M set degenerates in big racks: all M slots fill with
// same-rack peers and a spillover search can never leave a full rack.  Real
// proximity neighbor sets straddle tiers, so we reserve a small quota of
// slots for nodes beyond the owner's rack (nearest such nodes first); the
// rest hold the nearest rack-local peers.
#pragma once

#include <vector>

#include "ckpt/format.h"
#include "net/topology.h"
#include "pastry/node_id.h"

namespace vb::pastry {

class NeighborSet {
 public:
  /// `capacity` = |M| total slots; `remote_quota` of them are reserved for
  /// nodes outside the owner's rack (clamped to capacity/2, min 1).
  NeighborSet(net::HostId owner_host, int capacity = 16, int remote_quota = 4);

  /// Considers a candidate; kept if among the nearest of its slot class
  /// under the (rank, id) total order — equal-rank ties go to the smaller
  /// id, so a converged side is independent of consideration order.
  /// Returns true if the set changed.
  bool consider(const NodeHandle& candidate, const net::Topology& topo);

  bool remove(const NodeHandle& node);

  /// Members ordered nearest-first across both slot classes.
  std::vector<NodeHandle> members() const;

  /// Visits all members in members() order (local slots, then remote
  /// slots) without materializing a vector.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const NodeHandle& n : local_) fn(n);
    for (const NodeHandle& n : remote_) fn(n);
  }

  bool contains(const NodeHandle& n) const;
  std::size_t size() const { return local_.size() + remote_.size(); }
  /// Slot quotas (the bulk-join synthesizer sizes its candidate sweeps off
  /// these; see bulk_bootstrap.cc).
  std::size_t local_capacity() const { return local_cap_; }
  std::size_t remote_capacity() const { return remote_cap_; }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Slot quotas, then each side.  Restore refuses different quotas and a
  /// side over its quota.
  template <class IO>
  void ckpt_io(IO& io) {
    std::uint64_t local_cap = local_cap_;
    std::uint64_t remote_cap = remote_cap_;
    io.u64(local_cap);
    io.u64(remote_cap);
    io.loading([&] {
      if (local_cap != local_cap_ || remote_cap != remote_cap_) {
        throw ckpt::CkptError("neighbor set: slot-quota mismatch");
      }
    });
    for (auto [side, cap] : {std::pair{&local_, local_cap_},
                             std::pair{&remote_, remote_cap_}}) {
      io.seq(*side, [&](NodeHandle& n) { n.ckpt_io(io); });
      io.loading([&] {
        if (side->size() > cap) {
          throw ckpt::CkptError("neighbor set: side exceeds its slot quota");
        }
      });
    }
  }

 private:
  /// Sort key: (proximity tier, |host index delta|) — deterministic and
  /// topology-faithful.
  long rank(const NodeHandle& n, const net::Topology& topo) const;
  bool insert_ranked(std::vector<NodeHandle>& side, std::size_t cap,
                     const NodeHandle& candidate, const net::Topology& topo);

  net::HostId owner_host_;
  std::size_t local_cap_;
  std::size_t remote_cap_;
  std::vector<NodeHandle> local_;   // same rack (or same host), nearest first
  std::vector<NodeHandle> remote_;  // beyond the rack, nearest first
};

}  // namespace vb::pastry
