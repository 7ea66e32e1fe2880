// Physical host model and the fleet (hosts + VMs) bookkeeping.
//
// A Host is a server with a NIC of fixed capacity hosting a set of VMs.
// Admission control enforces the v-Bundle power-on rule: a VM may be placed
// only if its bandwidth reservation is still available (§III.B).  `Fleet`
// owns all hosts and VMs of the simulated cloud and offers the snapshot
// queries the evaluation needs (per-host utilization, satisfied bandwidth).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/format.h"
#include "hostmodel/tc_shaper.h"
#include "hostmodel/vm.h"

namespace vb::host {

class Fleet;

/// One physical server.  CPU and memory capacities default to effectively
/// unlimited so bandwidth-only scenarios (the paper's main experiments) are
/// unaffected; the multi-metric extension sets them explicitly.
class Host {
 public:
  Host(int id, double nic_capacity_mbps, double cpu_capacity = 1e12,
       double mem_capacity_mb = 1e15)
      : id_(id),
        capacity_mbps_(nic_capacity_mbps),
        cpu_capacity_(cpu_capacity),
        mem_capacity_mb_(mem_capacity_mb) {}

  int id() const { return id_; }
  double capacity_mbps() const { return capacity_mbps_; }
  double cpu_capacity() const { return cpu_capacity_; }
  double mem_capacity_mb() const { return mem_capacity_mb_; }

  const std::vector<VmId>& vms() const { return vms_; }
  std::size_t vm_count() const { return vms_.size(); }

  /// Sum of reservations of hosted VMs plus held (pending-migration) amounts.
  double reserved_mbps() const { return reserved_mbps_; }
  double reserved_cpu() const { return reserved_cpu_; }
  double reserved_mem_mb() const { return reserved_mem_mb_; }
  double free_reservation_mbps() const {
    return capacity_mbps_ - reserved_mbps_;
  }

  /// Power-on / accept check: do the bandwidth, CPU, and memory
  /// reservations all still fit?
  bool can_admit(const VmSpec& spec) const {
    return spec.reservation_mbps <= free_reservation_mbps() &&
           spec.cpu_reservation <= cpu_capacity_ - reserved_cpu_ &&
           spec.ram_mb <= mem_capacity_mb_ - reserved_mem_mb_;
  }

 private:
  // Reservations change only through Fleet, which keeps its cached
  // free-capacity total in step with them.
  friend class Fleet;
  void reserve(const VmSpec& spec) {
    reserved_mbps_ += spec.reservation_mbps;
    reserved_cpu_ += spec.cpu_reservation;
    reserved_mem_mb_ += spec.ram_mb;
  }
  void unreserve(const VmSpec& spec) {
    reserved_mbps_ -= spec.reservation_mbps;
    reserved_cpu_ -= spec.cpu_reservation;
    reserved_mem_mb_ -= spec.ram_mb;
  }

  int id_;
  double capacity_mbps_;
  double cpu_capacity_;
  double mem_capacity_mb_;
  double reserved_mbps_ = 0.0;
  double reserved_cpu_ = 0.0;
  double reserved_mem_mb_ = 0.0;
  std::vector<VmId> vms_;
};

/// All hosts and VMs of the cloud; the single source of truth for placement.
class Fleet {
 public:
  /// Creates `num_hosts` hosts with uniform NIC capacity and (optionally)
  /// uniform CPU / memory capacities for the multi-metric extension.
  Fleet(int num_hosts, double nic_capacity_mbps, double cpu_capacity = 1e12,
        double mem_capacity_mb = 1e15);

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Host& host(int h) { return hosts_.at(static_cast<std::size_t>(h)); }
  const Host& host(int h) const { return hosts_.at(static_cast<std::size_t>(h)); }

  /// Registers a new (unplaced) VM; returns its id.
  VmId create_vm(CustomerId customer, const VmSpec& spec);

  Vm& vm(VmId id) { return vms_.at(static_cast<std::size_t>(id)); }
  const Vm& vm(VmId id) const { return vms_.at(static_cast<std::size_t>(id)); }
  std::size_t num_vms() const { return vms_.size(); }
  const std::vector<Vm>& all_vms() const { return vms_; }

  /// Places an unplaced VM on `h`.  Fails (returns false) if the host cannot
  /// admit the reservation.
  bool place(VmId id, int h);

  /// Removes a VM from its host (for migration source side).
  void unplace(VmId id);

  /// Terminates a VM: removes it from its host (if placed) and marks it
  /// retired.  Retired VMs keep their id (ids are never reused) but no
  /// longer count toward any host.
  void destroy_vm(VmId id);

  /// True if the VM has been destroyed.
  bool destroyed(VmId id) const { return vm(id).destroyed; }

  /// Atomically moves a VM between hosts, consuming a prior hold_all of the
  /// VM's spec on the destination if `consume_hold`.
  void migrate(VmId id, int dst, bool consume_hold);

  /// Holds `spec`'s reservations on host `h` for an inbound migration
  /// (v-Bundle's receiver "holds part of its bandwidth waiting for the new
  /// VM", §III.C step 3).  Holds count against admission like placed VMs.
  void hold_all(int h, const VmSpec& spec);
  /// Returns a hold_all that will not be consumed (migration cancelled).
  void release_hold_all(int h, const VmSpec& spec);

  /// Sets a VM's instantaneous bandwidth demand.
  void set_demand(VmId id, double mbps);

  /// Sets a VM's instantaneous CPU demand (compute units).
  void set_cpu_demand(VmId id, double units);

  // --- snapshot queries ---------------------------------------------------

  /// Offered load of a host: sum of hosted VMs' limit-capped demands, Mbps.
  double host_demand_mbps(int h) const;

  /// Bandwidth utilization of a host in [0, ...): demand / capacity.  This is
  /// the "load" servers report to the aggregation trees.
  double host_utilization(int h) const;

  /// Offered CPU load of a host (sum of limit-capped CPU demands).
  double host_cpu_demand(int h) const;
  /// CPU utilization of a host: cpu demand / cpu capacity.
  double host_cpu_utilization(int h) const;
  /// Memory utilization of a host: hosted RAM / memory capacity.
  double host_mem_utilization(int h) const;

  /// Per-VM bandwidth actually allocated on host `h` under the TC shaper.
  /// Pairs (vm id, allocated Mbps).
  std::vector<std::pair<VmId, double>> shape_host(int h) const;

  /// Total bandwidth actually satisfied across the fleet (sum over hosts of
  /// min-shaped allocations) — the "actual satisfied resource" of Fig. 11.
  double total_satisfied_mbps() const;

  /// Total limit-capped demand across the fleet — Fig. 11's "resource
  /// demand in total".
  double total_demand_mbps() const;

  /// Utilization of every host (index = host id).
  std::vector<double> utilization_snapshot() const;

  /// Unreserved NIC bandwidth of every host (index = host id), Mbps.  The
  /// input to free-capacity accounting: how many more reservations each
  /// server could still admit (src/arena admission, fragmentation metrics).
  std::vector<double> free_reservation_snapshot() const;

  /// Sum of free_reservation_snapshot(), folded in a fixed order: 64 chunks
  /// (chunk c holds hosts [n*c/64, n*(c+1)/64)), each summed from 0.0 in
  /// host order, then the chunk sums added in chunk order.  The chunk sums
  /// are cached and only chunks stamped since the last call are re-summed,
  /// so the call costs O(changed chunks x n/64), not O(n).  Refreshing the
  /// cache makes concurrent calls unsafe, const or not.
  double free_reservation_total() const;

  // --- reservation change stamps -----------------------------------------
  // Every reservation change (place, unplace, migrate, destroy, hold_all,
  // release_hold_all) stamps its host's chunk with the next sequence
  // number; ckpt_restore stamps every chunk.  Demand changes stamp nothing.
  // Caches of per-host state derived from reservations refresh from these
  // stamps; the stamps are derived state too and are not checkpointed.

  /// The stamp of the latest reservation change (positive from
  /// construction on: the constructor stamps every chunk).
  std::uint64_t reservation_seq() const { return reservation_seq_; }

  /// Calls fn(h) for every host of each chunk stamped after `seq`, in host
  /// order: a superset of the hosts whose reservations changed since
  /// reservation_seq() returned `seq`.
  template <class Fn>
  void for_each_host_changed_since(std::uint64_t seq, Fn&& fn) const {
    for (std::size_t c = 0; c < kFreeChunks; ++c) {
      if (chunk_seq_[c] <= seq) continue;
      for (std::size_t h = chunk_begin(c), end = chunk_begin(c + 1); h < end;
           ++h) {
        fn(static_cast<int>(h));
      }
    }
  }

  // --- checkpoint/restore (src/ckpt) -------------------------------------
  /// Serializes dynamic placement state: per-host reservations and VM lists
  /// plus every VM record.  Host capacities are static configuration and are
  /// written only so restore can verify the reconstruction matches.
  void ckpt_save(ckpt::Writer& w) const { ckpt::save(w, *this); }
  /// Restores into a fleet built with the same constructor arguments; the VM
  /// table is rebuilt wholesale (VMs may have been booted mid-run).  Throws
  /// ckpt::CkptError when host count or capacities disagree.
  void ckpt_restore(ckpt::Reader& r) { ckpt_io(r); }
  /// The one layout behind ckpt_save and ckpt_restore.
  template <class IO>
  void ckpt_io(IO& io);

 private:
  static constexpr std::size_t kFreeChunks = 64;
  /// First host of chunk `c` (c = kFreeChunks gives num_hosts()).
  std::size_t chunk_begin(std::size_t c) const {
    return hosts_.size() * c / kFreeChunks;
  }
  /// Stamps host `h`'s chunk with the next sequence number.
  void mark_dirty(int h);
  /// Stamps every chunk with the next sequence number.
  void mark_all_dirty();

  std::vector<Host> hosts_;
  std::vector<Vm> vms_;
  std::uint64_t reservation_seq_ = 0;
  std::array<std::uint64_t, kFreeChunks> chunk_seq_{};  // last stamp per chunk
  // free_reservation_total()'s cache: one partial sum per chunk, current
  // as of stamp free_seq_.
  mutable std::array<double, kFreeChunks> free_partial_{};
  mutable std::uint64_t free_seq_ = 0;
};

}  // namespace vb::host
