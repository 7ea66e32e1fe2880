// Virtual machine model with v-Bundle's (reservation, limit) attributes.
//
// Unlike Amazon EC2's fixed-size tuple, v-Bundle VMs "specify reservations
// and limits for CPU, memory, or bandwidth resources" (§III.B):
//  * reservation — minimal guaranteed amount; the VM may only power on if it
//    can be guaranteed even on an overloaded server;
//  * limit — hard upper bound regardless of spare capacity.
// This repository focuses on the network-bandwidth resource, as the paper
// does, but carries CPU/memory fields so the future-work multi-metric
// extension has somewhere to live.
#pragma once

#include <cstdint>
#include <string>

namespace vb::host {

using VmId = int;
using CustomerId = int;

/// Static attributes fixed at purchase time.
///
/// Bandwidth is the paper's primary resource; CPU and memory implement the
/// §VII future-work extension ("considering multiple metrics like CPU,
/// memory, and bandwidth").  CPU gets its own (reservation, limit) pair and
/// participates in shuffling when enabled; memory is a static footprint
/// (the VM's RAM) honored by admission control.
struct VmSpec {
  double reservation_mbps = 0.0;  ///< guaranteed bandwidth (TC "rate")
  double limit_mbps = 0.0;        ///< bandwidth ceiling (TC "ceil")
  double ram_mb = 128.0;          ///< paper's testbed VMs use 128 MB
  double cpu_reservation = 0.0;   ///< guaranteed compute units
  double cpu_limit = 0.0;         ///< compute-unit ceiling

  bool valid() const {
    return reservation_mbps >= 0.0 && limit_mbps >= reservation_mbps &&
           ram_mb > 0.0 && cpu_reservation >= 0.0 &&
           cpu_limit >= cpu_reservation;
  }

  /// Checkpoint layout (src/ckpt): the five fields in declaration order.
  template <class IO>
  void ckpt_io(IO& io) {
    io.f64(reservation_mbps);
    io.f64(limit_mbps);
    io.f64(ram_mb);
    io.f64(cpu_reservation);
    io.f64(cpu_limit);
  }
};

/// A VM instance: identity, owner, placement, spec, and its current
/// (time-varying) bandwidth demand.
struct Vm {
  VmId id = -1;
  CustomerId customer = -1;
  VmSpec spec;
  int host = -1;               ///< current physical host (-1: not placed)
  double demand_mbps = 0.0;    ///< instantaneous offered bandwidth load
  double cpu_demand = 0.0;     ///< instantaneous offered compute load
  bool migrating = false;      ///< true while a live migration is in flight
  bool destroyed = false;      ///< terminated; resources released

  /// Demand clipped to what the VM is allowed to ask for (its limit).
  double capped_demand() const {
    return demand_mbps < spec.limit_mbps ? demand_mbps : spec.limit_mbps;
  }

  /// CPU demand clipped to the compute-unit limit.
  double capped_cpu_demand() const {
    return cpu_demand < spec.cpu_limit ? cpu_demand : spec.cpu_limit;
  }

  std::string to_string() const;
};

}  // namespace vb::host
