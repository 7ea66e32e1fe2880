// The arena's unit of work: a VC(N, B) bundle request.
//
// The paper evaluates a closed world — a fixed tenant population grown once
// (Fig. 8) — but the offering it argues for is an open cloud where
// virtual-cluster requests arrive, live, and depart continuously (the
// benchmark of Ludwig et al., "Opposites Attract: Virtual Cluster Embedding
// for Profit").  A VcRequest asks for N identical VMs, each with a hose-model
// bandwidth guarantee B (the VmSpec reservation) and a limit, for a finite
// (or, in closed-world mode, infinite) lifetime, plus a deterministic demand
// shape its VMs will exercise while alive.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "hostmodel/vm.h"
#include "workloads/demand.h"

namespace vb::arena {

/// The demand curve of VM `ordinal` of an N-VM bundle whose shape is `s`.
/// Phases are staggered across the bundle (VMs of one tenant peak at
/// different times — the complementarity v-Bundle's shuffling exploits),
/// and random-slot VMs redraw every period / 8 seconds (at least 1) under
/// decorrelated per-VM seeds.  The curve derives only from (s, ordinal, n),
/// so the arena derives it afresh on every demand pass and keeps none.
inline load::Demand vm_demand(const load::Demand& s, int ordinal, int n) {
  using Kind = load::Demand::Kind;
  double stagger = n > 0 ? s.period_s * ordinal / n : 0.0;
  switch (s.kind) {
    case Kind::kNone:
      return {};
    case Kind::kConstant:
      return load::Demand::constant(s.high_mbps);
    case Kind::kPeakTrough:
      return load::Demand::peak_trough(s.low_mbps, s.high_mbps, s.period_s,
                                       s.phase_s + stagger);
    case Kind::kSine:
      return load::Demand::sine(s.low_mbps, s.high_mbps, s.period_s,
                                s.phase_s + stagger);
    case Kind::kRandomSlot:
      return load::Demand::random_slot(
          s.low_mbps, s.high_mbps, std::max(1.0, s.period_s / 8.0),
          s.seed + static_cast<std::uint64_t>(ordinal));
  }
  return {};
}

/// An open-world tenant request: N VMs of `spec` for `lifetime_s` seconds.
struct VcRequest {
  std::uint64_t id = 0;
  std::string tenant;
  double arrival_s = 0.0;
  double lifetime_s = std::numeric_limits<double>::infinity();
  int n_vms = 1;
  host::VmSpec spec;  ///< B = spec.reservation_mbps (hose guarantee)
  /// The bundle's curve; each VM runs vm_demand(shape, ordinal, n_vms).
  load::Demand shape;

  /// Checkpoint layout (src/ckpt).
  template <class IO>
  void ckpt_io(IO& io) {
    io.u64(id);
    io.str(tenant);
    io.f64(arrival_s);
    io.f64(lifetime_s);
    io.i64(n_vms);
    spec.ckpt_io(io);
    shape.ckpt_io(io);
  }
};

}  // namespace vb::arena
