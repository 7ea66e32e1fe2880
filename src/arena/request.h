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

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "hostmodel/vm.h"
#include "workloads/demand.h"

namespace vb::arena {

/// Which workloads::DemandProfile an admitted bundle's VMs run.  A compact
/// enum (rather than a profile pointer) so requests are serializable and the
/// profiles can be rebuilt bit-identically after a checkpoint restore.
enum class ProfileKind : std::uint8_t {
  kNone = 0,        ///< no demand activity (closed-world placement studies)
  kConstant = 1,    ///< flat at `high`
  kPeakTrough = 2,  ///< square wave low <-> high (the Figs. 9-11 pattern)
  kDiurnal = 3,     ///< sine between low and high
  kRandomSlot = 4,  ///< per-slot uniform redraw in [low, high]
};

/// Parameters of a demand profile, serializable and hashable.
struct DemandShape {
  ProfileKind kind = ProfileKind::kNone;
  double low_mbps = 0.0;
  double high_mbps = 0.0;
  double period_s = 0.0;  ///< wave period; slot length for kRandomSlot
  double phase_s = 0.0;
  std::uint64_t seed = 0;

  /// Checkpoint layout (src/ckpt).
  template <class IO>
  void ckpt_io(IO& io) {
    io.u8(kind);
    io.f64(low_mbps);
    io.f64(high_mbps);
    io.f64(period_s);
    io.f64(phase_s);
    io.u64(seed);
  }
};

/// Builds the concrete profile for VM `ordinal` of an N-VM bundle.  Phases
/// are staggered across the bundle (VMs of one tenant peak at different
/// times — the complementarity v-Bundle's shuffling exploits) and seeds are
/// decorrelated per VM; both derive only from (shape, ordinal, n), so a
/// restored run rebuilds the exact same profiles.
inline std::unique_ptr<load::DemandProfile> make_vm_profile(
    const DemandShape& s, int ordinal, int n) {
  double stagger = n > 0 ? s.period_s * ordinal / n : 0.0;
  switch (s.kind) {
    case ProfileKind::kNone:
      return nullptr;
    case ProfileKind::kConstant:
      return std::make_unique<load::ConstantDemand>(s.high_mbps);
    case ProfileKind::kPeakTrough:
      return std::make_unique<load::PeakTroughDemand>(
          s.low_mbps, s.high_mbps, s.period_s, s.phase_s + stagger);
    case ProfileKind::kDiurnal:
      return std::make_unique<load::SineDemand>(
          (s.low_mbps + s.high_mbps) / 2.0, (s.high_mbps - s.low_mbps) / 2.0,
          s.period_s, s.phase_s + stagger);
    case ProfileKind::kRandomSlot:
      return std::make_unique<load::RandomSlotDemand>(
          s.low_mbps, s.high_mbps, std::max(1.0, s.period_s / 8.0),
          s.seed + static_cast<std::uint64_t>(ordinal));
  }
  return nullptr;
}

/// An open-world tenant request: N VMs of `spec` for `lifetime_s` seconds.
struct VcRequest {
  std::uint64_t id = 0;
  std::string tenant;
  double arrival_s = 0.0;
  double lifetime_s = std::numeric_limits<double>::infinity();
  int n_vms = 1;
  host::VmSpec spec;  ///< B = spec.reservation_mbps (hose guarantee)
  DemandShape shape;

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
