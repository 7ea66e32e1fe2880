// Time-varying bandwidth demand curves.
//
// v-Bundle's whole premise is that "customer's applications experience
// dynamic variations lasting for longer periods of time" (§I): some VMs
// peak while siblings idle.  A curve here is a flat value, a deterministic
// function of time (seeded noise included), so every experiment replays
// identically and a curve checkpoints as its six fields.
#pragma once

#include <cstdint>
#include <vector>

#include "hostmodel/host.h"

namespace vb::load {

/// A deterministic demand curve in Mbps.
struct Demand {
  enum class Kind : std::uint8_t {
    kNone = 0,        ///< no demand activity (closed-world placement studies)
    kConstant = 1,    ///< flat at `high_mbps`
    kPeakTrough = 2,  ///< square wave high <-> low (the Figs. 9-11 pattern)
    kSine = 3,        ///< sine between low and high, clamped at zero
    kRandomSlot = 4,  ///< per-slot uniform redraw in [low, high]
  };

  Kind kind = Kind::kNone;
  double low_mbps = 0.0;
  double high_mbps = 0.0;
  double period_s = 0.0;  ///< wave period; slot length for kRandomSlot
  double phase_s = 0.0;
  std::uint64_t seed = 0;

  /// Flat demand.
  static Demand constant(double mbps);
  /// `high` for the first half of every period, `low` for the second; the
  /// phase shifts t.  Throws std::invalid_argument unless period > 0 and
  /// low <= high.
  static Demand peak_trough(double low, double high, double period_s,
                            double phase_s);
  /// Smooth diurnal-style wave: mid + half * sin(2*pi*(t+phase)/period),
  /// where mid and half are the midpoint and half-range of [low, high].
  /// Same checks as peak_trough.
  static Demand sine(double low, double high, double period_s, double phase_s);
  /// Piecewise-constant pseudo-random demand: every `slot_s` seconds the
  /// level is redrawn uniformly in [low, high] from a hash of (seed, slot),
  /// so it is stateless and independent across distinct seeds.  Throws
  /// std::invalid_argument unless slot_s > 0 and low <= high.
  static Demand random_slot(double low, double high, double slot_s,
                            std::uint64_t seed);

  /// Offered load at simulated time `t` seconds (0 for kNone).
  double at(double t) const;

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

/// Maps VMs to curves and pushes demands into the fleet at a given time.
///
/// Curves sit in a table indexed by VmId (Fleet::create_vm hands out dense
/// ids); a kNone entry marks a VM without a curve.
class DemandModel {
 public:
  /// Gives `vm` the curve `d`, replacing any it had.  Throws
  /// std::invalid_argument for a negative id.
  void assign(host::VmId vm, const Demand& d);
  bool has(host::VmId vm) const {
    return vm >= 0 && static_cast<std::size_t>(vm) < curves_.size() &&
           curves_[static_cast<std::size_t>(vm)].kind != Demand::Kind::kNone;
  }

  /// Demand of one VM at `t` (0 if the VM has no curve).
  double demand_of(host::VmId vm, double t) const {
    return has(vm) ? curves_[static_cast<std::size_t>(vm)].at(t) : 0.0;
  }

  /// Writes every VM's demand at time `t` into the fleet, in ascending id
  /// order, skipping VMs without a curve.
  void apply(host::Fleet& fleet, double t) const;

 private:
  std::vector<Demand> curves_;
};

}  // namespace vb::load
