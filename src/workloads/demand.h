// Time-varying bandwidth demand profiles.
//
// v-Bundle's whole premise is that "customer's applications experience
// dynamic variations lasting for longer periods of time" (§I): some VMs
// peak while siblings idle.  Profiles here are deterministic functions of
// time (seeded noise included), so every experiment replays identically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hostmodel/host.h"

namespace vb::load {

/// A deterministic demand curve in Mbps.
class DemandProfile {
 public:
  virtual ~DemandProfile() = default;
  /// Offered load at simulated time `t` seconds.
  virtual double at(double t) const = 0;
};

/// Flat demand.
class ConstantDemand : public DemandProfile {
 public:
  explicit ConstantDemand(double mbps) : mbps_(mbps) {}
  double at(double) const override { return mbps_; }

 private:
  double mbps_;
};

/// Square wave between `low` and `high`: the "some VMs reach their peak
/// value while others decrease to some low value" pattern of Figs. 9-11.
class PeakTroughDemand : public DemandProfile {
 public:
  PeakTroughDemand(double low, double high, double period_s, double phase_s,
                   double duty = 0.5);
  double at(double t) const override;

 private:
  double low_, high_, period_, phase_, duty_;
};

/// Smooth diurnal-style sine: mean + amplitude * sin(2*pi*(t+phase)/period).
/// Clamped at zero.
class SineDemand : public DemandProfile {
 public:
  SineDemand(double mean, double amplitude, double period_s, double phase_s);
  double at(double t) const override;

 private:
  double mean_, amplitude_, period_, phase_;
};

/// Piecewise-constant pseudo-random demand: every `slot_s` seconds the level
/// is redrawn uniformly in [lo, hi] from a hash of (seed, slot) — stateless,
/// reproducible, and independent across VMs with distinct seeds.
class RandomSlotDemand : public DemandProfile {
 public:
  RandomSlotDemand(double lo, double hi, double slot_s, std::uint64_t seed);
  double at(double t) const override;

 private:
  double lo_, hi_, slot_;
  std::uint64_t seed_;
};

/// Ramp from `start` by `slope` per second, clamped to [0, cap].
/// Models SIPp's increasing call rate (§V.A).
class RampDemand : public DemandProfile {
 public:
  RampDemand(double start, double slope_per_s, double cap);
  double at(double t) const override;

 private:
  double start_, slope_, cap_;
};

/// Maps VMs to profiles and pushes demands into the fleet at a given time.
///
/// Profiles sit in a table indexed by VmId: Fleet::create_vm hands out dense
/// ids and never reuses one, so the table costs 8 B per id up to the largest
/// id assigned, beside the VM record Fleet already keeps for each.
class DemandModel {
 public:
  /// Gives `vm` a profile, replacing any it had.  Throws
  /// std::invalid_argument for a negative id or a null profile.
  void assign(host::VmId vm, std::unique_ptr<DemandProfile> profile);
  /// Drops a VM's profile (no-op if absent) — lifecycle churn support: a
  /// departed VM must stop generating demand.
  void unassign(host::VmId vm);
  bool has(host::VmId vm) const { return find(vm) != nullptr; }
  std::size_t size() const { return live_; }

  /// Demand of one VM at `t` (0 if the VM has no profile).
  double demand_of(host::VmId vm, double t) const;

  /// Writes every profiled VM's demand at time `t` into the fleet, in
  /// ascending id order.
  void apply(host::Fleet& fleet, double t) const;

 private:
  const DemandProfile* find(host::VmId vm) const;

  std::vector<std::unique_ptr<DemandProfile>> profiles_;  // null: no profile
  std::size_t live_ = 0;                                  // non-null entries
};

}  // namespace vb::load
