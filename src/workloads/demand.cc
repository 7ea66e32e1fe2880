#include "workloads/demand.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace vb::load {

PeakTroughDemand::PeakTroughDemand(double low, double high, double period_s,
                                   double phase_s, double duty)
    : low_(low), high_(high), period_(period_s), phase_(phase_s), duty_(duty) {
  if (period_s <= 0 || duty <= 0 || duty >= 1 || low > high) {
    throw std::invalid_argument("PeakTroughDemand: bad parameters");
  }
}

double PeakTroughDemand::at(double t) const {
  double pos = std::fmod(t + phase_, period_);
  if (pos < 0) pos += period_;
  return pos < duty_ * period_ ? high_ : low_;
}

SineDemand::SineDemand(double mean, double amplitude, double period_s,
                       double phase_s)
    : mean_(mean), amplitude_(amplitude), period_(period_s), phase_(phase_s) {
  if (period_s <= 0) throw std::invalid_argument("SineDemand: period <= 0");
}

double SineDemand::at(double t) const {
  double v = mean_ + amplitude_ * std::sin(2.0 * std::numbers::pi *
                                           (t + phase_) / period_);
  return std::max(0.0, v);
}

RandomSlotDemand::RandomSlotDemand(double lo, double hi, double slot_s,
                                   std::uint64_t seed)
    : lo_(lo), hi_(hi), slot_(slot_s), seed_(seed) {
  if (slot_s <= 0 || lo > hi) {
    throw std::invalid_argument("RandomSlotDemand: bad parameters");
  }
}

double RandomSlotDemand::at(double t) const {
  auto slot = static_cast<std::uint64_t>(std::max(0.0, t) / slot_);
  // splitmix64 of (seed, slot)
  std::uint64_t z = seed_ ^ (slot * 0x9E3779B97F4A7C15ULL);
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  return lo_ + (hi_ - lo_) * u;
}

RampDemand::RampDemand(double start, double slope_per_s, double cap)
    : start_(start), slope_(slope_per_s), cap_(cap) {}

double RampDemand::at(double t) const {
  return std::clamp(start_ + slope_ * t, 0.0, cap_);
}

void DemandModel::assign(host::VmId vm, std::unique_ptr<DemandProfile> profile) {
  if (vm < 0) throw std::invalid_argument("DemandModel::assign: negative id");
  if (profile == nullptr) {
    throw std::invalid_argument("DemandModel::assign: null profile");
  }
  const auto i = static_cast<std::size_t>(vm);
  if (i >= profiles_.size()) profiles_.resize(i + 1);
  if (profiles_[i] == nullptr) ++live_;
  profiles_[i] = std::move(profile);
}

void DemandModel::unassign(host::VmId vm) {
  if (find(vm) == nullptr) return;
  profiles_[static_cast<std::size_t>(vm)].reset();
  --live_;
}

const DemandProfile* DemandModel::find(host::VmId vm) const {
  if (vm < 0 || static_cast<std::size_t>(vm) >= profiles_.size()) {
    return nullptr;
  }
  return profiles_[static_cast<std::size_t>(vm)].get();
}

double DemandModel::demand_of(host::VmId vm, double t) const {
  const DemandProfile* p = find(vm);
  return p == nullptr ? 0.0 : p->at(t);
}

void DemandModel::apply(host::Fleet& fleet, double t) const {
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    if (profiles_[i] != nullptr) {
      fleet.set_demand(static_cast<host::VmId>(i), profiles_[i]->at(t));
    }
  }
}

}  // namespace vb::load
