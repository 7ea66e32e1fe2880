#include "workloads/demand.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace vb::load {

namespace {

Demand wave(Demand::Kind kind, double low, double high, double period_s,
            double phase_s) {
  if (period_s <= 0 || low > high) {
    throw std::invalid_argument("Demand: need period > 0 and low <= high");
  }
  return Demand{kind, low, high, period_s, phase_s, 0};
}

}  // namespace

Demand Demand::constant(double mbps) {
  return Demand{Kind::kConstant, 0.0, mbps, 0.0, 0.0, 0};
}

Demand Demand::peak_trough(double low, double high, double period_s,
                           double phase_s) {
  return wave(Kind::kPeakTrough, low, high, period_s, phase_s);
}

Demand Demand::sine(double low, double high, double period_s,
                    double phase_s) {
  return wave(Kind::kSine, low, high, period_s, phase_s);
}

Demand Demand::random_slot(double low, double high, double slot_s,
                           std::uint64_t seed) {
  if (slot_s <= 0 || low > high) {
    throw std::invalid_argument("Demand: need slot > 0 and low <= high");
  }
  return Demand{Kind::kRandomSlot, low, high, slot_s, 0.0, seed};
}

double Demand::at(double t) const {
  switch (kind) {
    case Kind::kNone:
      return 0.0;
    case Kind::kConstant:
      return high_mbps;
    case Kind::kPeakTrough: {
      double pos = std::fmod(t + phase_s, period_s);
      if (pos < 0) pos += period_s;
      return pos < 0.5 * period_s ? high_mbps : low_mbps;
    }
    case Kind::kSine: {
      double mid = (low_mbps + high_mbps) / 2.0;
      double half = (high_mbps - low_mbps) / 2.0;
      double v = mid + half * std::sin(2.0 * std::numbers::pi *
                                       (t + phase_s) / period_s);
      return std::max(0.0, v);
    }
    case Kind::kRandomSlot: {
      auto slot = static_cast<std::uint64_t>(std::max(0.0, t) / period_s);
      // splitmix64 of (seed, slot)
      std::uint64_t z = seed ^ (slot * 0x9E3779B97F4A7C15ULL);
      z += 0x9E3779B97F4A7C15ULL;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      z ^= z >> 31;
      double u = static_cast<double>(z >> 11) * 0x1.0p-53;
      return low_mbps + (high_mbps - low_mbps) * u;
    }
  }
  return 0.0;
}

void DemandModel::assign(host::VmId vm, const Demand& d) {
  if (vm < 0) throw std::invalid_argument("DemandModel::assign: negative id");
  const auto i = static_cast<std::size_t>(vm);
  if (i >= curves_.size()) curves_.resize(i + 1);
  curves_[i] = d;
}

void DemandModel::apply(host::Fleet& fleet, double t) const {
  for (std::size_t i = 0; i < curves_.size(); ++i) {
    if (curves_[i].kind != Demand::Kind::kNone) {
      fleet.set_demand(static_cast<host::VmId>(i), curves_[i].at(t));
    }
  }
}

}  // namespace vb::load
