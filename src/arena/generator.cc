#include "arena/generator.h"

#include <cmath>
#include <stdexcept>

namespace vb::arena {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}

OpenWorldGenerator::OpenWorldGenerator(GeneratorConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.base_arrival_per_s <= 0) {
    throw std::invalid_argument("OpenWorldGenerator: arrival rate must be > 0");
  }
  if (cfg_.diurnal_amplitude < 0 || cfg_.diurnal_amplitude >= 1) {
    throw std::invalid_argument("OpenWorldGenerator: amplitude must be [0, 1)");
  }
  if (cfg_.n_min < 1 || cfg_.n_max < cfg_.n_min) {
    throw std::invalid_argument("OpenWorldGenerator: bad bundle size range");
  }
  if (cfg_.spec_menu.empty() || cfg_.tenant_pool < 1) {
    throw std::invalid_argument("OpenWorldGenerator: empty spec menu / pool");
  }
}

std::optional<VcRequest> OpenWorldGenerator::next() {
  // Nonhomogeneous Poisson by thinning: propose at the peak rate, accept a
  // proposal with probability rate(t)/peak.  Every draw comes from rng_, so
  // the stream is a pure function of the seed.
  const double peak = cfg_.base_arrival_per_s * (1.0 + cfg_.diurnal_amplitude);
  for (;;) {
    t_ += rng_.exponential(peak);
    double rate =
        cfg_.base_arrival_per_s *
        (1.0 + cfg_.diurnal_amplitude *
                   std::sin(kTwoPi * t_ / cfg_.diurnal_period_s));
    if (rng_.next_double() * peak <= rate) break;
  }

  VcRequest r;
  r.id = next_id_++;
  r.tenant = "tenant-" + std::to_string(r.id % static_cast<std::uint64_t>(
                                                   cfg_.tenant_pool));
  r.arrival_s = t_;
  r.n_vms = static_cast<int>(rng_.uniform_int(cfg_.n_min, cfg_.n_max));
  r.spec = cfg_.spec_menu[rng_.index(cfg_.spec_menu.size())];

  if (cfg_.lognormal_lifetimes) {
    // Parameterized so the distribution *mean* equals mean_lifetime_s:
    // mu = ln(mean) - sigma^2/2.
    double mu = std::log(cfg_.mean_lifetime_s) -
                cfg_.lognormal_sigma * cfg_.lognormal_sigma / 2.0;
    r.lifetime_s = std::exp(rng_.normal(mu, cfg_.lognormal_sigma));
  } else {
    r.lifetime_s = rng_.exponential(1.0 / cfg_.mean_lifetime_s);
  }

  // Demand shape: one of the four active kinds, staggered per VM downstream.
  r.shape.kind = static_cast<load::Demand::Kind>(1 + rng_.next_below(4));
  r.shape.low_mbps = cfg_.demand_low_frac * r.spec.reservation_mbps;
  r.shape.high_mbps = r.spec.limit_mbps;
  if (r.shape.kind == load::Demand::Kind::kConstant) {
    // Steady at the guaranteed rate, not the burst ceiling.
    r.shape.high_mbps = r.spec.reservation_mbps;
  }
  r.shape.period_s = rng_.uniform(cfg_.min_period_s, cfg_.max_period_s);
  r.shape.phase_s = rng_.uniform(0.0, r.shape.period_s);
  r.shape.seed = rng_.next_u64();
  return r;
}

template <class IO>
void OpenWorldGenerator::ckpt_io(IO& io) {
  io.section("arena_generator", [&] {
    std::uint64_t seed = cfg_.seed;  // reconstruction guard
    io.u64(seed);
    io.loading([&] {
      if (seed != cfg_.seed) {
        throw ckpt::CkptError("arena_generator: seed mismatch (checkpoint " +
                              std::to_string(seed) + ", reconstruction " +
                              std::to_string(cfg_.seed) + ")");
      }
    });
    rng_.ckpt_io(io);
    io.f64(t_);
    io.u64(next_id_);
  });
}

template void OpenWorldGenerator::ckpt_io(ckpt::Writer&);
template void OpenWorldGenerator::ckpt_io(ckpt::Reader&);

ClosedWorldSource::ClosedWorldSource(std::vector<Batch> batches,
                                     std::uint64_t first_id)
    : batches_(std::move(batches)), next_id_(first_id) {
  for (const Batch& b : batches_) {
    if (b.count < 0 || b.specs.empty()) {
      throw std::invalid_argument("ClosedWorldSource: bad batch");
    }
  }
}

std::optional<VcRequest> ClosedWorldSource::next() {
  while (batch_ < batches_.size() && index_ >= batches_[batch_].count) {
    ++batch_;
    index_ = 0;
  }
  if (batch_ >= batches_.size()) return std::nullopt;
  const Batch& b = batches_[batch_];
  VcRequest r;
  r.id = next_id_++;
  r.tenant = b.tenant;
  r.arrival_s = 0.0;
  // lifetime stays infinite; shape stays kNone — a pure placement workload.
  r.n_vms = 1;
  r.spec = b.specs[static_cast<std::size_t>(index_) % b.specs.size()];
  ++index_;
  return r;
}

template <class IO>
void ClosedWorldSource::ckpt_io(IO& io) {
  io.section("arena_closed_source", [&] {
    io.u64(batch_);
    io.i64(index_);
    io.u64(next_id_);
  });
}

template void ClosedWorldSource::ckpt_io(ckpt::Writer&);
template void ClosedWorldSource::ckpt_io(ckpt::Reader&);

}  // namespace vb::arena
