// Deterministic VC(N, B) request sources.
//
// OpenWorldGenerator draws a continuous tenant workload: Poisson arrivals
// modulated by a diurnal sine (a nonhomogeneous Poisson process, sampled by
// thinning), exponential or lognormal lifetimes, bundle sizes and specs from
// a configurable menu, and a demand shape per request.  All randomness flows
// through one seeded vb::Rng, so a given seed replays the identical request
// stream — and the generator state checkpoints, so a restored campaign
// continues the stream bit-identically.
//
// ClosedWorldSource replays a fixed boot schedule (tenant batches with
// alternating specs, all arriving at t=0, living forever) — the paper's
// Fig. 7/8 world expressed as a degenerate arena workload.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arena/request.h"
#include "ckpt/format.h"
#include "common/rng.h"

namespace vb::arena {

/// A stream of requests in nondecreasing arrival order.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// Next request, or nullopt when the source is exhausted (open-world
  /// generators never exhaust; the arena bounds them by count/horizon).
  virtual std::optional<VcRequest> next() = 0;
  virtual void ckpt_save(ckpt::Writer& w) const = 0;
  virtual void ckpt_restore(ckpt::Reader& r) = 0;
};

struct GeneratorConfig {
  std::uint64_t seed = 1;

  // Arrival process: rate(t) = base * (1 + amplitude * sin(2*pi*t/period)).
  double base_arrival_per_s = 0.05;
  double diurnal_amplitude = 0.5;  ///< in [0, 1)
  double diurnal_period_s = 86400.0;

  // Lifetimes: exponential(1/mean) or lognormal with the same mean.
  bool lognormal_lifetimes = false;
  double mean_lifetime_s = 4 * 3600.0;
  double lognormal_sigma = 1.0;

  // Bundle shape.
  int n_min = 2;
  int n_max = 16;
  /// (reservation, limit) menu, drawn uniformly; defaults match the paper's
  /// two VM classes used throughout the figures.
  std::vector<host::VmSpec> spec_menu = {host::VmSpec{100.0, 200.0},
                                         host::VmSpec{200.0, 400.0}};

  // Demand shapes for admitted bundles.
  double demand_low_frac = 0.2;  ///< low = frac * reservation
  double min_period_s = 600.0;
  double max_period_s = 7200.0;

  /// Tenant names are reused round-robin ("tenant-<id % pool>"), so tenants
  /// issue repeat business and per-tenant SLO streaks are meaningful.
  int tenant_pool = 50;
};

class OpenWorldGenerator : public RequestSource {
 public:
  explicit OpenWorldGenerator(GeneratorConfig cfg);

  std::optional<VcRequest> next() override;

  void ckpt_save(ckpt::Writer& w) const override { ckpt::save(w, *this); }
  void ckpt_restore(ckpt::Reader& r) override { ckpt_io(r); }
  /// The one layout behind ckpt_save and ckpt_restore; restore refuses an
  /// image of a different seed.
  template <class IO>
  void ckpt_io(IO& io);

 private:
  GeneratorConfig cfg_;
  Rng rng_;
  double t_ = 0.0;
  std::uint64_t next_id_ = 0;
};

/// Fixed boot schedule: `count` single-VM requests per batch, specs cycling
/// through `specs` by index — exactly the loops bench/fig8_growth.cc used to
/// hand-roll.
class ClosedWorldSource : public RequestSource {
 public:
  struct Batch {
    std::string tenant;
    int count = 0;
    std::vector<host::VmSpec> specs;
  };

  explicit ClosedWorldSource(std::vector<Batch> batches,
                             std::uint64_t first_id = 0);

  std::optional<VcRequest> next() override;

  void ckpt_save(ckpt::Writer& w) const override { ckpt::save(w, *this); }
  void ckpt_restore(ckpt::Reader& r) override { ckpt_io(r); }
  /// The one layout behind ckpt_save and ckpt_restore.
  template <class IO>
  void ckpt_io(IO& io);

 private:
  std::vector<Batch> batches_;
  std::size_t batch_ = 0;
  int index_ = 0;  ///< position within the current batch
  std::uint64_t next_id_;
};

}  // namespace vb::arena
