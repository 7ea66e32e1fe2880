// Deterministic random number generation.
//
// Every experiment in this repository is reproducible: all randomness flows
// through `Rng`, seeded explicitly by the scenario/bench.  The generator is
// splitmix64 (Steele et al.), which is tiny, fast, and passes BigCrush when
// used as a 64-bit stream — more than enough for simulation workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "common/u128.h"

namespace vb {

/// Deterministic PRNG with convenience distributions for simulations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound).  `bound` must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (mean 0, sd 1).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double sd);

  /// Exponential with given rate (lambda).
  double exponential(double rate);

  /// Bernoulli trial with success probability `p`.
  bool chance(double p);

  /// Uniformly random 128-bit id (used for random nodeId / key assignment).
  U128 next_u128();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Uniformly random element index for a container of size n (n > 0).
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(next_below(n));
  }

  /// Derives an independent child generator; handy for giving each simulated
  /// server its own stream without cross-coupling.
  Rng fork();

  /// Complete generator state, exposed for checkpoint/restore (src/ckpt).
  /// Restoring it resumes the stream bit-identically, including a buffered
  /// Box-Muller spare.
  struct State {
    std::uint64_t state = 0;
    bool have_spare_normal = false;
    double spare_normal = 0.0;
  };
  State ckpt_state() const { return {state_, have_spare_normal_, spare_normal_}; }
  void ckpt_restore(const State& s) {
    state_ = s.state;
    have_spare_normal_ = s.have_spare_normal;
    spare_normal_ = s.spare_normal;
  }
  /// Checkpoint layout: the fields of State, in order.
  template <class IO>
  void ckpt_io(IO& io) {
    io.u64(state_);
    io.boolean(have_spare_normal_);
    io.f64(spare_normal_);
  }

 private:
  std::uint64_t state_;
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace vb
