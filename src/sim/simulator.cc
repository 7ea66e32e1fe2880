#include "sim/simulator.h"

#include <stdexcept>
#include <utility>

namespace vb::sim {

Simulator::PeriodicHandle Simulator::schedule_periodic(SimTime phase,
                                                       SimTime period,
                                                       PeriodicFn action,
                                                       SimTime until) {
  if (phase < 0) throw std::invalid_argument("Simulator: negative phase");
  if (period <= 0) throw std::invalid_argument("Simulator: period <= 0");
  SimTime first = now_ + phase;
  if (first >= until) return PeriodicHandle{};

  std::uint32_t slot;
  if (!periodic_free_.empty()) {
    slot = periodic_free_.back();
    periodic_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(periodic_.size());
    periodic_.emplace_back();
  }
  PeriodicTask& t = periodic_[slot];
  t.action = std::move(action);
  t.period = period;
  t.until = until;
  t.active = true;
  std::uint32_t gen = t.gen;
  t.pending = queue_.push(first, [this, slot, gen] { periodic_fire(slot, gen); });
  return PeriodicHandle{gen, slot};
}

bool Simulator::cancel_periodic(PeriodicHandle h) {
  if (!h.valid() || h.slot() >= periodic_.size()) return false;
  PeriodicTask& t = periodic_[h.slot()];
  if (!t.active || t.gen != h.gen()) return false;
  queue_.cancel(t.pending);  // no-op when called from inside the tick itself
  release_periodic(h.slot());
  return true;
}

void Simulator::periodic_fire(std::uint32_t slot, std::uint32_t gen) {
  {
    PeriodicTask& t = periodic_[slot];
    if (!t.active || t.gen != gen) return;  // cancelled while armed
    t.pending = kInvalidEventId;
  }
  // Run the action outside the slab reference: it may schedule new periodics
  // (growing periodic_) or cancel itself, so re-index afterwards.
  PeriodicFn action = std::move(periodic_[slot].action);
  bool keep = action();
  PeriodicTask& t = periodic_[slot];
  if (!t.active || t.gen != gen) return;  // cancelled from inside the action
  if (!keep) {
    release_periodic(slot);
    return;
  }
  t.action = std::move(action);
  SimTime next = now_ + t.period;
  if (next >= t.until) {
    release_periodic(slot);
    return;
  }
  t.pending = queue_.push(next, [this, slot, gen] { periodic_fire(slot, gen); });
}

void Simulator::release_periodic(std::uint32_t slot) {
  PeriodicTask& t = periodic_[slot];
  t.action.reset();
  t.pending = kInvalidEventId;
  t.active = false;
  ++t.gen;
  periodic_free_.push_back(slot);
}

void Simulator::run_until(SimTime t) {
  while (!queue_.empty()) {
    SimTime next = queue_.next_time();
    if (next > t) break;
    now_ = next;
    ++executed_;
    queue_.run_top();  // executes the callback in place, no closure move
  }
  if (now_ < t) now_ = t;
}

void Simulator::run_to_completion() {
  while (!queue_.empty()) {
    now_ = queue_.next_time();
    ++executed_;
    queue_.run_top();
  }
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  now_ = queue_.next_time();
  ++executed_;
  queue_.run_top();
  return true;
}

template <class IO>
void Simulator::ckpt_io(IO& io) {
  io.section("sim", [&] {
    std::uint64_t scheduled = queue_.total_pushed();
    std::uint64_t cancelled = queue_.total_cancelled();
    io.f64(now_);
    io.u64(executed_);
    io.u64(scheduled);
    io.u64(cancelled);
    auto slots = static_cast<std::uint32_t>(periodic_.size());
    io.u32(slots);
    io.loading([&] {
      if (slots != periodic_.size()) {
        throw ckpt::CkptError(
            "sim restore: periodic slab size " +
            std::to_string(periodic_.size()) + " does not match checkpoint " +
            std::to_string(slots) +
            " — reconstruction did not replay the original setup sequence");
      }
      queue_.clear_pending();
    });
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      PeriodicTask& t = periodic_[slot];
      bool active = t.active;
      io.boolean(active);
      if (!active) {
        io.loading([&] {
          if (!t.active) return;
          // The original run had retired this task (until-expiry or a false
          // return) by checkpoint time; retire the reconstruction's copy
          // too.  The free list is overwritten wholesale below.
          t.action.reset();
          t.pending = kInvalidEventId;
          t.active = false;
          ++t.gen;
        });
        continue;
      }
      SimTime period = t.period;
      SimTime until = t.until;
      bool armed = t.pending != kInvalidEventId && queue_.pending(t.pending);
      io.f64(period);
      io.f64(until);
      io.boolean(armed);
      io.loading([&] {
        if (!t.active || t.period != period || t.until != until) {
          throw ckpt::CkptError(
              "sim restore: periodic slot " + std::to_string(slot) +
              " does not match the checkpoint (missing or different "
              "period/until) — reconstruction drift");
        }
        t.pending = kInvalidEventId;
      });
      if (armed) {
        ckpt_timer(io, *this, t.pending,
                   [this, slot, gen = t.gen] { periodic_fire(slot, gen); });
      }
    }
    io.seq(periodic_free_, [&](std::uint32_t& s) { io.u32(s); });
    io.loading([&] { queue_.restore_counters(scheduled, cancelled); });
  });
}

template void Simulator::ckpt_io(ckpt::Writer&);
template void Simulator::ckpt_io(ckpt::Reader&);

}  // namespace vb::sim
