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

void Simulator::ckpt_save(ckpt::Writer& w) const {
  w.begin_section("sim");
  w.f64(now_);
  w.u64(executed_);
  w.u64(queue_.total_pushed());
  w.u64(queue_.total_cancelled());
  w.u32(static_cast<std::uint32_t>(periodic_.size()));
  for (const PeriodicTask& t : periodic_) {
    w.boolean(t.active);
    if (!t.active) continue;
    w.f64(t.period);
    w.f64(t.until);
    bool armed = t.pending != kInvalidEventId && queue_.pending(t.pending);
    w.boolean(armed);
    if (armed) {
      w.f64(queue_.event_time(t.pending));
      w.u64(queue_.event_seq(t.pending));
    }
  }
  w.u32(static_cast<std::uint32_t>(periodic_free_.size()));
  for (std::uint32_t s : periodic_free_) w.u32(s);
  w.end_section();
}

void Simulator::ckpt_restore(ckpt::Reader& r) {
  r.enter_section("sim");
  SimTime now = r.f64();
  std::uint64_t executed = r.u64();
  std::uint64_t scheduled = r.u64();
  std::uint64_t cancelled = r.u64();
  std::uint32_t slots = r.u32();
  if (slots != periodic_.size()) {
    throw ckpt::CkptError(
        "sim restore: periodic slab size " + std::to_string(periodic_.size()) +
        " does not match checkpoint " + std::to_string(slots) +
        " — reconstruction did not replay the original setup sequence");
  }
  queue_.clear_pending();
  now_ = now;
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    PeriodicTask& t = periodic_[slot];
    bool active = r.boolean();
    if (!active) {
      if (t.active) {
        // The original run had retired this task (until-expiry or a false
        // return) by checkpoint time; retire the reconstruction's copy too.
        // The free list is overwritten wholesale below.
        t.action.reset();
        t.pending = kInvalidEventId;
        t.active = false;
        ++t.gen;
      }
      continue;
    }
    SimTime period = r.f64();
    SimTime until = r.f64();
    bool armed = r.boolean();
    if (!t.active || t.period != period || t.until != until) {
      throw ckpt::CkptError(
          "sim restore: periodic slot " + std::to_string(slot) +
          " does not match the checkpoint (missing or different "
          "period/until) — reconstruction drift");
    }
    if (armed) {
      SimTime fire = r.f64();
      std::uint64_t seq = r.u64();
      std::uint32_t gen = t.gen;
      t.pending = queue_.push_with_seq(
          fire, seq, [this, slot, gen] { periodic_fire(slot, gen); });
    } else {
      t.pending = kInvalidEventId;
    }
  }
  std::uint32_t free_n = r.u32();
  periodic_free_.clear();
  periodic_free_.reserve(free_n);
  for (std::uint32_t i = 0; i < free_n; ++i) periodic_free_.push_back(r.u32());
  queue_.restore_counters(scheduled, cancelled);
  executed_ = executed;
  r.exit_section();
}

}  // namespace vb::sim
