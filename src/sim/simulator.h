// Discrete-event simulator driving all protocol activity.
//
// Every Pastry/Scribe message, aggregation round, shedder query, and VM
// migration in this repository is an event on this clock, so experiment
// timelines (Figs. 10-12) and latencies (Fig. 14) are measured in simulated
// time and are bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "ckpt/format.h"
#include "sim/event_queue.h"

namespace vb::sim {

/// Periodic-task callback: return true to keep firing, false to stop.
/// 64 inline bytes cover every periodic closure in the tree (they capture a
/// pointer or two); larger captures fall back to one allocation at arm time,
/// never per tick.
using PeriodicFn = UniqueFunction<bool(), 64>;

/// Single-threaded discrete-event simulator.
///
/// Usage:
///   Simulator s;
///   s.schedule_in(0.5, [] { ... });
///   auto h = s.schedule_periodic(0.0, 1.0, [] { ...; return true; });
///   s.run_until(60.0);
///   s.cancel_periodic(h);
class Simulator {
 public:
  /// Opaque handle to a periodic task; pass to cancel_periodic.  Default
  /// constructed (or returned for a never-firing schedule) it is invalid.
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    bool valid() const { return bits_ != 0; }

   private:
    friend class Simulator;
    PeriodicHandle(std::uint32_t gen, std::uint32_t slot)
        : bits_((static_cast<std::uint64_t>(gen) << 32) | slot) {}
    std::uint32_t slot() const { return static_cast<std::uint32_t>(bits_); }
    std::uint32_t gen() const { return static_cast<std::uint32_t>(bits_ >> 32); }
    std::uint64_t bits_ = 0;
  };

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `action` `delay` seconds from now (delay >= 0).  The returned
  /// ticket can cancel the event before it fires.  Templated (like
  /// EventQueue::push) so the closure is built in place in the event slab.
  template <class F>
  EventId schedule_in(SimTime delay, F&& action) {
    if (delay < 0) throw std::invalid_argument("Simulator: negative delay");
    return queue_.push(now_ + delay, std::forward<F>(action));
  }

  /// Schedules `action` at absolute time `t` (t >= now()).
  template <class F>
  EventId schedule_at(SimTime t, F&& action) {
    if (t < now_) throw std::invalid_argument("Simulator: schedule in the past");
    return queue_.push(t, std::forward<F>(action));
  }

  /// Cancels a one-shot event scheduled via schedule_in/schedule_at.
  /// Returns true if it was still pending.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Schedules `action` every `period` seconds, starting at now()+`phase`
  /// (phase >= 0, period > 0), until `until` (exclusive) or until the action
  /// returns false or the returned handle is cancelled.  The action is
  /// stored once; re-arming schedules a 16-byte tick closure, never a copy
  /// of the action.
  PeriodicHandle schedule_periodic(
      SimTime phase, SimTime period, PeriodicFn action,
      SimTime until = std::numeric_limits<SimTime>::infinity());

  /// Cancels a periodic task.  Returns true if it was still active.  Safe to
  /// call from within the task's own action.
  bool cancel_periodic(PeriodicHandle h);

  /// Runs events until the queue drains or simulated time would exceed `t`.
  /// Afterwards now() == min(t, drain time).  Events at exactly `t` run.
  void run_until(SimTime t);

  /// Runs until the event queue is empty.
  void run_to_completion();

  /// Executes exactly one event if any is pending; returns false otherwise.
  bool step();

  /// True if no events are pending.
  bool idle() const { return queue_.empty(); }

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events ever scheduled.
  std::uint64_t events_scheduled() const { return queue_.total_pushed(); }

  /// Number of events cancelled before firing.
  std::uint64_t events_cancelled() const { return queue_.total_cancelled(); }

  // --- Checkpoint/restore (src/ckpt) -------------------------------------

  /// Checkpoint-restore path: schedules `action` at an absolute (time, seq)
  /// captured from a previous run, reproducing that run's FIFO tie-breaking
  /// exactly.  Does not advance the seq counter.
  template <class F>
  EventId schedule_at_with_seq(SimTime t, std::uint64_t seq, F&& action) {
    if (t < now_) throw std::invalid_argument("Simulator: schedule in the past");
    return queue_.push_with_seq(t, seq, std::forward<F>(action));
  }

  /// Fire time / FIFO seq of a pending one-shot event (ckpt bookkeeping).
  SimTime event_time(EventId id) const { return queue_.event_time(id); }
  std::uint64_t event_seq(EventId id) const { return queue_.event_seq(id); }

  /// Number of live (pending, uncancelled) events — restore verification.
  std::size_t pending_events() const { return queue_.size(); }

  /// Serializes the clock, the event counters, and the periodic slab.
  /// One-shot timers are serialized by the components that own them (see
  /// ckpt_timer below).
  void ckpt_save(ckpt::Writer& w) const { ckpt::save(w, *this); }

  /// Discards every pending event from the reconstruction, restores the
  /// clock/counters, and re-arms each periodic tick at its original
  /// (fire time, seq).  The reconstruction must have created the periodic
  /// slab in the original order (same setup sequence); any mismatch in slab
  /// size, period, or until throws CkptError.  After this call the owning
  /// components must re-arm their one-shot timers via
  /// schedule_at_with_seq(); until then the queue holds only periodics.
  void ckpt_restore(ckpt::Reader& r) { ckpt_io(r); }

  /// The one layout behind ckpt_save and ckpt_restore.
  template <class IO>
  void ckpt_io(IO& io);

 private:
  // One recurring task, stored in a recycled slab so a periodic's action is
  // constructed exactly once however many times it fires.
  struct PeriodicTask {
    PeriodicFn action;
    SimTime period = 0.0;
    SimTime until = 0.0;
    EventId pending = kInvalidEventId;  // currently-armed tick event
    std::uint32_t gen = 1;
    bool active = false;
  };

  void periodic_fire(std::uint32_t slot, std::uint32_t gen);
  void release_periodic(std::uint32_t slot);

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::vector<PeriodicTask> periodic_;
  std::vector<std::uint32_t> periodic_free_;
};

/// Checkpoints one armed one-shot timer of a component: writes its (fire
/// time, seq) on save; on restore reads them and re-arms `fire` at exactly
/// that (time, seq), storing the new ticket in `timer`.
template <class IO, class F>
void ckpt_timer(IO& io, Simulator& sim, EventId& timer, F&& fire) {
  SimTime at = 0.0;
  std::uint64_t seq = 0;
  if constexpr (!IO::kLoading) {
    at = sim.event_time(timer);
    seq = sim.event_seq(timer);
  }
  io.f64(at);
  io.u64(seq);
  io.loading([&] {
    timer = sim.schedule_at_with_seq(at, seq, std::forward<F>(fire));
  });
}

}  // namespace vb::sim
