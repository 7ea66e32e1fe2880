#include "sim/event_queue.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace vb::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  // All existing slots are in use: grow by one chunk.  Chunks never move,
  // which is what lets run_top() execute callbacks in place.
  std::uint32_t base = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
  if (base + kChunkSize - 1 > kSlotMask) {
    throw std::length_error("EventQueue: too many pending events");
  }
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  // Hand out the chunk's first slot; queue the rest for later.
  for (std::uint32_t i = kChunkSize - 1; i > 0; --i) free_.push_back(base + i);
  return base;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.fn.reset();
  s.armed = false;
  ++s.gen;  // invalidates outstanding EventIds across reuse
  free_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= static_cast<std::uint32_t>(chunks_.size()) * kChunkSize) {
    return false;
  }
  Slot& s = slot_at(slot);
  if (!s.armed || s.gen != gen) return false;
  // Destroy the callback now; the slot stays reserved (not on the free
  // list) until its orphaned key reaches the heap top.
  s.fn.reset();
  s.armed = false;
  --live_;
  ++cancelled_;
  return true;
}

bool EventQueue::pending(EventId id) const {
  auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= static_cast<std::uint32_t>(chunks_.size()) * kChunkSize) {
    return false;
  }
  const Slot& s = slot_at(slot);
  return s.armed && s.gen == gen;
}

SimTime EventQueue::event_time(EventId id) const {
  if (!pending(id)) {
    throw std::logic_error("EventQueue::event_time: id not pending");
  }
  return slot_at(static_cast<std::uint32_t>(id & 0xFFFFFFFFu)).time;
}

std::uint64_t EventQueue::event_seq(EventId id) const {
  if (!pending(id)) {
    throw std::logic_error("EventQueue::event_seq: id not pending");
  }
  return slot_at(static_cast<std::uint32_t>(id & 0xFFFFFFFFu)).seq;
}

void EventQueue::clear_pending() {
  for (auto& chunk : chunks_) {
    for (std::uint32_t i = 0; i < kChunkSize; ++i) {
      Slot& s = chunk[i];
      s.fn.reset();
      s.armed = false;
      ++s.gen;  // invalidates every outstanding EventId
    }
  }
  // Rebuild the free list so pushes hand out ascending slot indices.  (Slot
  // choice never affects drain order: restored keys carry unique seqs, so
  // the slot bits in a key are never the deciding comparison.)
  free_.clear();
  for (std::uint32_t i =
           static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
       i-- > 0;) {
    free_.push_back(i);
  }
  heap_.clear();
  live_ = 0;
}

void EventQueue::push_key(HeapKey k) {
  heap_.push_back(k);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

EventQueue::HeapKey EventQueue::pop_key() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const HeapKey k = heap_.back();
  heap_.pop_back();
  return k;
}

void EventQueue::ensure_live_front() {
  // live_ > 0 guarantees an armed key is still in the heap.
  for (;;) {
    const std::uint32_t slot = slot_of(heap_.front());
    if (slot_at(slot).armed) return;
    pop_key();
    release_slot(slot);  // lazily drop a cancelled entry
  }
}

SimTime EventQueue::next_time() {
  if (live_ == 0) throw std::logic_error("EventQueue::next_time: empty");
  ensure_live_front();
  return time_of(heap_.front());
}

SimTime EventQueue::run_top() {
  if (live_ == 0) throw std::logic_error("EventQueue::run_top: empty");
  ensure_live_front();
  // Remove the key before running: the callback may push events or cancel
  // others, and must find the heap without it.
  const HeapKey top = pop_key();
  // Start pulling the *next* event's cold closure while this one runs.
  if (!heap_.empty()) prefetch_slot(slot_of(heap_.front()));
  const std::uint32_t slot = slot_of(top);
  Slot& s = slot_at(slot);
  s.armed = false;  // a self-cancel during execution is now a no-op
  --live_;
  s.fn();  // in place: chunks are stable under pushes from the callback
  release_slot(slot);
  return time_of(top);
}

}  // namespace vb::sim
