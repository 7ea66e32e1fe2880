// Property tests for EventQueue: pop order, FIFO ties, counter monotonicity,
// and cancellation — all under randomized (but seeded, reproducible)
// workloads.  These lock in the ordering contract the slab/binary-heap
// implementation must honor so the simulator stays bit-for-bit
// deterministic (see tests/sim/determinism_test.cc for the end-to-end
// version of that claim).
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace vb::sim {
namespace {

TEST(EventQueueProperty, PopOrderEqualsSortedTimeSeqFor10kRandomEvents) {
  Rng rng(2024);
  EventQueue q;
  const int kEvents = 10000;
  // Draw times from a small discrete set so equal timestamps are common and
  // the seq tie-break actually gets exercised.
  std::vector<std::pair<double, std::uint64_t>> expected;
  std::vector<std::pair<double, std::uint64_t>> popped;
  expected.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    double t = 0.25 * static_cast<double>(rng.next_u64() % 64);
    std::uint64_t seq = q.total_pushed();
    q.push(t, [&popped, t, seq] { popped.emplace_back(t, seq); });
    expected.emplace_back(t, seq);
  }
  std::sort(expected.begin(), expected.end());
  while (!q.empty()) q.run_top();
  ASSERT_EQ(popped.size(), expected.size());
  EXPECT_EQ(popped, expected);
}

TEST(EventQueueProperty, FifoAmongEqualTimestampsUnderRandomInterleavings) {
  // Interleave pushes at a handful of timestamps with drains; within each
  // timestamp, events must come out in push order regardless of how the
  // pushes were interleaved with pops and with other timestamps.
  Rng rng(77);
  EventQueue q;
  std::map<double, std::vector<int>> out;  // time -> payload order popped
  std::map<double, int> next_payload;      // time -> next payload to push
  double drained_up_to = -1.0;  // highest time already popped
  int pushes_left = 5000;
  while (pushes_left > 0 || !q.empty()) {
    bool do_push = pushes_left > 0 && (q.empty() || rng.next_u64() % 3 != 0);
    if (do_push) {
      // Never push at a timestamp that has already been drained past, so
      // FIFO-within-timestamp stays well-defined.
      double base = q.empty() ? drained_up_to + 1.0 : q.next_time();
      double t = base + static_cast<double>(rng.next_u64() % 4);
      int payload = next_payload[t]++;
      q.push(t, [&out, t, payload] { out[t].push_back(payload); });
      --pushes_left;
    } else {
      drained_up_to = q.run_top();
    }
  }
  ASSERT_FALSE(out.empty());
  for (const auto& [t, order] : out) {
    for (int i = 0; i < static_cast<int>(order.size()); ++i) {
      EXPECT_EQ(order[static_cast<std::size_t>(i)], i)
          << "timestamp " << t << " violated FIFO";
    }
  }
}

TEST(EventQueueProperty, TotalPushedIsMonotoneAndCountsEveryPush) {
  Rng rng(5);
  EventQueue q;
  std::uint64_t pushes = 0;
  std::uint64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    switch (rng.next_u64() % 3) {
      case 0:
      case 1: {
        q.push(rng.uniform(0.0, 10.0), [] {});
        ++pushes;
        break;
      }
      default:
        if (!q.empty()) q.run_top();
        break;
    }
    EXPECT_GE(q.total_pushed(), last);  // never decreases, even on pop
    last = q.total_pushed();
    EXPECT_EQ(q.total_pushed(), pushes);
  }
}

TEST(EventQueueProperty, RandomCancellationMatchesReferenceModel) {
  // Push N events, cancel a random subset, and check the drain against a
  // reference model.  Exercises ticket validity, double-cancel, pending(),
  // and the lazy heap pruning around cancelled tops.
  Rng rng(99);
  EventQueue q;
  const int kEvents = 4000;
  struct Ref {
    double time;
    std::uint64_t seq;
    EventId id;
    bool cancelled = false;
  };
  std::vector<Ref> refs;
  std::vector<std::uint64_t> fired;
  refs.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    double t = 0.5 * static_cast<double>(rng.next_u64() % 32);
    std::uint64_t seq = q.total_pushed();
    EventId id = q.push(t, [&fired, seq] { fired.push_back(seq); });
    EXPECT_NE(id, kInvalidEventId);
    refs.push_back(Ref{t, seq, id});
  }
  std::uint64_t want_cancelled = 0;
  for (Ref& r : refs) {
    if (rng.next_u64() % 4 == 0) {
      EXPECT_TRUE(q.pending(r.id));
      EXPECT_TRUE(q.cancel(r.id));
      EXPECT_FALSE(q.pending(r.id));
      EXPECT_FALSE(q.cancel(r.id)) << "double cancel must report failure";
      r.cancelled = true;
      ++want_cancelled;
    }
  }
  EXPECT_EQ(q.total_cancelled(), want_cancelled);
  EXPECT_EQ(q.size(), refs.size() - want_cancelled);

  std::vector<std::uint64_t> expected;
  {
    std::vector<Ref> alive;
    for (const Ref& r : refs) {
      if (!r.cancelled) alive.push_back(r);
    }
    std::sort(alive.begin(), alive.end(), [](const Ref& a, const Ref& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    });
    for (const Ref& r : alive) expected.push_back(r.seq);
  }
  while (!q.empty()) q.run_top();
  EXPECT_EQ(fired, expected);
  for (const Ref& r : refs) {
    EXPECT_FALSE(q.pending(r.id)) << "ticket live after drain";
    EXPECT_FALSE(q.cancel(r.id)) << "cancel after fire must report failure";
  }
}

TEST(EventQueueProperty, CancellingEveryCurrentMinimumStillDrainsInOrder) {
  // Repeatedly cancel the earliest pending event; the queue must keep
  // reporting the next live minimum (lazy pruning never exposes a cancelled
  // event through next_time / run_top).
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.push(static_cast<double>(i), [&fired, i] {
      fired.push_back(i);
    }));
  }
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  int expect = 1;
  while (!q.empty()) {
    EXPECT_DOUBLE_EQ(q.next_time(), static_cast<double>(expect));
    q.run_top();
    expect += 2;
  }
  EXPECT_EQ(fired.size(), 50u);
}

// Records the (time, seq) key of every event as it runs, in run_top order.
struct KeyLog {
  EventQueue& q;
  std::vector<std::pair<SimTime, std::uint64_t>> fired;

  // Pushes an event at `t` that logs its key and then calls `then`.
  template <class F>
  void push(SimTime t, F then) {
    const std::uint64_t seq = q.total_pushed();
    q.push(t, [this, t, seq, then] {
      fired.emplace_back(t, seq);
      then();
    });
  }

  // A self-rescheduling ticker: fires every 0.1 ms until t >= 1 s.
  void chain(SimTime t) {
    push(t, [this, t] {
      if (t < 1.0) chain(t + 1e-4);
    });
  }
};

TEST(EventQueueProperty, BurstAfterQuietGapDrainsInKeyOrder) {
  // A dense first second, a quiet gap of ~300 s, then a burst of 100 equal
  // times whose follow-ups land after a lone event at 300.5 + l.  The
  // follow-ups (300.5 + f, f > l) must not run before that lone event,
  // however the queue's internal layout reacts to the density change.
  constexpr double kBurst = 300.5;
  for (double l : {1e-3, 2e-3, 5e-3, 10e-3}) {
    for (double f : {2e-3, 5e-3, 10e-3, 20e-3}) {
      if (f <= l) continue;
      SCOPED_TRACE(::testing::Message() << "l=" << l << " f=" << f);
      EventQueue q;
      KeyLog log{q, {}};
      for (int c = 0; c < 8; ++c) log.chain(c * 10e-6);
      for (int i = 0; i < 100; ++i) {
        log.push(kBurst, [&log, f] { log.push(kBurst + f, [] {}); });
      }
      log.push(kBurst + l, [] {});
      while (!q.empty()) q.run_top();
      ASSERT_EQ(log.fired.size(), q.total_pushed());
      std::size_t inversions = 0;
      for (std::size_t i = 1; i < log.fired.size(); ++i) {
        if (!(log.fired[i - 1] < log.fired[i])) ++inversions;
      }
      EXPECT_EQ(inversions, 0u) << "run_top order left (time, seq) order";
    }
  }
}

TEST(EventQueueProperty, CallbackMayCancelOtherPendingEvents) {
  // Cancellation from inside a running callback (the Scribe-heartbeat
  // pattern: an event invalidates a peer's pending timeout).
  EventQueue q;
  std::vector<int> fired;
  EventId victim = q.push(2.0, [&fired] { fired.push_back(2); });
  q.push(1.0, [&fired, &q, victim] {
    fired.push_back(1);
    EXPECT_TRUE(q.cancel(victim));
  });
  q.push(3.0, [&fired] { fired.push_back(3); });
  while (!q.empty()) q.run_top();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(SimulatorCancellation, CancelStopsAOneShotEvent) {
  Simulator s;
  int fired = 0;
  EventId id = s.schedule_in(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  s.run_to_completion();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.events_cancelled(), 1u);
}

TEST(SimulatorCancellation, CancelPeriodicStopsFutureFires) {
  Simulator s;
  int count = 0;
  auto h = s.schedule_periodic(0.0, 1.0, [&] {
    ++count;
    return true;
  });
  s.run_until(2.5);  // fires at 0, 1, 2
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(s.cancel_periodic(h));
  EXPECT_FALSE(s.cancel_periodic(h)) << "handle must die with the task";
  s.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorCancellation, PeriodicMayCancelItselfFromInsideItsAction) {
  Simulator s;
  int count = 0;
  Simulator::PeriodicHandle h;
  h = s.schedule_periodic(0.0, 1.0, [&] {
    ++count;
    if (count == 2) {
      EXPECT_TRUE(s.cancel_periodic(h));
    }
    return true;  // return value is moot once cancelled
  });
  s.run_until(50.0);
  EXPECT_EQ(count, 2);
}

TEST(SimulatorCancellation, DefaultHandleIsInvalidAndRejected) {
  Simulator s;
  Simulator::PeriodicHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(s.cancel_periodic(h));
}

}  // namespace
}  // namespace vb::sim
