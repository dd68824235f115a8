// Timer-churn differential + two-tier scheduler introspection tests.
//
// The timer-wheel tier (DESIGN.md §11) must be semantically invisible:
// RTO-style arm/cancel/re-arm storms have to execute in exactly the order
// the legacy engine and the heap-only pooled engine produce, including
// same-instant FIFO across the wheel/heap boundary. As in the scheduler
// equivalence suite, every random decision is drawn *inside* a callback so
// any ordering divergence desynchronizes the PRNG stream and cascades into
// the trace. On top of the differential, this file pins the observable
// two-tier invariants directly: pending_events() counts live events (not
// stale heap residue), far-future cancels are O(1) wheel unlinks, cancel
// storms keep the heap compacted, a same-instant burst fires one event per
// step(), and every heap-resident event has its own heap entry.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/legacy_scheduler.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rrtcp {
namespace {

// The pooled engine with the wheel tier disabled: everything — near and
// far — goes through the 4-ary heap, isolating wheel-specific behavior in
// the three-way differential below.
class HeapOnlySimulator : public sim::Simulator {
 public:
  HeapOnlySimulator() { set_timer_wheel_enabled(false); }
};

constexpr int kSeeds = 16;
constexpr int kFlows = 12;
constexpr int kRounds = 220;

// An RTO-shaped workload: a near-time tick loop (heap territory) churns a
// set of far-future timers (wheel territory on the pooled engine). Each
// tick picks a flow and either arms, re-arms, or cancels its timer, with
// delays spanning the wheel levels; timers that survive fire long after
// the ticks stop. Pooled engines re-arm through reschedule_in (the fast
// path); the legacy engine cancels and re-schedules — the traces must be
// byte-identical anyway, which is exactly the reschedule contract.
template <typename Sim>
class ChurnWorkload {
 public:
  explicit ChurnWorkload(std::uint64_t seed) : rnd_{seed, "timer-churn"} {}

  std::string run() {
    handles_.resize(kFlows);
    sim_.schedule_in(sim::Time::microseconds(40), [this] { tick(); });
    // Split across run_until and run so the deadline-peek path sees wheel
    // flushes too, then drain the surviving far timers.
    sim_.run_until(sim::Time::milliseconds(4));
    trace_ += "|";
    sim_.run();
    char tail[64];
    std::snprintf(tail, sizeof tail, "#exec=%llu,end=%s",
                  static_cast<unsigned long long>(sim_.events_executed()),
                  sim_.now().to_string().c_str());
    trace_ += tail;
    return std::move(trace_);
  }

 private:
  using Handle = decltype(std::declval<Sim&>().schedule_in(
      std::declval<sim::Time>(), std::declval<std::function<void()>>()));

  // 100 us .. ~1.6 s in coarse steps: spans wheel levels 1-3 on the pooled
  // engine and lands plenty of same-instant collisions.
  sim::Time rto_delay() {
    return sim::Time::microseconds(100) * (1 + rnd_.uniform_int(0, 127)) *
           128;
  }

  void arm(int f) {
    const sim::Time d = rto_delay();
    if (handles_[f].pending()) {
      if constexpr (requires { sim_.reschedule_in(handles_[f], d); }) {
        handles_[f] = sim_.reschedule_in(handles_[f], d);
      } else {
        handles_[f].cancel();
        handles_[f] = sim_.schedule_in(d, [this, f] { fire(f); });
      }
      trace_ += 'r';
    } else {
      handles_[f] = sim_.schedule_in(d, [this, f] { fire(f); });
      trace_ += 'a';
    }
    trace_ += std::to_string(f) + ";";
  }

  void tick() {
    const int f = static_cast<int>(rnd_.uniform_int(0, kFlows - 1));
    if (handles_[f].pending() && rnd_.bernoulli(0.25)) {
      trace_ += handles_[f].cancel() ? "x!;" : "x-;";
    } else {
      arm(f);
    }
    if (++rounds_ < kRounds)
      sim_.schedule_in(sim::Time::microseconds(40), [this] { tick(); });
  }

  void fire(int f) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "F%d@%s;", f,
                  sim_.now().to_string().c_str());
    trace_ += buf;
    // Surviving timers sometimes re-arm from their own callback — the
    // firing-handle-is-dead re-arm path — keeping the storm going a bit.
    if (rnd_.bernoulli(0.3) && rounds_ < kRounds + kFlows) arm(f);
  }

  Sim sim_;
  sim::Rng rnd_;
  std::vector<Handle> handles_;
  std::string trace_;
  int rounds_ = 0;
};

TEST(TimerChurn, ThreeEnginesProduceIdenticalTraces) {
  for (int s = 0; s < kSeeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(7000 + s);
    const std::string legacy =
        ChurnWorkload<sim::LegacySimulator>{seed}.run();
    const std::string pooled = ChurnWorkload<sim::Simulator>{seed}.run();
    const std::string heap_only =
        ChurnWorkload<HeapOnlySimulator>{seed}.run();
    EXPECT_EQ(legacy, pooled) << "seed " << seed;
    EXPECT_EQ(legacy, heap_only) << "seed " << seed;
  }
}

// Same-instant FIFO across the wheel/heap boundary: an event staged in the
// wheel long in advance must still fire before events scheduled for the
// same instant later (from close range, where they go straight to the
// heap). Insertion order is the only order.
template <typename Sim>
std::string boundary_order() {
  Sim sim;
  std::string order;
  const auto at = sim::Time::seconds(1);
  sim.schedule_at(at, [&] { order += 'a'; });  // far: wheel on pooled
  sim.schedule_at(at - sim::Time::nanoseconds(1), [&] {
    // Fires after the wheel has flushed instant `at` into the heap; these
    // same-instant latecomers must still run behind 'a'.
    sim.schedule_at(at, [&] { order += 'b'; });
    sim.schedule_at(at, [&] { order += 'c'; });
  });
  sim.run();
  return order;
}

TEST(TimerChurn, SameInstantFifoAcrossWheelHeapBoundary) {
  EXPECT_EQ(boundary_order<sim::LegacySimulator>(), "abc");
  EXPECT_EQ(boundary_order<sim::Simulator>(), "abc");
  EXPECT_EQ(boundary_order<HeapOnlySimulator>(), "abc");
}

// The nastiest same-instant ordering on the pooled engine: three events at
// one instant T arrive by three different routes — L staged far (coarse
// wheel level), M direct-inserted into the fine level while L still sits
// at the coarse level, H direct-inserted after L has cascaded down. The
// flush then walks the bucket in list order [M, L, H], i.e. NON-monotone
// seq order — and must still fire in seq (= insertion) order.
template <typename Sim>
std::string cascade_interleave_order() {
  Sim sim;
  std::string order;
  constexpr std::int64_t g0 = std::int64_t{1} << 26;  // level-0 granule, ps
  const auto instant = sim::Time::picoseconds(100 * g0);
  sim.schedule_at(instant, [&] { order += 'L'; });  // coarse-level staging
  // A filler the wheel flushes mid-way: advances the wheel horizon so the
  // NEXT same-instant schedule is within the fine level's span.
  sim.schedule_at(sim::Time::picoseconds(50 * g0), [&] { order += '.'; });
  sim.run_until(sim::Time::picoseconds(55 * g0));
  sim.schedule_at(instant, [&] { order += 'M'; });  // direct, before cascade
  sim.schedule_at(sim::Time::picoseconds(65 * g0), [&] {
    // Fires after L has cascaded to the fine level (the 64*g0 boundary).
    sim.schedule_at(instant, [&] { order += 'H'; });
  });
  sim.run();
  return order;
}

TEST(TimerChurn, CascadeInterleavedSameInstantStaysInInsertionOrder) {
  EXPECT_EQ(cascade_interleave_order<sim::LegacySimulator>(), ".LMH");
  EXPECT_EQ(cascade_interleave_order<sim::Simulator>(), ".LMH");
  EXPECT_EQ(cascade_interleave_order<HeapOnlySimulator>(), ".LMH");
}

// pending_events() counts live events — schedules minus cancels minus
// fires — regardless of which tier holds them or how much stale residue
// the lazy-cancellation heap carries.
TEST(TimerChurn, PendingEventsTracksLiveCount) {
  sim::Simulator sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  std::vector<sim::EventHandle> hs;
  for (int i = 0; i < 100; ++i) {
    // Alternate near (heap) and far (wheel) so both tiers are counted.
    const auto d = i % 2 == 0 ? sim::Time::microseconds(i)
                              : sim::Time::milliseconds(200 + i);
    hs.push_back(sim.schedule_in(d, [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  for (int i = 0; i < 30; ++i) EXPECT_TRUE(hs[i * 3].cancel());
  EXPECT_EQ(sim.pending_events(), 70u);
  std::size_t fired = 0;
  while (sim.step()) {
    ++fired;
    EXPECT_EQ(sim.pending_events(), 70u - fired);
  }
  EXPECT_EQ(fired, 70u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 70u);
}

// Cancelling a wheel-resident event is an O(1) unlink: it leaves no stale
// heap entry behind (the lazy-cancellation path is heap-only).
TEST(TimerChurn, FarFutureCancelUnlinksFromWheelWithNoStaleResidue) {
  sim::Simulator sim;
  auto h = sim.schedule_in(sim::Time::seconds(2), [] {});
  ASSERT_TRUE(sim.timer_wheel_enabled());
  EXPECT_EQ(sim.wheel_events(), 1u);
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_TRUE(h.cancel());
  EXPECT_EQ(sim.wheel_events(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_EQ(sim.stale_heap_entries(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A cancel storm over heap-resident events must not leave the heap full of
// corpses: compaction keeps the physical heap bounded by the stale
// majority threshold, and settling drains the rest without executing
// anything.
TEST(TimerChurn, CancelStormKeepsHeapCompacted) {
  sim::Simulator sim;
  std::vector<sim::EventHandle> hs;
  constexpr int kN = 8192;
  hs.reserve(kN);
  // Distinct sub-wheel-granule instants: all heap, one entry each.
  for (int i = 0; i < kN; ++i)
    hs.push_back(sim.schedule_in(sim::Time::nanoseconds(i * 8), [] {}));
  EXPECT_EQ(sim.heap_entries(), static_cast<std::size_t>(kN));
  for (auto& h : hs) EXPECT_TRUE(h.cancel());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_LT(sim.heap_entries(), static_cast<std::size_t>(kN) / 4)
      << "compaction never reclaimed the cancelled majority";
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_EQ(sim.stale_heap_entries(), 0u);
}

// A burst staged at one far-future instant flushes from the wheel to the
// heap together, and step() still fires exactly one event at a time, in
// insertion order.
TEST(TimerChurn, SameInstantBurstFiresOneEventPerStep) {
  sim::Simulator sim;
  const auto at = sim::Time::seconds(1);
  std::string order;
  for (char c : {'a', 'b', 'c', 'd', 'e'})
    sim.schedule_at(at, [&order, c] { order += c; });
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run_until(at - sim::Time::nanoseconds(1));
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(order.size(), static_cast<std::size_t>(i));
    EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(5 - i));
    EXPECT_EQ(sim.now(), at);
  }
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(order, "abcde");
}

// reschedule_at is semantically cancel + schedule: the event moves behind
// everything already queued for the destination instant, the old handle
// dies, and the new one fires exactly once.
TEST(TimerChurn, RescheduleMatchesCancelPlusScheduleSemantics) {
  sim::Simulator sim;
  std::string order;
  const auto at = sim::Time::microseconds(10);
  auto x = sim.schedule_at(at, [&] { order += 'x'; });
  sim.schedule_at(at, [&] { order += 'y'; });
  auto x2 = sim.reschedule_at(x, at);  // same instant: moves x behind y
  EXPECT_FALSE(x.pending());
  EXPECT_FALSE(x.cancel());
  EXPECT_TRUE(x2.pending());
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(order, "yx");
  EXPECT_FALSE(x2.pending());
}

// Rescheduling moves events across the tiers in both directions: a
// wheel-staged timer pulled to a near instant, and a near event pushed
// far. Both fire exactly once, at the final time.
TEST(TimerChurn, RescheduleCrossesWheelHeapBoundaryBothWays) {
  sim::Simulator sim;
  std::vector<sim::Time> fired;
  auto far = sim.schedule_in(sim::Time::seconds(5),
                             [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.wheel_events(), 1u);
  far = sim.reschedule_in(far, sim::Time::microseconds(3));  // wheel -> heap
  EXPECT_EQ(sim.wheel_events(), 0u);
  auto near = sim.schedule_in(sim::Time::microseconds(7),
                              [&] { fired.push_back(sim.now()); });
  near = sim.reschedule_in(near, sim::Time::seconds(1));  // heap -> wheel
  EXPECT_EQ(sim.wheel_events(), 1u);
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], sim::Time::microseconds(3));
  EXPECT_EQ(fired[1], sim::Time::seconds(1));
  EXPECT_EQ(sim.events_executed(), 2u);
}

// Every heap-resident event has exactly one live heap entry of its own,
// and the stale count that drives compaction is exact: after any mix of
// schedule, cancel, reschedule, reserved schedule and step, the live
// entries (physical minus stale) equal the events not staged in the wheel.
// Delays mix same-instant, near-horizon and wheel-range targets.
void check_heap_entries(std::uint64_t seed) {
  constexpr int kOps = 20'000;
  constexpr std::size_t kMaxHandles = 256;
  sim::Rng rnd{seed, "heap-entries"};
  sim::Simulator sim;
  std::vector<sim::EventHandle> hs;
  std::uint64_t fired = 0;
  sim::Time reserved_at = sim::Time::zero();
  std::uint64_t reserved_seq = 0;
  auto delay = [&]() -> sim::Time {
    switch (rnd.uniform_int(0, 3)) {
      case 0:
        return sim::Time::zero();  // same instant as now()
      case 1:  // near horizon, on a coarse grid for ties
        return sim::Time::microseconds(
            static_cast<std::int64_t>(rnd.uniform_int(0, 4)) * 10);
      case 2:  // wheel levels 1-2
        return sim::Time::milliseconds(
            static_cast<std::int64_t>(rnd.uniform_int(1, 40)) * 5);
      default:  // wheel level 3
        return sim::Time::seconds(
            static_cast<std::int64_t>(rnd.uniform_int(1, 3)));
    }
  };
  auto pick = [&]() -> sim::EventHandle& {
    return hs[rnd.uniform_int(0, hs.size() - 1)];
  };
  auto keep = [&](sim::EventHandle h) {
    if (hs.size() < kMaxHandles)
      hs.push_back(h);
    else
      pick() = h;
  };
  for (int op = 0; op < kOps; ++op) {
    switch (rnd.uniform_int(0, 5)) {
      case 0:
      case 1:
        keep(sim.schedule_in(delay(), [&fired] { ++fired; }));
        break;
      case 2:
        if (!hs.empty()) pick().cancel();
        break;
      case 3: {
        if (hs.empty()) break;
        sim::EventHandle& h = pick();
        if (h.pending()) h = sim.reschedule_in(h, delay());
        break;
      }
      case 4:
        // Fill the key reserved by the previous case-4 op, so events
        // scheduled in between sort after it, then reserve the next.
        if (reserved_seq != 0 && !sim.passed(reserved_at, reserved_seq))
          keep(sim.schedule_reserved(reserved_at, reserved_seq,
                                     [&fired] { ++fired; }));
        reserved_at = sim.now() + delay();
        reserved_seq = sim.reserve_seq();
        break;
      default:
        sim.step();
        break;
    }
    ASSERT_EQ(sim.heap_entries() - sim.stale_heap_entries(),
              sim.pending_events() - sim.wheel_events())
        << "after op " << op;
  }
  sim.run();
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.wheel_events(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_EQ(sim.stale_heap_entries(), 0u);
}

TEST(TimerChurn, EveryHeapEventHasItsOwnHeapEntry) {
  for (int s = 0; s < kSeeds; ++s) {
    SCOPED_TRACE("seed " + std::to_string(s));
    check_heap_entries(static_cast<std::uint64_t>(9100 + s));
  }
}

}  // namespace
}  // namespace rrtcp
