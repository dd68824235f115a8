// Reserved event keys: reserve_seq() / schedule_reserved() / passed().
//
// A reserved event must fire exactly where an event scheduled at
// reservation time would have: after everything keyed before it, before
// everything keyed after it, whatever the scheduler did with those other
// events in between (wheel staging, cancellation, re-sequencing). The
// directed tests pin a reserved key landing between same-instant events;
// the randomized test checks every firing against a brute-force ordered
// set of pending (time, seq) keys.
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rrtcp::sim {
namespace {

// A, then a reserved key, then B, all at one instant, with R scheduled
// under the reserved key after both: R sorts between A and B.
TEST(ReservedKeys, ReservedEventFiresBetweenSameInstantEvents) {
  Simulator sim;
  std::string order;
  const Time x = Time::microseconds(10);
  sim.schedule_at(x, [&] { order += 'A'; });
  const std::uint64_t r = sim.reserve_seq();
  sim.schedule_at(x, [&] { order += 'B'; });
  sim.schedule_reserved(x, r, [&] { order += 'R'; });
  sim.run();
  EXPECT_EQ(order, "ARB");
}

// The same when the first same-instant event is cancelled before R is
// inserted: R still fires ahead of the events keyed after it.
TEST(ReservedKeys, ReservedEventAfterCancelledSameInstantHead) {
  Simulator sim;
  std::string order;
  const Time x = Time::microseconds(10);
  EventHandle a = sim.schedule_at(x, [&] { order += 'A'; });
  const std::uint64_t r = sim.reserve_seq();
  sim.schedule_at(x, [&] { order += 'B'; });
  sim.schedule_at(x, [&] { order += 'C'; });
  ASSERT_TRUE(a.cancel());
  sim.schedule_reserved(x, r, [&] { order += 'R'; });
  sim.run();
  EXPECT_EQ(order, "RBC");
}

// A and B staged in the timer wheel (X several ms ahead); R is inserted
// later, from inside an earlier event. After the wheel flushes A and B to
// the heap, R must still fire between them.
TEST(ReservedKeys, ReservedEventBetweenWheelFlushedSameInstantEvents) {
  Simulator sim;
  std::string order;
  const Time x = Time::milliseconds(8);
  sim.schedule_at(x, [&] { order += 'A'; });
  const std::uint64_t r = sim.reserve_seq();
  sim.schedule_at(x, [&] { order += 'B'; });
  ASSERT_EQ(sim.wheel_events(), 2u);
  sim.schedule_at(Time::milliseconds(1), [&] {
    order += 'e';
    EXPECT_FALSE(sim.passed(x, r));
    sim.schedule_reserved(x, r, [&] { order += 'R'; });
  });
  sim.run();
  EXPECT_EQ(order, "eARB");
}

// Inside a callback, the firing event's own key has passed and the next
// seq at the same instant has not.
TEST(ReservedKeys, PassedInsideCallbackIsInclusiveOfTheFiringEvent) {
  Simulator sim;
  const Time x = Time::microseconds(5);
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  before = sim.reserve_seq();  // keyed before the event below
  sim.schedule_at(x, [&] {
    EXPECT_TRUE(sim.passed(x, before));
    EXPECT_TRUE(sim.passed(x, after - 1));  // the firing event itself
    EXPECT_FALSE(sim.passed(x, after));
    EXPECT_TRUE(sim.passed(x - Time::picoseconds(1), after));
    EXPECT_FALSE(sim.passed(x + Time::picoseconds(1), 0));
  });
  after = sim.reserve_seq();
  sim.run();
}

// run_until(d) is inclusive: everything keyed so far at d has passed, but
// a key reserved after the run has not (it can still be scheduled at d).
TEST(ReservedKeys, PassedAfterRunUntilIsInclusive) {
  Simulator sim;
  const Time d = Time::milliseconds(2);
  sim.schedule_at(Time::milliseconds(1), [] {});
  const std::uint64_t r = sim.reserve_seq();  // never scheduled
  sim.run_until(d);
  EXPECT_EQ(sim.now(), d);
  EXPECT_TRUE(sim.passed(d, r));
  EXPECT_FALSE(sim.passed(d + Time::picoseconds(1), r));
  const std::uint64_t fresh = sim.reserve_seq();
  EXPECT_FALSE(sim.passed(d, fresh));
  bool fired = false;
  sim.schedule_reserved(d, fresh, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.passed(d, fresh));
}

// run_before(d) is exclusive: it moves the clock to d without firing
// anything at d, so no key at d has passed.
TEST(ReservedKeys, PassedAfterRunBeforeIsExclusive) {
  Simulator sim;
  const Time d = Time::milliseconds(3);
  std::string order;
  sim.schedule_at(d, [&] { order += 'E'; });
  const std::uint64_t r = sim.reserve_seq();
  sim.run_before(d);
  EXPECT_EQ(sim.now(), d);
  EXPECT_EQ(order, "");
  EXPECT_FALSE(sim.passed(d, 1));
  EXPECT_FALSE(sim.passed(d, r));
  EXPECT_TRUE(sim.passed(d - Time::picoseconds(1), r));
  sim.schedule_reserved(d, r, [&] { order += 'R'; });
  sim.run();
  EXPECT_EQ(order, "ER");
}

TEST(ReservedKeysDeath, SchedulingUnderAPassedKeyAborts) {
  Simulator sim;
  const std::uint64_t r = sim.reserve_seq();
  sim.schedule_at(Time::milliseconds(1), [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_reserved(Time::milliseconds(1), r, [] {}),
               "passed");
}

// ---------------------------------------------------------------------------
// Randomized check against a brute-force oracle.
//
// Every event knows its own (time, seq) key; the oracle is the ordered set
// of pending keys. Each firing must be the oracle's minimum, passed() must
// agree with a model cursor (the last key known to have passed), and
// cancel() must report exactly the oracle's membership. Seqs are mirrored
// by counting the calls that consume one (schedule, reschedule, reserve).

using Key = std::pair<std::int64_t, std::uint64_t>;

class OracleWorkload {
 public:
  OracleWorkload(std::uint64_t seed, bool wheel) : rnd_{seed, "reserved"} {
    sim_.set_timer_wheel_enabled(wheel);
  }

  void run() {
    for (int i = 0; i < 16; ++i) act();
    run_window(Time::microseconds(200), /*inclusive=*/true);
    run_window(Time::milliseconds(3), /*inclusive=*/false);
    run_window(Time::milliseconds(40), /*inclusive=*/true);
    sim_.run();
    // Reservations never scheduled are simply dropped.
    EXPECT_TRUE(pending_.empty());
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_GT(fired_, 100);
    EXPECT_GT(reserved_fired_, 10);
  }

 private:
  struct Ev {
    Key key;
    EventHandle h;
  };

  bool model_passed(Key k) const { return k <= cursor_; }

  void run_window(Time deadline, bool inclusive) {
    const bool moves = inclusive ? sim_.now() <= deadline
                                 : sim_.now() < deadline;
    if (inclusive)
      sim_.run_until(deadline);
    else
      sim_.run_before(deadline);
    if (moves) cursor_ = {deadline.ps(), inclusive ? last_seq_ : 0};
    check_reservations();
  }

  Time random_at() {
    // Coarse 10 us grid for ties; occasional far targets land in the
    // wheel's upper levels.
    const std::uint64_t pick = rnd_.uniform_int(0, 9);
    std::int64_t us = static_cast<std::int64_t>(rnd_.uniform_int(0, 4)) * 10;
    if (pick == 8) us += 5'000;
    if (pick == 9) us += 300'000;
    return sim_.now() + Time::microseconds(us);
  }

  void add_event(Time at) {
    if (next_id_ >= kMaxEvents) return;
    const int id = next_id_++;
    const EventHandle h = sim_.schedule_at(at, [this, id] { fire(id); });
    const Key k{at.ps(), ++last_seq_};
    events_[id] = Ev{k, h};
    pending_.insert(k);
  }

  void fire(int id, bool reserved = false) {
    const Key k = events_.at(id).key;
    ASSERT_FALSE(pending_.empty());
    ASSERT_EQ(k, *pending_.begin()) << "event " << id << " fired out of order";
    ASSERT_EQ(sim_.now().ps(), k.first);
    pending_.erase(pending_.begin());
    cursor_ = k;
    ++fired_;
    if (reserved) ++reserved_fired_;
    check_reservations();
    // One child keeps the population alive until kMaxEvents; the random
    // actions around it cancel, re-sequence, reserve and fill keys.
    add_event(random_at());
    const std::uint64_t acts = rnd_.uniform_int(0, 3);
    for (std::uint64_t a = 0; a < acts; ++a) act();
  }

  // passed() must match the model for every outstanding reservation.
  void check_reservations() {
    for (const Key& k : reservations_)
      ASSERT_EQ(sim_.passed(Time::picoseconds(k.first), k.second),
                model_passed(k))
          << "key (" << k.first << ", " << k.second << ")";
  }

  void act() {
    switch (rnd_.uniform_int(0, 7)) {
      case 0:
      case 1:
      case 2:
        add_event(random_at());
        break;
      case 3: {  // cancel
        if (events_.empty()) break;
        auto it = events_.begin();
        std::advance(it, static_cast<long>(
                             rnd_.uniform_int(0, events_.size() - 1)));
        const bool was = pending_.count(it->second.key) > 0;
        EXPECT_EQ(it->second.h.cancel(), was);
        pending_.erase(it->second.key);
        break;
      }
      case 4: {  // reschedule
        if (events_.empty()) break;
        auto it = events_.begin();
        std::advance(it, static_cast<long>(
                             rnd_.uniform_int(0, events_.size() - 1)));
        Ev& e = it->second;
        if (!e.h.pending()) break;
        const Time at = random_at();
        pending_.erase(e.key);
        e.h = sim_.reschedule_at(e.h, at);
        e.key = {at.ps(), ++last_seq_};
        pending_.insert(e.key);
        break;
      }
      case 5: {  // reserve a key for later
        if (reservations_.size() >= 8) break;
        const Time at = random_at();
        const std::uint64_t seq = sim_.reserve_seq();
        EXPECT_EQ(seq, ++last_seq_);
        reservations_.push_back({at.ps(), seq});
        break;
      }
      case 6:
      case 7: {  // schedule (or drop) an outstanding reservation
        if (reservations_.empty() || next_id_ >= kMaxEvents) break;
        const std::size_t i = static_cast<std::size_t>(
            rnd_.uniform_int(0, reservations_.size() - 1));
        const Key k = reservations_[i];
        reservations_.erase(reservations_.begin() +
                            static_cast<long>(i));
        const Time at = Time::picoseconds(k.first);
        if (sim_.passed(at, k.second)) break;  // its turn is gone
        const int id = next_id_++;
        const EventHandle h = sim_.schedule_reserved(
            at, k.second, [this, id] { fire(id, /*reserved=*/true); });
        events_[id] = Ev{k, h};
        pending_.insert(k);
        break;
      }
    }
  }

  static constexpr int kMaxEvents = 600;

  Simulator sim_;
  Rng rnd_;
  std::map<int, Ev> events_;
  std::set<Key> pending_;
  std::vector<Key> reservations_;
  Key cursor_{0, 0};
  std::uint64_t last_seq_ = 0;
  int next_id_ = 0;
  int fired_ = 0;
  int reserved_fired_ = 0;
};

TEST(ReservedKeys, RandomizedAgainstOrderedSetOracle) {
  for (const bool wheel : {true, false}) {
    for (int s = 0; s < 32; ++s) {
      SCOPED_TRACE(std::string{"wheel="} + (wheel ? "on" : "off") +
                   " seed=" + std::to_string(s));
      OracleWorkload{static_cast<std::uint64_t>(7000 + s), wheel}.run();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rrtcp::sim
