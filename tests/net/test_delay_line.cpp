// DelayLine: packets in flight keyed like the per-packet events they
// replace. The differential test pins the line to that reference shape
// (one schedule_at per packet) on a randomized multi-line workload; the
// rest cover overtaking, same-instant ties with releases and timers, a
// cut link's hand-off at transmit and its merge around window boundaries,
// and allocation-free steady state (this binary counts operator new, see
// alloc_counter.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../alloc_counter.hpp"
#include "../testutil.hpp"
#include "net/delay_line.hpp"
#include "net/drop_tail.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/reorder.hpp"
#include "pdes/sharded.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace rrtcp::net {
namespace {

using test::make_data;

// The shape every delivery had before DelayLine: one event per packet,
// capturing it (such a capture no longer fits an event inline, so each
// push heap-allocates — fine for a reference).
class EventPipe {
 public:
  EventPipe(sim::Simulator& sim, std::function<void(sim::Time, Packet&)> sink)
      : sim_{sim}, sink_{std::move(sink)} {}
  void push(sim::Time at, Packet p) {
    sim_.schedule_at(at, [this, at, p]() mutable { sink_(at, p); });
  }

 private:
  sim::Simulator& sim_;
  std::function<void(sim::Time, Packet&)> sink_;
};

// A randomized multi-line workload: sources push into random lines, each
// line forwards some of its packets into the next, and plain timers land
// on the same microsecond grid, so deliveries tie with each other and
// with timers. Reorder jitter (when on) lets later packets overtake.
// Returns the trace of everything that fired, then the event count.
template <typename Pipe>
std::vector<std::string> run_workload(std::uint64_t seed, bool jitter) {
  constexpr int kLines = 5;
  struct World {
    sim::Simulator sim;
    sim::Rng rng;
    std::vector<std::unique_ptr<Pipe>> lines;
    std::vector<ReorderModel> reorder;
    std::vector<std::string> trace;

    sim::Time delay(int line) {
      return sim::Time::microseconds(10 * (line + 1)) +
             reorder[static_cast<std::size_t>(line)].delay_for_next_packet();
    }
    void push(int line, Packet p) {
      lines[static_cast<std::size_t>(line)]->push(sim.now() + delay(line),
                                                  std::move(p));
    }
    void arrive(int line, sim::Time at, Packet& p) {
      EXPECT_EQ(at, sim.now());
      trace.push_back(std::to_string(sim.now().ps()) + " line" +
                      std::to_string(line) + " uid" + std::to_string(p.uid));
      if (rng.bernoulli(0.5)) push((line + 1) % kLines, p);
      if (rng.bernoulli(0.2)) {
        const auto tag = trace.size();
        sim.schedule_in(sim::Time::microseconds(10), [this, tag] {
          trace.push_back(std::to_string(sim.now().ps()) + " timer" +
                          std::to_string(tag));
        });
      }
    }
  };
  World w{{}, sim::Rng{seed, "delay-line-diff"}, {}, {}, {}};
  for (int i = 0; i < kLines; ++i) {
    World* wp = &w;
    w.lines.push_back(std::make_unique<Pipe>(
        w.sim, [wp, i](sim::Time at, Packet& p) { wp->arrive(i, at, p); }));
    w.reorder.emplace_back(jitter ? 0.3 : 0.0, sim::Time::microseconds(25),
                           seed * 31 + static_cast<std::uint64_t>(i));
  }
  for (std::uint64_t k = 0; k < 400; ++k) {
    const auto at = sim::Time::microseconds(
        10 * static_cast<std::int64_t>(w.rng.uniform_int(0, 200)));
    const int line = static_cast<int>(w.rng.uniform_int(0, kLines - 1));
    World* wp = &w;
    w.sim.schedule_at(at,
                      [wp, line, k] { wp->push(line, make_data(1, k, 1)); });
  }
  w.sim.run();
  std::uint64_t reordered = 0;
  for (const ReorderModel& r : w.reorder) reordered += r.reordered();
  if (jitter) {
    EXPECT_GT(reordered, 0u);
  }
  w.trace.push_back("events " + std::to_string(w.sim.events_executed()));
  return w.trace;
}

TEST(DelayLine, MatchesPerPacketEventsOnRandomMultiLineWorkloads) {
  for (const bool jitter : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto lines = run_workload<DelayLine>(seed, jitter);
      const auto events = run_workload<EventPipe>(seed, jitter);
      ASSERT_GT(lines.size(), 400u);
      EXPECT_EQ(lines, events) << "seed " << seed << " jitter " << jitter;
    }
  }
}

// A push that lands ahead of the front is armed at once; the old front
// keeps its event and still fires at its own key, after the overtaker.
TEST(DelayLine, OvertakingPacketFiresFirstAndTheOvertakenKeepsItsKey) {
  sim::Simulator sim;
  std::vector<std::uint64_t> got;
  DelayLine line{sim, [&got](sim::Time, Packet& p) { got.push_back(p.uid); }};

  line.push(sim::Time::milliseconds(10), make_data(1, 1, 1));
  EXPECT_EQ(sim.pending_events(), 1u);
  line.push(sim::Time::milliseconds(5), make_data(1, 2, 1));  // new front
  EXPECT_EQ(sim.pending_events(), 2u);
  line.push(sim::Time::milliseconds(7), make_data(1, 3, 1));  // mid-line
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(line.size(), 3u);

  sim.run_until(sim::Time::milliseconds(5));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], make_data(1, 2, 1).uid);
  // The mid-line packet is now the front and armed; the overtaken one is
  // already armed and is not scheduled twice.
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1], make_data(1, 3, 1).uid);
  EXPECT_EQ(got[2], make_data(1, 1, 1).uid);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.now(), sim::Time::milliseconds(10));
}

// Equal instants fire in key order: a packet pushed later at the same
// instant waits behind the earlier one, whatever the line order.
TEST(DelayLine, SameInstantPushesKeepPushOrder) {
  sim::Simulator sim;
  std::vector<std::uint64_t> got;
  DelayLine line{sim,
                 [&got](sim::Time, Packet& p) { got.push_back(p.tcp.seq); }};
  line.push(sim::Time::milliseconds(4), make_data(1, 0, 1));
  line.push(sim::Time::milliseconds(2), make_data(1, 1, 1));
  line.push(sim::Time::milliseconds(4), make_data(1, 2, 1));
  line.push(sim::Time::milliseconds(2), make_data(1, 3, 1));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 3, 0, 2}));
}

// With a zero propagation delay a delivery, the transmitter's release and
// timers all fall on one instant. They fire in the order their keys were
// taken: a timer scheduled before the send, the delivery (keyed at
// transmit), the release (keyed right after it), a timer scheduled after.
TEST(DelayLine, LinkDeliveryReleaseAndTimersTieInKeyOrder) {
  sim::Simulator sim;
  std::vector<std::string> log;
  // 1000 B at 0.8 Mbps = 10 ms serialization, no propagation.
  Link link{sim, {800'000, sim::Time::zero(), "l"},
            std::make_unique<DropTailQueue>(100)};
  // Each entry notes the queue length: 1 until the release dequeues.
  auto note = [&log, &link](const std::string& what) {
    log.push_back(what + " q" + std::to_string(link.queue().len_packets()));
  };
  struct Logger final : Agent {
    std::function<void(const std::string&)> note;
    void receive(Packet p) override {
      note("deliver" + std::to_string(p.tcp.seq));
    }
  };
  Node dst{2};
  Logger agent;
  agent.note = note;
  dst.attach_agent(1, &agent);
  link.set_dst(&dst);

  const sim::Time tx = sim::Time::milliseconds(10);
  sim.schedule_at(tx, [&note] { note("timer-before"); });
  link.send(make_data(1, 0, 1000));
  link.send(make_data(1, 1, 1000));  // waits: its release is scheduled
  sim.schedule_at(tx, [&note] { note("timer-after"); });
  // Runs after the release has sent the second packet, so this timer ties
  // with the second delivery but is keyed after it.
  sim.schedule_at(tx, [&sim, &note, tx] {
    sim.schedule_at(2 * tx, [&note] { note("timer-late"); });
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"timer-before q1", "deliver0 q1",
                                           "timer-after q0", "deliver1 q0",
                                           "timer-late q0"}));
  // Two deliveries, one release, four timers.
  EXPECT_EQ(sim.events_executed(), 7u);
}

// Records cut-link hand-offs: when each came, and its two stamps.
class RecordingSink final : public RemoteSink {
 public:
  struct HandOff {
    sim::Time handed;
    sim::Time arrival;
    sim::Time t_done;
    std::uint64_t seq;
  };
  explicit RecordingSink(const sim::Simulator& sim) : sim_{sim} {}
  void push(sim::Time arrival, sim::Time t_done, Packet p) override {
    got.push_back({sim_.now(), arrival, t_done, p.tcp.seq});
  }
  std::vector<HandOff> got;

 private:
  const sim::Simulator& sim_;
};

// A cut link hands each packet off the instant it starts to transmit,
// stamped with its arrival (t_done + prop) and its serialization end
// t_done. No event carries it: the only events are the releases.
TEST(DelayLine, CutLinkHandsOffAtTransmit) {
  sim::Simulator sim;
  RecordingSink remote{sim};
  const sim::Time prop = sim::Time::milliseconds(30);
  Link link{sim, {800'000, prop, "cut"}, std::make_unique<DropTailQueue>(100)};
  link.set_remote_sink(&remote);
  for (int i = 0; i < 4; ++i) link.send(make_data(1, i, 1000));

  const sim::Time tx = sim::Time::milliseconds(10);
  ASSERT_EQ(remote.got.size(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);  // the release
  sim.run();
  ASSERT_EQ(remote.got.size(), 4u);
  for (std::size_t i = 0; i < remote.got.size(); ++i) {
    const auto k = static_cast<std::int64_t>(i);
    EXPECT_EQ(remote.got[i].seq, i);
    EXPECT_EQ(remote.got[i].handed, tx * k);
    EXPECT_EQ(remote.got[i].t_done, tx * (k + 1));
    EXPECT_EQ(remote.got[i].arrival, tx * (k + 1) + prop);
  }
  EXPECT_EQ(sim.events_executed(), 3u);
  // Delivery is counted when the merge passes a packet on.
  EXPECT_EQ(link.packets_delivered(), 0u);
}

// The merge passes on a packet once its serialization end is inside the
// windows run so far: a t_done equal to a run_before boundary waits for
// the next merge, and a t_done equal to the horizon goes in the inclusive
// terminal window. hand_over counts the passed-on packets due by the
// boundary, and passed-on packets reach the head node at their arrival.
TEST(DelayLine, CutLinkMergeSelectsBySerializationEnd) {
  sim::Simulator src;
  sim::Simulator dst_engine;
  const sim::Time tx = sim::Time::milliseconds(10);
  const sim::Time prop = 2 * tx;
  Link link{src, {800'000, prop, "cut"}, std::make_unique<DropTailQueue>(100)};
  Node dst{2};
  struct Arrivals final : Agent {
    const sim::Simulator* clock = nullptr;
    std::vector<std::pair<std::uint64_t, sim::Time>> got;
    void receive(Packet p) override {
      got.emplace_back(p.tcp.seq, clock->now());
    }
  };
  Arrivals agent;
  agent.clock = &dst_engine;
  dst.attach_agent(1, &agent);
  pdes::Channel channel{link, dst, dst_engine};
  link.set_remote_sink(&channel);
  for (int i = 0; i < 4; ++i) link.send(make_data(1, i, 1000));

  // Window [0, 2tx): packets 0 and 1 have started, t_done 1tx and 2tx.
  src.run_before(2 * tx);
  // Packet 0 passes on and arrives at 3tx, after the boundary.
  EXPECT_EQ(channel.hand_over(2 * tx, /*inclusive=*/false), 0u);
  EXPECT_EQ(channel.handed_over(), 1u);
  EXPECT_EQ(link.packets_delivered(), 1u);
  EXPECT_EQ(dst_engine.pending_events(), 1u);  // the receive line's front

  // Terminal window up to the horizon 4tx: packet 3 ends exactly on it,
  // and packet 1 (of 1-3) arrives exactly on it.
  const sim::Time horizon = 4 * tx;
  src.run_until(horizon);
  EXPECT_EQ(channel.hand_over(horizon, /*inclusive=*/true), 1u);
  EXPECT_EQ(channel.handed_over(), 4u);
  EXPECT_EQ(link.packets_delivered(), 4u);
  EXPECT_EQ(link.bytes_delivered(), 4000u);

  dst_engine.run();
  ASSERT_EQ(agent.got.size(), 4u);
  for (std::size_t i = 0; i < agent.got.size(); ++i) {
    EXPECT_EQ(agent.got[i].first, i);
    EXPECT_EQ(agent.got[i].second,
              tx * static_cast<std::int64_t>(i + 1) + prop);
  }
  EXPECT_EQ(dst_engine.events_executed(), 4u);
}

TEST(DelayLineDeathTest, CutLinkRejectsReorderJitter) {
  sim::Simulator sim;
  RecordingSink remote{sim};
  Link link{sim, {800'000, sim::Time::milliseconds(1), "cut"},
            std::make_unique<DropTailQueue>(100)};
  link.set_remote_sink(&remote);
  link.set_reorder_model(
      std::make_unique<ReorderModel>(0.5, sim::Time::milliseconds(1), 7));
  EXPECT_DEATH(link.send(make_data(1, 0, 1000)), "reorder jitter");
}

// Rings start empty, grow only at a new high-water mark and then recycle:
// construction allocates nothing, and a warm line with overtaking pushes
// allocates nothing per packet.
TEST(DelayLine, SteadyStateIsAllocationFree) {
  struct Loop {
    sim::Simulator sim;
    sim::Rng rng{42, "delay-line-alloc"};
    std::uint64_t delivered = 0;
    std::uint64_t remaining = 0;
    DelayLine* line = nullptr;

    void arrive(Packet& p) {
      ++delivered;
      if (remaining == 0) return;
      --remaining;
      // Up to 50 us of jitter over a 100 us pipe: packets overtake.
      const auto jitter = static_cast<std::int64_t>(rng.uniform_int(0, 50));
      line->push(sim.now() + sim::Time::microseconds(100 + jitter), p);
    }
    void pump(std::uint64_t hops) {
      remaining = hops;
      for (std::uint64_t i = 0; i < 32; ++i)
        line->push(sim.now() + sim::Time::microseconds(
                                   static_cast<std::int64_t>(i)),
                   make_data(1, i, 1000));
      sim.run();
    }
  };
  Loop loop;
  Loop* lp = &loop;

  std::uint64_t before = test::allocations();
  DelayLine line{loop.sim, [lp](sim::Time, Packet& p) { lp->arrive(p); }};
  EXPECT_EQ(test::allocations() - before, 0u);
  EXPECT_EQ(line.capacity(), 0u);
  loop.line = &line;

  loop.pump(4096);  // warm: the rings, the event pool, the heap
  const std::size_t warm_capacity = line.capacity();
  EXPECT_GE(warm_capacity, 32u);

  before = test::allocations();
  constexpr std::uint64_t kHops = 100'000;
  loop.pump(kHops);
  EXPECT_EQ(test::allocations() - before, 0u);
  EXPECT_EQ(line.capacity(), warm_capacity);
  EXPECT_EQ(loop.delivered, 2 * 32 + 4096 + kHops);
  EXPECT_EQ(loop.sim.callback_heap_fallbacks(), 0u);
}

}  // namespace
}  // namespace rrtcp::net
