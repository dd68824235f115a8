// Allocation-count regression tests for the pooled hot path.
//
// This binary links the counting operator new/delete of
// alloc_counter.cpp (which is why it is its own test binary — the
// override is program-wide) and asserts the core perf claim as a
// testable invariant: once the event pool, heap array, packet rings and
// delay lines are warm, forwarding a packet — scheduler event, link
// transmit/deliver, queue enqueue/dequeue — performs ZERO heap
// allocations. If a future change
// reintroduces a per-event or per-packet allocation, these tests fail
// with the alloc count rather than a silent throughput regression.
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "net/delay_line.hpp"
#include "net/drop_tail.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/red.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "topo/graph.hpp"

namespace rrtcp {
namespace {

net::Packet make_test_packet(std::uint32_t bytes) {
  net::Packet p;
  p.flow = 1;
  p.dst = 1;
  p.size_bytes = bytes;
  return p;
}

// A forwarding-shaped chain: each hop's packet waits in a DelayLine (the
// way a link's pipe holds it) and its sink pushes it on to the next hop,
// exactly like a link delivery handing off to the next link.
TEST(AllocRegression, SchedulerSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t remaining = 0;
    net::DelayLine line{*sim, [this](sim::Time, net::Packet& p) {
                          if (remaining == 0) return;
                          --remaining;
                          hop(p);
                        }};
    void hop(const net::Packet& pkt) {
      line.push(sim->now() + sim::Time::microseconds(10), pkt);
    }
  };
  Chain chain{&sim};

  // Warm-up: grow the pool chunk, the heap vector, and the free list.
  chain.remaining = 2048;
  chain.hop(make_test_packet(1000));
  sim.run();

  const std::uint64_t before = test::allocations();
  constexpr std::uint64_t kEvents = 100'000;
  chain.remaining = kEvents;
  chain.hop(make_test_packet(1000));
  sim.run();
  const std::uint64_t delta = test::allocations() - before;

  EXPECT_EQ(delta, 0u) << "allocations per event: "
                       << static_cast<double>(delta) / kEvents;
  EXPECT_EQ(sim.callback_heap_fallbacks(), 0u);
}

// End-to-end forwarding: Node -> Link (DropTail queue, tx + prop delay)
// -> Node -> sink Agent. After one warm pass, every forwarded packet must
// cost zero allocations.
TEST(AllocRegression, LinkForwardingSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  struct Sink final : net::Agent {
    std::uint64_t received = 0;
    void receive(net::Packet) override { ++received; }
  };
  net::LinkConfig lcfg;
  lcfg.bandwidth_bps = 100'000'000;
  lcfg.prop_delay = sim::Time::microseconds(100);
  net::Link link{sim, lcfg, std::make_unique<net::DropTailQueue>(64)};
  net::Node dst{1};
  Sink sink;
  dst.attach_agent(1, &sink);
  link.set_dst(&dst);

  auto pump = [&](std::uint64_t packets) {
    for (std::uint64_t i = 0; i < packets; ++i) {
      link.send(make_test_packet(1000));
      if (i % 32 == 31) sim.run();  // drain in bursts to exercise queueing
    }
    sim.run();
  };

  pump(256);  // warm: pool chunk, heap vector, packet ring

  const std::uint64_t before = test::allocations();
  constexpr std::uint64_t kPackets = 10'000;
  pump(kPackets);
  const std::uint64_t delta = test::allocations() - before;

  EXPECT_EQ(delta, 0u) << "allocations per packet: "
                       << static_cast<double>(delta) / kPackets;
  EXPECT_EQ(sink.received, 256u + kPackets);
  EXPECT_EQ(sim.callback_heap_fallbacks(), 0u);
}

// Multi-hop forwarding through a TopologyGraph: BFS route tables resolve
// to the same per-node table lookups the dumbbell used, so a packet
// crossing a graph-routed chain (host -> router -> router -> host) must
// cost zero allocations once warm — the DESIGN.md §11 guarantee holds for
// arbitrary graphs, not just the hand-built dumbbell.
TEST(AllocRegression, GraphRoutingSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  topo::GraphSpec g;
  const int a = g.add_node("A");
  const int r1 = g.add_node("R1");
  const int r2 = g.add_node("R2");
  const int b = g.add_node("B");
  g.add_duplex(a, r1, 100'000'000, sim::Time::microseconds(50), 64);
  g.add_duplex(r1, r2, 100'000'000, sim::Time::microseconds(50), 64);
  g.add_duplex(r2, b, 100'000'000, sim::Time::microseconds(50), 64);
  topo::TopologyGraph topo{sim, g};

  struct Sink final : net::Agent {
    std::uint64_t received = 0;
    void receive(net::Packet) override { ++received; }
  };
  Sink sink;
  topo.node(b).attach_agent(1, &sink);

  auto pump = [&](std::uint64_t packets) {
    for (std::uint64_t i = 0; i < packets; ++i) {
      net::Packet p = make_test_packet(1000);
      p.dst = static_cast<net::NodeId>(b);
      topo.node(a).inject(std::move(p));
      if (i % 32 == 31) sim.run();
    }
    sim.run();
  };

  pump(256);  // warm: pool chunk, heap vector, the three hop rings

  const std::uint64_t before = test::allocations();
  constexpr std::uint64_t kPackets = 10'000;
  pump(kPackets);
  const std::uint64_t delta = test::allocations() - before;

  EXPECT_EQ(delta, 0u) << "allocations per packet: "
                       << static_cast<double>(delta) / kPackets;
  EXPECT_EQ(sink.received, 256u + kPackets);
  EXPECT_EQ(sim.callback_heap_fallbacks(), 0u);
}

// RTO-style timer churn: arm, re-arm (the reschedule fast path, which
// keeps the pooled slot and its stored capture), and cancel across
// far-future delays that live in the timer wheel. Once the pool is warm,
// none of it may allocate — this is the per-transmission cost of every
// TCP sender in the simulation.
TEST(AllocRegression, TimerChurnSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  constexpr int kFlows = 64;
  sim::EventHandle handles[kFlows];
  std::uint64_t fired = 0;

  auto churn = [&](std::uint64_t rounds) {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (int f = 0; f < kFlows; ++f) {
        const auto rto = sim::Time::seconds(1) +
                         sim::Time::microseconds((f * 31 + r * 7) % 997);
        if (handles[f].pending()) {
          handles[f] = sim.reschedule_in(handles[f], rto);
        } else {
          auto cb = [&fired] { ++fired; };
          static_assert(sim::Simulator::fits_inline<decltype(cb)>());
          handles[f] = sim.schedule_in(rto, cb);
        }
        if ((f + r) % 5 == 0) handles[f].cancel();
      }
      sim.run_until(sim.now() + sim::Time::milliseconds(1));
    }
    sim.run();
  };

  churn(64);  // warm: pool chunk, heap vector

  const std::uint64_t before = test::allocations();
  constexpr std::uint64_t kRounds = 2'000;
  churn(kRounds);
  const std::uint64_t delta = test::allocations() - before;

  EXPECT_EQ(delta, 0u) << "allocations per re-arm round: "
                       << static_cast<double>(delta) / kRounds;
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(sim.callback_heap_fallbacks(), 0u);
}

// The packet rings behind both queue disciplines never allocate once
// their buffers have grown to the working set.
TEST(AllocRegression, QueueRingsSteadyStateAreAllocationFree) {
  sim::Simulator sim;
  net::DropTailQueue dt{64};
  net::RedConfig rc;
  rc.buffer_packets = 64;
  rc.max_th = 48;
  net::RedQueue red{sim, rc};

  auto cycle = [](net::QueueDisc& q, std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      for (int b = 0; b < 32; ++b) q.enqueue(make_test_packet(1000));
      while (q.dequeue().has_value()) {
      }
    }
  };

  cycle(dt, 4);  // warm both rings past the working set
  cycle(red, 4);

  const std::uint64_t before = test::allocations();
  cycle(dt, 512);
  cycle(red, 512);
  const std::uint64_t delta = test::allocations() - before;
  EXPECT_EQ(delta, 0u);
}

// Queue rings grow with the traffic rather than being sized for the
// configured worst case: building a queue, however large its nominal
// buffer, touches no allocator until the first packet arrives.
TEST(AllocRegression, QueueConstructionIsAllocationFree) {
  sim::Simulator sim;
  net::RedConfig rc;
  rc.buffer_packets = 1'000;
  rc.max_th = 500;

  const std::uint64_t before = test::allocations();
  {
    net::DropTailQueue packets{1'000'000};
    net::DropTailQueue bytes{1'000'000, net::DropTailQueue::Mode::kBytes};
    net::RedQueue red{sim, rc};
  }
  const std::uint64_t delta = test::allocations() - before;
  EXPECT_EQ(delta, 0u);
}

// The event pool grows in 128-node chunks: a short run pays for one small
// chunk, not a large one it never fills.
TEST(AllocRegression, FirstEventTakesOneSmallPoolChunk) {
  sim::Simulator sim;
  EXPECT_EQ(sim.event_pool_slots(), 0u);
  sim.schedule_in(sim::Time::microseconds(1), [] {});
  EXPECT_EQ(sim.event_pool_slots(), 128u);
  sim.run();
  EXPECT_EQ(sim.event_pool_slots(), 128u);
}

}  // namespace
}  // namespace rrtcp
