// PacketRing growth under pressure: unit-level wraparound + doubling with
// contents preserved, and a scenario where sustained reverse-path
// saturation forces the deep reverse-bottleneck ring to grow past its
// minimum capacity mid-simulation without losing a packet.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "net/drop_tail.hpp"
#include "net/packet_ring.hpp"
#include "testutil.hpp"

namespace rrtcp {
namespace {

TEST(PacketRing, GrowPreservesFifoAcrossWraparound) {
  net::PacketRing ring;
  EXPECT_EQ(ring.capacity(), 0u);  // lazily allocated

  // Rotate head away from slot 0 so growth happens on a WRAPPED ring.
  for (std::uint64_t s = 0; s < 10; ++s)
    ring.push_back(test::make_data(1, s, 1000));
  EXPECT_EQ(ring.capacity(), 16u);
  for (std::uint64_t s = 0; s < 10; ++s)
    EXPECT_EQ(ring.pop_front().tcp.seq, s);

  // Fill to capacity (physically wrapping), then push one more: the ring
  // must double and re-linearize without reordering.
  for (std::uint64_t s = 100; s < 116; ++s)
    ring.push_back(test::make_data(1, s, 1000));
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.capacity(), 16u);
  ring.push_back(test::make_data(1, 116, 1000));
  EXPECT_EQ(ring.capacity(), 32u);

  EXPECT_EQ(ring.front().tcp.seq, 100u);
  EXPECT_EQ(ring.back().tcp.seq, 116u);
  for (std::uint64_t s = 100; s <= 116; ++s)
    EXPECT_EQ(ring.pop_front().tcp.seq, s);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 32u);  // grow-only: never shrinks
}

TEST(DropTail, RingStartsEmptyWhateverTheBufferCapacity) {
  // The ring is sized by the traffic, not by the configured buffer: a new
  // queue holds no slots however large its nominal capacity, in either
  // mode.
  EXPECT_EQ(net::DropTailQueue{1'000}.ring_capacity(), 0u);
  EXPECT_EQ(net::DropTailQueue{1'000'000}.ring_capacity(), 0u);
  EXPECT_EQ((net::DropTailQueue{1'000'000, net::DropTailQueue::Mode::kBytes}
                 .ring_capacity()),
            0u);
}

TEST(DropTail, RingDoublesAtEachNewHighWaterMark) {
  // The first packet takes 16 slots; after that the ring doubles exactly
  // when the queue outgrows it (packet 17, 33, 65, ...) and at no other
  // enqueue. Draining keeps FIFO order and never shrinks the ring.
  net::DropTailQueue q{1'000'000};
  std::size_t expected = 0;
  for (std::uint64_t n = 1; n <= 1025; ++n) {
    ASSERT_TRUE(q.enqueue(test::make_data(1, n, 1000)));
    if (n == 1) expected = 16;
    if (n > expected) expected *= 2;
    ASSERT_EQ(q.ring_capacity(), expected) << "after " << n << " packets";
  }
  EXPECT_EQ(q.ring_capacity(), 2048u);
  for (std::uint64_t n = 1; n <= 1025; ++n) {
    auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->tcp.seq, n);
  }
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_EQ(q.ring_capacity(), 2048u);
}

// Reverse-path saturation: a reverse bulk flow with a large window parks
// window-minus-BDP packets (~60 here) in the deep reverse drop-tail
// buffer while the forward flow's ACKs thread through the same queue. The
// ring starts empty, so this standing queue forces it to grow past its
// 16-slot minimum mid-simulation, with packets in flight through it: the
// growth must lose nothing, counters reconcile exactly and both flows
// keep moving.
TEST(PacketRingGrowth, ReverseSaturationGrowsTheRingMidRunWithoutLoss) {
  harness::ScenarioSpec spec;
  spec.name = "ring-growth";
  spec.seed = 5;
  spec.horizon = sim::Time::seconds(10);
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.add_flow({.variant = app::Variant::kNewReno});
  // Default TcpConfig: max_window_pkts = 128 >> the ~20-packet reverse
  // BDP, so the standing reverse queue far exceeds kMinCapacity = 16.
  spec.add_flow({.variant = app::Variant::kNewReno, .reverse = true});
  harness::Scenario sc{spec};

  auto* dt = dynamic_cast<net::DropTailQueue*>(
      &sc.topology().reverse_bottleneck().queue());
  ASSERT_NE(dt, nullptr);
  EXPECT_EQ(dt->ring_capacity(), 0u);

  // Step through the run: the ring only ever grows, always covers the
  // queue, and first passes 16 slots well inside the horizon.
  std::size_t cap = 0;
  std::size_t peak = 0;
  sim::Time grew_past_16 = sim::Time::zero();
  for (sim::Time t = sim::Time::milliseconds(1); t <= spec.horizon;
       t = t + sim::Time::milliseconds(1)) {
    sc.run_until(t);
    const std::size_t now = dt->ring_capacity();
    ASSERT_GE(now, cap) << "ring shrank at " << t.to_seconds() << " s";
    ASSERT_GE(now, dt->len_packets());
    if (cap <= 16 && now > 16) grew_past_16 = t;
    cap = now;
    peak = std::max(peak, dt->len_packets());
  }
  EXPECT_GT(grew_past_16, sim::Time::zero());
  EXPECT_LT(grew_past_16, spec.horizon);
  EXPECT_GT(cap, 16u);
  // Sized to the traffic: a power of two covering the deepest backlog
  // seen, at most one doubling above it.
  EXPECT_TRUE(std::has_single_bit(cap));
  EXPECT_GE(cap, std::bit_ceil(peak));
  EXPECT_LE(cap, 2 * std::bit_ceil(peak));

  EXPECT_GT(dt->len_packets(), 16u) << "reverse queue never built a deep "
                                       "standing backlog; saturation missing";
  // Deep buffer: nothing dropped, every enqueue accounted for.
  const auto& st = dt->stats();
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.enqueued, st.dequeued + dt->len_packets());
  // Both directions survived the squeeze, and the audit saw no violation.
  EXPECT_GT(sc.sender(0).snd_una(), 0u);
  EXPECT_GT(sc.sender(1).snd_una(), 0u);
  EXPECT_EQ(sc.instrumentation().audit_violations(), 0u);
}

}  // namespace
}  // namespace rrtcp
