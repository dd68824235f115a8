#include "tcp/receiver.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"

namespace rrtcp::tcp {
namespace {

using test::CaptureHandler;
using test::make_data;

struct ReceiverFixture : ::testing::Test {
  ReceiverFixture() : node{2} { node.set_default_route(&wire); }

  TcpReceiver make(ReceiverConfig cfg = {}) {
    return TcpReceiver{sim, node, kFlow, /*peer=*/1, cfg};
  }

  // ACK packets captured so far.
  std::vector<net::Packet> acks() const { return wire.packets; }

  static constexpr net::FlowId kFlow = 7;
  sim::Simulator sim;
  net::Node node;
  CaptureHandler wire;
};

TEST_F(ReceiverFixture, AcksEveryInOrderPacket) {
  auto rcv = make();
  for (int i = 0; i < 5; ++i)
    rcv.receive(make_data(kFlow, i * 1000, 1000));
  ASSERT_EQ(wire.count(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(wire.packets[i].is_ack());
    EXPECT_EQ(wire.packets[i].tcp.ack, static_cast<std::uint64_t>(i + 1) * 1000);
    EXPECT_EQ(wire.packets[i].size_bytes, 40u);
  }
  EXPECT_EQ(rcv.rcv_nxt(), 5000u);
  EXPECT_EQ(rcv.stats().dupacks_sent, 0u);
}

TEST_F(ReceiverFixture, OutOfOrderGeneratesDupAcks) {
  auto rcv = make();
  rcv.receive(make_data(kFlow, 0, 1000));     // ack 1000
  rcv.receive(make_data(kFlow, 2000, 1000));  // hole at 1000 -> dup ack 1000
  rcv.receive(make_data(kFlow, 3000, 1000));  // dup ack 1000
  ASSERT_EQ(wire.count(), 3u);
  EXPECT_EQ(wire.packets[1].tcp.ack, 1000u);
  EXPECT_EQ(wire.packets[2].tcp.ack, 1000u);
  EXPECT_EQ(rcv.stats().dupacks_sent, 2u);
  EXPECT_EQ(rcv.buffered_out_of_order(), 2000u);
}

TEST_F(ReceiverFixture, HoleFillAcksCumulatively) {
  auto rcv = make();
  rcv.receive(make_data(kFlow, 0, 1000));
  rcv.receive(make_data(kFlow, 2000, 1000));
  rcv.receive(make_data(kFlow, 3000, 1000));
  wire.clear();
  rcv.receive(make_data(kFlow, 1000, 1000));  // fills the hole
  ASSERT_EQ(wire.count(), 1u);
  EXPECT_EQ(wire.packets[0].tcp.ack, 4000u);  // jumps past buffered data
  EXPECT_EQ(rcv.buffered_out_of_order(), 0u);
}

TEST_F(ReceiverFixture, SpuriousRetransmissionReAcked) {
  auto rcv = make();
  rcv.receive(make_data(kFlow, 0, 1000));
  rcv.receive(make_data(kFlow, 1000, 1000));
  wire.clear();
  rcv.receive(make_data(kFlow, 0, 1000));  // duplicate of old data
  ASSERT_EQ(wire.count(), 1u);
  EXPECT_EQ(wire.packets[0].tcp.ack, 2000u);
  EXPECT_EQ(rcv.stats().duplicates, 1u);
}

TEST_F(ReceiverFixture, MultipleHolesMergeCorrectly) {
  auto rcv = make();
  // Deliver 0, then 2000, 4000, 6000 (three holes), then fill them.
  rcv.receive(make_data(kFlow, 0, 1000));
  rcv.receive(make_data(kFlow, 2000, 1000));
  rcv.receive(make_data(kFlow, 4000, 1000));
  rcv.receive(make_data(kFlow, 6000, 1000));
  EXPECT_EQ(rcv.buffered_out_of_order(), 3000u);
  rcv.receive(make_data(kFlow, 1000, 1000));
  EXPECT_EQ(rcv.rcv_nxt(), 3000u);
  rcv.receive(make_data(kFlow, 3000, 1000));
  EXPECT_EQ(rcv.rcv_nxt(), 5000u);
  rcv.receive(make_data(kFlow, 5000, 1000));
  EXPECT_EQ(rcv.rcv_nxt(), 7000u);
  EXPECT_EQ(rcv.buffered_out_of_order(), 0u);
}

TEST_F(ReceiverFixture, OverlappingSegmentsMerge) {
  auto rcv = make();
  rcv.receive(make_data(kFlow, 2000, 1000));
  rcv.receive(make_data(kFlow, 2500, 1000));  // overlaps previous
  EXPECT_EQ(rcv.buffered_out_of_order(), 1500u);  // [2000, 3500)
}

TEST_F(ReceiverFixture, NoSackBlocksWhenDisabled) {
  auto rcv = make();
  rcv.receive(make_data(kFlow, 2000, 1000));
  EXPECT_EQ(wire.last().tcp.n_sack, 0);
}

TEST_F(ReceiverFixture, SackBlocksReportHoles) {
  ReceiverConfig cfg;
  cfg.sack_enabled = true;
  auto rcv = make(cfg);
  rcv.receive(make_data(kFlow, 2000, 1000));
  ASSERT_EQ(wire.last().tcp.n_sack, 1);
  EXPECT_EQ(wire.last().tcp.sack_block(0), (net::SackBlock{2000, 3000}));
}

TEST_F(ReceiverFixture, MostRecentSackBlockFirst) {
  ReceiverConfig cfg;
  cfg.sack_enabled = true;
  auto rcv = make(cfg);
  rcv.receive(make_data(kFlow, 2000, 1000));
  rcv.receive(make_data(kFlow, 5000, 1000));
  rcv.receive(make_data(kFlow, 8000, 1000));
  const auto& h = wire.last().tcp;
  ASSERT_EQ(h.n_sack, 3);
  EXPECT_EQ(h.sack_block(0), (net::SackBlock{8000, 9000}));  // newest first
  EXPECT_EQ(h.sack_block(1), (net::SackBlock{5000, 6000}));
  EXPECT_EQ(h.sack_block(2), (net::SackBlock{2000, 3000}));
}

TEST_F(ReceiverFixture, SackBlockGrowsWithAdjacentData) {
  ReceiverConfig cfg;
  cfg.sack_enabled = true;
  auto rcv = make(cfg);
  rcv.receive(make_data(kFlow, 2000, 1000));
  rcv.receive(make_data(kFlow, 3000, 1000));  // extends the same block
  const auto& h = wire.last().tcp;
  ASSERT_EQ(h.n_sack, 1);
  EXPECT_EQ(h.sack_block(0), (net::SackBlock{2000, 4000}));
}

TEST_F(ReceiverFixture, AtMostThreeSackBlocks) {
  ReceiverConfig cfg;
  cfg.sack_enabled = true;
  auto rcv = make(cfg);
  for (int i = 1; i <= 5; ++i)
    rcv.receive(make_data(kFlow, i * 2000, 1000));  // 5 separate blocks
  EXPECT_EQ(wire.last().tcp.n_sack, 3);
}

TEST_F(ReceiverFixture, DelayedAckCoalescesInOrderData) {
  ReceiverConfig cfg;
  cfg.delayed_ack = true;
  cfg.delack_timeout = sim::Time::milliseconds(200);
  auto rcv = make(cfg);
  rcv.receive(make_data(kFlow, 0, 1000));
  EXPECT_EQ(wire.count(), 0u);  // held back
  rcv.receive(make_data(kFlow, 1000, 1000));
  EXPECT_EQ(wire.count(), 1u);  // second in-order segment flushes
  EXPECT_EQ(wire.last().tcp.ack, 2000u);
}

TEST_F(ReceiverFixture, DelayedAckTimerFlushesSingleSegment) {
  ReceiverConfig cfg;
  cfg.delayed_ack = true;
  cfg.delack_timeout = sim::Time::milliseconds(200);
  auto rcv = make(cfg);
  rcv.receive(make_data(kFlow, 0, 1000));
  EXPECT_EQ(wire.count(), 0u);
  sim.run_until(sim::Time::milliseconds(250));
  ASSERT_EQ(wire.count(), 1u);
  EXPECT_EQ(wire.last().tcp.ack, 1000u);
}

TEST_F(ReceiverFixture, DelayedAckDisabledForOutOfOrder) {
  // Paper Section 2.2: out-of-sequence arrivals are ACKed immediately even
  // with delayed ACKs on.
  ReceiverConfig cfg;
  cfg.delayed_ack = true;
  auto rcv = make(cfg);
  rcv.receive(make_data(kFlow, 2000, 1000));
  EXPECT_EQ(wire.count(), 1u);  // immediate dup ACK
  EXPECT_EQ(wire.last().tcp.ack, 0u);
}

TEST_F(ReceiverFixture, NotifyFiresAtThreshold) {
  auto rcv = make();
  sim::Time done = sim::Time::zero();
  rcv.notify_at(3000, [&](sim::Time t) { done = t; });
  rcv.receive(make_data(kFlow, 0, 1000));
  rcv.receive(make_data(kFlow, 1000, 1000));
  EXPECT_EQ(done, sim::Time::zero());
  rcv.receive(make_data(kFlow, 2000, 1000));
  EXPECT_EQ(rcv.bytes_in_order(), 3000u);
  // Fires synchronously at current sim time (zero here) exactly once.
  EXPECT_EQ(done, sim.now());
}

}  // namespace
}  // namespace rrtcp::tcp
