#include "tcp/scoreboard.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"

namespace rrtcp::tcp {
namespace {

net::TcpHeader ack_with_sacks(std::uint64_t ack,
                              std::vector<net::SackBlock> sacks) {
  net::TcpHeader h;
  h.ack = ack;
  h.n_sack = static_cast<std::uint8_t>(sacks.size());
  for (std::size_t i = 0; i < sacks.size(); ++i)
    h.set_sack_block(static_cast<int>(i), sacks[i]);
  return h;
}

TEST(Scoreboard, EmptyInitially) {
  Scoreboard b;
  EXPECT_EQ(b.highest_sacked(), 0u);
  EXPECT_EQ(b.sacked_bytes(), 0u);
  EXPECT_FALSE(b.next_hole(0, 1000, 3, false).has_value());
}

TEST(Scoreboard, RecordsSackBlocks) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{2000, 3000}}), 0);
  EXPECT_TRUE(b.is_sacked(2000));
  EXPECT_FALSE(b.is_sacked(1000));
  EXPECT_FALSE(b.is_sacked(3000));
  EXPECT_EQ(b.highest_sacked(), 3000u);
  EXPECT_EQ(b.sacked_bytes(), 1000u);
}

TEST(Scoreboard, NextHoleIsLowestUnsackedBelowHighest) {
  Scoreboard b;
  // una=1000; sacked: [2000,3000) and [4000,5000). Holes: 1000, 3000.
  b.update(ack_with_sacks(1000, {{2000, 3000}, {4000, 5000}}), 1000);
  auto hole = b.next_hole(1000, 1000, 3, false);
  ASSERT_TRUE(hole.has_value());
  EXPECT_EQ(*hole, 1000u);
  b.mark_retransmitted(1000);
  hole = b.next_hole(1000, 1000, 3, false);
  ASSERT_TRUE(hole.has_value());
  EXPECT_EQ(*hole, 3000u);
  b.mark_retransmitted(3000);
  EXPECT_FALSE(b.next_hole(1000, 1000, 3, false).has_value());
}

TEST(Scoreboard, NoHoleBeyondHighestSacked) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{2000, 3000}}), 0);
  // 3000+ is above highest evidence: not a hole yet.
  auto hole = b.next_hole(3000, 1000, 3, false);
  EXPECT_FALSE(hole.has_value());
}

TEST(Scoreboard, MergesAdjacentAndOverlappingBlocks) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{2000, 3000}}), 0);
  b.update(ack_with_sacks(0, {{3000, 4000}}), 0);  // adjacent
  b.update(ack_with_sacks(0, {{3500, 5000}}), 0);  // overlapping
  EXPECT_EQ(b.sacked_bytes(), 3000u);              // one block [2000,5000)
  EXPECT_EQ(b.block_count(), 1u);
}

TEST(Scoreboard, CumulativeAckPrunesState) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{2000, 3000}, {5000, 6000}}), 0);
  b.mark_retransmitted(1000);
  // Cumulative ACK to 4000 swallows the first block and the rtx mark.
  b.update(ack_with_sacks(4000, {}), 4000);
  EXPECT_FALSE(b.is_sacked(2000));
  EXPECT_TRUE(b.is_sacked(5000));
  EXPECT_EQ(b.sacked_bytes(), 1000u);
  auto hole = b.next_hole(4000, 1000, 3, false);
  ASSERT_TRUE(hole.has_value());
  EXPECT_EQ(*hole, 4000u);
}

TEST(Scoreboard, PartialOverlapWithAckTruncatesBlock) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{2000, 6000}}), 0);
  b.update(ack_with_sacks(3000, {}), 3000);
  EXPECT_FALSE(b.is_sacked(2500));
  EXPECT_TRUE(b.is_sacked(3000));
  EXPECT_EQ(b.sacked_bytes(), 3000u);  // [3000, 6000)
}

TEST(Scoreboard, IgnoresStaleBlocksBelowAck) {
  Scoreboard b;
  // A reordered old ACK: its block lies below the current snd_una.
  b.update(ack_with_sacks(1000, {{1000, 2000}}), 5000);
  EXPECT_EQ(b.sacked_bytes(), 0u);
}

TEST(Scoreboard, IgnoresEmptyOrInvertedBlocks) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{3000, 3000}, {4000, 2000}}), 0);
  EXPECT_EQ(b.sacked_bytes(), 0u);
}

TEST(Scoreboard, ResetClearsEverything) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{2000, 3000}}), 0);
  b.mark_retransmitted(0);
  b.reset();
  EXPECT_EQ(b.sacked_bytes(), 0u);
  EXPECT_EQ(b.highest_sacked(), 0u);
  EXPECT_FALSE(b.was_retransmitted(0));
}

TEST(Scoreboard, IsLostRequiresDupThreshWorthOfEvidence) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{1000, 3000}}), 0);  // 2000 B above seq 0
  EXPECT_FALSE(b.is_lost(0, 1000, 3));
  b.update(ack_with_sacks(0, {{1000, 4000}}), 0);  // 3000 B above seq 0
  EXPECT_TRUE(b.is_lost(0, 1000, 3));
  // But not for a segment above the evidence.
  EXPECT_FALSE(b.is_lost(4000, 1000, 3));
}

TEST(Scoreboard, SackedBytesAboveCountsStrictlyAbove) {
  Scoreboard b;
  b.update(ack_with_sacks(0, {{2000, 3000}, {5000, 8000}}), 0);
  EXPECT_EQ(b.sacked_bytes_above(0), 4000u);
  EXPECT_EQ(b.sacked_bytes_above(2000), 4000u);  // clips at seq
  EXPECT_EQ(b.sacked_bytes_above(2500), 3500u);
  EXPECT_EQ(b.sacked_bytes_above(4000), 3000u);
  EXPECT_EQ(b.sacked_bytes_above(6000), 2000u);
  EXPECT_EQ(b.sacked_bytes_above(8000), 0u);
}

TEST(Scoreboard, PipeExcludesSackedAndLostSegments) {
  Scoreboard b;
  // Flight [0, 10000); SACKed [1000, 4000). Segment 0 is lost (3000 B of
  // evidence above); segments 4000..9000 are simply in flight.
  b.update(ack_with_sacks(0, {{1000, 4000}}), 0);
  EXPECT_EQ(b.pipe_packets(0, 10'000, 1000, 3), 6);
  // Retransmitting the lost segment puts one packet back in the pipe.
  b.mark_retransmitted(0);
  EXPECT_EQ(b.pipe_packets(0, 10'000, 1000, 3), 7);
}

TEST(Scoreboard, PipeOfCleanFlightIsEverything) {
  Scoreboard b;
  EXPECT_EQ(b.pipe_packets(0, 8000, 1000, 3), 8);
}

TEST(Scoreboard, NextHoleStrictModeNeedsLostEvidence) {
  Scoreboard b;
  // Hole at 1000 with only 1000 B SACKed above: not yet "lost".
  b.update(ack_with_sacks(1000, {{2000, 3000}}), 1000);
  EXPECT_FALSE(b.next_hole(1000, 1000, 3, true).has_value());
  EXPECT_TRUE(b.next_hole(1000, 1000, 3, false).has_value());
  // More evidence arrives: strict mode now returns it.
  b.update(ack_with_sacks(1000, {{2000, 5000}}), 1000);
  auto hole = b.next_hole(1000, 1000, 3, true);
  ASSERT_TRUE(hole.has_value());
  EXPECT_EQ(*hole, 1000u);
}

TEST(Scoreboard, WasRetransmittedTracksMarks) {
  Scoreboard b;
  EXPECT_FALSE(b.was_retransmitted(7000));
  b.mark_retransmitted(7000);
  EXPECT_TRUE(b.was_retransmitted(7000));
}

}  // namespace
}  // namespace rrtcp::tcp
