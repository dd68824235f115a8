// Packet layout: the header's tail padding holds `type` and `size_bytes`,
// SACK blocks are stored as offsets from the cumulative ACK, and the
// largest packet-carrying event capture sets the scheduler's budget.
#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rrtcp::net {
namespace {

TcpHeader full_header() {
  TcpHeader h;
  h.seq = 0x0102030405060708ULL;
  h.ack = 0x1112131415161718ULL;
  h.payload = 0xFFFF;
  h.n_sack = kMaxSackBlocks;
  h.ect = true;
  h.ce = true;
  h.ece = true;
  h.cwr = true;
  for (int i = 0; i < kMaxSackBlocks; ++i)
    h.set_sack_block(i, {h.ack + 1, h.ack + 0xFFFF'FFFFULL});
  return h;
}

TEST(Packet, AssigningTheHeaderKeepsTypeAndSize) {
  Packet p;
  p.type = PacketType::kCbr;
  p.size_bytes = 0xDEADBEEF;

  const TcpHeader h = full_header();
  p.tcp = h;
  EXPECT_EQ(p.type, PacketType::kCbr);
  EXPECT_EQ(p.size_bytes, 0xDEADBEEFu);

  TcpHeader moved = full_header();
  p.tcp = std::move(moved);
  EXPECT_EQ(p.type, PacketType::kCbr);
  EXPECT_EQ(p.size_bytes, 0xDEADBEEFu);

  // And the header arrived whole.
  EXPECT_EQ(p.tcp.seq, h.seq);
  EXPECT_EQ(p.tcp.ack, h.ack);
  EXPECT_EQ(p.tcp.payload, 0xFFFFu);
  EXPECT_EQ(p.tcp.n_sack, kMaxSackBlocks);
  EXPECT_TRUE(p.tcp.ect && p.tcp.ce && p.tcp.ece && p.tcp.cwr);
  for (int i = 0; i < kMaxSackBlocks; ++i)
    EXPECT_EQ(p.tcp.sack_block(i), h.sack_block(i));
}

TEST(Packet, SackBlocksRoundTripAsAbsoluteOffsets) {
  TcpHeader h;
  h.ack = 10'000'000'000ULL;  // above 2^32: only the offsets are 32-bit
  const SackBlock blocks[kMaxSackBlocks] = {
      {h.ack, h.ack + 1000},                       // starts at the ACK
      {h.ack + 5000, h.ack + 0xFFFF'FFFFULL},      // ends at the limit
      {h.ack + 100, h.ack + 50},                   // inverted, kept as is
  };
  for (int i = 0; i < kMaxSackBlocks; ++i) h.set_sack_block(i, blocks[i]);
  for (int i = 0; i < kMaxSackBlocks; ++i)
    EXPECT_EQ(h.sack_block(i), blocks[i]) << "block " << i;
}

// No event carries a packet: the old link-delivery capture {this, Packet}
// no longer fits the scheduler's inline budget (it would heap-allocate on
// every delivery), while a DelayLine's {this} does.
TEST(Packet, ForwardingCaptureOfAPacketDoesNotFitAnEvent) {
  const void* self = nullptr;
  const Packet pkt;
  auto deliver = [self, pkt] { (void)self, (void)pkt; };
  auto front = [self] { (void)self; };
  static_assert(sizeof(deliver) > sim::kEventInlineBytes);
  static_assert(!sim::Simulator::fits_inline<decltype(deliver)>());
  static_assert(sim::Simulator::fits_inline<decltype(front)>());
}

}  // namespace
}  // namespace rrtcp::net
