// Wire codec unit tests: exact layout, round-trip fidelity, and strict
// rejection of every malformation class a hostile datagram can carry.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "live/wire.hpp"
#include "net/packet.hpp"

namespace rrtcp::live {
namespace {

// Little-endian u64 store, for mutating encoded datagrams.
void put_u64(std::uint8_t* b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

net::Packet sample_data() {
  net::Packet p;
  p.uid = 0x0123456789abcdefULL;
  p.flow = 42;
  p.type = net::PacketType::kData;
  p.size_bytes = 1040;
  p.tcp.seq = 123'000;
  p.tcp.payload = 1000;
  p.tcp.ect = true;
  p.tcp.cwr = true;
  return p;
}

net::Packet sample_ack() {
  net::Packet p;
  p.uid = 7;
  p.flow = 42;
  p.type = net::PacketType::kAck;
  p.size_bytes = 40;
  p.tcp.ack = 124'000;
  p.tcp.ece = true;
  p.tcp.n_sack = 3;
  p.tcp.set_sack_block(0, {126'000, 127'000});
  p.tcp.set_sack_block(1, {129'000, 131'000});
  p.tcp.set_sack_block(2, {133'000, 134'000});
  return p;
}

TEST(Wire, SizeReflectsHeaderSacksAndFiller) {
  EXPECT_EQ(wire_size(sample_data()), kWireHeaderBytes + 1000u);
  EXPECT_EQ(wire_size(sample_ack()), kWireHeaderBytes + 3 * kWireSackBytes);
}

TEST(Wire, DataPacketRoundTrips) {
  const net::Packet in = sample_data();
  std::uint8_t buf[kMaxWireDatagram];
  const std::size_t n = encode(in, buf, sizeof buf);
  ASSERT_EQ(n, wire_size(in));

  net::Packet out;
  ASSERT_TRUE(decode(buf, n, &out));
  EXPECT_EQ(out.uid, in.uid);
  EXPECT_EQ(out.flow, in.flow);
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.size_bytes, in.size_bytes);
  EXPECT_EQ(out.tcp.seq, in.tcp.seq);
  EXPECT_EQ(out.tcp.payload, in.tcp.payload);
  EXPECT_EQ(out.tcp.ect, in.tcp.ect);
  EXPECT_EQ(out.tcp.ce, in.tcp.ce);
  EXPECT_EQ(out.tcp.ece, in.tcp.ece);
  EXPECT_EQ(out.tcp.cwr, in.tcp.cwr);
}

TEST(Wire, SackAckRoundTrips) {
  const net::Packet in = sample_ack();
  std::uint8_t buf[kMaxWireDatagram];
  const std::size_t n = encode(in, buf, sizeof buf);
  ASSERT_EQ(n, kWireHeaderBytes + 3 * kWireSackBytes);

  net::Packet out;
  ASSERT_TRUE(decode(buf, n, &out));
  EXPECT_EQ(out.tcp.ack, in.tcp.ack);
  ASSERT_EQ(out.tcp.n_sack, 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(out.tcp.sack_block(i), in.tcp.sack_block(i));
  EXPECT_TRUE(out.tcp.ece);
}

TEST(Wire, LayoutIsLittleEndianWithMagicFirst) {
  std::uint8_t buf[kMaxWireDatagram];
  ASSERT_GT(encode(sample_data(), buf, sizeof buf), 0u);
  // "RRTP"
  EXPECT_EQ(buf[0], 'R');
  EXPECT_EQ(buf[1], 'R');
  EXPECT_EQ(buf[2], 'T');
  EXPECT_EQ(buf[3], 'P');
  EXPECT_EQ(buf[4], kWireVersion);
  EXPECT_EQ(buf[6], 0x09);  // ect | cwr
  // payload = 1000 = 0x3e8 LE at offset 40
  EXPECT_EQ(buf[40], 0xe8);
  EXPECT_EQ(buf[41], 0x03);
}

TEST(Wire, EncodeRejectsOversizeAndSmallBuffers) {
  net::Packet p = sample_data();
  std::uint8_t buf[kMaxWireDatagram];
  p.tcp.payload = kMaxWirePayload + 1;
  EXPECT_EQ(encode(p, buf, sizeof buf), 0u);

  p = sample_data();
  EXPECT_EQ(encode(p, buf, wire_size(p) - 1), 0u);

  p = sample_ack();
  p.tcp.n_sack = net::kMaxSackBlocks + 1;
  EXPECT_EQ(encode(p, buf, sizeof buf), 0u);
}

// Each mutation of a valid datagram must be rejected, and a rejected
// decode must leave *out untouched.
TEST(Wire, DecodeRejectsMalformedDatagrams) {
  std::uint8_t good[kMaxWireDatagram];
  const std::size_t n = encode(sample_ack(), good, sizeof good);
  ASSERT_GT(n, 0u);

  auto rejects = [&](auto mutate, std::size_t len) {
    std::vector<std::uint8_t> buf(good, good + n);
    buf.resize(std::max(len, n), 0);
    mutate(buf.data());
    net::Packet out;
    out.uid = 0xdeadbeef;
    EXPECT_FALSE(decode(buf.data(), len, &out));
    EXPECT_EQ(out.uid, 0xdeadbeefu);  // untouched on failure
  };

  rejects([](std::uint8_t* b) { b[0] ^= 0xff; }, n);        // bad magic
  rejects([](std::uint8_t* b) { b[4] = 99; }, n);           // bad version
  rejects([](std::uint8_t* b) { b[5] = 17; }, n);           // bad type
  rejects([](std::uint8_t* b) { b[6] |= 0x10; }, n);        // reserved flag
  rejects([](std::uint8_t* b) { b[7] = 4; }, n);            // n_sack > max
  rejects([](std::uint8_t*) {}, kWireHeaderBytes - 1);      // truncated hdr
  rejects([](std::uint8_t*) {}, n - 1);                     // truncated sack
  rejects([](std::uint8_t*) {}, n + 1);                     // trailing junk

  // SACK blocks must fit the packet's 32-bit offsets above ack = 124'000.
  // Block 0's begin is at byte 48, its end at byte 56.
  rejects([](std::uint8_t* b) { put_u64(b + 48, 123'999); }, n);  // < ack
  rejects([](std::uint8_t* b) { put_u64(b + 56, 125'999); }, n);  // end<begin
  rejects([](std::uint8_t* b) { put_u64(b + 56, 124'000 + (1ULL << 32)); },
          n);  // ends 2^32 bytes past ack
}

TEST(Wire, DecodeAcceptsSackBlockEndingAtTheOffsetLimit) {
  std::uint8_t buf[kMaxWireDatagram];
  const std::size_t n = encode(sample_ack(), buf, sizeof buf);
  ASSERT_GT(n, 0u);
  const std::uint64_t end = 124'000 + 0xFFFF'FFFFULL;
  put_u64(buf + 56, end);

  net::Packet out;
  ASSERT_TRUE(decode(buf, n, &out));
  EXPECT_EQ(out.tcp.sack_block(0), (net::SackBlock{126'000, end}));
}

// The payload check runs on the wire's 32-bit value: 66'536 would narrow
// to the 16-bit field's 1'000, which matches the datagram's filler length.
TEST(Wire, DecodeRejectsPayloadAboveMaxBeforeNarrowing) {
  std::uint8_t buf[kMaxWireDatagram];
  const std::size_t n = encode(sample_data(), buf, sizeof buf);
  ASSERT_EQ(n, kWireHeaderBytes + 1000u);
  buf[40] = 0xe8;  // 66'536 = 0x103e8 LE
  buf[41] = 0x03;
  buf[42] = 0x01;

  net::Packet out;
  out.uid = 0xdeadbeef;
  EXPECT_FALSE(decode(buf, n, &out));
  EXPECT_EQ(out.uid, 0xdeadbeefu);

  std::vector<std::uint8_t> big(kWireHeaderBytes + kMaxWirePayload + 1, 0);
  std::memcpy(big.data(), buf, kWireHeaderBytes);
  const std::uint32_t over = kMaxWirePayload + 1;
  for (int i = 0; i < 4; ++i)
    big[40 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(over >> (8 * i));
  EXPECT_FALSE(decode(big.data(), big.size(), &out));
}

TEST(Wire, DecodeRejectsFillerLengthMismatch) {
  net::Packet p = sample_data();
  std::uint8_t buf[kMaxWireDatagram];
  const std::size_t n = encode(p, buf, sizeof buf);
  ASSERT_EQ(n, kWireHeaderBytes + 1000u);

  net::Packet out;
  EXPECT_FALSE(decode(buf, n - 1, &out));  // short one filler byte
  EXPECT_FALSE(decode(buf, kWireHeaderBytes, &out));  // no filler at all
  EXPECT_TRUE(decode(buf, n, &out));
}

}  // namespace
}  // namespace rrtcp::live
