// Packet model.
//
// A Packet is a small value type: moving it through queues and links copies
// one 64-byte cache line and never allocates. Sequence and ACK numbers are
// 64-bit byte offsets — simulations never wrap, which keeps the transport
// logic free of modular arithmetic (wrap-aware 32-bit sequence arithmetic is
// provided and tested separately in tcp/seq.hpp as the production-sized
// variant).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/assert.hpp"

namespace rrtcp::net {

using NodeId = std::uint32_t;
using FlowId = std::uint32_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

// kCbr is unresponsive datagram cross-traffic (src/traffic/cbr.hpp). It is
// deliberately NOT "data" to the audit layer: pipe-conservation accounting
// (audit/invariant_auditor.hpp) counts TCP segments only, so CBR drops at a
// shared queue do not show up as phantom TCP losses.
enum class PacketType : std::uint8_t { kData, kAck, kCbr };

// One SACK block: [begin, end) in byte offsets.
struct SackBlock {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  friend bool operator==(const SackBlock&, const SackBlock&) = default;
};

inline constexpr int kMaxSackBlocks = 3;

// Largest distance above TcpHeader::ack at which a SACK bound can be
// stored (the header keeps 32-bit offsets).
inline constexpr std::uint64_t kMaxSackOffset = 0xFFFFFFFFu;

// Largest segment payload a packet can carry (TcpHeader::payload is 16
// bits). Scenario::validate rejects an MSS above it.
inline constexpr std::uint32_t kMaxPayloadBytes = 0xFFFF;

// Transport header carried by both data and ACK packets.
struct TcpHeader {
  std::uint64_t seq = 0;  // data: first byte of this segment
  std::uint64_t ack = 0;  // ack: next byte expected by the receiver

  // SACK block i (< n_sack) in absolute byte offsets.
  SackBlock sack_block(int i) const {
    const SackOffsets& o = sack_[static_cast<std::size_t>(i)];
    return {ack + o.begin, ack + o.end};
  }
  // Stores block i relative to `ack`, so set `ack` first (and do not move
  // it afterwards). Both bounds must lie in [ack, ack + 2^32 - 1]; the
  // receiver only reports data above its cumulative ACK, and its window is
  // far below 4 GB.
  void set_sack_block(int i, SackBlock b) {
    RRTCP_DASSERT(b.begin >= ack && b.begin - ack <= kMaxSackOffset);
    RRTCP_DASSERT(b.end >= ack && b.end - ack <= kMaxSackOffset);
    sack_[static_cast<std::size_t>(i)] = {
        static_cast<std::uint32_t>(b.begin - ack),
        static_cast<std::uint32_t>(b.end - ack)};
  }

 private:
  struct SackOffsets {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  // Declared between ack and payload so that the header ends in five bytes
  // of tail padding, which Packet fills (see there).
  std::array<SackOffsets, kMaxSackBlocks> sack_{};

 public:
  std::uint16_t payload = 0;  // data: payload length in bytes
  // ack: number of valid SACK blocks. Three bits, not two, so an
  // out-of-range count stays representable and the wire codec can reject
  // it.
  std::uint8_t n_sack : 3 = 0;
  // Explicit Congestion Notification (RFC 3168) bits.
  bool ect : 1 = false;  // data: ECN-capable transport
  bool ce : 1 = false;   // data: congestion experienced (set by a gateway)
  bool ece : 1 = false;  // ack: ECN echo (receiver -> sender)
  bool cwr : 1 = false;  // data: congestion window reduced (sender -> rcvr)
};

// One cache line. `tcp` is [[no_unique_address]] so that `type` and
// `size_bytes` sit in its tail padding instead of after it; assigning to
// `tcp` leaves them intact (tests/net/test_packet.cpp). Do not add
// alignas(64): every struct that carries a packet next to a key (a PDES
// channel message) would pad to two cache lines; the one store that wants
// aligned packets, net::DelayLine, aligns its slots.
struct Packet {
  std::uint64_t uid = 0;  // unique within a scenario: see packet_uid()
  FlowId flow = 0;
  NodeId dst = kInvalidNode;
  [[no_unique_address]] TcpHeader tcp;
  PacketType type = PacketType::kData;
  std::uint32_t size_bytes = 0;  // on-wire size incl. headers

  bool is_data() const { return type == PacketType::kData; }
  bool is_ack() const { return type == PacketType::kAck; }
  bool is_cbr() const { return type == PacketType::kCbr; }
  std::string to_string() const;
};

static_assert(sizeof(Packet) <= 64, "a Packet must fit one cache line");

// The uid of the n-th packet of kind `type` that an endpoint mints for
// `flow`: the flow id in bits 63..32, the kind in bits 31..30 and n in bits
// 29..0. Each minter numbers its own packets — a sender counts its data
// transmissions and retransmissions, a receiver its ACKs, a CBR source its
// datagrams — so minting touches no state shared between endpoints or
// between the scenarios of a sweep, and a scenario's uids are the same
// whichever thread, job order or shard count runs it. Scenarios give TCP
// flows and CBR streams distinct flow ids, so uids are unique within a
// scenario until one endpoint mints 2^30 packets of one kind, after which
// n wraps. Uids exist purely for tracing/debugging; simulation behavior
// never depends on them.
inline constexpr int kPacketUidCountBits = 30;

constexpr std::uint64_t packet_uid(FlowId flow, PacketType type,
                                   std::uint64_t n) {
  return (std::uint64_t{flow} << 32) |
         (std::uint64_t{static_cast<std::uint8_t>(type)}
          << kPacketUidCountBits) |
         (n & ((std::uint64_t{1} << kPacketUidCountBits) - 1));
}

}  // namespace rrtcp::net
