// Packet model.
//
// A Packet is a small value type: moving it through queues and links copies
// ~100 bytes and never allocates. Sequence and ACK numbers are 64-bit byte
// offsets — simulations never wrap, which keeps the transport logic free of
// modular arithmetic (wrap-aware 32-bit sequence arithmetic is provided and
// tested separately in tcp/seq.hpp as the production-sized variant).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "sim/time.hpp"

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

// Transport header carried by both data and ACK packets.
struct TcpHeader {
  std::uint64_t seq = 0;      // data: first byte of this segment
  std::uint64_t ack = 0;      // ack: next byte expected by the receiver
  std::uint32_t payload = 0;  // data: payload length in bytes
  std::uint8_t n_sack = 0;    // ack: number of valid SACK blocks
  std::array<SackBlock, kMaxSackBlocks> sack{};
  // Explicit Congestion Notification (RFC 3168) bits.
  bool ect = false;  // data: ECN-capable transport
  bool ce = false;   // data: congestion experienced (set by a gateway)
  bool ece = false;  // ack: ECN echo (receiver -> sender)
  bool cwr = false;  // data: congestion window reduced (sender -> receiver)
};

struct Packet {
  std::uint64_t uid = 0;  // unique within a scenario: see packet_uid()
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PacketType type = PacketType::kData;
  std::uint32_t size_bytes = 0;  // on-wire size incl. headers
  TcpHeader tcp;
  sim::Time sent_at = sim::Time::zero();  // stamped by the first link
  std::uint32_t hops = 0;

  bool is_data() const { return type == PacketType::kData; }
  bool is_ack() const { return type == PacketType::kAck; }
  bool is_cbr() const { return type == PacketType::kCbr; }
  std::string to_string() const;
};

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
