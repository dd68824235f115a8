// Wire codec for net::Packet over UDP datagrams.
//
// One datagram carries one packet: a fixed 48-byte little-endian header,
// n_sack 16-byte SACK blocks, then — for data packets — `payload` filler
// bytes so the datagram's size reflects the data volume the simulator
// models (the filler is zeros; the reproduction transfers byte counts, not
// application content). Every multi-byte field is serialized explicitly
// byte-by-byte, so the format is identical across host endianness.
//
// Layout (offsets in bytes):
//   0   u32  magic  "RRTP" (0x50545252 LE)
//   4   u8   version (kWireVersion)
//   5   u8   type    (net::PacketType)
//   6   u8   flags   bit0 ect, bit1 ce, bit2 ece, bit3 cwr
//   7   u8   n_sack  (<= net::kMaxSackBlocks)
//   8   u32  flow
//   12  u32  size_bytes
//   16  u64  uid
//   24  u64  seq
//   32  u64  ack
//   40  u32  payload
//   44  u32  reserved (zero)
//   48  n_sack x { u64 begin, u64 end }
//   ... payload filler (data packets only)
//
// The SACK bounds and payload are wider on the wire than in net::Packet,
// which stores each block as 32-bit offsets above `ack` and the payload in
// 16 bits. decode() is strict: bad magic/version/type, an out-of-range
// n_sack, a payload above kMaxWirePayload, a SACK block that starts below
// `ack`, ends before it starts or ends more than 2^32 - 1 bytes past `ack`,
// a truncated header or a trailing-length mismatch all reject the datagram
// (returns false, *out untouched). A transport exposed to a real network
// must treat every arriving datagram as hostile.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"

namespace rrtcp::live {

inline constexpr std::uint32_t kWireMagic = 0x50545252;  // "RRTP" LE
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 48;
inline constexpr std::size_t kWireSackBytes = 16;
// Largest datagram encode() can produce: header + max SACK blocks + the
// largest payload we ever pad out (jumbo-frame-sized; the paper's MSS is
// 1000 B). Callers size receive buffers with this.
inline constexpr std::size_t kMaxWirePayload = 9000;
inline constexpr std::size_t kMaxWireDatagram =
    kWireHeaderBytes + net::kMaxSackBlocks * kWireSackBytes + kMaxWirePayload;

// Serialized size of `p` (header + SACK blocks + data filler).
std::size_t wire_size(const net::Packet& p);

// Encodes `p` into `buf`; returns bytes written, or 0 when `cap` is too
// small, n_sack is out of range, or the payload exceeds kMaxWirePayload.
std::size_t encode(const net::Packet& p, std::uint8_t* buf, std::size_t cap);

// Decodes one datagram. Returns false (out untouched) on any malformation.
// The destination NodeId is not carried — addressing is the socket's
// business — so the caller stamps it from its environment.
bool decode(const std::uint8_t* buf, std::size_t len, net::Packet* out);

}  // namespace rrtcp::live
