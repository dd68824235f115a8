#include "live/wire.hpp"

#include <cstring>

namespace rrtcp::live {

namespace {

void put_u32(std::uint8_t* b, std::uint32_t v) {
  b[0] = static_cast<std::uint8_t>(v);
  b[1] = static_cast<std::uint8_t>(v >> 8);
  b[2] = static_cast<std::uint8_t>(v >> 16);
  b[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* b, std::uint64_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
  put_u32(b + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* b) {
  return static_cast<std::uint32_t>(b[0]) |
         static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* b) {
  return static_cast<std::uint64_t>(get_u32(b)) |
         static_cast<std::uint64_t>(get_u32(b + 4)) << 32;
}

std::size_t filler_bytes(const net::Packet& p) {
  return p.is_data() ? p.tcp.payload : 0;
}

}  // namespace

std::size_t wire_size(const net::Packet& p) {
  return kWireHeaderBytes + p.tcp.n_sack * kWireSackBytes + filler_bytes(p);
}

std::size_t encode(const net::Packet& p, std::uint8_t* buf, std::size_t cap) {
  if (p.tcp.n_sack > net::kMaxSackBlocks) return 0;
  if (p.tcp.payload > kMaxWirePayload) return 0;
  const std::size_t need = wire_size(p);
  if (need > cap) return 0;

  put_u32(buf + 0, kWireMagic);
  buf[4] = kWireVersion;
  buf[5] = static_cast<std::uint8_t>(p.type);
  buf[6] = static_cast<std::uint8_t>((p.tcp.ect ? 1u : 0u) |
                                     (p.tcp.ce ? 2u : 0u) |
                                     (p.tcp.ece ? 4u : 0u) |
                                     (p.tcp.cwr ? 8u : 0u));
  buf[7] = p.tcp.n_sack;
  put_u32(buf + 8, p.flow);
  put_u32(buf + 12, p.size_bytes);
  put_u64(buf + 16, p.uid);
  put_u64(buf + 24, p.tcp.seq);
  put_u64(buf + 32, p.tcp.ack);
  put_u32(buf + 40, p.tcp.payload);
  put_u32(buf + 44, 0);

  std::uint8_t* w = buf + kWireHeaderBytes;
  for (int i = 0; i < p.tcp.n_sack; ++i) {
    const net::SackBlock b = p.tcp.sack_block(i);
    put_u64(w, b.begin);
    put_u64(w + 8, b.end);
    w += kWireSackBytes;
  }
  std::memset(w, 0, filler_bytes(p));
  return need;
}

bool decode(const std::uint8_t* buf, std::size_t len, net::Packet* out) {
  if (len < kWireHeaderBytes) return false;
  if (get_u32(buf + 0) != kWireMagic) return false;
  if (buf[4] != kWireVersion) return false;
  const std::uint8_t type = buf[5];
  if (type > static_cast<std::uint8_t>(net::PacketType::kCbr)) return false;
  const std::uint8_t flags = buf[6];
  if ((flags & ~0x0fu) != 0) return false;
  const std::uint8_t n_sack = buf[7];
  if (n_sack > net::kMaxSackBlocks) return false;
  // Checked before narrowing to the packet's 16-bit field.
  const std::uint32_t payload = get_u32(buf + 40);
  if (payload > kMaxWirePayload) return false;

  net::Packet p;
  p.type = static_cast<net::PacketType>(type);
  p.tcp.ect = (flags & 1u) != 0;
  p.tcp.ce = (flags & 2u) != 0;
  p.tcp.ece = (flags & 4u) != 0;
  p.tcp.cwr = (flags & 8u) != 0;
  p.tcp.n_sack = n_sack;
  p.flow = get_u32(buf + 8);
  p.size_bytes = get_u32(buf + 12);
  p.uid = get_u64(buf + 16);
  p.tcp.seq = get_u64(buf + 24);
  p.tcp.ack = get_u64(buf + 32);
  p.tcp.payload = static_cast<std::uint16_t>(payload);

  std::size_t off = kWireHeaderBytes;
  if (len < off + n_sack * kWireSackBytes) return false;
  for (int i = 0; i < n_sack; ++i) {
    const net::SackBlock b{get_u64(buf + off), get_u64(buf + off + 8)};
    // The packet stores blocks as 32-bit offsets above the cumulative ACK.
    if (b.begin < p.tcp.ack || b.end < b.begin ||
        b.end - p.tcp.ack > net::kMaxSackOffset)
      return false;
    p.tcp.set_sack_block(i, b);
    off += kWireSackBytes;
  }
  if (len != off + filler_bytes(p)) return false;

  *out = p;
  return true;
}

}  // namespace rrtcp::live
