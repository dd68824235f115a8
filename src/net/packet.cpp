#include "net/packet.hpp"

#include <cstdio>

namespace rrtcp::net {

std::string Packet::to_string() const {
  char buf[160];
  if (is_data()) {
    std::snprintf(buf, sizeof buf,
                  "DATA uid=%llu flow=%u seq=%llu len=%u size=%uB",
                  static_cast<unsigned long long>(uid), flow,
                  static_cast<unsigned long long>(tcp.seq), tcp.payload,
                  size_bytes);
  } else if (is_cbr()) {
    std::snprintf(buf, sizeof buf, "CBR  uid=%llu flow=%u size=%uB",
                  static_cast<unsigned long long>(uid), flow, size_bytes);
  } else {
    std::snprintf(buf, sizeof buf,
                  "ACK  uid=%llu flow=%u ack=%llu nsack=%u size=%uB",
                  static_cast<unsigned long long>(uid), flow,
                  static_cast<unsigned long long>(tcp.ack), tcp.n_sack,
                  size_bytes);
  }
  return buf;
}

}  // namespace rrtcp::net
