// Lint-corpus header shared by the smallfn_inline_member_{bad,clean}.cpp
// fixtures: a struct that carries a packet as a data member. The fixtures
// capture the member in a schedule call, so the checker must know its
// type from this header, not from the .cpp it scans.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace corpus {

// One cross-shard packet waiting for a merge.
struct Pending {
  std::int64_t arrival_ps;
  rrtcp::net::Node* dst;
  rrtcp::net::Packet pkt;
};

}  // namespace corpus
