// Lint-corpus fixture: must stay clean under every rrtcp check.
//
// Schedule calls whose captures fit the inline budget: a pointer, a small
// value, a big buffer captured by reference (referencing, not copying —
// the caller guarantees lifetime, as DelayLine does with `this`) and a
// pointer to a packet.
#include <cstdint>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace corpus {

struct Counter {
  std::uint64_t hits = 0;
};

void arm_small(rrtcp::sim::Simulator& sim, Counter& c) {
  std::uint32_t delta = 1;
  sim.schedule_in(rrtcp::sim::Time::milliseconds(1),
                  [&c, delta] { c.hits += delta; });
}

void arm_by_reference(rrtcp::sim::Simulator& sim) {
  static char big[4096];
  sim.schedule_at(rrtcp::sim::Time::milliseconds(2),
                  [&big] { big[0] = 1; });  // reference capture: 8 bytes
}

void arm_reserved(rrtcp::sim::Simulator& sim, Counter& c) {
  const auto seq = sim.reserve_seq();
  sim.schedule_reserved(rrtcp::sim::Time::milliseconds(3), seq,
                        [&c] { ++c.hits; });  // reserved key, 8-byte capture
}

void arm_packet_pointer(rrtcp::sim::Simulator& sim, Counter& c,
                        rrtcp::net::Packet* pkt) {
  sim.schedule_in(rrtcp::sim::Time::milliseconds(4),
                  [&c, pkt] { c.hits += pkt->size_bytes; });  // two words
}

}  // namespace corpus
