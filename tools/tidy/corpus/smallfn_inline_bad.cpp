// Lint-corpus fixture: MUST fire rrtcp-smallfn-inline.
// EXPECT: rrtcp-smallfn-inline
//
// Schedule calls that carry a Packet in the event: the per-packet
// delivery shape every link used before packets in flight moved into
// net::DelayLine. A 64-byte Packet is four times the 16-byte inline budget
// (sim::kEventInlineBytes), so each of these would heap-allocate per
// packet; the check keeps a packet from creeping back into an event.
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace corpus {

void deliver_later(rrtcp::sim::Simulator& sim, rrtcp::net::Node& dst,
                   rrtcp::net::Packet pkt) {
  sim.schedule_in(rrtcp::sim::Time::milliseconds(1),
                  [&dst, pkt] { dst.receive(pkt); });  // 72B capture
}

void deliver_moved(rrtcp::sim::Simulator& sim, rrtcp::net::Node& dst,
                   rrtcp::net::Packet p) {
  sim.schedule_at(rrtcp::sim::Time::milliseconds(2),
                  [&dst, held = std::move(p)]() mutable {
                    dst.receive(std::move(held));
                  });  // init-capture copies the packet all the same
}

void deliver_reserved(rrtcp::sim::Simulator& sim, rrtcp::net::Node& dst,
                      const rrtcp::net::Packet& pkt) {
  const auto seq = sim.reserve_seq();
  sim.schedule_reserved(rrtcp::sim::Time::milliseconds(3), seq,
                        [&dst, pkt] { dst.receive(pkt); });  // a copy
}

}  // namespace corpus
