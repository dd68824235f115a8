// Lint-corpus fixture: must stay clean under every rrtcp check.
//
// Look-alikes of smallfn_inline_member_bad.cpp that fit the inline budget:
// a capture of the packet member's address, and of one small field read
// through it.
#include <cstdint>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "smallfn_inline_member.hpp"

namespace corpus {

void deliver_by_address(rrtcp::sim::Simulator& sim, Pending& p) {
  rrtcp::net::Node* dst = p.dst;
  sim.schedule_in(rrtcp::sim::Time::milliseconds(1),
                  [dst, pkt = &p.pkt] { dst->receive(*pkt); });  // two words
}

void note_uid(rrtcp::sim::Simulator& sim, Pending& p, std::uint64_t& out) {
  sim.schedule_in(rrtcp::sim::Time::milliseconds(2),
                  [&out, uid = p.pkt.uid] { out = uid; });  // two words
}

}  // namespace corpus
