// Lint-corpus fixture: MUST fire rrtcp-smallfn-inline.
// EXPECT: rrtcp-smallfn-inline
//
// A merge that schedules one event per pending packet, moving the packet
// member of a struct declared in a header into the capture: the shape
// the sharded merge had before packets in flight moved into
// net::DelayLine. Nothing in this file names the member's type, so the
// checker must take it from smallfn_inline_member.hpp.
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "smallfn_inline_member.hpp"

namespace corpus {

void merge(rrtcp::sim::Simulator& sim, std::vector<Pending>& scratch) {
  for (Pending& p : scratch) {
    const rrtcp::sim::Time at = rrtcp::sim::Time::picoseconds(p.arrival_ps);
    rrtcp::net::Node* dst = p.dst;
    sim.schedule_at(at, [dst, pkt = std::move(p.pkt)]() mutable {
      dst->receive(std::move(pkt));
    });  // init-capture copies the packet member
  }
}

void merge_through_pointer(rrtcp::sim::Simulator& sim, Pending* p) {
  sim.schedule_in(rrtcp::sim::Time::milliseconds(1),
                  [pkt = p->pkt] { (void)pkt.uid; });  // a copy as well
}

}  // namespace corpus
