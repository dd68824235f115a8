// Lint-corpus fixture: MUST fire rrtcp-smallfn-inline.
// EXPECT: rrtcp-smallfn-inline
//
// A schedule call whose lambda captures a 512-byte buffer by value. It
// compiles (SmallFn falls back to the heap and counts it), but the event
// no longer fits the 160-byte inline budget — the scheduler would
// allocate on every such schedule, which is exactly what the check turns
// into a diagnostic at the call site.
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace corpus {

void arm_oversized(rrtcp::sim::Simulator& sim) {
  char blob[512] = {};
  sim.schedule_in(rrtcp::sim::Time::milliseconds(1),
                  [blob] { (void)blob[0]; });  // 512B capture > 160B budget
}

void arm_oversized_reserved(rrtcp::sim::Simulator& sim) {
  char blob[512] = {};
  const auto seq = sim.reserve_seq();
  sim.schedule_reserved(rrtcp::sim::Time::milliseconds(1), seq,
                        [blob] { (void)blob[0]; });  // same, reserved key
}

}  // namespace corpus
