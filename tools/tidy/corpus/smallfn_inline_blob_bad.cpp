// Lint-corpus fixture: MUST fire rrtcp-smallfn-inline.
// EXPECT: rrtcp-smallfn-inline
//
// Schedule calls whose lambdas capture a 40-byte buffer by value. They
// compile (SmallFn falls back to the heap and counts it), but the events
// no longer fit the 16-byte inline budget (sim::kEventInlineBytes) — the
// scheduler would allocate on every such schedule, which is exactly what
// the check turns into a diagnostic at the call site. 40 bytes fit the
// older 80-byte budget, so this fixture also fails if the lint budget
// drifts above the scheduler's.
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace corpus {

void arm_oversized(rrtcp::sim::Simulator& sim) {
  char blob[40] = {};
  sim.schedule_in(rrtcp::sim::Time::milliseconds(1),
                  [blob] { (void)blob[0]; });  // 40B capture > 16B budget
}

void arm_oversized_reserved(rrtcp::sim::Simulator& sim) {
  char blob[40] = {};
  const auto seq = sim.reserve_seq();
  sim.schedule_reserved(rrtcp::sim::Time::milliseconds(1), seq,
                        [blob] { (void)blob[0]; });  // same, reserved key
}

}  // namespace corpus
