// Chaos soak harness: seeded fault schedules, run differentially across
// sender variants on the parallel sweep pool.
//
// One chaos *schedule* is a FaultPlan drawn from a seed. The soak runs the
// SAME plan against each variant (RR, New-Reno, Tahoe, SACK) so rows are
// directly comparable — the differential view the paper's robustness claim
// needs. Each run arms the full protocol-invariant audit session
// (FailMode::kRecord in every build configuration, not just RRTCP_AUDIT)
// and the liveness watchdog, then asserts graceful degradation:
//
//   * every flow either completes by the horizon or is still alive — its
//     retransmission timer armed, guaranteed to act again;
//   * zero audit violations;
//   * zero watchdog reports (stall / livelock / silent death).
//
// Determinism: a schedule is fully determined by derive_seed(base_seed,
// schedule_index), so a failing row is replayed byte-identically from the
// seed printed in its record (chaos_soak --replay=SEED).
#pragma once

#include <cstdint>
#include <vector>

#include "app/variant.hpp"
#include "audit/invariant_auditor.hpp"
#include "chaos/fault.hpp"
#include "chaos/watchdog.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "tcp/types.hpp"

namespace rrtcp::harness {

// Scenario shape shared by every schedule: a dumbbell with n finite FTP
// flows of one variant, fault injectors interposed on both bottlenecks.
struct ChaosRunConfig {
  app::Variant variant = app::Variant::kRr;
  int n_flows = 2;
  std::uint64_t bytes_per_flow = 100'000;  // Table 5's targeted transfer
  sim::Time start_stagger = sim::Time::milliseconds(300);
  sim::Time horizon = sim::Time::seconds(120.0);
  std::uint64_t buffer_packets = 8;  // Table 3 bottleneck buffer
  tcp::TcpConfig tcp;
  chaos::WatchdogConfig watchdog;
};

struct ChaosRunOutcome {
  int flows_complete = 0;
  int flows_alive = 0;  // incomplete at the horizon, but RTO armed
  int flows_dead = 0;   // incomplete AND nothing scheduled to act
  std::uint64_t timeouts = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  std::uint64_t fault_delays = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t watchdog_reports = 0;
  sim::Time last_completion = sim::Time::zero();
  // The soak verdict: no dead flow, no violation, no watchdog report.
  bool graceful = false;
};

// The ScenarioSpec of one chaos run: the ChaosRunConfig dumbbell with
// record-mode audit and the watchdog armed, no tracers. Tests may set its
// flow_maker to push intentionally broken senders through the identical
// path.
ScenarioSpec chaos_spec(const ChaosRunConfig& cfg);

// Builds `spec` (a chaos_spec, possibly with a flow_maker), interposes the
// plan's fault injectors on both bottlenecks and runs to spec.horizon.
// `seed` feeds the injectors' per-spec streams (use the plan's own seed so
// the whole row replays from one number). Optional outputs receive the
// watchdog reports / audit violations for inspection.
ChaosRunOutcome run_chaos_schedule(
    const chaos::FaultPlan& plan, std::uint64_t seed, ScenarioSpec spec,
    std::vector<chaos::WatchdogReport>* reports = nullptr,
    std::vector<audit::Violation>* violations = nullptr);

struct ChaosSoakOptions {
  int n_schedules = 64;
  std::vector<app::Variant> variants = {app::Variant::kRr,
                                        app::Variant::kNewReno,
                                        app::Variant::kTahoe,
                                        app::Variant::kSack};
  ChaosRunConfig base;  // variant field is overridden per job
  chaos::PlanBounds bounds;
};

// The soak's job grid: n_schedules x variants, in schedule-major order so
// one schedule's rows (same plan, different variants) are adjacent in the
// output. Schedule i's plan seed is derive_seed(base_seed, i) — note:
// keyed by SCHEDULE index, not job index, so all variants of a schedule
// face the byte-identical fault sequence. Each record carries the plan
// seed, its description, and the ChaosRunOutcome fields.
std::vector<SweepJob> make_chaos_jobs(const ChaosSoakOptions& opts,
                                          std::uint64_t base_seed);

}  // namespace rrtcp::harness
