#include "harness/chaos_sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "sim/assert.hpp"

namespace rrtcp::harness {

ScenarioSpec chaos_spec(const ChaosRunConfig& cfg) {
  RRTCP_ASSERT(cfg.n_flows >= 1);
  ScenarioSpec spec;
  spec.name = "chaos";
  spec.bottleneck = QueueSpec::drop_tail(cfg.buffer_packets);
  spec.horizon = cfg.horizon;
  spec.add_flows(cfg.n_flows,
                 {.variant = cfg.variant,
                  .bytes = cfg.bytes_per_flow,
                  .tcp = cfg.tcp},
                 cfg.start_stagger);
  // kRecord audit mode: the soak inspects counts in every build
  // configuration. No per-flow tracers — the soak grades outcomes, not
  // throughput curves.
  spec.instruments.tracers = false;
  spec.instruments.audit = AuditMode::kRecord;
  spec.instruments.watchdog = true;
  spec.instruments.watchdog_config = cfg.watchdog;
  return spec;
}

ChaosRunOutcome run_chaos_schedule(const chaos::FaultPlan& plan,
                                   std::uint64_t seed, ScenarioSpec spec,
                                   std::vector<chaos::WatchdogReport>* reports,
                                   std::vector<audit::Violation>* violations) {
  SpecError err;
  const std::unique_ptr<Scenario> sc =
      Scenario::try_build(std::move(spec), &err);
  RRTCP_ASSERT_MSG(sc != nullptr, err.detail.c_str());
  DumbbellView topo = sc->topology();

  // Interpose one injector per direction; each applies its path's subset
  // of the plan. Both draw from the same plan seed via distinct stream
  // names, so the pair replays from the single printed number.
  chaos::FaultInjector fwd_injector{sc->sim(), topo.bottleneck(),
                                    plan.subset(chaos::FaultPath::kData), seed,
                                    "chaos-fwd"};
  chaos::FaultInjector rev_injector{sc->sim(), topo.reverse_bottleneck(),
                                    plan.subset(chaos::FaultPath::kAck), seed,
                                    "chaos-rev"};
  chaos::interpose(topo.r1(), topo.bottleneck(), fwd_injector);
  chaos::interpose(topo.r2(), topo.reverse_bottleneck(), rev_injector);

  audit::AuditSession* audit = sc->instrumentation().recording_session();
  chaos::LivenessWatchdog* watchdog = sc->instrumentation().watchdog();
  RRTCP_ASSERT_MSG(audit != nullptr && watchdog != nullptr,
                   "chaos runs need record-mode audit and the watchdog");

  sc->run();

  ChaosRunOutcome out;
  for (int i = 0; i < sc->n_flows(); ++i) {
    const tcp::TcpSenderBase& s = sc->sender(i);
    if (s.complete()) {
      ++out.flows_complete;
      out.last_completion = std::max(out.last_completion, s.completion_time());
    } else if (s.rto_pending()) {
      ++out.flows_alive;  // the escape hatch will fire; recovery continues
    } else {
      ++out.flows_dead;
    }
    out.timeouts += s.stats().timeouts;
    out.retransmissions += s.stats().retransmissions;
  }
  out.fault_drops = fwd_injector.dropped() + rev_injector.dropped();
  out.fault_duplicates = fwd_injector.duplicated() + rev_injector.duplicated();
  out.fault_delays = fwd_injector.delayed() + rev_injector.delayed();
  out.audit_violations = audit->total_violations();
  out.watchdog_reports = watchdog->reports().size();
  out.graceful = out.flows_dead == 0 && out.audit_violations == 0 &&
                 out.watchdog_reports == 0;

  if (reports != nullptr) *reports = watchdog->reports();
  if (violations != nullptr) *violations = audit->violations();
  return out;
}

std::vector<SweepJob> make_chaos_jobs(const ChaosSoakOptions& opts,
                                          std::uint64_t base_seed) {
  RRTCP_ASSERT(opts.n_schedules >= 1);
  RRTCP_ASSERT(!opts.variants.empty());
  std::vector<SweepJob> jobs;
  jobs.reserve(static_cast<std::size_t>(opts.n_schedules) *
               opts.variants.size());
  for (int sched = 0; sched < opts.n_schedules; ++sched) {
    // Plan seed keyed by schedule index: every variant of schedule `sched`
    // replays the byte-identical fault sequence (differential soak).
    const std::uint64_t plan_seed =
        derive_seed(base_seed, static_cast<std::uint64_t>(sched));
    for (const app::Variant v : opts.variants) {
      char id[64];
      std::snprintf(id, sizeof id, "chaos/%03d/%s", sched, app::to_string(v));
      SweepJob spec;
      spec.id = id;
      spec.run = [opts, sched, plan_seed, v](const JobContext&) {
        const chaos::FaultPlan plan =
            chaos::make_random_plan(plan_seed, opts.bounds);
        ChaosRunConfig cfg = opts.base;
        cfg.variant = v;
        const ChaosRunOutcome out =
            run_chaos_schedule(plan, plan_seed, chaos_spec(cfg));
        Record row;
        row.set("schedule", sched);
        row.set("variant", app::to_string(v));
        char seed_hex[24];
        std::snprintf(seed_hex, sizeof seed_hex, "0x%016llx",
                      static_cast<unsigned long long>(plan_seed));
        row.set("plan_seed", seed_hex);
        row.set("n_faults", static_cast<int>(plan.faults.size()));
        row.set("plan", plan.describe());
        row.set("complete", out.flows_complete);
        row.set("alive", out.flows_alive);
        row.set("dead", out.flows_dead);
        row.set("timeouts", out.timeouts);
        row.set("rtx", out.retransmissions);
        row.set("fault_drops", out.fault_drops);
        row.set("fault_dups", out.fault_duplicates);
        row.set("fault_delays", out.fault_delays);
        row.set("audit_violations", out.audit_violations);
        row.set("watchdog_reports", out.watchdog_reports);
        row.set("last_completion_s", out.last_completion.to_seconds());
        row.set("graceful", out.graceful);
        return row;
      };
      jobs.push_back(std::move(spec));
    }
  }
  return jobs;
}

}  // namespace rrtcp::harness
