// Chaos soak harness tests: healthy variants degrade gracefully under
// seeded fault schedules (zero dead flows, zero audit violations, zero
// watchdog reports), results are byte-identical across worker counts, and
// an intentionally broken sender pushed through the identical harness path
// is caught by the specific liveness checks the soak arms.
#include "harness/chaos_sweep.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broken_liveness_senders.hpp"
#include "harness/result_sink.hpp"
#include "harness/sweep.hpp"
#include "tcp/receiver.hpp"

namespace rrtcp::harness {
namespace {

using sim::Time;

ChaosSoakOptions small_soak(int schedules) {
  ChaosSoakOptions opts;
  opts.n_schedules = schedules;
  return opts;
}

std::string run_soak_csv(const ChaosSoakOptions& opts, int threads) {
  const std::vector<SweepJob> jobs = make_chaos_jobs(opts, /*seed=*/1);
  ResultSink sink{jobs.size()};
  SweepOptions sweep;
  sweep.threads = threads;
  sweep.base_seed = 1;
  run_sweep(jobs, sink, sweep);
  return sink.to_csv();
}

TEST(ChaosSoak, HealthyVariantsDegradeGracefully) {
  const ChaosSoakOptions opts = small_soak(6);
  const std::vector<SweepJob> jobs = make_chaos_jobs(opts, /*seed=*/1);
  ResultSink sink{jobs.size()};
  SweepOptions sweep;
  sweep.base_seed = 1;
  run_sweep(jobs, sink, sweep);
  ASSERT_EQ(sink.size(), 6u * 4u);
  for (std::size_t i = 0; i < sink.size(); ++i) {
    const Record& row = sink.record(i);
    EXPECT_EQ(row.get("graceful"), "1")
        << row.get("id") << " plan " << row.get("plan") << ": dead="
        << row.get("dead") << " violations=" << row.get("audit_violations")
        << " watchdog=" << row.get("watchdog_reports");
    EXPECT_EQ(row.get("dead"), "0");
  }
}

TEST(ChaosSoak, CsvIsByteIdenticalAcrossThreadCounts) {
  const ChaosSoakOptions opts = small_soak(3);
  EXPECT_EQ(run_soak_csv(opts, 1), run_soak_csv(opts, 4));
}

TEST(ChaosSoak, VariantsOfOneScheduleShareThePlan) {
  const ChaosSoakOptions opts = small_soak(2);
  const std::vector<SweepJob> jobs = make_chaos_jobs(opts, /*seed=*/1);
  ResultSink sink{jobs.size()};
  SweepOptions sweep;
  sweep.base_seed = 1;
  run_sweep(jobs, sink, sweep);
  // Rows are schedule-major: all four variants of a schedule carry the
  // identical plan seed and description (the differential property).
  for (std::size_t i = 0; i < sink.size(); i += 4) {
    for (std::size_t j = 1; j < 4; ++j) {
      EXPECT_EQ(sink.record(i).get("plan_seed"), sink.record(i + j).get("plan_seed"));
      EXPECT_EQ(sink.record(i).get("plan"), sink.record(i + j).get("plan"));
    }
  }
  // Different schedules draw different plans.
  EXPECT_NE(sink.record(0).get("plan_seed"), sink.record(4).get("plan_seed"));
}

TEST(ChaosSoak, BrokenSenderIsCaughtThroughTheFullHarness) {
  // One flow whose sender never re-arms its RTO, pushed through the exact
  // soak path (dumbbell, injectors, audit, watchdog) under a mid-transfer
  // data outage long enough to eat an entire window: without the escape
  // hatch the flow dies, and the soak must say so — specifically.
  chaos::FaultSpec outage;
  outage.kind = chaos::FaultKind::kOutage;
  outage.path = chaos::FaultPath::kData;
  outage.start = Time::milliseconds(500);
  outage.duration = Time::seconds(2);

  ChaosRunConfig cfg;
  cfg.n_flows = 1;
  cfg.bytes_per_flow = 2'000'000;
  cfg.horizon = Time::seconds(30);
  ScenarioSpec spec = chaos_spec(cfg);
  spec.flow_maker = [](sim::Simulator& sim, net::Node& snd, net::Node& rcv,
                       net::FlowId flow, const FlowSpec& fs) {
    app::Flow f;
    f.sender = std::make_unique<test::DeadRtoSender>(sim, snd, flow, rcv.id(),
                                                     fs.tcp);
    tcp::ReceiverConfig rcfg;
    rcfg.ack_bytes = fs.tcp.ack_bytes;
    f.receiver =
        std::make_unique<tcp::TcpReceiver>(sim, rcv, flow, snd.id(), rcfg);
    return f;
  };

  std::vector<chaos::WatchdogReport> reports;
  std::vector<audit::Violation> violations;
  const ChaosRunOutcome out =
      run_chaos_schedule(chaos::FaultPlan{{outage}}, /*seed=*/11,
                         std::move(spec), &reports, &violations);

  EXPECT_FALSE(out.graceful);
  EXPECT_EQ(out.flows_dead, 1);
  EXPECT_EQ(out.flows_complete, 0);

  std::size_t silent_death = 0;
  for (const chaos::WatchdogReport& r : reports)
    if (r.id == chaos::WatchdogReportId::kSilentDeath) ++silent_death;
  EXPECT_GE(silent_death, 1u);

  std::size_t rto_armed = 0;
  for (const audit::Violation& v : violations)
    if (v.id == audit::InvariantId::kRtoArmed) ++rto_armed;
  EXPECT_GE(rto_armed, 1u);
}

TEST(ChaosSoak, HealthyControlSurvivesTheSameOutage) {
  // The identical schedule with the real RR sender recovers via RTO: no
  // dead flow, no report — the broken-sender catch above is not an
  // artifact of the outage itself.
  chaos::FaultSpec outage;
  outage.kind = chaos::FaultKind::kOutage;
  outage.path = chaos::FaultPath::kData;
  outage.start = Time::milliseconds(500);
  outage.duration = Time::seconds(2);

  ChaosRunConfig cfg;
  cfg.variant = app::Variant::kRr;
  cfg.n_flows = 1;
  cfg.bytes_per_flow = 2'000'000;
  cfg.horizon = Time::seconds(60);

  const ChaosRunOutcome out = run_chaos_schedule(
      chaos::FaultPlan{{outage}}, /*seed=*/11, chaos_spec(cfg));
  EXPECT_TRUE(out.graceful) << "dead=" << out.flows_dead
                            << " violations=" << out.audit_violations
                            << " watchdog=" << out.watchdog_reports;
  EXPECT_GE(out.timeouts, 1u);  // the escape hatch actually fired
}

}  // namespace
}  // namespace rrtcp::harness
