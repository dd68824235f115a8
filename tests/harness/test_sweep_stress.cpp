// Multi-producer stress test for the sweep harness — the scenario the
// RRTCP_SANITIZE_THREAD CI job runs under TSan. Every worker thread builds
// complete audited simulations concurrently: each job owns a simulator, a
// dumbbell, and an AuditSession (which installs/restores the thread-local
// assert-context hook), so races in the harness, the RNG seeding, or the
// audit layer's thread-local handoff surface here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/result_sink.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "net/loss_model.hpp"

namespace rrtcp::harness {
namespace {

// One job = one fully audited mini-experiment: RR over the dumbbell with
// seed-dependent random loss, recording violations and final progress.
std::vector<SweepJob> make_audited_jobs(std::size_t n) {
  std::vector<SweepJob> jobs;
  for (std::size_t j = 0; j < n; ++j) {
    jobs.push_back(
        {"audited=" + std::to_string(j), [](const JobContext& ctx) {
           ScenarioSpec spec;
           spec.horizon = sim::Time::seconds(5);
           spec.instruments.tracers = false;
           spec.instruments.audit = AuditMode::kRecord;
           spec.add_flow({.variant = app::Variant::kRr});
           Scenario sc{spec};
           sc.topology().bottleneck().set_loss_model(
               std::make_unique<net::UniformLossModel>(0.02, ctx.seed));
           sc.run();
           return Record{}
               .set("seed", ctx.seed)
               .set("acked", sc.sender(0).stats().bytes_acked)
               .set("rtx", sc.sender(0).stats().retransmissions)
               .set("violations", sc.instrumentation().audit_violations());
         }});
  }
  return jobs;
}

TEST(SweepStress, ConcurrentAuditedSimulationsAreCleanAndDeterministic) {
  const auto jobs = make_audited_jobs(24);
  std::string baseline;
  // Serial once for the reference output, then two saturated runs: the
  // parallel results must be byte-identical and violation-free.
  for (int threads : {1, 8, 8}) {
    ResultSink sink{jobs.size()};
    SweepOptions opts;
    opts.threads = threads;
    opts.base_seed = 1234;
    run_sweep(jobs, sink, opts);
    ASSERT_TRUE(sink.complete());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(sink.record(i).get("violations"), "0") << "job " << i;
      EXPECT_NE(sink.record(i).get("acked"), "0") << "job " << i;
    }
    if (baseline.empty())
      baseline = sink.to_csv();
    else
      EXPECT_EQ(sink.to_csv(), baseline);
  }
}

}  // namespace
}  // namespace rrtcp::harness
