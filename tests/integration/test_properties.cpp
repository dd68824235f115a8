// Property-style parameterized sweeps: for every (variant, loss-rate, seed)
// combination, run a full transfer through the simulated network and check
// the invariants that must hold regardless of congestion-control details.
#include <gtest/gtest.h>

#include <tuple>

#include "scenario.hpp"

namespace rrtcp::test {
namespace {

using app::Variant;

using SweepParam = std::tuple<Variant, double /*loss*/, std::uint64_t /*seed*/>;

class LossSweep : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, LossSweep,
    ::testing::Combine(::testing::ValuesIn(app::kExtendedVariants),
                       ::testing::Values(0.005, 0.02, 0.08),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      char buf[64];
      std::snprintf(
          buf, sizeof buf, "%s_p%d_s%llu",
          app::to_string(std::get<0>(info.param)),
          static_cast<int>(std::get<1>(info.param) * 1000),
          static_cast<unsigned long long>(std::get<2>(info.param)));
      return std::string(buf);
    });

TEST_P(LossSweep, ReliableInOrderDeliveryUnderRandomLoss) {
  const auto& [variant, rate, seed] = GetParam();
  ScenarioConfig cfg;
  cfg.variant = variant;
  cfg.bytes = 100'000;
  cfg.buffer_packets = 50;
  cfg.horizon = sim::Time::seconds(1200);  // generous: high loss is slow
  cfg.make_loss = [rate_ = rate, seed_ = seed] {
    return std::make_unique<net::UniformLossModel>(rate_, seed_);
  };
  auto r = run_scenario(cfg);
  ASSERT_TRUE(r.flows[0].complete)
      << "transfer did not finish within the horizon";
  // Exactness: every byte delivered in order, none invented.
  EXPECT_EQ(r.flows[0].rcv_bytes, 100'000u);
  // Conservation: 100 first transmissions, and at least one retransmission
  // per loss-model drop of this flow's data.
  EXPECT_EQ(r.flows[0].stats.data_packets_sent, 100u);
  EXPECT_GE(r.flows[0].stats.retransmissions + r.flows[0].stats.timeouts,
            r.loss_model_drops > 0 ? 1u : 0u);
}

// Network-level invariants sampled while a transfer runs.
class QueueInvariants : public ::testing::TestWithParam<Variant> {};

INSTANTIATE_TEST_SUITE_P(Variants, QueueInvariants,
                         ::testing::ValuesIn(app::kExtendedVariants),
                         [](const auto& info) {
                           return app::to_string(info.param);
                         });

TEST_P(QueueInvariants, OccupancyBoundedAndFlightCapped) {
  tcp::TcpConfig tcfg;
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(30);
  spec.bottleneck = harness::QueueSpec::drop_tail(8);
  spec.add_flows(2, {.variant = GetParam(), .tcp = tcfg});
  harness::Scenario sc{spec};
  sim::Simulator& sim = sc.sim();
  net::QueueDisc& bottleneck = sc.topology().bottleneck().queue();

  // Sample invariants every 10 ms of simulated time.
  bool violated = false;
  std::function<void()> probe = [&] {
    if (bottleneck.len_packets() > 8) violated = true;
    for (int i = 0; i < sc.n_flows(); ++i) {
      const tcp::TcpSenderBase& f = sc.sender(i);
      if (f.flight_bytes() >
          tcfg.max_window_pkts * static_cast<std::uint64_t>(tcfg.mss))
        violated = true;
      if (f.snd_una() > f.snd_nxt()) violated = true;
    }
    if (sim.now() < sim::Time::seconds(30))
      sim.schedule_in(sim::Time::milliseconds(10), probe);
  };
  sim.schedule_at(sim::Time::zero(), probe);
  sc.run();
  EXPECT_FALSE(violated);
  // Both flows made progress.
  for (int i = 0; i < sc.n_flows(); ++i)
    EXPECT_GT(sc.flow(i).receiver->bytes_in_order(), 100'000u);
}

TEST_P(QueueInvariants, CumulativeAckMonotone) {
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(20);
  spec.add_flow({.variant = GetParam()});
  harness::Scenario sc{spec};

  struct Monotone : tcp::SenderObserver {
    std::uint64_t last = 0;
    bool ok = true;
    void on_ack(sim::Time, std::uint64_t ack, bool dup) override {
      if (!dup) {
        if (ack < last) ok = false;
        last = ack;
      }
    }
  } mono;
  sc.sender(0).add_observer(&mono);
  sc.run();
  sc.sender(0).remove_observer(&mono);
  EXPECT_TRUE(mono.ok);
}

// Two same-variant flows with equal RTTs should converge to a reasonable
// bandwidth split (AIMD fairness); RR claims to preserve this.
class Fairness : public ::testing::TestWithParam<Variant> {};

INSTANTIATE_TEST_SUITE_P(Variants, Fairness,
                         ::testing::ValuesIn(app::kAllVariants),
                         [](const auto& info) {
                           return app::to_string(info.param);
                         });

TEST_P(Fairness, TwoFlowsShareWithinFactorOfThree) {
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(120);
  spec.bottleneck = harness::QueueSpec::drop_tail(20);
  spec.add_flows(2, {.variant = GetParam()}, sim::Time::milliseconds(100));
  harness::Scenario sc{spec};
  sc.run();
  const double a = static_cast<double>(sc.flow(0).receiver->bytes_in_order());
  const double b = static_cast<double>(sc.flow(1).receiver->bytes_in_order());
  EXPECT_GT(a, 0);
  EXPECT_GT(b, 0);
  const double ratio = a > b ? a / b : b / a;
  EXPECT_LT(ratio, 3.0) << "a=" << a << " b=" << b;
  // And together they should use most of the 0.8 Mbps pipe over 120 s.
  EXPECT_GT(a + b, 0.7 * (800'000.0 / 8) * 120);
}

}  // namespace
}  // namespace rrtcp::test
