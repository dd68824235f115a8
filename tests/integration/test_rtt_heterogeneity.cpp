// Heterogeneous-RTT scenarios: AIMD's known bias toward short-RTT flows,
// and reordering robustness — exercising the per-flow access-delay and
// reorder-injection features of the substrate.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "scenario.hpp"
#include "topo/presets.hpp"

namespace rrtcp::test {
namespace {

using app::Variant;

// Sets the one-way delay of both access links of `host` (the only links
// touching it): heterogeneous RTTs as an edit of the resolved dumbbell.
void set_access_delay(topo::GraphSpec& g, int host, sim::Time delay) {
  for (topo::LinkSpec& l : g.links)
    if (l.from == host || l.to == host) l.delay = delay;
}

class RttBias : public ::testing::TestWithParam<Variant> {};

INSTANTIATE_TEST_SUITE_P(Variants, RttBias,
                         ::testing::ValuesIn(app::kAllVariants),
                         [](const auto& info) {
                           return app::to_string(info.param);
                         });

TEST_P(RttBias, ShortRttFlowGetsAtLeastItsShare) {
  // Flow 0: base RTT ~200 ms. Flow 1: +200 ms access delay (~600 ms RTT).
  // AIMD grows per-RTT, so the short-RTT flow must end up with at least
  // half the bandwidth — typically much more. Both must still progress.
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(120);
  spec.bottleneck = harness::QueueSpec::drop_tail(20);
  spec.add_flows(2, {.variant = GetParam()});
  harness::ScenarioSpec resolved = harness::Scenario::resolve(spec);
  set_access_delay(resolved.graph, resolved.flows[1].src_node,
                   sim::Time::milliseconds(200));
  harness::Scenario sc{resolved};
  sc.run();

  const double fast = static_cast<double>(sc.flow(0).receiver->bytes_in_order());
  const double slow = static_cast<double>(sc.flow(1).receiver->bytes_in_order());
  EXPECT_GE(fast, slow) << "short-RTT flow must not lose to the long one";
  EXPECT_GT(slow, 0.05 * fast) << "long-RTT flow must not starve";
}

class ReorderRobust : public ::testing::TestWithParam<Variant> {};

INSTANTIATE_TEST_SUITE_P(Variants, ReorderRobust,
                         ::testing::ValuesIn(app::kExtendedVariants),
                         [](const auto& info) {
                           return app::to_string(info.param);
                         });

TEST_P(ReorderRobust, DeliversEverythingUnderReordering) {
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(120);
  spec.bottleneck = harness::QueueSpec::drop_tail(100);
  spec.add_flow({.variant = GetParam(), .bytes = 100'000});
  harness::Scenario sc{spec};
  sc.topology().bottleneck().set_reorder_model(
      std::make_unique<net::ReorderModel>(0.1, sim::Time::milliseconds(150),
                                          5));
  sc.run();

  const tcp::TcpSenderBase& sender = sc.sender(0);
  ASSERT_TRUE(sender.complete());
  EXPECT_EQ(sc.flow(0).receiver->bytes_in_order(), 100'000u);
  // No data was lost, so any retransmissions were spurious (reordering
  // mistaken for loss) — tolerated, but bounded.
  EXPECT_LT(sender.stats().retransmissions, 40u);
  EXPECT_EQ(sender.stats().timeouts, 0u);
}

TEST(RttBias, PerFlowDelayChangesPacketTiming) {
  sim::Simulator sim;
  topo::MultiDumbbellLayout md =
      topo::multi_dumbbell({.n_senders = 2, .m_receivers = 2});
  set_access_delay(md.spec, md.senders[1], sim::Time::milliseconds(50));
  topo::TopologyGraph g{sim, md.spec};
  net::Node& s1 = g.node(md.senders[0]);
  net::Node& s2 = g.node(md.senders[1]);
  net::Node& k1 = g.node(md.receivers[0]);
  net::Node& k2 = g.node(md.receivers[1]);

  struct StampAgent final : net::Agent {
    sim::Simulator& sim;
    sim::Time arrived = sim::Time::zero();
    explicit StampAgent(sim::Simulator& s) : sim{s} {}
    void receive(net::Packet) override { arrived = sim.now(); }
  } a0{sim}, a1{sim};
  k1.attach_agent(10, &a0);
  k2.attach_agent(11, &a1);

  s1.inject(test::make_data(10, 0, 1000, k1.id()));
  s2.inject(test::make_data(11, 0, 1000, k2.id()));
  sim.run();
  // Flow 1's access link adds exactly 50 ms of one-way propagation.
  EXPECT_EQ(a1.arrived - a0.arrived, sim::Time::milliseconds(50));
}

}  // namespace
}  // namespace rrtcp::test
