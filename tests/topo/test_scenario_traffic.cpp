// Scenario-level cross-traffic behavior: CBR load costs goodput but never
// breaks protocol invariants, reverse bulk flows congest the ACK path for
// real, and graph-mode (parking lot) scenarios stay deterministic and
// audit-clean.
#include <cstdint>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "harness/scenario.hpp"
#include "net/drop_tail.hpp"
#include "topo/presets.hpp"

namespace rrtcp {
namespace {

tcp::TcpConfig tuned_tcp() {
  tcp::TcpConfig tcfg;
  tcfg.max_window_pkts = 20;
  tcfg.init_ssthresh_pkts = 20;
  return tcfg;
}

harness::ScenarioSpec cbr_spec(double load) {
  harness::ScenarioSpec spec;
  spec.name = "cbr-test";
  spec.seed = 5;
  spec.horizon = sim::Time::seconds(10);
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.add_flow({.variant = app::Variant::kNewReno, .tcp = tuned_tcp()});
  if (load > 0) spec.add_cbr({.load_fraction = load});
  return spec;
}

double goodput_kbps(harness::Scenario& sc) {
  return sc.instruments(0).meter->throughput_bps(sim::Time::zero(),
                                                 sc.spec().horizon) /
         1e3;
}

TEST(ScenarioCbr, UnresponsiveLoadCostsGoodput) {
  harness::Scenario clean{cbr_spec(0.0)};
  harness::Scenario loaded{cbr_spec(0.5)};
  clean.run();
  loaded.run();

  EXPECT_EQ(clean.n_cbr(), 0);
  ASSERT_EQ(loaded.n_cbr(), 1);
  // The CBR stream claims real bottleneck share: it delivers bytes, and
  // the TCP flow keeps clearly less than its clean-path goodput.
  EXPECT_GT(loaded.cbr_sink(0).bytes_received(), 0u);
  EXPECT_LT(goodput_kbps(loaded), 0.8 * goodput_kbps(clean));
  // CBR claims at most its configured fraction (400 kbit/s here).
  EXPECT_LE(loaded.cbr(0).bytes_sent() * 8.0 / 10.0, 400'000.0 * 1.01);
}

TEST(ScenarioCbr, AuditStaysCleanUnderCbrLoad) {
  // kCbr packets are not "data" to the audit layer: bottleneck CBR drops
  // must not show up as TCP pipe-conservation violations.
  harness::Scenario sc{cbr_spec(0.5)};
  sc.run();
  EXPECT_GT(sc.topology().bottleneck().queue().stats().dropped, 0u);
  EXPECT_EQ(sc.instrumentation().audit_violations(), 0u);
}

TEST(ScenarioReverse, BulkFlowCongestsTheAckPath) {
  harness::ScenarioSpec spec;
  spec.name = "ackpath-test";
  spec.seed = 5;
  spec.horizon = sim::Time::seconds(10);
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.reverse_bottleneck = harness::QueueSpec::drop_tail(8);
  spec.add_flow({.variant = app::Variant::kNewReno, .tcp = tuned_tcp()});
  spec.add_flow({.variant = app::Variant::kNewReno, .tcp = tuned_tcp(),
                 .reverse = true});
  harness::Scenario sc{spec};
  sc.run();

  // The reverse bulk flow's DATA shares the 8-packet reverse buffer with
  // flow 0's ACKs: the queue drops for real, yet both flows make progress
  // and no protocol invariant breaks.
  EXPECT_GT(sc.topology().reverse_bottleneck().queue().stats().dropped, 0u);
  EXPECT_GT(sc.sender(0).snd_una(), 0u);
  EXPECT_GT(sc.sender(1).snd_una(), 0u);
  EXPECT_EQ(sc.instrumentation().audit_violations(), 0u);
}

TEST(ScenarioReverse, ReverseQueueSpecReplacesTheDeepDefault) {
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(1);
  spec.reverse_bottleneck = harness::QueueSpec::drop_tail(8);
  spec.add_flow({.variant = app::Variant::kNewReno});
  harness::Scenario sc{spec};
  auto* dt = dynamic_cast<net::DropTailQueue*>(
      &sc.topology().reverse_bottleneck().queue());
  ASSERT_NE(dt, nullptr);
  EXPECT_EQ(dt->capacity(), 8u);
  EXPECT_EQ(sc.reverse_red(), nullptr);
}

TEST(ScenarioReverse, RedReverseBottleneckIsExposed) {
  net::RedConfig rc;
  rc.mean_pkt_tx = sim::Time::transmission(1000, 800'000);
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(1);
  spec.reverse_bottleneck = harness::QueueSpec::red_queue(rc);
  spec.add_flow({.variant = app::Variant::kNewReno});
  harness::Scenario sc{spec};
  EXPECT_NE(sc.reverse_red(), nullptr);
  EXPECT_EQ(sc.red(), nullptr);  // forward bottleneck stayed drop-tail
}

// ScenarioSpec's default QueueSpec is the paper's 8-packet drop-tail
// bottleneck buffer.
TEST(Dumbbell, DefaultBottleneckQueueIsEightPackets) {
  harness::ScenarioSpec spec;
  // The packets enqueued below come from no sender: audit off.
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.add_flow({});
  harness::Scenario sc{spec};
  net::QueueDisc& q = sc.topology().bottleneck().queue();
  for (int i = 0; i < 12; ++i) q.enqueue(test::make_data(1, i * 1000, 1000));
  EXPECT_EQ(q.len_packets(), 8u);  // Table 3: buffer size 8 packets
}

harness::ScenarioSpec parking_lot_spec(std::uint64_t seed, int hops) {
  topo::ParkingLotConfig plc;
  plc.n_bottlenecks = hops;
  const topo::ParkingLotLayout lay = topo::parking_lot(plc);

  harness::ScenarioSpec spec;
  spec.name = "parkinglot-test";
  spec.seed = seed;
  spec.horizon = sim::Time::seconds(10);
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.graph = lay.spec;
  spec.audited_links.assign(lay.bottleneck_links.begin(),
                            lay.bottleneck_links.end());
  spec.add_flow({.variant = app::Variant::kRr, .tcp = tuned_tcp(),
                 .src_node = lay.long_src, .dst_node = lay.long_dst});
  for (int i = 0; i < hops; ++i)
    spec.add_cbr({.rate_bps = 200'000,
                  .src_node = lay.cross_src[static_cast<std::size_t>(i)],
                  .dst_node = lay.cross_dst[static_cast<std::size_t>(i)]});
  return spec;
}

TEST(ScenarioGraph, ParkingLotRunsAndStaysAuditClean) {
  harness::Scenario sc{parking_lot_spec(5, 3)};
  sc.run();

  EXPECT_EQ(sc.n_cbr(), 3);
  EXPECT_GT(sc.sender(0).snd_una(), 0u);
  for (int i = 0; i < sc.n_cbr(); ++i)
    EXPECT_GT(sc.cbr_sink(i).bytes_received(), 0u);
  EXPECT_EQ(sc.instrumentation().audit_violations(), 0u);
}

TEST(ScenarioGraph, ParkingLotIsDeterministic) {
  harness::Scenario a{parking_lot_spec(11, 2)};
  harness::Scenario b{parking_lot_spec(11, 2)};
  a.run();
  b.run();
  EXPECT_EQ(a.sender(0).stats().data_packets_sent,
            b.sender(0).stats().data_packets_sent);
  EXPECT_EQ(a.sender(0).stats().retransmissions,
            b.sender(0).stats().retransmissions);
  EXPECT_EQ(a.sender(0).snd_una(), b.sender(0).snd_una());
  for (int i = 0; i < a.n_cbr(); ++i)
    EXPECT_EQ(a.cbr_sink(i).packets_received(),
              b.cbr_sink(i).packets_received());
}

// A dumbbell spec is shorthand for a multi_dumbbell(n, n) graph spec:
// written out by hand, the same scenario — RED bottleneck, a reverse bulk
// flow, a CBR stream sized as a load fraction — runs identically.
TEST(DumbbellSpec, MatchesTheSameScenarioWrittenAsAGraph) {
  net::RedConfig rc;
  rc.mean_pkt_tx = sim::Time::transmission(1000, 800'000);
  harness::ScenarioSpec dumbbell;
  dumbbell.seed = 9;
  dumbbell.horizon = sim::Time::seconds(8);
  dumbbell.instruments.audit = harness::AuditMode::kRecord;
  dumbbell.bottleneck = harness::QueueSpec::red_queue(rc);
  dumbbell.add_flow({.variant = app::Variant::kRr, .tcp = tuned_tcp()});
  dumbbell.add_flow({.variant = app::Variant::kNewReno, .tcp = tuned_tcp(),
                     .reverse = true});
  dumbbell.add_flow({.variant = app::Variant::kSack,
                     .start = sim::Time::milliseconds(300),
                     .tcp = tuned_tcp()});
  dumbbell.add_cbr({.load_fraction = 0.25});

  harness::ScenarioSpec graph = dumbbell;
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = 4;
  mdc.m_receivers = 4;
  net::RedConfig seeded = rc;
  seeded.seed = graph.seed;
  mdc.make_bottleneck_queue = [seeded](sim::Simulator& s) {
    return std::make_unique<net::RedQueue>(s, seeded);
  };
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);
  graph.graph = md.spec;
  graph.audited_links = {md.bottleneck_link, md.reverse_bottleneck_link};
  auto place = [&md](auto& x, int pair, bool reverse) {
    const int s = md.senders[static_cast<std::size_t>(pair)];
    const int k = md.receivers[static_cast<std::size_t>(pair)];
    x.src_node = reverse ? k : s;
    x.dst_node = reverse ? s : k;
  };
  for (int i = 0; i < 3; ++i)
    place(graph.flows[static_cast<std::size_t>(i)], i, i == 1);
  place(graph.cross_traffic[0], 3, false);
  graph.cross_traffic[0].rate_bps = 200'000;  // 0.25 x 800 kbit/s

  harness::Scenario a{dumbbell};
  harness::Scenario b{graph};
  a.run();
  b.run();
  ASSERT_NE(a.red(), nullptr);
  EXPECT_GT(a.red()->early_drops(), 0u);
  for (int i = 0; i < 3; ++i) {
    const tcp::SenderStats& sa = a.sender(i).stats();
    const tcp::SenderStats& sb = b.sender(i).stats();
    EXPECT_GT(a.sender(i).snd_una(), 0u) << "flow " << i;
    EXPECT_EQ(a.sender(i).snd_una(), b.sender(i).snd_una()) << "flow " << i;
    EXPECT_EQ(sa.data_packets_sent, sb.data_packets_sent) << "flow " << i;
    EXPECT_EQ(sa.retransmissions, sb.retransmissions) << "flow " << i;
    EXPECT_EQ(sa.timeouts, sb.timeouts) << "flow " << i;
    EXPECT_EQ(a.flow(i).receiver->bytes_in_order(),
              b.flow(i).receiver->bytes_in_order())
        << "flow " << i;
  }
  EXPECT_GT(a.cbr_sink(0).packets_received(), 0u);
  EXPECT_EQ(a.cbr_sink(0).packets_received(), b.cbr_sink(0).packets_received());
  for (int l = 0; l < 2; ++l)
    EXPECT_EQ(a.graph().link(l).queue().stats().dropped,
              b.graph().link(l).queue().stats().dropped)
        << "link " << l;
  EXPECT_EQ(a.instrumentation().audit_violations(), 0u);
  EXPECT_EQ(b.instrumentation().audit_violations(), 0u);
}

// topology() is the dumbbell view; a graph-mode scenario has no dumbbell
// to show, and says so instead of handing out arbitrary links.
TEST(ScenarioGraphDeathTest, TopologyViewNeedsADumbbellSpec) {
  harness::Scenario sc{parking_lot_spec(5, 1)};
  EXPECT_DEATH(sc.topology(), "dumbbell-mode spec");
}

}  // namespace
}  // namespace rrtcp
