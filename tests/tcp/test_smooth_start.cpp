// Smooth-Start (paper reference [21], implemented as a TcpConfig knob):
// slow-start growth halves through the upper half of the slow-start
// region, reducing the overshoot burst into the bottleneck queue.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "app/flow_factory.hpp"
#include "app/ftp.hpp"
#include "net/drop_tail.hpp"
#include "tcp/tahoe.hpp"
#include "topo/graph.hpp"
#include "topo/presets.hpp"

namespace rrtcp::tcp {
namespace {

using test::SenderHarness;

TEST(SmoothStart, FullRateBelowHalfSsthresh) {
  TcpConfig cfg;
  cfg.init_cwnd_pkts = 1;
  cfg.init_ssthresh_pkts = 16;
  cfg.smooth_start = true;
  SenderHarness<TahoeSender> h{cfg};
  h.sender().start();
  // Below ssthresh/2 (8 packets) growth is the classic +1 per ACK.
  for (int i = 1; i <= 6; ++i) h.ack(i * 1000);
  EXPECT_EQ(h.sender().cwnd_packets(), 7.0);
}

TEST(SmoothStart, HalfRateInSmoothingRegion) {
  TcpConfig cfg;
  cfg.init_cwnd_pkts = 8;  // start exactly at ssthresh/2
  cfg.init_ssthresh_pkts = 16;
  cfg.smooth_start = true;
  SenderHarness<TahoeSender> h{cfg};
  h.sender().start();
  // Four ACKs grow the window by two packets, not four.
  for (int i = 1; i <= 4; ++i) h.ack(i * 1000);
  EXPECT_EQ(h.sender().cwnd_packets(), 10.0);
  EXPECT_EQ(h.sender().phase(), TcpPhase::kSlowStart);
}

TEST(SmoothStart, OffByDefaultKeepsClassicDoubling) {
  TcpConfig cfg;
  cfg.init_cwnd_pkts = 8;
  cfg.init_ssthresh_pkts = 16;
  SenderHarness<TahoeSender> h{cfg};
  h.sender().start();
  for (int i = 1; i <= 4; ++i) h.ack(i * 1000);
  EXPECT_EQ(h.sender().cwnd_packets(), 12.0);
}

TEST(SmoothStart, ReducesSlowStartOvershootDrops) {
  // One flow against the paper's 8-packet drop-tail buffer: the smoothed
  // ramp must overshoot by less, i.e. lose fewer packets in the initial
  // slow-start burst.
  auto drops_with = [](bool smooth) {
    sim::Simulator sim;
    const topo::MultiDumbbellLayout md =
        topo::multi_dumbbell({.n_senders = 1, .m_receivers = 1});
    topo::TopologyGraph g{sim, md.spec};  // drop-tail 8
    TcpConfig tcfg;
    tcfg.smooth_start = smooth;
    auto flow = app::make_flow(app::Variant::kRr, sim, g.node(md.senders[0]),
                               g.node(md.receivers[0]), 1, tcfg);
    app::FtpSource src{sim, *flow.sender, sim::Time::zero(), std::nullopt};
    sim.run_until(sim::Time::seconds(5));  // the start-up phase
    return g.link(md.bottleneck_link).queue().stats().dropped;
  };
  EXPECT_LE(drops_with(true), drops_with(false));
}

}  // namespace
}  // namespace rrtcp::tcp
