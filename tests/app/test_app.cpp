// Tests for the application layer: FTP sources and the flow factory.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "app/flow_factory.hpp"
#include "app/sender_factory.hpp"
#include "app/ftp.hpp"
#include "core/rr_sender.hpp"
#include "net/red.hpp"
#include "tcp/related_work.hpp"
#include "tcp/sack.hpp"
#include "topo/graph.hpp"
#include "topo/presets.hpp"

namespace rrtcp::app {
namespace {

// The paper's dumbbell with n host pairs, straight from the topo preset.
topo::MultiDumbbellLayout dumbbell(int n) {
  return topo::multi_dumbbell({.n_senders = n, .m_receivers = n});
}

TEST(VariantNames, RoundTrip) {
  for (Variant v : kExtendedVariants)
    EXPECT_EQ(variant_from_string(to_string(v)), v);
}

TEST(VariantNames, UnknownThrows) {
  EXPECT_THROW(variant_from_string("cubic"), std::invalid_argument);
  EXPECT_THROW(variant_from_string(""), std::invalid_argument);
  EXPECT_THROW(variant_from_string("RR"), std::invalid_argument);  // case
}

TEST(VariantNames, RegistryPrintsAlphabetically) {
  // --list-variants output is a stable surface: alphabetical, one line
  // per variant, independent of enum registration order.
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  ASSERT_NE(mem, nullptr);
  SenderFactory::instance().print_registry(mem);
  std::fclose(mem);
  const std::string got{buf, len};
  std::free(buf);

  EXPECT_EQ(got,
            "registered TCP sender variants:\n"
            "  linkung    (cumulative-ACK receiver)\n"
            "  newreno    (cumulative-ACK receiver)\n"
            "  reno       (cumulative-ACK receiver)\n"
            "  rightedge  (cumulative-ACK receiver)\n"
            "  rr         (cumulative-ACK receiver)\n"
            "  sack       (SACK receiver)\n"
            "  tahoe      (cumulative-ACK receiver)\n");
}

TEST(FlowFactory, BuildsTheRightSenderType) {
  sim::Simulator sim;
  const topo::MultiDumbbellLayout md = dumbbell(1);
  topo::TopologyGraph g{sim, md.spec};
  auto rr = make_flow(Variant::kRr, sim, g.node(md.senders[0]),
                      g.node(md.receivers[0]), 1);
  EXPECT_NE(dynamic_cast<core::RrSender*>(rr.sender.get()), nullptr);
  EXPECT_STREQ(rr.sender->variant_name(), "rr");

  auto re = make_flow(Variant::kRightEdge, sim, g.node(md.senders[0]),
                      g.node(md.receivers[0]), 2);
  EXPECT_NE(dynamic_cast<tcp::RightEdgeSender*>(re.sender.get()), nullptr);
}

TEST(FlowFactory, OnlySackGetsSackReceiver) {
  sim::Simulator sim;
  const topo::MultiDumbbellLayout md = dumbbell(2);
  topo::TopologyGraph g{sim, md.spec};
  // SACK flow: receiver generates SACK blocks; plain flow: it must not —
  // observable through the sender: a SACK sender paired by the factory
  // receives blocks (scoreboard fills during recovery). Here we check
  // construction succeeded for both; block generation is covered by
  // receiver tests.
  auto sack = make_flow(Variant::kSack, sim, g.node(md.senders[0]),
                        g.node(md.receivers[0]), 1);
  auto reno = make_flow(Variant::kReno, sim, g.node(md.senders[1]),
                        g.node(md.receivers[1]), 2);
  EXPECT_NE(dynamic_cast<tcp::SackSender*>(sack.sender.get()), nullptr);
  EXPECT_EQ(dynamic_cast<tcp::SackSender*>(reno.sender.get()), nullptr);
}

TEST(Ftp, StartsAtTheConfiguredTime) {
  sim::Simulator sim;
  const topo::MultiDumbbellLayout md = dumbbell(1);
  topo::TopologyGraph g{sim, md.spec};
  auto flow = make_flow(Variant::kNewReno, sim, g.node(md.senders[0]),
                        g.node(md.receivers[0]), 1);
  FtpSource ftp{sim, *flow.sender, sim::Time::seconds(2), 5000};
  sim.run_until(sim::Time::seconds(1.9));
  EXPECT_FALSE(flow.sender->started());
  EXPECT_EQ(flow.receiver->bytes_in_order(), 0u);
  sim.run_until(sim::Time::seconds(10));
  EXPECT_TRUE(flow.sender->started());
  EXPECT_EQ(flow.sender->start_time(), sim::Time::seconds(2));
  EXPECT_TRUE(flow.sender->complete());
  EXPECT_EQ(flow.receiver->bytes_in_order(), 5000u);
}

TEST(Ftp, UnboundedKeepsSending) {
  sim::Simulator sim;
  const topo::MultiDumbbellLayout md = dumbbell(1);
  topo::TopologyGraph g{sim, md.spec};
  auto flow = make_flow(Variant::kNewReno, sim, g.node(md.senders[0]),
                        g.node(md.receivers[0]), 1);
  FtpSource ftp{sim, *flow.sender, sim::Time::zero(), std::nullopt};
  sim.run_until(sim::Time::seconds(30));
  EXPECT_FALSE(flow.sender->complete());
  // 0.8 Mbps for 30 s = 3 MB ceiling; should be well past 1 MB.
  EXPECT_GT(flow.receiver->bytes_in_order(), 1'000'000u);
}

TEST(EcnEndToEnd, MarksReduceWindowWithoutRetransmissions) {
  // An RR flow through an ECN-marking RED gateway: congestion is signalled
  // by marks, the sender reduces once per window, and — with the queue
  // never overflowing — no packet is ever lost or retransmitted.
  sim::Simulator sim;
  topo::MultiDumbbellConfig mdc{.n_senders = 1, .m_receivers = 1};
  net::RedQueue* red = nullptr;
  mdc.make_bottleneck_queue = [&red](sim::Simulator& engine) {
    net::RedConfig rc;
    rc.buffer_packets = 60;
    rc.min_th = 5;
    rc.max_th = 40;     // generous: early marks long before overflow
    rc.max_p = 0.2;
    rc.w_q = 0.05;
    rc.ecn = true;
    rc.mean_pkt_tx = sim::Time::transmission(1000, 800'000);
    auto q = std::make_unique<net::RedQueue>(engine, rc);
    red = q.get();
    return q;
  };
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);
  topo::TopologyGraph g{sim, md.spec};
  tcp::TcpConfig tcfg;
  tcfg.ecn_enabled = true;
  auto flow = make_flow(Variant::kRr, sim, g.node(md.senders[0]),
                        g.node(md.receivers[0]), 1, tcfg);
  FtpSource ftp{sim, *flow.sender, sim::Time::zero(), std::nullopt};
  sim.run_until(sim::Time::seconds(30));

  EXPECT_GT(red->ecn_marks(), 0u);
  EXPECT_GT(flow.sender->stats().ecn_reductions, 0u);
  EXPECT_EQ(flow.sender->stats().retransmissions, 0u);
  EXPECT_EQ(flow.sender->stats().timeouts, 0u);
  // And the link still gets used properly.
  EXPECT_GT(flow.receiver->bytes_in_order(), 1'500'000u);
}

TEST(EcnEndToEnd, ReductionIsOncePerWindow) {
  // Feed a sender two ECE acks covering the same window: one reduction.
  sim::Simulator sim;
  const topo::MultiDumbbellLayout md = dumbbell(1);
  topo::TopologyGraph g{sim, md.spec};
  tcp::TcpConfig tcfg;
  tcfg.ecn_enabled = true;
  tcfg.init_cwnd_pkts = 8;
  auto flow = make_flow(Variant::kNewReno, sim, g.node(md.senders[0]),
                        g.node(md.receivers[0]), 1, tcfg);
  flow.sender->set_app_bytes(std::nullopt);
  flow.sender->start();
  const auto cwnd0 = flow.sender->cwnd_bytes();

  net::Packet e1;
  e1.type = net::PacketType::kAck;
  e1.flow = 1;
  e1.size_bytes = 40;
  e1.tcp.ack = 0;
  e1.tcp.ece = true;
  // Two back-to-back ECE dup-acks: only the first may reduce.
  auto e2 = e1;
  flow.sender->receive(std::move(e1));
  const auto cwnd1 = flow.sender->cwnd_bytes();
  flow.sender->receive(std::move(e2));
  EXPECT_LT(cwnd1, cwnd0);
  EXPECT_EQ(flow.sender->cwnd_bytes(), cwnd1);
  EXPECT_EQ(flow.sender->stats().ecn_reductions, 1u);
}

}  // namespace
}  // namespace rrtcp::app
