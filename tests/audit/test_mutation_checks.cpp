// Teeth tests for the invariant auditor: every BrokenSender mutant in
// broken_senders.hpp re-introduces one classic accounting bug, and each
// test pins that the auditor flags it under the SPECIFIC invariant ID the
// mutation violates. Control tests drive the healthy RrSender through the
// same scenarios and assert a spotless session, so the checks are proven
// both sensitive and precise.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "audit/invariant_auditor.hpp"
#include "broken_senders.hpp"
#include "core/rr_sender.hpp"
#include "harness/scenario.hpp"
#include "net/loss_model.hpp"

namespace rrtcp::audit {
namespace {

using test::SenderHarness;

tcp::TcpConfig cwnd(std::uint64_t pkts) {
  tcp::TcpConfig cfg;
  cfg.init_cwnd_pkts = pkts;
  return cfg;
}

// Attaches a recording session to a harness-driven sender.
template <typename SenderT>
struct AuditedHarness {
  explicit AuditedHarness(tcp::TcpConfig cfg)
      : h{cfg}, session{h.sim, AuditSession::FailMode::kRecord} {
    session.attach(h.sender());
  }
  SenderHarness<SenderT> h;
  AuditSession session;
};

TEST(MutationChecks, DormantCountingTripsProbeClock) {
  AuditedHarness<test::BrokenDormantCountingSender> a{cwnd(10)};
  a.h.sender().start();
  a.h.dupacks(3);  // entrance: retreat
  a.h.ack(4000);   // first partial ACK: probe
  a.h.dupacks(2);  // mutant bursts 3 new packets per dup ACK
  EXPECT_GT(a.session.count(InvariantId::kRrProbeClock), 0u);
}

TEST(MutationChecks, FullRateRetreatTripsRetreatHalf) {
  AuditedHarness<test::BrokenRetreatSender> a{cwnd(10)};
  a.h.sender().start();
  a.h.dupacks(3);  // entrance
  a.h.dupacks(4);  // mutant sends one NEW packet per dup ACK (no back-off)
  EXPECT_GT(a.session.count(InvariantId::kRrRetreatHalf), 0u);
}

TEST(MutationChecks, StaleCwndExitTripsWindowGrowth) {
  AuditedHarness<test::BrokenExitSender> a{cwnd(10)};
  a.h.sender().start();
  a.h.dupacks(3);
  a.h.dupacks(4);   // retreat: 2 new packets
  a.h.ack(4000);    // probe, actnum 2
  a.h.dupacks(2);
  a.h.ack(8000);    // clean boundary, actnum 3
  a.h.dupacks(3);
  a.h.ack(18'000);  // exit, pipe emptied — mutant restores pre-loss window
  EXPECT_GT(a.session.count(InvariantId::kWndGrowth), 0u);
  // The restored over-count also releases a visible line-rate burst.
  EXPECT_GT(a.session.count(InvariantId::kRrExitBurst), 0u);
}

TEST(MutationChecks, UnhalvedSsthreshTripsSsthreshHalve) {
  AuditedHarness<test::BrokenSsthreshSender> a{cwnd(10)};
  a.h.sender().start();
  a.h.dupacks(3);  // entrance — mutant restores the old ssthresh
  EXPECT_GT(a.session.count(InvariantId::kRrSsthreshHalve), 0u);
}

// ---- Controls: the healthy sender through the same journeys is clean. ----

TEST(MutationChecks, CleanSenderFullEpisodeIsViolationFree) {
  AuditedHarness<core::RrSender> a{cwnd(10)};
  a.h.sender().start();
  a.h.dupacks(3);
  a.h.dupacks(4);
  a.h.ack(4000);
  a.h.dupacks(2);
  a.h.ack(8000);
  a.h.dupacks(3);
  a.h.ack(12'000);  // exit: cwnd = actnum * MSS
  if (!a.session.clean()) a.session.dump(stderr);
  EXPECT_TRUE(a.session.clean());
  EXPECT_EQ(a.session.total_violations(), 0u);
}

TEST(MutationChecks, CleanSenderFurtherLossIsViolationFree) {
  AuditedHarness<core::RrSender> a{cwnd(10)};
  a.h.sender().start();
  a.h.dupacks(3);
  a.h.dupacks(5);
  a.h.ack(4000);
  a.h.dupacks(1);   // one retreat packet lost
  a.h.ack(10'000);  // further loss detected via ndup < actnum
  a.h.dupacks(1);
  a.h.ack(13'000);  // exit at the extended recover point
  if (!a.session.clean()) a.session.dump(stderr);
  EXPECT_TRUE(a.session.clean());
}

TEST(MutationChecks, CleanSenderTimeoutAbortIsViolationFree) {
  AuditedHarness<core::RrSender> a{cwnd(10)};
  a.h.sender().start();
  a.h.dupacks(3);
  a.h.sim.run_until(sim::Time::seconds(5));  // RTO abandons recovery
  ASSERT_GE(a.h.sender().stats().timeouts, 1u);
  if (!a.session.clean()) a.session.dump(stderr);
  EXPECT_TRUE(a.session.clean());
}

// Loss-model drops on an audited link are part of pipe conservation: a
// six-packet burst dropped at the forward bottleneck leaves the pipe as
// surely as a queue drop. The mutant's one unreported copy is then an
// excess delivery; were the six loss drops not counted, they would mask it.
TEST(MutationChecks, HiddenRetransmissionTripsPipeConserveViaLinkLoss) {
  harness::ScenarioSpec spec;
  spec.horizon = sim::Time::seconds(30);
  spec.bottleneck = harness::QueueSpec::drop_tail(100);  // no queue drops
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.add_flow({.variant = app::Variant::kRr, .bytes = 100'000});
  spec.flow_maker = [](sim::Simulator& sim, net::Node& snd, net::Node& rcv,
                       net::FlowId flow, const harness::FlowSpec& fs) {
    app::Flow f;
    f.sender = std::make_unique<test::BrokenHiddenRetransmitSender>(
        sim, snd, flow, rcv.id(), fs.tcp);
    f.receiver = std::make_unique<tcp::TcpReceiver>(sim, rcv, flow, snd.id());
    return f;
  };
  harness::Scenario sc{spec};
  std::vector<std::pair<net::FlowId, std::uint64_t>> burst;
  for (std::uint64_t k = 0; k < 6; ++k) burst.emplace_back(1, (30 + k) * 1000);
  sc.topology().bottleneck().set_loss_model(
      std::make_unique<net::ListLossModel>(burst));
  sc.run();

  ASSERT_TRUE(sc.sender(0).complete());
  EXPECT_EQ(sc.topology().bottleneck().loss_model()->drops(), 6u);
  EXPECT_EQ(sc.topology().bottleneck().queue().stats().dropped, 0u);
  const AuditSession& session = *sc.instrumentation().recording_session();
  EXPECT_GT(session.count(InvariantId::kPipeConserve), 0u);
}

}  // namespace
}  // namespace rrtcp::audit
