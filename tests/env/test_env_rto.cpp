// Sender timing against MockEnvironment: RTO arm/backoff/re-arm and fast
// retransmit, asserted to the picosecond with a hand-cranked clock and no
// simulator in the process. This is satellite proof that the environment
// interface is sufficient for the transport's time-driven behavior.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "env/mock_environment.hpp"
#include "tcp/receiver.hpp"
#include "tcp/reno.hpp"
#include "tcp/tahoe.hpp"

namespace rrtcp::test {
namespace {

constexpr net::FlowId kFlow = 7;

std::vector<std::uint64_t> data_seqs(const std::vector<net::Packet>& pkts) {
  std::vector<std::uint64_t> out;
  for (const auto& p : pkts)
    if (p.is_data()) out.push_back(p.tcp.seq);
  return out;
}

TEST(MockEnvRto, ArmedOnFirstSendAtNowPlusRto) {
  MockEnvironment env;
  tcp::TcpConfig cfg;
  tcp::TahoeSender s{env, kFlow, cfg};
  s.set_app_bytes(10'000);
  EXPECT_FALSE(s.rto_pending());

  env.advance(sim::Time::milliseconds(5));  // start at a non-zero instant
  s.start();

  ASSERT_EQ(data_seqs(env.sent), (std::vector<std::uint64_t>{0}));
  ASSERT_TRUE(s.rto_pending());
  EXPECT_EQ(s.rto_expiry(), env.now() + s.rto_estimator().rto());
  // No samples yet: the timeout is the configured initial RTO.
  EXPECT_FALSE(s.rto_estimator().has_samples());
  EXPECT_EQ(s.rto_estimator().rto(), cfg.initial_rto);
  EXPECT_EQ(*env.next_deadline(), s.rto_expiry());
}

TEST(MockEnvRto, TimeoutBacksOffRetransmitsAndRearms) {
  MockEnvironment env;
  tcp::TahoeSender s{env, kFlow, {}};
  s.set_app_bytes(10'000);
  s.start();
  const sim::Time first_expiry = s.rto_expiry();
  const sim::Time rto0 = s.rto_estimator().rto();

  env.advance_to(first_expiry);  // fire the retransmission timer

  EXPECT_EQ(s.stats().timeouts, 1u);
  EXPECT_EQ(s.rto_estimator().backoff_count(), 1);
  EXPECT_EQ(s.rto_estimator().rto(), rto0 * 2);
  // Go-back-N: the segment at snd_una left again...
  EXPECT_EQ(data_seqs(env.sent), (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(s.stats().retransmissions, 1u);
  // ...and the timer is re-armed from the firing instant, backed off.
  ASSERT_TRUE(s.rto_pending());
  EXPECT_EQ(s.rto_expiry(), first_expiry + rto0 * 2);

  // A second unanswered timeout doubles again.
  env.advance_to(s.rto_expiry());
  EXPECT_EQ(s.stats().timeouts, 2u);
  EXPECT_EQ(s.rto_estimator().rto(), rto0 * 4);
}

TEST(MockEnvRto, NewAckRearmsFromAckInstant) {
  MockEnvironment env;
  tcp::TahoeSender s{env, kFlow, {}};
  s.set_app_bytes(10'000);
  s.start();
  const sim::Time armed_at_start = s.rto_expiry();

  env.advance(sim::Time::milliseconds(50));
  env.deliver(make_ack(kFlow, 1000));

  // The ACK sampled an RTT and restarted the timer for the still-
  // outstanding data: expiry moved to ack-time + current rto.
  EXPECT_TRUE(s.rto_estimator().has_samples());
  EXPECT_EQ(s.rto_estimator().backoff_count(), 0);
  ASSERT_TRUE(s.rto_pending());
  EXPECT_GT(s.flight_bytes(), 0u);
  EXPECT_EQ(s.rto_expiry(), env.now() + s.rto_estimator().rto());
  EXPECT_NE(s.rto_expiry(), armed_at_start);
}

TEST(MockEnvRto, TimerStopsAndCompletionFiresOnceWhenFullyAcked) {
  MockEnvironment env;
  tcp::TahoeSender s{env, kFlow, {}};
  s.set_app_bytes(2'000);
  int fires = 0;
  sim::Time done_at = sim::Time::zero();
  s.set_complete_callback([&](sim::Time t) {
    ++fires;
    done_at = t;
  });
  s.start();

  env.advance(sim::Time::milliseconds(10));
  env.deliver(make_ack(kFlow, 1000));  // grows cwnd, sends the tail
  EXPECT_TRUE(s.rto_pending());
  env.advance(sim::Time::milliseconds(10));
  env.deliver(make_ack(kFlow, 2000));

  EXPECT_TRUE(s.complete());
  EXPECT_FALSE(s.rto_pending());
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(done_at, env.now());
  EXPECT_EQ(s.completion_time(), done_at);

  // A stray duplicate of the final ACK must not re-fire completion.
  env.deliver(make_ack(kFlow, 2000));
  EXPECT_EQ(fires, 1);
}

TEST(MockEnvFastRtx, ThirdDupackTriggersFastRetransmit) {
  MockEnvironment env;
  tcp::TcpConfig cfg;
  cfg.init_cwnd_pkts = 8;
  tcp::RenoSender s{env, kFlow, cfg};
  s.set_app_bytes(20'000);
  s.start();
  ASSERT_EQ(env.sent.size(), 8u);

  env.advance(sim::Time::milliseconds(20));
  env.sent.clear();
  env.deliver(make_ack(kFlow, 0));
  env.deliver(make_ack(kFlow, 0));
  EXPECT_EQ(s.dupacks(), 2);
  EXPECT_EQ(s.stats().fast_retransmits, 0u);
  EXPECT_TRUE(data_seqs(env.sent).empty());

  env.deliver(make_ack(kFlow, 0));  // threshold: retransmit NOW, no timer

  EXPECT_EQ(s.dupacks(), 3);
  EXPECT_EQ(s.stats().fast_retransmits, 1u);
  const auto rtx = data_seqs(env.sent);
  ASSERT_FALSE(rtx.empty());
  EXPECT_EQ(rtx[0], 0u);  // the hole at snd_una, immediately
  EXPECT_EQ(s.stats().timeouts, 0u);
  EXPECT_EQ(s.phase(), tcp::TcpPhase::kFastRecovery);
}

TEST(MockEnvReceiver, AcksEveryInOrderSegmentWithoutSimulator) {
  MockEnvironment env{/*local=*/2, /*peer=*/1};
  tcp::TcpReceiver r{env, kFlow};

  env.deliver(make_data(kFlow, 0, 1000));
  env.deliver(make_data(kFlow, 1000, 1000));
  EXPECT_EQ(r.rcv_nxt(), 2000u);
  ASSERT_EQ(env.sent.size(), 2u);
  EXPECT_TRUE(env.sent[0].is_ack());
  EXPECT_EQ(env.sent[0].tcp.ack, 1000u);
  EXPECT_EQ(env.sent[1].tcp.ack, 2000u);
  // ACKs are addressed to the environment's peer.
  EXPECT_EQ(env.sent[0].dst, 1u);
}

TEST(MockEnvReceiver, DelayedAckTimerFiresOnMockClock) {
  MockEnvironment env{/*local=*/2, /*peer=*/1};
  tcp::ReceiverConfig cfg;
  cfg.delayed_ack = true;
  tcp::TcpReceiver r{env, kFlow, cfg};

  env.deliver(make_data(kFlow, 0, 1000));
  // One in-order segment: the ACK is held back for the delack window.
  EXPECT_EQ(env.sent.size(), 0u);
  ASSERT_TRUE(env.next_deadline().has_value());
  EXPECT_EQ(*env.next_deadline(), env.now() + cfg.delack_timeout);

  env.advance(cfg.delack_timeout);
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].tcp.ack, 1000u);
}

}  // namespace
}  // namespace rrtcp::test
