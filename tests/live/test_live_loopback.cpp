// Live-loopback and differential sim-vs-live tests (ctest -L live).
//
// Two LiveEnvironments — client and server — over 127.0.0.1 in ONE thread,
// alternately polled, carrying the same TcpSenderBase/TcpReceiver objects
// the simulator runs. The differential test pins the tentpole claim: the
// identical transfer completes in-sim (under the full protocol audit) and
// over real UDP sockets, from one congestion-control core.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/sender_factory.hpp"
#include "chaos/fault.hpp"
#include "integration/scenario.hpp"
#include "live/live_env.hpp"
#include "tcp/receiver.hpp"

namespace rrtcp::test {
namespace {

constexpr net::FlowId kFlow = 1;

struct LiveRun {
  bool ok = false;
  std::uint64_t rcv_bytes = 0;
  tcp::SenderStats stats;
  std::uint64_t server_filtered = 0;
  std::uint64_t server_ooo = 0;
};

// One full transfer over loopback, both endpoints polled from this thread.
LiveRun run_live(app::Variant v, std::uint64_t bytes,
                 const tcp::TcpConfig& tcfg = {},
                 const chaos::FaultPlan& server_faults = {},
                 sim::Time deadline = sim::Time::seconds(15)) {
  live::LiveConfig scfg;
  scfg.bind_addr = "127.0.0.1";
  scfg.local_id = 2;
  scfg.peer_id = 1;
  scfg.faults = server_faults;
  live::LiveEnvironment server{scfg};

  live::LiveConfig ccfg;
  ccfg.bind_addr = "127.0.0.1";
  ccfg.peer_addr = "127.0.0.1";
  ccfg.peer_port = server.local_port();
  ccfg.local_id = 1;
  ccfg.peer_id = 2;
  live::LiveEnvironment client{ccfg};

  tcp::ReceiverConfig rcfg;
  rcfg.sack_enabled = app::SenderFactory::instance().at(v).sack_receiver;
  tcp::TcpReceiver receiver{server, kFlow, rcfg};

  auto sender = app::SenderFactory::instance().make(v, client, kFlow, tcfg);
  sender->set_app_bytes(bytes);
  sender->start();

  while (client.now() < deadline) {
    if (sender->complete() && receiver.rcv_nxt() >= bytes) break;
    client.poll(1);
    server.poll(0);
  }

  LiveRun r;
  r.ok = sender->complete() && receiver.rcv_nxt() >= bytes;
  r.rcv_bytes = receiver.bytes_in_order();
  r.stats = sender->stats();
  r.server_filtered = server.filtered_drops();
  r.server_ooo = receiver.stats().out_of_order;
  return r;
}

TEST(LiveLoopback, RrTransferCompletesOverRealSockets) {
  const auto r = run_live(app::Variant::kRr, 200'000);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rcv_bytes, 200'000u);
  EXPECT_GE(r.stats.data_packets_sent, 200u);
}

TEST(LiveLoopback, DifferentialSimAndLiveCompleteTheSameTransfer) {
  constexpr std::uint64_t kBytes = 200'000;

  // In-sim, under the full invariant audit (abort-on-violation when the
  // audit build is on): the reference run.
  ScenarioConfig sim_cfg;
  sim_cfg.variant = app::Variant::kRr;
  sim_cfg.bytes = kBytes;
  sim_cfg.buffer_packets = 100;
  const auto sim_r = run_scenario(sim_cfg);
  ASSERT_TRUE(sim_r.flows[0].complete);
  ASSERT_EQ(sim_r.flows[0].rcv_bytes, kBytes);

  // The same core objects over real UDP loopback.
  const auto live_r = run_live(app::Variant::kRr, kBytes);
  ASSERT_TRUE(live_r.ok);
  EXPECT_EQ(live_r.rcv_bytes, sim_r.flows[0].rcv_bytes);
}

TEST(LiveLoopback, RecoversFromDeterministicIngressOutage) {
  // A [0, 30ms) ingress outage at the server swallows the opening flight;
  // the sender's retransmission timer (shortened so the test stays fast)
  // must recover and finish the transfer — real loss, real recovery.
  chaos::FaultSpec outage;
  outage.kind = chaos::FaultKind::kOutage;
  outage.start = sim::Time::zero();
  outage.duration = sim::Time::milliseconds(30);
  chaos::FaultPlan plan;
  plan.faults.push_back(outage);

  tcp::TcpConfig tcfg;
  tcfg.min_rto = sim::Time::milliseconds(100);
  tcfg.initial_rto = sim::Time::milliseconds(300);
  tcfg.rto_granularity = sim::Time::milliseconds(10);

  const auto r = run_live(app::Variant::kRr, 50'000, tcfg, plan);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rcv_bytes, 50'000u);
  EXPECT_GE(r.server_filtered, 1u);
  EXPECT_GE(r.stats.timeouts, 1u);
  EXPECT_GE(r.stats.retransmissions, 1u);
}

TEST(LiveLoopback, ServerLearnsPeerFromFirstDatagram) {
  live::LiveConfig scfg;
  scfg.bind_addr = "127.0.0.1";
  scfg.local_id = 2;
  scfg.peer_id = 1;
  live::LiveEnvironment server{scfg};
  EXPECT_FALSE(server.peer_known());
  EXPECT_GT(server.local_port(), 0);

  live::LiveConfig ccfg;
  ccfg.bind_addr = "127.0.0.1";
  ccfg.peer_addr = "127.0.0.1";
  ccfg.peer_port = server.local_port();
  live::LiveEnvironment client{ccfg};

  tcp::TcpReceiver receiver{server, kFlow};
  auto sender =
      app::SenderFactory::instance().make(app::Variant::kRr, client, kFlow, {});
  sender->set_app_bytes(1'000);
  sender->start();

  const sim::Time deadline = sim::Time::seconds(5);
  while (client.now() < deadline && !sender->complete()) {
    client.poll(1);
    server.poll(0);
  }
  EXPECT_TRUE(server.peer_known());
  EXPECT_TRUE(sender->complete());
  EXPECT_EQ(receiver.rcv_nxt(), 1'000u);
}

// The timer ordering contract over the lazily reprogrammed timerfd: the
// timerfd keeps the first (5 ms) deadline through the re-arm and the
// cancel, so its wake-up finds nothing due and must reprogram. Tie timers
// are armed back to back with one delay in reverse slot order: whether the
// clock reads equal (a true tie) or later between the arms, they fire in
// arm order, never in slot order.
TEST(LiveTimers, RearmedFiresLateCancelledNeverTiesInArmOrder) {
  live::LiveEnvironment env{live::LiveConfig{}};
  using TimerId = env::Environment::TimerId;
  std::vector<int> fired;
  sim::Time pushed_at = sim::Time::infinity();
  const TimerId pushed = env.timer_create([&] {
    fired.push_back(0);
    pushed_at = env.now();
  });
  const TimerId cancelled = env.timer_create([&] { fired.push_back(1); });
  std::vector<TimerId> tie;
  for (int k = 0; k < 4; ++k)
    tie.push_back(env.timer_create([&fired, k] { fired.push_back(10 + k); }));

  env.timer_arm(pushed, sim::Time::milliseconds(5));
  env.timer_arm(cancelled, sim::Time::milliseconds(5));
  const sim::Time rearmed_from = env.now();
  env.timer_arm(pushed, sim::Time::milliseconds(40));
  env.timer_cancel(cancelled);
  for (int k = 3; k >= 0; --k)
    env.timer_arm(tie[static_cast<std::size_t>(k)],
                  sim::Time::milliseconds(20));

  EXPECT_FALSE(env.run_until([] { return false; },
                             rearmed_from + sim::Time::milliseconds(80)));
  EXPECT_EQ(fired, (std::vector<int>{13, 12, 11, 10, 0}));
  EXPECT_GE(pushed_at, rearmed_from + sim::Time::milliseconds(40));
  EXPECT_FALSE(env.timer_pending(pushed));
  EXPECT_FALSE(env.timer_pending(cancelled));
}

}  // namespace
}  // namespace rrtcp::test
