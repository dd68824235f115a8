// Live-loopback and differential sim-vs-live tests (ctest -L live).
//
// Two LiveEnvironments — client and server — over 127.0.0.1 in ONE thread,
// alternately polled, carrying the same TcpSenderBase/TcpReceiver objects
// the simulator runs. The differential test pins the tentpole claim: the
// identical transfer completes in-sim (under the full protocol audit) and
// over real UDP sockets, from one congestion-control core. The batching
// test pins the egress outbox: whatever run boundaries a flush crosses,
// the peer sees every packet once, unchanged, in send order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "app/sender_factory.hpp"
#include "chaos/fault.hpp"
#include "integration/scenario.hpp"
#include "live/live_env.hpp"
#include "live/wire.hpp"
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

// Every variant over real sockets at the 1 MB size of the benchmark's
// live transfers, so full windows leave in GSO runs. Retransmission counts
// depend on timing; completion and exact bytes do not.
TEST(LiveLoopback, EveryVariantCompletesAMegabyte) {
  for (const app::Variant v : app::kAllVariants) {
    SCOPED_TRACE(app::SenderFactory::instance().name_of(v));
    const auto r = run_live(v, 1'000'000);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.rcv_bytes, 1'000'000u);
  }
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

// Records every packet it receives.
struct RecordingAgent final : net::Agent {
  std::vector<net::Packet> got;
  void receive(net::Packet p) override { got.push_back(p); }
};

net::Packet make_data(std::uint64_t n, std::uint16_t payload) {
  net::Packet p;
  p.uid = net::packet_uid(kFlow, net::PacketType::kData, n);
  p.flow = kFlow;
  p.type = net::PacketType::kData;
  p.size_bytes = payload + 40u;
  p.tcp.seq = n * 10'000;
  p.tcp.payload = payload;
  return p;
}

net::Packet make_ack(std::uint64_t n, int n_sack) {
  net::Packet p;
  p.uid = net::packet_uid(kFlow, net::PacketType::kAck, n);
  p.flow = kFlow;
  p.type = net::PacketType::kAck;
  p.size_bytes = 40;
  p.tcp.ack = n * 1'000;
  p.tcp.n_sack = static_cast<std::uint8_t>(n_sack);
  for (int b = 0; b < n_sack; ++b)
    p.tcp.set_sack_block(
        b, {p.tcp.ack + 2'000u * static_cast<unsigned>(b + 1),
            p.tcp.ack + 2'000u * static_cast<unsigned>(b + 1) + 1'000});
  return p;
}

void expect_same_packet(const net::Packet& got, const net::Packet& sent,
                        std::size_t i) {
  SCOPED_TRACE(i);
  EXPECT_EQ(got.uid, sent.uid);
  EXPECT_EQ(got.flow, sent.flow);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.size_bytes, sent.size_bytes);
  EXPECT_EQ(got.tcp.seq, sent.tcp.seq);
  EXPECT_EQ(got.tcp.ack, sent.tcp.ack);
  EXPECT_EQ(got.tcp.payload, sent.tcp.payload);
  ASSERT_EQ(got.tcp.n_sack, sent.tcp.n_sack);
  for (int b = 0; b < sent.tcp.n_sack; ++b)
    EXPECT_EQ(got.tcp.sack_block(b), sent.tcp.sack_block(b));
}

// One flush crossing every run boundary: a run cut at 64 segments, a run
// cut at 65,507 B, a shorter datagram closing a run, a size change that
// opens a new run, a jumbo datagram too large for GSO, and a packet sent
// outside poll(), which leaves at its entry, ahead of the batch.
TEST(LiveLoopback, BatchedEgressArrivesOnceInSendOrder) {
  live::LiveConfig scfg;
  scfg.local_id = 2;
  scfg.peer_id = 1;
  live::LiveEnvironment server{scfg};
  live::LiveConfig ccfg;
  ccfg.peer_addr = "127.0.0.1";
  ccfg.peer_port = server.local_port();
  live::LiveEnvironment client{ccfg};
  RecordingAgent agent;
  server.attach(kFlow, &agent);

  std::vector<net::Packet> batch;
  std::uint64_t n = 0;
  for (int k = 0; k < 70; ++k) batch.push_back(make_ack(n++, 0));  // 48 B
  batch.push_back(make_ack(n++, 1));  // 64 B: larger, opens a run
  batch.push_back(make_ack(n++, 2));  // 80 B: larger again
  batch.push_back(make_ack(n++, 0));  // 48 B: closes the 80 B run
  batch.push_back(make_ack(n++, 0));  // 48 B: opens the next run
  for (int k = 0; k < 50; ++k) batch.push_back(make_data(n++, 1'400));
  batch.push_back(make_data(n++, 700));  // closes the 1,448 B run
  batch.push_back(make_data(n++, 700));  // opens the next run
  batch.push_back(make_data(n++, 9'000));  // jumbo: a run of its own
  batch.push_back(make_ack(n++, 3));
  for (const net::Packet& p : batch)
    ASSERT_LE(live::wire_size(p), live::kMaxWireDatagram);
  ASSERT_GT(50 * live::wire_size(batch[74]), 65'507u);  // over the byte cap

  const net::Packet outside = make_data(n++, 100);
  std::vector<net::Packet> sent{outside};
  sent.insert(sent.end(), batch.begin(), batch.end());

  env::Timer burst{client, [&] {
                     for (const net::Packet& p : batch) client.send(p);
                   }};
  burst.schedule(sim::Time::zero());
  client.send(outside);
  EXPECT_EQ(client.datagrams_sent(), 0u);  // send() only fills the outbox
  EXPECT_EQ(client.poll(0), 1);            // one dispatch: the timer
  EXPECT_EQ(client.datagrams_sent(), sent.size());

  const sim::Time deadline = server.now() + sim::Time::seconds(5);
  while (agent.got.size() < sent.size() && server.now() < deadline)
    server.poll(10);
  server.poll(0);  // anything extra would arrive here
  ASSERT_EQ(agent.got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i)
    expect_same_packet(agent.got[i], sent[i], i);
  EXPECT_EQ(server.datagrams_received(), sent.size());
  EXPECT_EQ(server.decode_failures(), 0u);
}

// A send made outside poll() leaves when the next poll() begins, not after
// its wait: the peer, polled on a thread of its own, has the packet while
// the sender still sleeps towards its 200 ms timer.
TEST(LiveLoopback, SendOutsidePollLeavesBeforeTheWait) {
  live::LiveConfig scfg;
  scfg.local_id = 2;
  scfg.peer_id = 1;
  live::LiveEnvironment server{scfg};
  live::LiveConfig ccfg;
  ccfg.peer_addr = "127.0.0.1";
  ccfg.peer_port = server.local_port();
  live::LiveEnvironment client{ccfg};
  RecordingAgent agent;
  server.attach(kFlow, &agent);
  std::atomic<bool> arrived{false};
  std::thread peer{[&] {
    const sim::Time deadline = server.now() + sim::Time::seconds(2);
    while (agent.got.empty() && server.now() < deadline) server.poll(10);
    arrived.store(!agent.got.empty());
  }};

  bool fired = false;
  env::Timer timer{client, [&] { fired = true; }};
  timer.schedule(sim::Time::milliseconds(200));
  client.send(make_data(0, 100));
  EXPECT_EQ(client.poll(-1), 1);
  const bool arrived_during_wait = arrived.load();
  peer.join();

  EXPECT_TRUE(fired);
  EXPECT_TRUE(arrived_during_wait);
  ASSERT_EQ(agent.got.size(), 1u);
  expect_same_packet(agent.got[0], make_data(0, 100), 0);
}

// The timer ordering contract, with no timer fd: deadlines sit in a slot
// table, poll() fires the due ones and bounds its wait by the earliest
// armed one. The 5 ms wait in run_until's first poll is bounded by
// deadlines that are then re-armed or cancelled; waking finds nothing due
// and must wait again, now for the tie timers. Tie timers are armed back
// to back with one delay in reverse slot order: whether the clock reads
// equal (a true tie) or later between the arms, they fire in arm order,
// never in slot order.
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

// With no traffic, poll(-1) sleeps until the earliest deadline and returns
// once that timer has fired. A wait that ignored the deadline would hang;
// a watchdog thread sends an undeliverable datagram after 2 s so the test
// fails on the elapsed time instead.
TEST(LiveTimers, PollForeverReturnsAfterTheOnlyTimerFires) {
  live::LiveEnvironment env{live::LiveConfig{}};
  bool fired = false;
  env::Timer timer{env, [&] { fired = true; }};
  live::LiveConfig wcfg;
  wcfg.peer_addr = "127.0.0.1";
  wcfg.peer_port = env.local_port();
  live::LiveEnvironment waker{wcfg};
  std::atomic<bool> returned{false};
  std::thread watchdog{[&] {
    for (int i = 0; i < 200 && !returned.load(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (returned.load()) return;
    net::Packet stray = make_ack(0, 0);
    stray.flow = kFlow + 1;  // no agent attached: counted unroutable
    waker.send(stray);
    waker.poll(0);
  }};

  const sim::Time armed_at = env.now();
  timer.schedule(sim::Time::milliseconds(5));
  const int dispatched = env.poll(-1);
  const sim::Time returned_at = env.now();
  returned.store(true);
  watchdog.join();

  EXPECT_EQ(dispatched, 1);
  EXPECT_TRUE(fired);
  EXPECT_FALSE(timer.pending());
  EXPECT_GE(returned_at, armed_at + sim::Time::milliseconds(5));
  EXPECT_LT(returned_at, armed_at + sim::Time::seconds(1));
  EXPECT_EQ(env.unroutable(), 0u);
}

}  // namespace
}  // namespace rrtcp::test
