#include <gtest/gtest.h>

#include <string>

#include "../testutil.hpp"
#include "net/drop_tail.hpp"
#include "net/link.hpp"
#include "net/node.hpp"

namespace rrtcp::net {
namespace {

using test::CaptureAgent;
using test::make_data;

std::unique_ptr<QueueDisc> big_queue() {
  return std::make_unique<DropTailQueue>(1000);
}

TEST(Link, DeliversAfterTxPlusPropagation) {
  sim::Simulator sim;
  Node dst{2};
  CaptureAgent agent;
  dst.attach_agent(1, &agent);
  // 1000 B at 0.8 Mbps = 10 ms tx; 100 ms propagation.
  Link link{sim, {800'000, sim::Time::milliseconds(100), "l"}, big_queue()};
  link.set_dst(&dst);

  link.send(make_data(1, 0, 1000, /*dst=*/2));
  sim.run();
  ASSERT_EQ(agent.packets.size(), 1u);
  EXPECT_EQ(sim.now(), sim::Time::milliseconds(110));
  EXPECT_EQ(link.packets_delivered(), 1u);  // one hop
}

TEST(Link, SerializesBackToBackPackets) {
  sim::Simulator sim;
  Node dst{2};
  CaptureAgent agent;
  dst.attach_agent(1, &agent);
  Link link{sim, {800'000, sim::Time::zero(), "l"}, big_queue()};
  link.set_dst(&dst);

  std::vector<sim::Time> arrivals;
  // Wrap: record arrival times via an observing agent.
  for (int i = 0; i < 3; ++i) link.send(make_data(1, i * 1000, 1000));
  sim.run();
  ASSERT_EQ(agent.packets.size(), 3u);
  // Each 1000 B packet takes 10 ms to serialize; delivery at 10/20/30 ms.
  EXPECT_EQ(sim.now(), sim::Time::milliseconds(30));
}

TEST(Link, CountsDeliveredBytes) {
  sim::Simulator sim;
  Node dst{2};
  CaptureAgent agent;
  dst.attach_agent(1, &agent);
  Link link{sim, {10'000'000, sim::Time::milliseconds(1), "l"}, big_queue()};
  link.set_dst(&dst);
  for (int i = 0; i < 4; ++i) link.send(make_data(1, i * 1000, 1000));
  sim.run();
  EXPECT_EQ(link.packets_delivered(), 4u);
  EXPECT_EQ(link.bytes_delivered(), 4000u);
}

TEST(Link, LossModelDropsBeforeQueue) {
  sim::Simulator sim;
  Node dst{2};
  CaptureAgent agent;
  dst.attach_agent(1, &agent);
  Link link{sim, {800'000, sim::Time::zero(), "l"}, big_queue()};
  link.set_dst(&dst);
  link.set_loss_model(std::make_unique<ListLossModel>(
      std::vector<std::pair<FlowId, std::uint64_t>>{{1, 1000}}));

  link.send(make_data(1, 0, 1000));
  link.send(make_data(1, 1000, 1000));  // dropped by the model
  link.send(make_data(1, 2000, 1000));
  sim.run();
  ASSERT_EQ(agent.packets.size(), 2u);
  EXPECT_EQ(agent.packets[0].tcp.seq, 0u);
  EXPECT_EQ(agent.packets[1].tcp.seq, 2000u);
  EXPECT_EQ(link.loss_model_data_drops(), 1u);
  EXPECT_EQ(link.queue().stats().dropped, 0u);
}

TEST(Link, UtilizationReflectsBusyTime) {
  sim::Simulator sim;
  Node dst{2};
  CaptureAgent agent;
  dst.attach_agent(1, &agent);
  Link link{sim, {800'000, sim::Time::zero(), "l"}, big_queue()};
  link.set_dst(&dst);
  for (int i = 0; i < 10; ++i) link.send(make_data(1, i * 1000, 1000));
  sim.run();  // 100 ms of transmission
  sim.run_until(sim::Time::milliseconds(200));
  EXPECT_NEAR(link.utilization(sim.now()), 0.5, 1e-9);
}

// The transmitter's release is an event only when a packet waits for it.
TEST(Link, SendOnIdleLinkLeavesOnlyTheDelivery) {
  sim::Simulator sim;
  Node dst{2};
  CaptureAgent agent;
  dst.attach_agent(1, &agent);
  Link link{sim, {800'000, sim::Time::milliseconds(5), "l"}, big_queue()};
  link.set_dst(&dst);

  link.send(make_data(1, 0, 1000));
  EXPECT_EQ(sim.pending_events(), 1u);  // the delivery, no release
  link.send(make_data(1, 1000, 1000));  // waits: now the release is due
  EXPECT_EQ(sim.pending_events(), 2u);
  link.send(make_data(1, 2000, 1000));  // the release is already pending
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  ASSERT_EQ(agent.packets.size(), 3u);
  EXPECT_EQ(sim.now(), sim::Time::milliseconds(35));
  // Three deliveries and two releases; the last transmission's release
  // would have found the queue empty.
  EXPECT_EQ(sim.events_executed(), 5u);
}

// Logs queue-observer calls and deliveries into one ordered trace.
class OrderLog final : public QueueObserver, public Agent {
 public:
  explicit OrderLog(const sim::Simulator& sim) : sim_{sim} {}
  void on_enqueue(const Packet& p, const QueueDisc&) override {
    note("enq", p);
  }
  void on_dequeue(const Packet& p, const QueueDisc&) override {
    note("deq", p);
  }
  void receive(Packet p) override { note("rcv", p); }
  std::string trace;

 private:
  void note(const char* what, const Packet& p) {
    trace += what + std::to_string(p.tcp.seq / 1000) + "@" +
             std::to_string(sim_.now().ps() / 1'000'000'000) + "ms ";
  }
  const sim::Simulator& sim_;
};

// A packet arriving at exactly the instant the transmitter frees up
// (serialization end, 10 ms) queues if its arrival event is keyed before
// the release, and transmits at once if keyed after it — the order the
// release event always imposed, whether or not it is scheduled.
std::string arrival_at_release_instant(bool arrival_keyed_first) {
  sim::Simulator sim;
  Node dst{2};
  OrderLog log{sim};
  dst.attach_agent(1, &log);
  // 1000 B at 0.8 Mbps = 10 ms tx; no propagation, so the delivery of
  // packet 0 shares the release instant too.
  Link link{sim, {800'000, sim::Time::zero(), "l"}, big_queue()};
  link.set_dst(&dst);
  link.queue().set_observer(&log);
  const sim::Time release_at = sim::Time::milliseconds(10);
  auto late_send = [&] { link.send(make_data(1, 1000, 1000)); };
  if (arrival_keyed_first) sim.schedule_at(release_at, late_send);
  link.send(make_data(1, 0, 1000));
  if (!arrival_keyed_first) sim.schedule_at(release_at, late_send);
  sim.run();
  return log.trace;
}

TEST(Link, ArrivalKeyedBeforeReleaseQueues) {
  EXPECT_EQ(arrival_at_release_instant(true),
            "enq0@0ms deq0@0ms enq1@10ms rcv0@10ms deq1@10ms rcv1@20ms ");
}

TEST(Link, ArrivalKeyedAfterReleaseTransmitsAtOnce) {
  EXPECT_EQ(arrival_at_release_instant(false),
            "enq0@0ms deq0@0ms rcv0@10ms enq1@10ms deq1@10ms rcv1@20ms ");
}

TEST(Node, DeliversToLocalAgentByFlow) {
  Node n{5};
  CaptureAgent a1, a2;
  n.attach_agent(1, &a1);
  n.attach_agent(2, &a2);
  n.receive(make_data(2, 0, 1000, /*dst=*/5));
  EXPECT_EQ(a1.packets.size(), 0u);
  EXPECT_EQ(a2.packets.size(), 1u);
}

TEST(Node, CountsOrphanPackets) {
  Node n{5};
  n.receive(make_data(9, 0, 1000, /*dst=*/5));  // no agent for flow 9
  EXPECT_EQ(n.undeliverable(), 1u);
  n.receive(make_data(9, 0, 1000, /*dst=*/77));  // no route to 77
  EXPECT_EQ(n.undeliverable(), 2u);
}

TEST(Node, ForwardsViaSpecificRouteOverDefault) {
  Node n{5};
  test::CaptureHandler specific, fallback;
  n.add_route(7, &specific);
  n.set_default_route(&fallback);
  n.receive(make_data(1, 0, 1000, /*dst=*/7));
  n.receive(make_data(1, 0, 1000, /*dst=*/8));
  EXPECT_EQ(specific.count(), 1u);
  EXPECT_EQ(fallback.count(), 1u);
  EXPECT_EQ(n.forwarded(), 2u);
}

// The pipe-conservation audit adds this counter to its data drops, so an
// ACK (or CBR packet) the model drops must not be counted.
TEST(Link, LossModelDataDropCounterIgnoresAcks) {
  sim::Simulator sim;
  Node dst{2};
  CaptureAgent agent;
  dst.attach_agent(1, &agent);
  Link link{sim, {800'000, sim::Time::zero(), "l"}, big_queue()};
  link.set_dst(&dst);
  link.set_loss_model(std::make_unique<UniformLossModel>(
      1.0, /*seed=*/1, /*data_only=*/false));

  link.send(test::make_ack(1, 1000, {}));
  EXPECT_EQ(link.loss_model_data_drops(), 0u);
  link.send(make_data(1, 0, 1000));
  EXPECT_EQ(link.loss_model_data_drops(), 1u);
  EXPECT_EQ(link.loss_model()->drops(), 2u);  // the model saw both
  sim.run();
  EXPECT_TRUE(agent.packets.empty());
}

}  // namespace
}  // namespace rrtcp::net
