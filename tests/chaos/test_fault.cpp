// Fault-injection engine unit tests: every FaultKind behaves as specified,
// windows (one-shot and flapping) are respected, seeded streams replay
// byte-identically, and — the composition regressions — a delay-spiked
// packet can never be resurrected on the far side of a blackhole, and
// packets sent into an outage never re-emerge regardless of the wrapped
// link's own reorder model.
#include "chaos/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "../testutil.hpp"
#include "net/drop_tail.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/reorder.hpp"
#include "sim/simulator.hpp"

namespace rrtcp::chaos {
namespace {

using sim::Time;

constexpr net::FlowId kFlow = 7;

net::LinkConfig fast_link() {
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;  // 8 us per 1000-byte packet
  cfg.prop_delay = Time::milliseconds(1);
  cfg.name = "faulted";
  return cfg;
}

// A source node whose default route runs through a FaultInjector wrapping
// a real Link into a capturing destination agent — the same interposition
// the chaos soak performs on the dumbbell gateways.
struct Rig {
  explicit Rig(FaultPlan plan, std::uint64_t seed = 42)
      : link{sim, fast_link(), std::make_unique<net::DropTailQueue>(64)},
        injector{sim, link, std::move(plan), seed, "test-fault"} {
    link.set_dst(&dst);
    src.set_default_route(&link);
    dst.attach_agent(kFlow, &sink);
    const int n = interpose(src, link, injector);
    EXPECT_EQ(n, 1);
  }

  void send_data_at(Time t, std::uint64_t seq) {
    sim.schedule_at(t, [this, seq] {
      src.inject(test::make_data(kFlow, seq, 1000));
    });
  }
  void send_ack_at(Time t, std::uint64_t ack) {
    sim.schedule_at(t, [this, ack] {
      src.inject(test::make_ack(kFlow, ack, {}, /*dst=*/2));
    });
  }

  std::vector<std::uint64_t> delivered_seqs() const {
    std::vector<std::uint64_t> out;
    for (const auto& p : sink.packets)
      out.push_back(p.is_data() ? p.tcp.seq : p.tcp.ack);
    return out;
  }

  sim::Simulator sim;
  net::Node src{1};
  net::Node dst{2};
  test::CaptureAgent sink;
  net::Link link;
  FaultInjector injector;
};

FaultPlan one(FaultSpec s) { return FaultPlan{{s}}; }

TEST(Fault, OutageDropsOnlyInsideWindow) {
  FaultSpec s;
  s.kind = FaultKind::kOutage;
  s.start = Time::milliseconds(100);
  s.duration = Time::milliseconds(100);
  Rig rig{one(s)};
  rig.send_data_at(Time::milliseconds(50), 0);    // before: delivered
  rig.send_data_at(Time::milliseconds(120), 1000);  // inside: dropped
  rig.send_data_at(Time::milliseconds(199), 2000);  // inside: dropped
  rig.send_data_at(Time::milliseconds(200), 3000);  // window is half-open
  rig.send_data_at(Time::milliseconds(250), 4000);  // after: delivered
  rig.sim.run();
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{0, 3000, 4000}));
  EXPECT_EQ(rig.injector.dropped(), 2u);
}

TEST(Fault, FlappingOutageRepeatsEveryPeriod) {
  FaultSpec s;
  s.kind = FaultKind::kOutage;
  s.start = Time::milliseconds(100);
  s.duration = Time::milliseconds(50);
  s.period = Time::milliseconds(200);  // down in [100,150), [300,350), ...
  Rig rig{one(s)};
  rig.send_data_at(Time::milliseconds(120), 0);  // first down window
  rig.send_data_at(Time::milliseconds(220), 1);  // up
  rig.send_data_at(Time::milliseconds(320), 2);  // second down window
  rig.send_data_at(Time::milliseconds(420), 3);  // up
  rig.send_data_at(Time::milliseconds(520), 4);  // third down window
  rig.sim.run();
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(rig.injector.dropped(), 3u);
}

TEST(Fault, AckLossDropsOnlyAcks) {
  FaultSpec s;
  s.kind = FaultKind::kAckLoss;
  s.path = FaultPath::kAck;
  s.start = Time::zero();
  s.duration = Time::seconds(10);
  s.probability = 1.0;
  Rig rig{one(s)};
  rig.send_data_at(Time::milliseconds(10), 0);
  rig.send_ack_at(Time::milliseconds(20), 1000);
  rig.send_data_at(Time::milliseconds(30), 1000);
  rig.send_ack_at(Time::milliseconds(40), 2000);
  rig.sim.run();
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{0, 1000}));
  EXPECT_EQ(rig.injector.dropped(), 2u);
}

TEST(Fault, AckDuplicateForwardsAcksTwice) {
  FaultSpec s;
  s.kind = FaultKind::kAckDuplicate;
  s.path = FaultPath::kAck;
  s.start = Time::zero();
  s.duration = Time::seconds(10);
  s.probability = 1.0;
  Rig rig{one(s)};
  rig.send_ack_at(Time::milliseconds(10), 1000);
  rig.send_data_at(Time::milliseconds(20), 0);
  rig.sim.run();
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{1000, 1000, 0}));
  EXPECT_EQ(rig.injector.duplicated(), 1u);
}

TEST(Fault, DelaySpikeHoldsThenDelivers) {
  FaultSpec s;
  s.kind = FaultKind::kDelaySpike;
  s.start = Time::zero();
  s.duration = Time::milliseconds(50);  // only the first packet is inside
  s.probability = 1.0;
  s.extra_delay = Time::milliseconds(80);
  Rig rig{one(s)};
  rig.send_data_at(Time::milliseconds(10), 0);    // spiked +80 ms
  rig.send_data_at(Time::milliseconds(60), 1000);  // outside the window
  rig.sim.run();
  // The later-sent packet overtakes the held one.
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{1000, 0}));
  EXPECT_EQ(rig.injector.delayed(), 1u);
  EXPECT_EQ(rig.injector.dropped(), 0u);
}

TEST(Fault, BurstLossReplaysByteIdenticallyFromSeed) {
  FaultSpec s;
  s.kind = FaultKind::kBurstLoss;
  s.start = Time::zero();
  s.duration = Time::seconds(10);
  s.p_enter_bad = 0.3;
  s.p_exit_bad = 0.4;
  s.loss_in_bad = 1.0;
  auto run = [&](std::uint64_t seed) {
    Rig rig{one(s), seed};
    for (int i = 0; i < 200; ++i)
      rig.send_data_at(Time::milliseconds(i + 1), 1000u * i);
    rig.sim.run();
    return rig.delivered_seqs();
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_EQ(a, b);            // same seed: identical drop pattern
  EXPECT_NE(a, c);            // different seed: different pattern
  EXPECT_LT(a.size(), 200u);  // it did drop something
  EXPECT_GT(a.size(), 0u);    // and did deliver something
}

TEST(Fault, RandomPlanIsDeterministicInSeed) {
  const FaultPlan a = make_random_plan(123);
  const FaultPlan b = make_random_plan(123);
  const FaultPlan c = make_random_plan(124);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_NE(a.describe(), c.describe());
  EXPECT_GE(a.faults.size(), 1u);
  EXPECT_LE(a.faults.size(), 3u);
}

// ---- Composition regressions (the wrapper must not create new packet
// ---- lifecycles the network could never produce). -----------------------

TEST(Fault, SpikedPacketCannotCrossBlackhole) {
  FaultSpec spike;
  spike.kind = FaultKind::kDelaySpike;
  spike.start = Time::zero();
  spike.duration = Time::milliseconds(50);
  spike.probability = 1.0;
  spike.extra_delay = Time::milliseconds(80);
  FaultSpec hole;
  hole.kind = FaultKind::kBlackhole;
  hole.start = Time::milliseconds(50);
  hole.duration = Time::milliseconds(100);
  Rig rig{FaultPlan{{spike, hole}}};
  // Sent at 10 ms (before the hole), would emerge at 90 ms — inside it.
  rig.send_data_at(Time::milliseconds(10), 0);
  rig.sim.run();
  EXPECT_TRUE(rig.sink.packets.empty());
  EXPECT_EQ(rig.injector.delayed(), 1u);
  EXPECT_EQ(rig.injector.dropped(), 1u);  // swallowed at emergence
}

TEST(Fault, SpikedPacketEmergingAfterBlackholeIsDelivered) {
  FaultSpec spike;
  spike.kind = FaultKind::kDelaySpike;
  spike.start = Time::zero();
  spike.duration = Time::milliseconds(50);
  spike.probability = 1.0;
  spike.extra_delay = Time::milliseconds(80);
  FaultSpec hole;
  hole.kind = FaultKind::kBlackhole;
  hole.start = Time::milliseconds(20);
  hole.duration = Time::milliseconds(40);  // over by 60 ms; emergence at 90 ms
  Rig rig{FaultPlan{{spike, hole}}};
  rig.send_data_at(Time::milliseconds(10), 0);
  rig.sim.run();
  EXPECT_EQ(rig.delivered_seqs(), (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(rig.injector.dropped(), 0u);
}

TEST(Fault, NoReorderingResurrectsPacketsAcrossOutage) {
  FaultSpec s;
  s.kind = FaultKind::kOutage;
  s.start = Time::milliseconds(100);
  s.duration = Time::milliseconds(100);
  Rig rig{one(s)};
  // The wrapped link itself reorders aggressively: half of all packets get
  // an extra 30 ms. The injector acts strictly upstream, so reordering
  // must never leak a packet into, out of, or across the outage window.
  rig.link.set_reorder_model(
      std::make_unique<net::ReorderModel>(0.5, Time::milliseconds(30), 99));
  std::vector<std::uint64_t> in_outage;
  std::vector<std::uint64_t> outside;
  for (int i = 0; i < 30; ++i) {
    const Time t = Time::milliseconds(5 + 10 * i);
    const auto seq = static_cast<std::uint64_t>(1000 * i);
    rig.send_data_at(t, seq);
    (s.active_at(t) ? in_outage : outside).push_back(seq);
  }
  rig.sim.run();
  const auto got = rig.delivered_seqs();
  // Exactly the packets sent outside the outage arrive, each exactly once.
  std::vector<std::uint64_t> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, outside);
  EXPECT_EQ(rig.injector.dropped(), in_outage.size());
  // And no pre-outage packet is held so long it lands after a post-outage
  // one: the last pre-outage delivery precedes the first post-outage one.
  std::size_t last_pre = 0;
  std::size_t first_post = got.size();
  const std::uint64_t boundary = in_outage.front();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] < boundary) last_pre = i;
  }
  for (std::size_t i = got.size(); i-- > 0;) {
    if (got[i] > in_outage.back()) first_post = i;
  }
  EXPECT_LT(last_pre, first_post);
}

}  // namespace
}  // namespace rrtcp::chaos
