// Tie-order golden: the exact (time, packet) sequence a shared bottleneck
// dequeues on a symmetric fleet.
//
// The workload is the shape of perfbench's small fleet: 400 flows from 16
// sender hosts to 8 receivers across a multi-dumbbell whose links all
// carry 20 ms, with equal rates and transfer sizes. Symmetry makes
// same-picosecond events common — arrivals, deliveries and transmitter
// releases at one instant — and the scheduler's (time, insertion seq)
// tie-break decides their order. Any change that re-keys an event (a
// different seq, or one event more or less keyed in between) reorders
// those ties and moves this hash, even when the bench families' totals
// stay put. The golden_* bench families do not catch that on their own:
// their dumbbells have too few same-instant arrivals.
//
// The sharded pins run the same fleet through pdes::ShardedScenario at 2
// and 4 shards. There the cross-shard merge decides the keys of every
// packet arriving over a cut link, so a change to the hand-off or the
// merge that reorders same-instant arrivals moves these hashes.
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "net/queue_disc.hpp"
#include "pdes/sharded.hpp"
#include "topo/presets.hpp"

namespace rrtcp {
namespace {

// Recorded at the commit before the transmitter release became a
// reserved-key event; every change since must keep it.
constexpr std::uint64_t kGoldenHash = 0x1ff5bbc0920b1ebdULL;
constexpr std::uint64_t kGoldenDequeues = 15999;

harness::ScenarioSpec fleet_spec(int* bottleneck_link, int shards = 1) {
  constexpr int kHosts = 16;
  constexpr int kFlows = 400;
  constexpr std::uint64_t kSeed = 1;
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = kHosts;
  mdc.m_receivers = kHosts / 2;
  mdc.side_delay = sim::Time::milliseconds(20);
  mdc.bottleneck_delay = sim::Time::milliseconds(20);
  mdc.bottleneck_bps = 1'000'000'000;
  mdc.side_bps = 100'000'000;
  mdc.queue_packets = 256;
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);
  *bottleneck_link = md.bottleneck_link;

  harness::ScenarioSpec spec;
  spec.name = "tie_order";
  spec.graph = md.spec;
  spec.seed = kSeed;
  spec.horizon = sim::Time::seconds(1);
  spec.shard_count = shards;
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;
  static constexpr app::Variant kMix[] = {
      app::Variant::kRr, app::Variant::kNewReno, app::Variant::kSack,
      app::Variant::kReno};
  constexpr int kPerHost = kFlows / kHosts;
  for (int h = 0; h < kHosts; ++h) {
    const std::uint64_t hs =
        harness::derive_seed(kSeed, static_cast<std::uint64_t>(h));
    harness::FlowSet set;
    set.count = kPerHost;
    set.proto.variant = kMix[(static_cast<std::uint64_t>(h) + kSeed) % 4];
    set.proto.bytes = 50'000;
    set.proto.start =
        sim::Time::milliseconds(static_cast<std::int64_t>(hs % 7));
    set.proto.src_node = md.senders[static_cast<std::size_t>(h)];
    set.proto.dst_node =
        md.receivers[static_cast<std::size_t>(h % (kHosts / 2))];
    set.stagger = sim::Time::milliseconds(1);
    spec.add_flow_set(set);
  }
  return spec;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// FNV-1a over 64-bit words of (dequeue time in ps, packet uid).
class DequeueHasher final : public net::QueueObserver {
 public:
  explicit DequeueHasher(const sim::Simulator& sim) : sim_{sim} {}
  void on_dequeue(const net::Packet& p, const net::QueueDisc&) override {
    mix(static_cast<std::uint64_t>(sim_.now().ps()));
    mix(p.uid);
    ++count;
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::uint64_t count = 0;

 private:
  void mix(std::uint64_t w) {
    hash ^= w;
    hash *= 0x100000001b3ULL;
  }
  const sim::Simulator& sim_;
};

TEST(GoldenTieOrder, BottleneckDequeueSequenceOfSymmetricFleet) {
  int bottleneck = -1;
  harness::Scenario sc{fleet_spec(&bottleneck)};
  DequeueHasher hasher{sc.sim()};
  sc.graph().link(bottleneck).queue().set_observer(&hasher);
  sc.run();
  EXPECT_EQ(hasher.count, kGoldenDequeues);
  EXPECT_EQ(hasher.hash, kGoldenHash) << "dequeue hash " << hex(hasher.hash);
}

struct ShardedPin {
  int shards;
  std::uint64_t hash;
  std::uint64_t dequeues;
  std::uint64_t cross_shard_packets;
};

// Recorded at the commit before cut links handed their packets off at
// transmit time and the merge ran in link order.
constexpr ShardedPin kShardedPins[] = {
    {2, 0x77c5e9393c8b319dULL, 16052, 65112},
    {4, 0x332520231aa79c8dULL, 16047, 82069},
};

// The bottleneck's dequeues are hashed on the engine that owns its queue,
// the shard of the link's tail node.
TEST(GoldenTieOrder, ShardedBottleneckDequeueSequenceOfSymmetricFleet) {
  for (const ShardedPin& pin : kShardedPins) {
    SCOPED_TRACE(std::to_string(pin.shards) + " shards");
    int bottleneck = -1;
    pdes::ShardedScenario sc{fleet_spec(&bottleneck, pin.shards)};
    ASSERT_EQ(sc.n_shards(), pin.shards);
    const int tail =
        sc.spec().graph.links[static_cast<std::size_t>(bottleneck)].from;
    const int shard = sc.partition().node_shard[static_cast<std::size_t>(tail)];
    DequeueHasher hasher{sc.scenario().engine(shard)};
    sc.link(bottleneck).queue().set_observer(&hasher);
    sc.run();
    EXPECT_EQ(hasher.count, pin.dequeues);
    EXPECT_EQ(hasher.hash, pin.hash) << "dequeue hash " << hex(hasher.hash);
    EXPECT_EQ(sc.cross_shard_packets(), pin.cross_shard_packets);
  }
}

}  // namespace
}  // namespace rrtcp
