// The sharded conservative-PDES engine, end to end.
//
// The headline pin lives here: one ScenarioSpec run at shard counts
// {1, 2, 4, 8} must produce IDENTICAL per-flow trace digests, where the
// shard_count = 1 leg is the plain single-engine harness::Scenario — i.e.
// sharding is invisible in every flow's trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "app/flow_factory.hpp"
#include "fuzz/digest.hpp"
#include "harness/scenario.hpp"
#include "net/delay_line.hpp"
#include "net/drop_tail.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/red.hpp"
#include "pdes/sharded.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"
#include "topo/presets.hpp"

namespace rrtcp::pdes {
namespace {

using sim::Time;

TEST(RunBefore, FiresStrictlyBeforeDeadlineAndAdvancesClock) {
  sim::Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(Time::milliseconds(1), [&] { fired.push_back(1); });
  sim.schedule_at(Time::milliseconds(2), [&] { fired.push_back(2); });
  sim.schedule_at(Time::milliseconds(3), [&] { fired.push_back(3); });

  // Half-open window [0, 2ms): the event AT 2 ms must stay pending.
  EXPECT_EQ(sim.run_before(Time::milliseconds(2)), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), Time::milliseconds(2));

  // The boundary event fires in the next (inclusive) window.
  EXPECT_EQ(sim.run_until(Time::milliseconds(3)), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(RunBefore, EmptyWindowStillAdvancesClock) {
  sim::Simulator sim;
  EXPECT_EQ(sim.run_before(Time::milliseconds(5)), 0u);
  EXPECT_EQ(sim.now(), Time::milliseconds(5));
  // schedule_at at exactly now() is legal — merged cross-shard arrivals
  // can land on the boundary the clock just advanced to.
  bool ran = false;
  sim.schedule_at(Time::milliseconds(5), [&] { ran = true; });
  sim.run_until(Time::milliseconds(5));
  EXPECT_TRUE(ran);
}

TEST(FlowSet, ExpansionMaterializesStartsAndNodes) {
  harness::ScenarioSpec spec;
  harness::FlowSet set;
  set.count = 3;
  set.proto.start = Time::milliseconds(10);
  set.proto.src_node = 2;
  set.proto.dst_node = 7;
  set.stagger = Time::milliseconds(100);
  set.src_step = 1;
  set.dst_step = 2;
  spec.add_flow_set(set);
  spec.expand_flow_sets();
  ASSERT_EQ(spec.flows.size(), 3u);
  EXPECT_TRUE(spec.flow_sets.empty());
  for (int i = 0; i < 3; ++i) {
    const harness::FlowSpec& f = spec.flows[static_cast<std::size_t>(i)];
    EXPECT_EQ(f.start, Time::milliseconds(10) + Time::milliseconds(100) * i);
    EXPECT_EQ(f.src_node, 2 + i);
    EXPECT_EQ(f.dst_node, 7 + 2 * i);
  }
}

TEST(FlowSet, ValidateAndBuildSeeTheExpandedFlows) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = 3;
  mdc.m_receivers = 3;
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  harness::ScenarioSpec spec;
  spec.graph = md.spec;
  spec.horizon = Time::seconds(1);
  harness::FlowSet set;
  set.count = 3;
  set.proto.bytes = 1'000;
  set.proto.src_node = md.senders[0];
  set.proto.dst_node = md.receivers[0];
  set.src_step = 1;  // sender hosts are consecutive node indices
  set.dst_step = 1;
  spec.add_flow_set(set);

  EXPECT_FALSE(harness::Scenario::validate(spec).has_value());
  harness::Scenario sc{spec};
  EXPECT_EQ(sc.n_flows(), 3);
}

// ---------------------------------------------------------------------------
// ShardedScenario
// ---------------------------------------------------------------------------

// An N x M dumbbell whose access links carry real propagation delay, so the
// partitioner can cut them (multi_dumbbell's default side_delay of zero
// would glue each side into one component).
harness::ScenarioSpec sharded_md_spec(int shards, int n_flows = 8) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = n_flows;
  mdc.m_receivers = 4;
  mdc.side_delay = Time::milliseconds(5);
  mdc.bottleneck_delay = Time::milliseconds(20);
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  harness::ScenarioSpec spec;
  spec.name = "pdes-pin";
  spec.graph = md.spec;
  spec.shard_count = shards;
  spec.horizon = Time::seconds(12);
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;

  static constexpr app::Variant kMix[] = {
      app::Variant::kRr, app::Variant::kNewReno, app::Variant::kSack,
      app::Variant::kReno};
  for (int i = 0; i < n_flows; ++i) {
    harness::FlowSpec f;
    f.variant = kMix[i % 4];
    f.start = Time::milliseconds(150) * i;
    f.bytes = 30'000;
    f.src_node = md.senders[static_cast<std::size_t>(i)];
    f.dst_node = md.receivers[static_cast<std::size_t>(i) % 4];
    spec.add_flow(f);
  }
  return spec;
}

std::vector<std::uint64_t> per_flow_digests(ShardedScenario& sc) {
  const int n = sc.n_flows();
  std::vector<fuzz::TraceDigest> digests(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<fuzz::DigestObserver>> observers;
  for (int i = 0; i < n; ++i) {
    observers.push_back(std::make_unique<fuzz::DigestObserver>(
        digests[static_cast<std::size_t>(i)], i));
    sc.sender(i).add_observer(observers.back().get());
  }
  sc.run();
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) {
    sc.sender(i).remove_observer(observers[static_cast<std::size_t>(i)].get());
    out.push_back(digests[static_cast<std::size_t>(i)].value());
  }
  return out;
}

TEST(ShardedScenario, SingleShardDelegatesToPlainScenario) {
  ShardedScenario sc{sharded_md_spec(/*shards=*/1)};
  EXPECT_EQ(sc.n_shards(), 1);
  EXPECT_EQ(sc.scenario().n_engines(), 1);
}

TEST(ShardedScenario, DumbbellModeDelegates) {
  harness::ScenarioSpec spec;  // graph empty => dumbbell mode
  spec.shard_count = 4;
  spec.horizon = Time::seconds(2);
  harness::FlowSpec f;
  f.bytes = 10'000;
  spec.add_flow(f);
  ShardedScenario sc{std::move(spec)};
  EXPECT_EQ(sc.n_shards(), 1);
  sc.run();
  EXPECT_TRUE(sc.sender(0).complete());
}

TEST(ShardedScenario, UnpartitionableGraphDelegates) {
  topo::GraphSpec g;
  g.add_node("A");
  g.add_node("B");
  g.add_duplex(0, 1, 10'000'000, Time::zero());  // zero delay: uncuttable
  harness::ScenarioSpec spec;
  spec.graph = std::move(g);
  spec.shard_count = 4;
  spec.horizon = Time::seconds(2);
  harness::FlowSpec f;
  f.bytes = 5'000;
  f.src_node = 0;
  f.dst_node = 1;
  spec.add_flow(f);
  ShardedScenario sc{std::move(spec)};
  EXPECT_EQ(sc.n_shards(), 1);
  sc.run();
  EXPECT_TRUE(sc.sender(0).complete());
}

TEST(ShardedScenario, ShardedRunMakesProgressAcrossShards) {
  ShardedScenario sc{sharded_md_spec(/*shards=*/4)};
  ASSERT_EQ(sc.n_shards(), 4);
  EXPECT_EQ(sc.scenario().n_engines(), 4);
  EXPECT_GT(sc.lookahead(), Time::zero());
  sc.run();
  EXPECT_GT(sc.rounds(), 0u);
  EXPECT_GT(sc.cross_shard_packets(), 0u);
  for (int i = 0; i < sc.n_flows(); ++i) {
    EXPECT_TRUE(sc.sender(i).complete()) << "flow " << i;
  }
}

// The determinism contract (DESIGN.md §17): identical per-flow traces at
// every shard count, with the 1-shard leg being the plain single engine.
TEST(ShardedScenario, PerFlowTracesIdenticalAcrossShardCounts) {
  ShardedScenario single{sharded_md_spec(/*shards=*/1)};
  ASSERT_EQ(single.n_shards(), 1);
  const std::vector<std::uint64_t> baseline = per_flow_digests(single);

  for (const int shards : {2, 4, 8}) {
    ShardedScenario sc{sharded_md_spec(shards)};
    ASSERT_EQ(sc.n_shards(), shards);
    EXPECT_EQ(per_flow_digests(sc), baseline) << shards << " shards";
  }
}

// Same engine, same shard count, two runs: thread scheduling must not be
// able to reorder anything observable.
TEST(ShardedScenario, RepeatedShardedRunsAreIdentical) {
  ShardedScenario a{sharded_md_spec(/*shards=*/4)};
  ShardedScenario b{sharded_md_spec(/*shards=*/4)};
  EXPECT_EQ(per_flow_digests(a), per_flow_digests(b));
}

// Final sender state must agree with the single engine too — digests pin
// the event stream, these pin the outcome a benchmark would report.
TEST(ShardedScenario, FinalSenderStateMatchesSingleEngine) {
  ShardedScenario single{sharded_md_spec(/*shards=*/1)};
  single.run();
  ShardedScenario sharded{sharded_md_spec(/*shards=*/4)};
  sharded.run();
  ASSERT_EQ(single.n_flows(), sharded.n_flows());
  for (int i = 0; i < single.n_flows(); ++i) {
    EXPECT_EQ(single.sender(i).complete(), sharded.sender(i).complete());
    EXPECT_EQ(single.sender(i).snd_una(), sharded.sender(i).snd_una());
    EXPECT_EQ(single.sender(i).max_sent(), sharded.sender(i).max_sent());
  }
}

TEST(ShardedScenario, TryBuildRejectsInvalidSpecs) {
  harness::ScenarioSpec spec = sharded_md_spec(4);
  spec.flows.clear();  // kNoFlows
  harness::SpecError err;
  EXPECT_EQ(ShardedScenario::try_build(std::move(spec), &err), nullptr);
  EXPECT_EQ(err.code, harness::SpecError::Code::kNoFlows);
}

TEST(ShardedScenario, FlowSetsExpandInShardedMode) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = 4;
  mdc.m_receivers = 4;
  mdc.side_delay = Time::milliseconds(5);
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);
  harness::ScenarioSpec spec;
  spec.graph = md.spec;
  spec.shard_count = 2;
  spec.horizon = Time::seconds(10);
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;
  harness::FlowSet set;
  set.count = 4;
  set.proto.bytes = 8'000;
  set.proto.src_node = md.senders[0];
  set.proto.dst_node = md.receivers[0];
  set.stagger = Time::milliseconds(200);
  set.src_step = 1;
  set.dst_step = 1;
  spec.add_flow_set(set);

  ShardedScenario sc{std::move(spec)};
  ASSERT_EQ(sc.n_shards(), 2);
  EXPECT_EQ(sc.n_flows(), 4);
  sc.run();
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(sc.sender(i).complete()) << "flow " << i;
}

// Typed rejections: what one engine needs is refused with
// kShardUnsupported when the spec really partitions, instead of an abort
// (flow_maker) or being silently switched off (record audit, watchdog).
harness::SpecError sharded_build_error(harness::ScenarioSpec spec) {
  harness::SpecError err;
  EXPECT_EQ(ShardedScenario::try_build(std::move(spec), &err), nullptr);
  return err;
}

TEST(ShardedScenario, TryBuildRejectsFlowMaker) {
  harness::ScenarioSpec spec = sharded_md_spec(2);
  spec.flow_maker = [](sim::Simulator& sim, net::Node& snd, net::Node& rcv,
                       net::FlowId id, const harness::FlowSpec& fs) {
    return app::make_flow(fs.variant, sim, snd, rcv, id, fs.tcp);
  };
  // One engine still takes it.
  harness::ScenarioSpec single = spec;
  single.shard_count = 1;
  EXPECT_FALSE(ShardedScenario::validate(single).has_value());
  EXPECT_EQ(sharded_build_error(std::move(spec)).code,
            harness::SpecError::Code::kShardUnsupported);
}

TEST(ShardedScenario, TryBuildRejectsRecordAudit) {
  harness::ScenarioSpec spec = sharded_md_spec(2);
  spec.instruments.audit = harness::AuditMode::kRecord;
  EXPECT_EQ(sharded_build_error(std::move(spec)).code,
            harness::SpecError::Code::kShardUnsupported);
}

TEST(ShardedScenario, TryBuildRejectsWatchdog) {
  harness::ScenarioSpec spec = sharded_md_spec(2);
  spec.instruments.watchdog = true;
  EXPECT_EQ(sharded_build_error(std::move(spec)).code,
            harness::SpecError::Code::kShardUnsupported);
}

// The build-gated audit stays accepted: it is simply off under sharding.
TEST(ShardedScenario, BuildGatedAuditIsOffUnderSharding) {
  harness::ScenarioSpec spec = sharded_md_spec(2);
  spec.instruments.audit = harness::AuditMode::kBuildGated;
  auto sc = ShardedScenario::try_build(std::move(spec));
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sc->spec().instruments.audit, harness::AuditMode::kNone);
}
// Every event of a sharded fleet fits its slot inline: the sum runs over
// all engines, so a callable that spills on any shard shows up in it.
TEST(ShardedScenario, ShardedFleetSchedulesNoHeapFallbacks) {
  for (const int shards : {2, 4}) {
    ShardedScenario sc{sharded_md_spec(shards, /*n_flows=*/16)};
    ASSERT_EQ(sc.n_shards(), shards);
    sc.run();
    EXPECT_GT(sc.cross_shard_packets(), 0u);
    EXPECT_EQ(sc.callback_heap_fallbacks(), 0u) << shards << " shards";

    // A spill on the last engine counts.
    const char big[64] = {};
    sc.scenario().engine(shards - 1).schedule_in(
        Time::milliseconds(1), [big] { (void)big[0]; });
    EXPECT_EQ(sc.callback_heap_fallbacks(), 1u) << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// The link-order merge against the canonical sort
// ---------------------------------------------------------------------------

// K cut links into one destination engine, driven by a seeded script.
// Serialization ends fall on a coarse grid and every link's delay is a
// whole number of grid steps, so packets from different links often
// arrive at one instant. Destination timers land on the same grid: some
// are keyed before a merge, some right after it, and some by the arrivals
// themselves. With `link_order` the merge is Channel::hand_over in
// ascending link index; without it, the reference gathers the same
// packets, sorts them by (arrival, link, per-link seq) and pushes them in
// that order. Returns what fired on the destination engine, in order.
struct MergeWorld {
  sim::Simulator engine;
  std::vector<std::string> trace;
  int cross_link_ties = 0;
  Time last_arrival = Time::zero();
  int last_link = -1;

  void note(const std::string& what) {
    trace.push_back(what + " @" + std::to_string(engine.now().ps()));
  }
  void timer(Time at, int id) {
    engine.schedule_at(at, [this, id] { note("timer" + std::to_string(id)); });
  }
};

struct MergeArrivals final : net::Agent {
  MergeWorld* w = nullptr;
  int link = 0;
  void receive(net::Packet p) override {
    const Time now = w->engine.now();
    if (now == w->last_arrival && link != w->last_link) ++w->cross_link_ties;
    w->last_arrival = now;
    w->last_link = link;
    w->note("link" + std::to_string(link) + "#" + std::to_string(p.tcp.seq));
    // Some arrivals arm a timer, at their own instant or a step later.
    if (p.tcp.seq % 4 == 0) {
      const auto steps = static_cast<std::int64_t>(p.tcp.seq % 3);
      w->timer(now + Time::microseconds(100) * steps,
               1000 * (link + 1) + static_cast<int>(p.tcp.seq));
    }
  }
};

std::vector<std::string> merge_trace(std::uint64_t seed, bool link_order,
                                     int* cross_link_ties) {
  constexpr int kLinks = 5;
  constexpr int kRounds = 12;
  const Time grid = Time::microseconds(100);
  const Time la = grid * 10;
  sim::Rng rng{seed, "merge-order"};
  auto draw = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<std::int64_t>(rng.uniform_int(lo, hi));
  };

  MergeWorld w;
  sim::Simulator src;  // the cut links only count hand-offs here
  net::Node dst{2};
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<std::unique_ptr<net::DelayLine>> lines;  // the reference's
  std::vector<MergeArrivals> agents(kLinks);
  std::vector<Time> prop;
  for (int k = 0; k < kLinks; ++k) {
    agents[static_cast<std::size_t>(k)].w = &w;
    agents[static_cast<std::size_t>(k)].link = k;
    dst.attach_agent(static_cast<net::FlowId>(k + 1),
                     &agents[static_cast<std::size_t>(k)]);
    prop.push_back(la + grid * draw(0, 3));
    links.push_back(std::make_unique<net::Link>(
        src, net::LinkConfig{10'000'000, prop.back(), "cut"},
        std::make_unique<net::DropTailQueue>(1)));
    channels.push_back(std::make_unique<Channel>(*links.back(), dst, w.engine));
    lines.push_back(std::make_unique<net::DelayLine>(
        w.engine, [&dst](Time, net::Packet& p) { dst.receive(p); }));
  }

  struct Pending {
    Time arrival;
    Time t_done;
    int link;
    std::uint64_t seq;
    net::Packet pkt;
  };
  std::vector<Pending> pending;  // the reference's channel buffers
  std::vector<Time> next_done;
  std::vector<std::uint64_t> seq(kLinks, 0);
  for (int k = 0; k < kLinks; ++k) next_done.push_back(grid * draw(1, 3));

  int timer_id = 0;
  for (int r = 0; r < kRounds; ++r) {
    const Time boundary = la * (r + 1);
    const bool last = r + 1 == kRounds;
    for (std::int64_t i = draw(0, 4); i > 0; --i)
      w.timer(w.engine.now() + grid * draw(0, 29), timer_id++);
    // Each link starts every packet ending by one step past the boundary,
    // so some end exactly on it and some just after it.
    for (int k = 0; k < kLinks; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      while (next_done[ku] <= boundary + grid) {
        const Time t_done = next_done[ku];
        const Time arrival = t_done + prop[ku];
        net::Packet p =
            test::make_data(static_cast<net::FlowId>(k + 1), seq[ku], 1000);
        if (link_order)
          channels[ku]->push(arrival, t_done, p);
        else
          pending.push_back({arrival, t_done, k, seq[ku], p});
        ++seq[ku];
        next_done[ku] += grid * draw(1, 3);
      }
    }
    if (last)
      w.engine.run_until(boundary);
    else
      w.engine.run_before(boundary);

    if (link_order) {
      for (const auto& ch : channels) ch->hand_over(boundary, last);
    } else {
      std::vector<Pending> due;
      std::vector<Pending> keep;
      for (const Pending& m : pending) {
        const bool ended = last ? m.t_done <= boundary : m.t_done < boundary;
        (ended ? due : keep).push_back(m);
      }
      std::sort(due.begin(), due.end(), [](const Pending& a, const Pending& b) {
        return std::tie(a.arrival, a.link, a.seq) <
               std::tie(b.arrival, b.link, b.seq);
      });
      for (const Pending& m : due)
        lines[static_cast<std::size_t>(m.link)]->push(m.arrival, m.pkt);
      pending = std::move(keep);
    }
    for (std::int64_t i = draw(0, 4); i > 0; --i)
      w.timer(boundary + grid * draw(0, 19), timer_id++);
  }
  w.engine.run();
  *cross_link_ties = w.cross_link_ties;
  return w.trace;
}

TEST(ChannelMerge, LinkOrderFiresLikeTheCanonicalSort) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    int ties = 0;
    int ref_ties = 0;
    const std::vector<std::string> merged = merge_trace(seed, true, &ties);
    const std::vector<std::string> sorted = merge_trace(seed, false, &ref_ties);
    EXPECT_GT(ties, 10) << "seed " << seed << ": too few same-instant arrivals";
    EXPECT_GT(merged.size(), 200u) << "seed " << seed;
    EXPECT_EQ(merged, sorted) << "seed " << seed;
  }
}

// RED on a shared bottleneck under sharding: each queue is built on the
// engine of its link's tail node, so its idle clock reads that shard's
// time. The receiver side is the larger component, so the partitioner puts
// it on shard 0 and R1 — with the RED bottleneck — on shard 1. The
// multi-dumbbell with zero access delay is tie-safe (DESIGN.md §17), so the
// 1- and 2-shard runs must agree on every flow's trace and on the RED
// queue's early and forced drops.
struct RedRun {
  std::vector<std::uint64_t> digests;
  std::uint64_t early = 0;
  std::uint64_t forced = 0;
  std::vector<std::uint64_t> uids;  // every arrival at the RED queue
};

RedRun run_red_multi_dumbbell(int shards) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = 3;
  mdc.m_receivers = 6;
  mdc.bottleneck_bps = 2'000'000;
  mdc.bottleneck_delay = Time::milliseconds(20);
  net::RedConfig rc;
  rc.buffer_packets = 30;
  rc.min_th = 3.0;
  rc.max_th = 12.0;
  // A short nominal packet time makes every idle period decay the average
  // hard, so the idle clock — the one place RED reads its engine's time —
  // steers the drop decisions.
  rc.w_q = 0.02;
  rc.mean_pkt_tx = Time::microseconds(100);
  rc.seed = 7;
  mdc.make_bottleneck_queue = [rc](sim::Simulator& sim) {
    return std::make_unique<net::RedQueue>(sim, rc);
  };
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  harness::ScenarioSpec spec;
  spec.name = "pdes-red";
  spec.graph = md.spec;
  spec.shard_count = shards;
  spec.horizon = Time::seconds(20);
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  for (int i = 0; i < 6; ++i) {
    harness::FlowSpec f;
    f.variant = i % 2 == 0 ? app::Variant::kRr : app::Variant::kNewReno;
    f.start = Time::milliseconds(70) * i;
    f.bytes = 200'000;
    f.src_node = md.senders[static_cast<std::size_t>(i) % 3];
    f.dst_node = md.receivers[static_cast<std::size_t>(i)];
    spec.add_flow(f);
  }

  ShardedScenario sc{std::move(spec)};
  EXPECT_EQ(sc.n_shards(), shards);
  if (shards > 1) {
    EXPECT_EQ(sc.partition().node_shard[static_cast<std::size_t>(md.r1)], 1);
  }
  auto& red = dynamic_cast<net::RedQueue&>(sc.link(md.bottleneck_link).queue());
  test::UidRecorder uids;
  red.set_observer(&uids);
  RedRun out;
  out.digests = per_flow_digests(sc);
  out.uids = std::move(uids.uids);
  out.early = red.early_drops();
  out.forced = red.forced_drops();
  return out;
}

TEST(ShardedScenario, RedBottleneckIdenticalAcrossShardCounts) {
  const RedRun one = run_red_multi_dumbbell(1);
  const RedRun two = run_red_multi_dumbbell(2);
  EXPECT_GT(one.early, 0u) << "RED never dropped early";
  EXPECT_EQ(two.digests, one.digests);
  EXPECT_EQ(two.early, one.early);
  EXPECT_EQ(two.forced, one.forced);
}

// Packet uids are minted by the endpoints, so on a tie-free spec the
// bottleneck sees the same uids in the same order at any shard count, even
// though the 2-shard run mints on two worker threads at once.
TEST(ShardedScenario, BottleneckUidsIdenticalAcrossShardCounts) {
  const RedRun one = run_red_multi_dumbbell(1);
  const RedRun two = run_red_multi_dumbbell(2);
  ASSERT_FALSE(one.uids.empty());
  EXPECT_EQ(two.uids, one.uids);
}

}  // namespace
}  // namespace rrtcp::pdes
