// Shard-scaling curve for the conservative-PDES engine (src/pdes).
//
// Builds one large graph-mode scenario — a multi-dumbbell whose access
// links carry real propagation delay, with --flows TCP flows (default
// 10'000) packed onto 64 sender hosts via FlowSets — and runs it at shard
// counts {1, 2, 4, 8}. The shards=1 leg is the plain single-engine
// harness::Scenario, so the speedup column is a true before/after.
//
// The speedup is whatever the machine can fund: each shard runs on its
// own thread, so on an N-core box the curve should rise until the
// cut-link lookahead rounds stop amortizing the barrier; on a 1-core box
// it sits below 1x (barrier + merge are pure overhead) — the report
// prints hardware_concurrency so the numbers read honestly. Determinism
// is NOT re-checked here (tests/pdes pins per-flow trace equality across
// shard counts); this binary only measures rate. Its deliberately
// symmetric fleet (identical rates, delays and sizes) manufactures
// same-picosecond arrival ties, so flows_done may differ by a hair across
// shard counts — the tie caveat DESIGN.md §17 spells out.
//
// Flags:
//   --quick        1'000 flows on 16 hosts, 2 s horizon (smoke)
//   --flows=N      override the flow count
//   --json=PATH    write the scaling table as JSON (off by default)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>

#include "harness/result_sink.hpp"
#include "harness/scenario.hpp"
#include "pdes/sharded.hpp"
#include "stats/table.hpp"
#include "topo/presets.hpp"

namespace rrtcp::bench {
namespace {

using Clock = std::chrono::steady_clock;

harness::ScenarioSpec make_spec(int shards, int flows, int hosts,
                                sim::Time horizon) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = hosts;
  mdc.m_receivers = hosts / 2;
  mdc.side_delay = sim::Time::milliseconds(5);  // cuttable access links
  mdc.bottleneck_delay = sim::Time::milliseconds(20);
  // Enough capacity that a 10k-flow fleet actually moves bytes: the
  // default 800 kbps bottleneck would park everyone in RTO backoff and the
  // "benchmark" would measure an idle event loop.
  mdc.bottleneck_bps = 1'000'000'000;
  mdc.side_bps = 100'000'000;
  mdc.queue_packets = 256;
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  harness::ScenarioSpec spec;
  spec.name = "bench_shard";
  spec.graph = md.spec;
  spec.shard_count = shards;
  spec.horizon = horizon;
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;

  // One FlowSet per sender host (src_step = 0: the set's flows share the
  // host), variants mixed across hosts, starts staggered so the fleet does
  // not fire as one synchronized burst.
  static constexpr app::Variant kMix[] = {
      app::Variant::kRr, app::Variant::kNewReno, app::Variant::kSack,
      app::Variant::kReno};
  const int per_host = (flows + hosts - 1) / hosts;
  int remaining = flows;
  for (int h = 0; h < hosts && remaining > 0; ++h) {
    harness::FlowSet set;
    set.count = std::min(per_host, remaining);
    set.proto.variant = kMix[h % 4];
    set.proto.bytes = 50'000;
    set.proto.start = sim::Time::milliseconds(h % 7);
    set.proto.src_node = md.senders[static_cast<std::size_t>(h)];
    set.proto.dst_node =
        md.receivers[static_cast<std::size_t>(h % (hosts / 2))];
    set.stagger = sim::Time::milliseconds(1);
    set.src_step = 0;
    set.dst_step = 0;
    spec.add_flow_set(set);
    remaining -= set.count;
  }
  return spec;
}

struct Leg {
  int requested = 0;
  int n_shards = 0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_shard_packets = 0;
  std::uint64_t flows_complete = 0;
  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0.0; }
};

Leg run_one(int shards, int flows, int hosts, sim::Time horizon) {
  pdes::ShardedScenario sc{make_spec(shards, flows, hosts, horizon)};
  const auto t0 = Clock::now();
  const std::uint64_t events = sc.run();
  Leg leg;
  leg.requested = shards;
  leg.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  leg.events = events;
  leg.n_shards = sc.n_shards();
  leg.rounds = sc.rounds();
  leg.cross_shard_packets = sc.cross_shard_packets();
  for (int i = 0; i < sc.n_flows(); ++i)
    if (sc.sender(i).complete()) ++leg.flows_complete;
  return leg;
}

}  // namespace
}  // namespace rrtcp::bench

int main(int argc, char** argv) {
  using namespace rrtcp;
  using namespace rrtcp::bench;

  bool quick = false;
  int flows = 0;  // 0: pick from quick
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--flows=", 8) == 0) {
      flows = std::atoi(argv[i] + 8);
      if (flows < 1) flows = 1;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--flows=N] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  const int hosts = quick ? 16 : 64;
  if (flows == 0) flows = quick ? 1'000 : 10'000;
  const sim::Time horizon = sim::Time::seconds(quick ? 2 : 5);

  std::printf("bench_shard: %d flows on %d sender hosts, %s horizon, %u "
              "hardware thread(s)\n\n",
              flows, hosts, quick ? "2 s" : "5 s",
              std::thread::hardware_concurrency());

  constexpr int kShardCounts[] = {1, 2, 4, 8};
  Leg legs[std::size(kShardCounts)];
  for (std::size_t i = 0; i < std::size(kShardCounts); ++i)
    legs[i] = run_one(kShardCounts[i], flows, hosts, horizon);
  const double base = legs[0].events_per_sec();

  stats::Table table{{"shards", "events/s", "speedup", "rounds",
                      "cross_pkts", "flows_done"}};
  for (const Leg& leg : legs) {
    table.add_row({stats::Table::cell("%d", leg.n_shards),
                   stats::Table::cell("%.3g", leg.events_per_sec()),
                   stats::Table::cell("%.2fx",
                                      base > 0 ? leg.events_per_sec() / base
                                               : 0.0),
                   stats::Table::cell("%llu",
                                      (unsigned long long)leg.rounds),
                   stats::Table::cell(
                       "%llu", (unsigned long long)leg.cross_shard_packets),
                   stats::Table::cell("%llu",
                                      (unsigned long long)leg.flows_complete)});
  }
  table.print();

  if (!json_path.empty()) {
    harness::ResultSink sink{std::size(kShardCounts)};
    for (std::size_t i = 0; i < std::size(kShardCounts); ++i) {
      const Leg& leg = legs[i];
      harness::Record rec;
      rec.set("shards", leg.n_shards);
      rec.set("flows", flows);
      rec.set("events", leg.events);
      rec.set("wall_s", leg.wall_s);
      rec.set("events_per_sec", leg.events_per_sec());
      rec.set("speedup_vs_single",
              base > 0 ? leg.events_per_sec() / base : 0.0);
      rec.set("rounds", leg.rounds);
      rec.set("cross_shard_packets", leg.cross_shard_packets);
      rec.set("flows_complete", leg.flows_complete);
      rec.set("hardware_threads",
              static_cast<int>(std::thread::hardware_concurrency()));
      sink.submit(i, std::move(rec), 0.0);
    }
    harness::write_file(json_path, sink.to_json("bench_shard", 0));
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
