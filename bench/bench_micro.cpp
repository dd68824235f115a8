// Microbenchmark / perf-regression harness for the simulator substrate.
//
// Self-contained (no external benchmark framework): each benchmark times a
// fixed workload with std::chrono and counts heap traffic through this
// binary's global operator new/delete overrides. Two engines run the same
// forwarding-shaped workloads:
//
//   legacy — the pre-pooling scheduler preserved verbatim in
//            sim/legacy_scheduler.hpp (shared_ptr event states +
//            std::function callbacks);
//   pooled — the production Simulator (chunked slot pool, SmallFn inline
//            captures, 4-ary heap).
//
// The headline row is `forward`: link-delivery-shaped chains of 1000 B
// packets. Legacy schedules one packet-capturing event per hop (the old
// shape of src/net/link.cpp); pooled holds each packet in a net::DelayLine
// the way a link's pipe does now. The pooled engine's speedup over legacy
// and both raw events/sec numbers land in BENCH_micro.json, the baseline
// artifact EXPERIMENTS.md §"Performance baselines" explains how to record
// and compare.
//
// Flags:
//   --quick        ~10x smaller workloads (CI smoke)
//   --repeat=N     best-of-N timing per benchmark (default 3)
//   --json=PATH    where to write the JSON (default BENCH_micro.json)
//   --no-json      skip the artifact
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/result_sink.hpp"
#include "harness/scenario.hpp"
#include "net/delay_line.hpp"
#include "net/drop_tail.hpp"
#include "net/node.hpp"
#include "net/red.hpp"
#include "pdes/sharded.hpp"
#include "sim/legacy_scheduler.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "topo/presets.hpp"

// ---------------------------------------------------------------------------
// Global allocation counters. Every heap round-trip in this process passes
// through here; benchmarks snapshot the counter around their measured
// region, so allocs/event is exact, not sampled.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rrtcp::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

net::Packet bench_packet(std::uint64_t seq) {
  net::Packet p;
  p.flow = 1;
  p.type = net::PacketType::kData;
  p.size_bytes = 1000;
  p.tcp.seq = seq;
  p.tcp.payload = 1000;
  return p;
}

struct Measure {
  double wall_s = 0.0;
  std::uint64_t units = 0;   // events or packets
  std::uint64_t allocs = 0;  // heap round-trips in the measured region
  double per_sec() const { return wall_s > 0 ? units / wall_s : 0.0; }
  double allocs_per_unit() const {
    return units > 0 ? static_cast<double>(allocs) / units : 0.0;
  }
};

// Keeps the better (higher-throughput) of two attempts.
void keep_best(Measure& best, const Measure& m) {
  if (best.units == 0 || m.per_sec() > best.per_sec()) best = m;
}

// ---------------------------------------------------------------------------
// forward: link-delivery-shaped chains. `chains` packets circulate; each
// hop waits 10 us plus a per-hop jitter and is one event, and the chains
// share one budget of hops. The warmup pass sizes the event pool / heap
// (and the pooled side's lines) so the measured pass sees the steady
// state.
//
// legacy: each hop is an event whose callback captures the Packet by
// value and schedules the next hop — what Link::transmit_next did per
// packet before packets in flight moved into net::DelayLine.
template <typename SimT>
struct ForwardChain {
  ForwardChain(SimT& s, int /*chains*/) : sim{&s} {}
  SimT* sim;
  std::uint64_t remaining = 0;

  void start(int /*chain*/, net::Packet pkt) { hop(pkt); }
  void hop(net::Packet pkt) {
    // Per-hop delays vary as real serialization/propagation times do;
    // lockstep identical timestamps would exercise only the FIFO
    // tie-break, which real forwarding almost never hits.
    const auto jitter = static_cast<std::int64_t>(++pkt.tcp.seq * 7919 % 997);
    sim->schedule_in(sim::Time::microseconds(10) + sim::Time::nanoseconds(jitter),
                     [this, pkt]() mutable {
                       if (remaining == 0) return;
                       --remaining;
                       hop(pkt);
                     });
  }
};

// pooled: each chain's packet waits in its own net::DelayLine, as in a
// link's pipe, and the line's sink sends it on. Same delays as legacy,
// but the hop count lives in the chain, not in the packet: a hop copies
// the packet unmodified, as Link::transmit_next does.
struct LineChains {
  LineChains(sim::Simulator& s, int chains)
      : sim{&s}, hops(static_cast<std::size_t>(chains)) {
    for (int c = 0; c < chains; ++c)
      lines.push_back(std::make_unique<net::DelayLine>(
          s, [this, c](sim::Time, net::Packet& p) {
            if (remaining == 0) return;
            --remaining;
            hop(c, p);
          }));
  }
  sim::Simulator* sim;
  std::uint64_t remaining = 0;
  std::vector<std::uint64_t> hops;
  std::vector<std::unique_ptr<net::DelayLine>> lines;

  void start(int c, const net::Packet& pkt) {
    hops[static_cast<std::size_t>(c)] = pkt.tcp.seq;
    hop(c, pkt);
  }
  void hop(int c, const net::Packet& pkt) {
    const auto i = static_cast<std::size_t>(c);
    const auto jitter = static_cast<std::int64_t>(++hops[i] * 7919 % 997);
    lines[i]->push(sim->now() + sim::Time::microseconds(10) +
                       sim::Time::nanoseconds(jitter),
                   pkt);
  }
};

template <typename SimT, typename Chains>
Measure run_forward(std::uint64_t warmup_events, std::uint64_t events,
                    int chains, int repeat) {
  Measure best;
  for (int r = 0; r < repeat; ++r) {
    SimT sim;
    Chains chain{sim, chains};
    auto pump = [&](std::uint64_t n) {
      chain.remaining = n;
      for (int c = 0; c < chains; ++c) chain.start(c, bench_packet(c));
      sim.run();
    };
    pump(warmup_events);

    const std::uint64_t events0 = sim.events_executed();
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    pump(events);
    Measure m;
    m.wall_s = seconds_since(t0);
    m.units = sim.events_executed() - events0;
    m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    keep_best(best, m);
  }
  return best;
}

// ---------------------------------------------------------------------------
// churn: schedule a batch, cancel every other handle, drain. Exercises the
// handle/cancellation path both engines share. Delays are relative
// (schedule_in) so the identical pattern can run twice per repeat: once
// unmeasured to grow the event pool / heap / wheel to their working set,
// then the measured steady-state pass — allocs/event is a real steady-
// state number, not pool-growth noise. `scale_delay` spreads the batch
// over near-horizon (heap) or RTO-like far-future (wheel) instants.
template <typename SimT>
Measure run_churn(std::uint64_t n, sim::Time (*delay_of)(std::uint64_t),
                  int repeat) {
  Measure best;
  std::vector<decltype(std::declval<SimT&>().schedule_at(
      sim::Time::zero(), []() {}))> handles;
  for (int r = 0; r < repeat; ++r) {
    SimT sim;
    handles.clear();
    handles.reserve(n);
    auto pass = [&] {
      handles.clear();
      for (std::uint64_t i = 0; i < n; ++i)
        handles.push_back(sim.schedule_in(delay_of(i), []() {}));
      for (std::uint64_t i = 0; i < n; i += 2) handles[i].cancel();
      sim.run();
    };
    pass();  // warm: pool chunks, heap/wheel arrays, handle vector
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    pass();
    Measure m;
    m.wall_s = seconds_since(t0);
    m.units = n;  // scheduled events (half execute, half cancel)
    m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    keep_best(best, m);
  }
  return best;
}

sim::Time churn_near_delay(std::uint64_t i) {
  return sim::Time::microseconds(static_cast<std::int64_t>(i % 997));
}

// RTO-scale arming: 500 ms .. 4 s out, the band src/tcp's retransmission
// timers live in. On the pooled engine these land in the timer wheel and
// the cancelled half never touches the heap at all.
sim::Time churn_far_delay(std::uint64_t i) {
  return sim::Time::milliseconds(500 + static_cast<std::int64_t>(i % 29) * 125);
}

// ---------------------------------------------------------------------------
// reschedule: the RTO re-arm storm. A fixed population of pending timers is
// repeatedly moved to a new expiry — what TcpSenderBase::restart_rto_timer()
// does on every transmission. The pooled engine takes reschedule_at (slot
// and stored callable reused); legacy emulates with cancel + schedule, which
// is also what the pooled engine did before reschedule_at existed.
template <typename SimT>
Measure run_reschedule(std::uint64_t rearms, int repeat) {
  constexpr std::uint64_t kFlows = 64;
  Measure best;
  for (int r = 0; r < repeat; ++r) {
    SimT sim;
    using Handle = decltype(sim.schedule_at(sim::Time::zero(), []() {}));
    std::vector<Handle> timers(kFlows);
    auto rearm = [&](std::uint64_t flow, std::uint64_t round) {
      // ~1 s RTO with per-flow jitter so expiries spread across buckets.
      const auto rto = sim::Time::seconds(1) +
                       sim::Time::microseconds(
                           static_cast<std::int64_t>((flow * 31 + round) % 997));
      Handle& h = timers[flow];
      if constexpr (requires { sim.reschedule_in(h, rto); }) {
        if (h.pending()) {
          h = sim.reschedule_in(h, rto);
          return;
        }
      } else {
        h.cancel();
      }
      h = sim.schedule_in(rto, []() {});
    };
    auto pass = [&](std::uint64_t rounds) {
      for (std::uint64_t round = 0; round < rounds; ++round) {
        for (std::uint64_t f = 0; f < kFlows; ++f) rearm(f, round);
        // Advance a little between rounds: arms happen at moving "now",
        // as ACK-clocked transmissions do.
        sim.run_until(sim.now() + sim::Time::microseconds(100));
      }
    };
    pass(2);  // warm pool/heap/wheel
    const std::uint64_t rounds = rearms / kFlows;
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    pass(rounds);
    Measure m;
    m.wall_s = seconds_since(t0);
    m.units = rounds * kFlows;
    m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    keep_best(best, m);
    for (auto& h : timers) h.cancel();
    sim.run();
  }
  return best;
}

// ---------------------------------------------------------------------------
// route_forward: the per-hop routing decision in isolation — a gateway's
// FlatTable32 route lookup plus the virtual egress dispatch, no event
// loop. The table carries 64 destinations (a sweep-scale topology), and
// every 7th packet misses the table to exercise the default-route path a
// real edge gateway takes for off-mesh traffic. units = hops; the steady
// state must never touch the allocator.
struct CountingHandler final : net::PacketHandler {
  std::uint64_t delivered = 0;
  void send(net::Packet) override { ++delivered; }
};

Measure run_route_forward(std::uint64_t hops, int repeat) {
  constexpr std::uint32_t kDests = 64;
  constexpr net::NodeId kOffMesh = 5000;  // not in the table -> default route
  Measure best;
  for (int r = 0; r < repeat; ++r) {
    net::Node gw{1000};
    std::vector<CountingHandler> sinks(kDests);
    for (std::uint32_t d = 0; d < kDests; ++d) gw.add_route(d + 1, &sinks[d]);
    CountingHandler fallback;
    gw.set_default_route(&fallback);

    net::Packet p = bench_packet(0);
    auto hop = [&](std::uint64_t i) {
      // Scramble the destination so successive probes don't stay pinned
      // to one slot run; the multiplier is Knuth's 2^32 golden-ratio hash.
      p.dst = i % 7 == 6
                  ? kOffMesh
                  : 1 + static_cast<net::NodeId>((i * 2654435761u) % kDests);
      gw.receive(p);
    };
    for (std::uint64_t i = 0; i < 4096; ++i) hop(i);  // warm table + caches

    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < hops; ++i) hop(i);
    Measure m;
    m.wall_s = seconds_since(t0);
    m.units = hops;
    m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    keep_best(best, m);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Queue disciplines: enqueue/dequeue round-trips through a warm queue.
// After the warmup cycle fills the PacketRing to its working depth, the
// steady state should touch the allocator zero times per packet.
template <typename MakeQueue>
Measure run_queue(MakeQueue make_queue, std::uint64_t ops, int repeat) {
  Measure best;
  for (int r = 0; r < repeat; ++r) {
    auto q = make_queue();
    std::uint64_t seq = 0;
    for (int i = 0; i < 64; ++i) {  // warm the ring past its depth
      q->enqueue(bench_packet(seq++));
      (void)q->dequeue();
    }
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      q->enqueue(bench_packet(seq++));
      (void)q->dequeue();
    }
    Measure m;
    m.wall_s = seconds_since(t0);
    m.units = ops;
    m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    keep_best(best, m);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Whole-stack rate through the declarative scenario API: RR flow(s)
// saturating the paper's dumbbell, no tracers, no audit. units = packets
// delivered at the bottleneck; events/sec reported alongside.
struct EndToEnd {
  Measure packets;
  double events_per_sec = 0.0;
  double pool_slots = 0.0;
  double callback_heap_fallbacks = 0.0;
  // Setup-phase vs steady-state allocation split: connection setup, pool
  // growth, scoreboard/stat vector sizing all happen early, so the first
  // quarter of the horizon absorbs them; the remaining three quarters are
  // what the 0-allocs/packet claim is measured on.
  std::uint64_t setup_allocs = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_packets = 0;
  double steady_allocs_per_packet() const {
    return steady_packets > 0
               ? static_cast<double>(steady_allocs) / steady_packets
               : 0.0;
  }
};

EndToEnd run_end_to_end(int n_flows, sim::Time horizon, int repeat) {
  EndToEnd best;
  for (int r = 0; r < repeat; ++r) {
    harness::ScenarioSpec spec;
    spec.name = "bench_micro/e2e";
    spec.horizon = horizon;
    spec.instruments.tracers = false;
    spec.instruments.audit = harness::AuditMode::kNone;
    spec.bottleneck = harness::QueueSpec::drop_tail(8);
    spec.add_flows(n_flows, {.variant = app::Variant::kRr});
    harness::Scenario sc{spec};

    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    sc.run_until(horizon / 4);
    const std::uint64_t allocs_mid =
        g_allocs.load(std::memory_order_relaxed);
    const std::uint64_t pkts_mid =
        sc.topology().bottleneck().packets_delivered();
    sc.run();
    Measure m;
    m.wall_s = seconds_since(t0);
    m.units = sc.topology().bottleneck().packets_delivered();
    m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    if (best.packets.units == 0 ||
        m.per_sec() > best.packets.per_sec()) {
      best.packets = m;
      best.events_per_sec =
          m.wall_s > 0 ? sc.sim().events_executed() / m.wall_s : 0.0;
      best.pool_slots = static_cast<double>(sc.sim().event_pool_slots());
      best.callback_heap_fallbacks =
          static_cast<double>(sc.sim().callback_heap_fallbacks());
      best.setup_allocs = allocs_mid - allocs0;
      best.steady_allocs =
          g_allocs.load(std::memory_order_relaxed) - allocs_mid;
      best.steady_packets = m.units - pkts_mid;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// shard_scaling: the sharded conservative-PDES engine against the single
// engine on the same multi-dumbbell scenario (graph-mode FlowSet, RR
// senders saturating the shared bottleneck). units = packets delivered,
// summed over every link: the work done, which an engine that fires fewer
// events for it does faster (events executed across all shards ride along
// as events_per_sec). The speedup is whatever the machine's cores can fund
// — on a 1-core box the barrier overhead makes it < 1x, and the row
// reports that honestly (hardware_threads lands in the JSON); neither
// direction is ratio-gated.
struct ShardScaling {
  Measure m;
  double events_per_sec = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t cross_shard_packets = 0;
};

harness::ScenarioSpec shard_bench_spec(int shards, int n_flows,
                                       sim::Time horizon) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = n_flows;
  mdc.m_receivers = n_flows;
  mdc.side_delay = sim::Time::milliseconds(5);  // cuttable access links
  mdc.bottleneck_delay = sim::Time::milliseconds(20);
  // A fat pipe and a deep queue: the default 800 kbps dumbbell would park
  // the whole fleet in RTO backoff and leave nothing to measure.
  mdc.bottleneck_bps = 100'000'000;
  mdc.side_bps = 1'000'000'000;
  mdc.queue_packets = 128;
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  harness::ScenarioSpec spec;
  spec.name = "bench_micro/shard";
  spec.graph = md.spec;
  spec.shard_count = shards;
  spec.horizon = horizon;
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;
  harness::FlowSet set;
  set.count = n_flows;
  set.proto.variant = app::Variant::kRr;
  set.proto.bytes = 10'000'000;  // backlog outlives the horizon: always busy
  set.proto.src_node = md.senders[0];
  set.proto.dst_node = md.receivers[0];
  set.stagger = sim::Time::milliseconds(40);
  set.src_step = 1;
  set.dst_step = 1;
  spec.add_flow_set(set);
  return spec;
}

ShardScaling run_shard_scaling(int shards, int n_flows, sim::Time horizon,
                               int repeat) {
  ShardScaling best;
  for (int r = 0; r < repeat; ++r) {
    pdes::ShardedScenario sc{shard_bench_spec(shards, n_flows, horizon)};
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    const std::uint64_t events = sc.run();
    Measure m;
    m.wall_s = seconds_since(t0);
    m.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    for (int i = 0; i < sc.scenario().graph().n_links(); ++i)
      m.units += sc.link(i).packets_delivered();
    if (best.m.units == 0 || m.per_sec() > best.m.per_sec()) {
      best.m = m;
      best.events_per_sec = m.wall_s > 0 ? events / m.wall_s : 0.0;
      best.rounds = sc.rounds();
      best.cross_shard_packets = sc.cross_shard_packets();
    }
  }
  return best;
}

harness::Record row(const char* bench, const char* engine, const Measure& m,
                    const char* unit) {
  harness::Record rec;
  rec.set("bench", bench);
  rec.set("engine", engine);
  rec.set("unit", unit);
  rec.set(std::string{unit} + "_per_sec", m.per_sec());
  rec.set("wall_s", m.wall_s);
  rec.set("units", m.units);
  rec.set("allocs", m.allocs);
  rec.set(std::string{"allocs_per_"} + unit, m.allocs_per_unit());
  return rec;
}

}  // namespace
}  // namespace rrtcp::bench

int main(int argc, char** argv) {
  using namespace rrtcp;
  using namespace rrtcp::bench;

  bool quick = false;
  bool write_json = true;
  int repeat = 3;
  std::string json_path = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
      if (repeat < 1) repeat = 1;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      write_json = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--repeat=N] [--json=PATH] "
                   "[--no-json]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::uint64_t fwd_events = quick ? 100'000 : 1'000'000;
  const std::uint64_t fwd_warmup = fwd_events / 10;
  const std::uint64_t churn_n = quick ? 20'000 : 200'000;
  const std::uint64_t queue_ops = quick ? 200'000 : 2'000'000;
  const sim::Time e2e_horizon = sim::Time::seconds(quick ? 5 : 20);
  const int chains = 128;  // ~a ten-flow sweep's worth of in-flight events

  // The headline comparison: identical forwarding workload, both engines.
  const Measure fwd_legacy =
      run_forward<sim::LegacySimulator, ForwardChain<sim::LegacySimulator>>(
          fwd_warmup, fwd_events, chains, repeat);
  const Measure fwd_pooled = run_forward<sim::Simulator, LineChains>(
      fwd_warmup, fwd_events, chains, repeat);
  const double speedup =
      fwd_legacy.per_sec() > 0 ? fwd_pooled.per_sec() / fwd_legacy.per_sec()
                               : 0.0;

  const Measure churn_legacy =
      run_churn<sim::LegacySimulator>(churn_n, churn_near_delay, repeat);
  const Measure churn_pooled =
      run_churn<sim::Simulator>(churn_n, churn_near_delay, repeat);
  const Measure churn_far_legacy =
      run_churn<sim::LegacySimulator>(churn_n, churn_far_delay, repeat);
  const Measure churn_far_pooled =
      run_churn<sim::Simulator>(churn_n, churn_far_delay, repeat);
  const Measure resched_legacy =
      run_reschedule<sim::LegacySimulator>(churn_n, repeat);
  const Measure resched_pooled =
      run_reschedule<sim::Simulator>(churn_n, repeat);

  const Measure droptail = run_queue(
      [] { return std::make_unique<net::DropTailQueue>(64); }, queue_ops,
      repeat);
  // RED needs a simulator for its idle-time clock; keep it outside the
  // measured region.
  sim::Simulator red_sim;
  const Measure red = run_queue(
      [&red_sim] {
        net::RedConfig rc;
        rc.buffer_packets = 64;
        rc.max_th = 48.0;  // keep the EWMA below the drop region
        return std::make_unique<net::RedQueue>(red_sim, rc);
      },
      queue_ops, repeat);

  const Measure route_fwd = run_route_forward(queue_ops, repeat);

  const EndToEnd e2e_one = run_end_to_end(1, e2e_horizon, repeat);
  const EndToEnd e2e_ten = run_end_to_end(10, e2e_horizon, repeat);

  const int shard_flows = quick ? 8 : 32;
  const sim::Time shard_horizon = sim::Time::seconds(quick ? 3 : 8);
  const ShardScaling shard_single =
      run_shard_scaling(1, shard_flows, shard_horizon, repeat);
  const ShardScaling shard_multi =
      run_shard_scaling(4, shard_flows, shard_horizon, repeat);
  const double shard_speedup =
      shard_single.m.per_sec() > 0
          ? shard_multi.m.per_sec() / shard_single.m.per_sec()
          : 0.0;

  // ------------------------------------------------------------------ report
  stats::Table table{{"benchmark", "engine", "rate", "allocs/unit"}};
  auto add = [&table](const char* b, const char* e, const Measure& m,
                      const char* unit) {
    table.add_row({b, e, stats::Table::cell("%.3g %s/s", m.per_sec(), unit),
                   stats::Table::cell("%.4f", m.allocs_per_unit())});
  };
  add("forward", "legacy", fwd_legacy, "events");
  add("forward", "pooled", fwd_pooled, "events");
  add("churn", "legacy", churn_legacy, "events");
  add("churn", "pooled", churn_pooled, "events");
  add("churn_far", "legacy", churn_far_legacy, "events");
  add("churn_far", "pooled", churn_far_pooled, "events");
  add("reschedule", "legacy", resched_legacy, "rearms");
  add("reschedule", "pooled", resched_pooled, "rearms");
  add("droptail_queue", "ring", droptail, "packets");
  add("red_queue", "ring", red, "packets");
  add("route_forward", "flat_table", route_fwd, "hops");
  add("e2e_1flow", "pooled", e2e_one.packets, "packets");
  add("e2e_10flow_rr", "pooled", e2e_ten.packets, "packets");
  add("shard_scaling", "single", shard_single.m, "packets");
  add("shard_scaling", "shard4", shard_multi.m, "packets");
  table.print();
  std::printf(
      "\nforward speedup (pooled vs legacy): %.2fx"
      "   [%.3g -> %.3g events/s]\n",
      speedup, fwd_legacy.per_sec(), fwd_pooled.per_sec());
  std::printf(
      "churn speedup (pooled vs legacy): near %.2fx, far %.2fx, "
      "reschedule %.2fx\n",
      churn_legacy.per_sec() > 0
          ? churn_pooled.per_sec() / churn_legacy.per_sec()
          : 0.0,
      churn_far_legacy.per_sec() > 0
          ? churn_far_pooled.per_sec() / churn_far_legacy.per_sec()
          : 0.0,
      resched_legacy.per_sec() > 0
          ? resched_pooled.per_sec() / resched_legacy.per_sec()
          : 0.0);
  std::printf(
      "e2e events/s: %.3g (1 flow), pool slots %g, heap-fallback "
      "callbacks %g\n",
      e2e_one.events_per_sec, e2e_one.pool_slots,
      e2e_one.callback_heap_fallbacks);
  std::printf(
      "e2e allocs: 1-flow setup %llu, steady %.4f/packet; 10-flow setup "
      "%llu, steady %.4f/packet\n",
      static_cast<unsigned long long>(e2e_one.setup_allocs),
      e2e_one.steady_allocs_per_packet(),
      static_cast<unsigned long long>(e2e_ten.setup_allocs),
      e2e_ten.steady_allocs_per_packet());
  std::printf(
      "shard_scaling (4 shards vs single, %d flows): %.2fx on %u hardware "
      "thread(s); %llu rounds, %llu cross-shard packets\n",
      shard_flows, shard_speedup, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(shard_multi.rounds),
      static_cast<unsigned long long>(shard_multi.cross_shard_packets));

  if (write_json) {
    harness::ResultSink sink{15};
    auto put = [&sink](std::size_t i, harness::Record rec) {
      sink.submit(i, std::move(rec), 0.0);
    };
    put(0, row("forward", "legacy", fwd_legacy, "events"));
    put(1, row("forward", "pooled", fwd_pooled, "events")
               .set("speedup_vs_legacy", speedup));
    put(2, row("churn", "legacy", churn_legacy, "events"));
    put(3, row("churn", "pooled", churn_pooled, "events"));
    put(4, row("churn_far", "legacy", churn_far_legacy, "events"));
    put(5, row("churn_far", "pooled", churn_far_pooled, "events"));
    put(6, row("reschedule", "legacy", resched_legacy, "rearms"));
    put(7, row("reschedule", "pooled", resched_pooled, "rearms"));
    put(8, row("droptail_queue", "ring", droptail, "packets"));
    put(9, row("red_queue", "ring", red, "packets"));
    put(10, row("route_forward", "flat_table", route_fwd, "hops"));
    put(11, row("e2e_1flow", "pooled", e2e_one.packets, "packets")
                .set("events_per_sec", e2e_one.events_per_sec)
                .set("event_pool_slots", e2e_one.pool_slots)
                .set("callback_heap_fallbacks",
                     e2e_one.callback_heap_fallbacks)
                .set("setup_allocs", e2e_one.setup_allocs)
                .set("steady_allocs_per_packet",
                     e2e_one.steady_allocs_per_packet()));
    put(12, row("e2e_10flow_rr", "pooled", e2e_ten.packets, "packets")
                .set("events_per_sec", e2e_ten.events_per_sec)
                .set("setup_allocs", e2e_ten.setup_allocs)
                .set("steady_allocs_per_packet",
                     e2e_ten.steady_allocs_per_packet()));
    put(13, row("shard_scaling", "single", shard_single.m, "packets")
                .set("events_per_sec", shard_single.events_per_sec));
    put(14, row("shard_scaling", "shard4", shard_multi.m, "packets")
                .set("events_per_sec", shard_multi.events_per_sec)
                .set("speedup_vs_single", shard_speedup)
                .set("rounds", shard_multi.rounds)
                .set("cross_shard_packets", shard_multi.cross_shard_packets)
                .set("hardware_threads",
                     static_cast<int>(std::thread::hardware_concurrency())));
    harness::write_file(json_path, sink.to_json("bench_micro", 0));
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
