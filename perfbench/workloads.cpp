#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>
#include <type_traits>
#include <utility>

#include "alloc_count.hpp"
#include "app/sender_factory.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "live/live_env.hpp"
#include "net/loss_model.hpp"
#include "net/red.hpp"
#include "pdes/sharded.hpp"
#include "stats.hpp"
#include "tcp/receiver.hpp"
#include "topo/presets.hpp"

namespace perfbench {

using namespace rrtcp;

namespace {

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t since(std::int64_t t0) {
  return static_cast<std::uint64_t>(now_ns() - t0);
}

// Checks one flow's delivery and adds it to the round's digest and
// counters. The check: the receiver's in-order bytes lie between what the
// sender saw ACKed and what it ever sent, and a completed transfer
// delivered exactly its bytes. `sim_stats` = false keeps the
// timing-dependent counts (segments, retransmissions, timeouts of a live
// transfer) out of the digest.
bool account_flow(const tcp::TcpSenderBase& s, const tcp::TcpReceiver& r,
                  app::Variant v, bool sim_stats, RoundResult& out) {
  const std::uint64_t got = r.bytes_in_order();
  bool ok = got >= s.snd_una() && got <= s.max_sent();
  if (s.complete()) ok = ok && s.app_bytes() && got == *s.app_bytes();

  const tcp::SenderStats& st = s.stats();
  const std::uint64_t segs = st.data_packets_sent + st.retransmissions;
  Digest::Row& row = out.digest.rows[static_cast<std::size_t>(v)];
  ++row.flows;
  row.done += s.complete() ? 1 : 0;
  row.bytes += got;
  if (sim_stats) {
    row.segments += segs;
    row.rtx += st.retransmissions;
    row.timeouts += st.timeouts;
  }
  out.segments += segs;
  out.goodput_bytes += got;
  out.raw.timeouts += st.timeouts;
  out.raw.rtx += st.retransmissions;
  if (v == app::Variant::kRr) out.raw.rr_episodes += st.fast_retransmits;
  return ok;
}

void account_queue(const net::QueueStats& q, LayerRaw& raw) {
  raw.queue_arrivals += q.enqueued + q.dropped;
  raw.queue_drops += q.dropped;
  raw.queue_dequeues += q.dequeued;
  raw.link_traversals += q.dequeued;
}

void merge(RoundResult& into, const RoundResult& from) {
  into.segments += from.segments;
  into.goodput_bytes += from.goodput_bytes;
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (std::size_t i = 0; i < into.digest.rows.size(); ++i) {
    Digest::Row& a = into.digest.rows[i];
    const Digest::Row& b = from.digest.rows[i];
    a.flows += b.flows;
    a.done += b.done;
    a.bytes += b.bytes;
    a.segments += b.segments;
    a.rtx += b.rtx;
    a.timeouts += b.timeouts;
  }
  into.raw.add(from.raw);
}

// ---------------------------------------------------------------------------
// paper_grid: the paper's scenario families, many short jobs on the sweep
// pool. Inputs per sub-seed: every family across the five paper variants.

enum class Family : std::uint8_t {
  kFig5,        // drop-tail, one 100 KB transfer, a 3- or 6-packet loss burst
  kFig6,        // RED, 10 FTP flows, 6 s
  kTable5,      // drop-tail 25, 19 background flows + a 100 KB target
  kFig7,        // one FTP flow under uniform random loss
  kCbr,         // one FTP flow against forward CBR load
  kAckPath,     // forward flow + reverse bulk flow through a tight ACK path
  kParkingLot,  // 2-hop parking lot with per-hop CBR (graph mode)
};

struct GridJob {
  Family family = Family::kFig5;
  app::Variant v = app::Variant::kRr;
  app::Variant background = app::Variant::kRr;  // table5 only
  int burst = 0;                                // fig5 only
  double x = 0.0;  // fig7 loss rate, cbr load, table5 target start (s)
  std::uint64_t seed = 1;
};

constexpr std::int64_t kPaperBottleneckBps = 800'000;  // Table 3

tcp::TcpConfig windowed_tcp() {
  tcp::TcpConfig t;
  t.max_window_pkts = 20;
  t.init_ssthresh_pkts = 20;
  return t;
}

harness::ScenarioSpec grid_spec(const GridJob& j) {
  harness::ScenarioSpec spec;
  spec.seed = j.seed;
  const sim::Time jitter = sim::Time::milliseconds(
      static_cast<std::int64_t>(j.seed % 100));
  switch (j.family) {
    case Family::kFig5: {
      tcp::TcpConfig t;
      t.init_ssthresh_pkts = 10;
      spec.name = "fig5";
      spec.bottleneck = harness::QueueSpec::drop_tail(100);
      spec.add_flow({.variant = j.v, .bytes = 100'000, .tcp = t});
      break;
    }
    case Family::kFig6: {
      net::RedConfig rc;
      rc.mean_pkt_tx = sim::Time::transmission(1000, kPaperBottleneckBps);
      spec.name = "fig6";
      spec.bottleneck = harness::QueueSpec::red_queue(rc);
      spec.horizon = sim::Time::seconds(6);
      spec.add_flows(5, {.variant = j.v, .tcp = windowed_tcp()});
      spec.add_flows(5,
                     {.variant = j.v,
                      .start = sim::Time::milliseconds(500),
                      .tcp = windowed_tcp()},
                     sim::Time::milliseconds(500));
      break;
    }
    case Family::kTable5:
      spec.name = "table5";
      spec.bottleneck = harness::QueueSpec::drop_tail(25);
      spec.horizon = sim::Time::seconds(40);
      spec.add_flows(19, {.variant = j.background},
                     sim::Time::milliseconds(500));
      spec.add_flow({.variant = j.v,
                     .start = sim::Time::seconds(j.x),
                     .bytes = 100'000});
      break;
    case Family::kFig7:
      spec.name = "fig7";
      spec.topology.side_delay = sim::Time::zero();
      spec.bottleneck = harness::QueueSpec::drop_tail(200);
      spec.horizon = sim::Time::seconds(20);
      spec.add_flow({.variant = j.v});
      break;
    case Family::kCbr:
      spec.name = "cbr";
      spec.horizon = sim::Time::seconds(10);
      spec.add_flow({.variant = j.v, .tcp = windowed_tcp()});
      spec.add_cbr({.load_fraction = j.x, .start = jitter});
      break;
    case Family::kAckPath:
      spec.name = "ackpath";
      spec.horizon = sim::Time::seconds(10);
      spec.reverse_bottleneck = harness::QueueSpec::drop_tail(8);
      spec.add_flow({.variant = j.v, .start = jitter, .tcp = windowed_tcp()});
      spec.add_flow({.variant = app::Variant::kNewReno,
                     .tcp = windowed_tcp(),
                     .reverse = true});
      break;
    case Family::kParkingLot: {
      topo::ParkingLotConfig plc;
      plc.n_bottlenecks = 2;
      plc.bottleneck_bps = kPaperBottleneckBps;
      const topo::ParkingLotLayout lay = topo::parking_lot(plc);
      spec.name = "parkinglot";
      spec.horizon = sim::Time::seconds(10);
      spec.graph = lay.spec;
      spec.add_flow({.variant = j.v,
                     .tcp = windowed_tcp(),
                     .src_node = lay.long_src,
                     .dst_node = lay.long_dst});
      for (std::size_t i = 0; i < lay.cross_src.size(); ++i) {
        spec.add_cbr({.rate_bps = kPaperBottleneckBps / 4,
                      .start = jitter,
                      .src_node = lay.cross_src[i],
                      .dst_node = lay.cross_dst[i]});
      }
      break;
    }
  }
  return spec;
}

// Loss patterns ride on the built dumbbell's bottleneck link.
void install_losses(const GridJob& j, harness::Scenario& sc) {
  if (j.family == Family::kFig5) {
    // A k-packet burst inside one window, at a seed-chosen position.
    const std::uint64_t first = 20 + j.seed % 20;
    std::vector<std::pair<net::FlowId, std::uint64_t>> losses;
    for (int i = 0; i < j.burst; ++i)
      losses.emplace_back(1, (first + static_cast<std::uint64_t>(i)) * 1000);
    sc.topology().bottleneck().set_loss_model(
        std::make_unique<net::ListLossModel>(losses));
  } else if (j.family == Family::kFig7) {
    sc.topology().bottleneck().set_loss_model(
        std::make_unique<net::UniformLossModel>(j.x, j.seed));
  }
}

// Sub-seeds per round. Each sub-seed contributes 5 variants x (2 bursts x
// kFig5Positions fig5 jobs + fig6 + 2 fig7 + 2 cbr + ackpath + parking
// lot) + 4 table5 cases.
constexpr int kGridSubseedsFull = 10;
constexpr int kFig5Positions = 24;

std::vector<GridJob> grid_jobs(std::uint64_t seed, Size size) {
  const int subseeds = size == Size::kFull ? kGridSubseedsFull : 1;
  const int positions = size == Size::kFull ? kFig5Positions : 2;
  struct Case {
    app::Variant target, background;
  };
  static constexpr Case kTable5Cases[] = {
      {app::Variant::kReno, app::Variant::kReno},
      {app::Variant::kReno, app::Variant::kRr},
      {app::Variant::kRr, app::Variant::kRr},
      {app::Variant::kRr, app::Variant::kReno},
  };
  std::vector<GridJob> jobs;
  for (int k = 0; k < subseeds; ++k) {
    std::uint64_t stream = harness::derive_seed(seed, static_cast<std::uint64_t>(k));
    auto next = [&stream] { return stream = harness::derive_seed(stream, 1); };
    for (const app::Variant v : app::kAllVariants) {
      for (const int burst : {3, 6})
        for (int p = 0; p < positions; ++p)
          jobs.push_back({Family::kFig5, v, v, burst, 0.0, next()});
      jobs.push_back({Family::kFig6, v, v, 0, 0.0, next()});
      for (const double loss : {0.01, 0.03})
        jobs.push_back({Family::kFig7, v, v, 0, loss, next()});
      for (const double load : {0.25, 0.5})
        jobs.push_back({Family::kCbr, v, v, 0, load, next()});
      jobs.push_back({Family::kAckPath, v, v, 0, 0.0, next()});
      jobs.push_back({Family::kParkingLot, v, v, 0, 0.0, next()});
    }
    for (const Case& c : kTable5Cases) {
      const double start = 4.4 + static_cast<double>(next() % 13) * 0.1;
      jobs.push_back({Family::kTable5, c.target, c.background, 0, start, next()});
    }
  }
  return jobs;
}

RoundResult run_grid_job(const GridJob& j, bool traced) {
  RoundResult r;
  r.attempted = 1;
  harness::ScenarioSpec spec = grid_spec(j);
  if (traced) spec.flow_maker = make_timed_flow;

  const std::int64_t t0 = now_ns();
  std::unique_ptr<harness::Scenario> sc;
  {
    std::optional<Span> span;
    if (traced) span.emplace(Layer::kBuild);
    sc = std::make_unique<harness::Scenario>(std::move(spec));
  }
  const std::uint64_t build_ns = since(t0);
  install_losses(j, *sc);

  const std::uint64_t a0 = thread_allocs();
  {
    std::optional<Span> span;
    if (traced) span.emplace(Layer::kSimRun);
    r.raw.events = sc->run();
  }
  r.raw.allocs = thread_allocs() - a0;
  r.raw.builds = 1;
  r.raw.build_ns = build_ns;
  r.raw.job_ns = since(t0);
  r.raw.heap_fallbacks = sc->sim().callback_heap_fallbacks();
  topo::TopologyGraph& g = sc->graph();
  for (int l = 0; l < g.n_links(); ++l) account_queue(g.link(l).queue().stats(), r.raw);

  bool ok = true;
  const harness::ScenarioSpec& built = sc->spec();
  for (int i = 0; i < sc->n_flows(); ++i)
    ok &= account_flow(sc->sender(i), *sc->flow(i).receiver,
                       built.flows[static_cast<std::size_t>(i)].variant, true,
                       r);
  r.failed = ok ? 0 : 1;
  return r;
}

int grid_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

class PaperGrid final : public Workload {
 public:
  PaperGrid(std::uint64_t seed, Size size) : jobs_{grid_jobs(seed, size)} {}

  std::string describe() const override {
    return std::to_string(jobs_.size()) + " scenarios per round on " +
           std::to_string(grid_threads()) + " sweep threads";
  }

  RoundResult round(bool traced) override {
    std::vector<RoundResult> outs(jobs_.size());
    std::vector<harness::SweepJob> sweep;
    sweep.reserve(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      sweep.push_back({std::to_string(i),
                       [this, &outs, traced](const harness::JobContext& ctx) {
                         outs[ctx.index] = run_grid_job(jobs_[ctx.index], traced);
                         return harness::Record{};
                       }});
    }
    harness::ResultSink sink{jobs_.size()};
    harness::SweepOptions opts;
    opts.threads = grid_threads();
    const std::int64_t t0 = now_ns();
    const harness::SweepTiming timing = harness::run_sweep(sweep, sink, opts);
    const std::uint64_t wall_ns = since(t0);

    RoundResult r;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (!sink.record(i).get("error").empty()) {
        outs[i].attempted = 1;
        outs[i].failed = 1;
      }
      merge(r, outs[i]);
      r.xfer_ms.push_back(sink.wall_seconds(i) * 1e3);
    }
    r.wall_s = static_cast<double>(wall_ns) / 1e9;
    r.setup_s = static_cast<double>(r.raw.build_ns) / 1e9;
    r.raw.pool_wall_ns = wall_ns;
    r.raw.pool_threads = static_cast<std::uint64_t>(timing.threads);
    return r;
  }

 private:
  std::vector<GridJob> jobs_;
};

// ---------------------------------------------------------------------------
// fleet_single / fleet_sharded: one many-flow multi-dumbbell (the
// bench/bench_shard.cpp fleet with 20 ms access links), 50 KB transfers
// packed onto sender hosts.

harness::ScenarioSpec fleet_spec(std::uint64_t seed, Size size, int shards) {
  const bool full = size == Size::kFull;
  const int hosts = full ? 64 : 16;
  const int flows = full ? 10'000 : 400;
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = hosts;
  mdc.m_receivers = hosts / 2;
  // Every link carries 20 ms, so wherever the partitioner cuts, the PDES
  // lookahead is 20 ms: 250 barrier windows over the 5 s horizon. (At 5 ms
  // access delays a run has 1000 windows, and their thread wake-ups on a
  // shared VM made run-to-run spread about 27%.) Rates, delays and sizes
  // stay symmetric, so same-instant arrival ties still occur.
  mdc.side_delay = sim::Time::milliseconds(20);
  mdc.bottleneck_delay = sim::Time::milliseconds(20);
  mdc.bottleneck_bps = 1'000'000'000;
  mdc.side_bps = 100'000'000;
  mdc.queue_packets = 256;
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  harness::ScenarioSpec spec;
  spec.name = "fleet";
  spec.graph = md.spec;
  spec.shard_count = shards;
  spec.seed = seed;
  spec.horizon = sim::Time::seconds(full ? 5 : 1);
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kNone;
  spec.instruments.watchdog = false;

  static constexpr app::Variant kMix[] = {app::Variant::kRr, app::Variant::kNewReno,
                                          app::Variant::kSack, app::Variant::kReno};
  const int per_host = (flows + hosts - 1) / hosts;
  int remaining = flows;
  for (int h = 0; h < hosts && remaining > 0; ++h) {
    const std::uint64_t hs = harness::derive_seed(seed, static_cast<std::uint64_t>(h));
    harness::FlowSet set;
    set.count = std::min(per_host, remaining);
    set.proto.variant = kMix[(static_cast<std::uint64_t>(h) + seed) % 4];
    set.proto.bytes = 50'000;
    set.proto.start = sim::Time::milliseconds(static_cast<std::int64_t>(hs % 7));
    set.proto.src_node = md.senders[static_cast<std::size_t>(h)];
    set.proto.dst_node = md.receivers[static_cast<std::size_t>(h % (hosts / 2))];
    set.stagger = sim::Time::milliseconds(1);
    spec.add_flow_set(set);
    remaining -= set.count;
  }
  return spec;
}

tcp::TcpReceiver& receiver_of(harness::Scenario& sc, int i) {
  return *sc.flow(i).receiver;
}
tcp::TcpReceiver& receiver_of(pdes::ShardedScenario& sc, int i) {
  return sc.receiver(i);
}
net::Link& link_of(harness::Scenario& sc, int i) { return sc.graph().link(i); }
net::Link& link_of(pdes::ShardedScenario& sc, int i) { return sc.link(i); }

constexpr int kFleetBuilds = 3;

template <typename Sc>
RoundResult run_fleet(const harness::ScenarioSpec& spec, bool traced) {
  constexpr bool kSharded = std::is_same_v<Sc, pdes::ShardedScenario>;
  RoundResult r;
  r.attempted = 1;
  // One fleet set-up is ~20 ms and its first touch of fresh memory is
  // noisy, so each round builds the fleet kFleetBuilds times and reports
  // the median; the last build is the one that runs.
  std::vector<double> builds_s;
  std::unique_ptr<Sc> sc;
  std::int64_t t0 = 0;
  std::uint64_t build_ns = 0;
  for (int k = 0; k < kFleetBuilds; ++k) {
    sc.reset();
    harness::ScenarioSpec copy = spec;
    t0 = now_ns();
    {
      std::optional<Span> span;
      if (traced && k + 1 == kFleetBuilds) span.emplace(Layer::kBuild);
      sc = std::make_unique<Sc>(std::move(copy));
    }
    build_ns = since(t0);
    builds_s.push_back(static_cast<double>(build_ns) / 1e9);
  }

  // Host time at which each transfer completed (0 = not completed).
  std::vector<std::int64_t> done_at(static_cast<std::size_t>(sc->n_flows()), 0);
  for (int i = 0; i < sc->n_flows(); ++i) {
    std::int64_t* slot = &done_at[static_cast<std::size_t>(i)];
    sc->sender(i).set_complete_callback([slot](sim::Time) { *slot = now_ns(); });
  }

  if (kSharded) set_global_alloc_counting(true);
  const std::uint64_t a0 = kSharded ? global_allocs() : thread_allocs();
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::int64_t t1 = now_ns();
  {
    std::optional<Span> span;
    if (traced) span.emplace(Layer::kSimRun);
    r.raw.events = sc->run();
  }
  const std::uint64_t run_ns = since(t1);
  r.raw.run_cpu_ns = process_cpu_ns() - cpu0;
  r.raw.allocs = (kSharded ? global_allocs() : thread_allocs()) - a0;
  set_global_alloc_counting(false);

  r.raw.builds = 1;
  r.raw.build_ns = build_ns;
  r.raw.job_ns = build_ns + run_ns;
  r.raw.run_ns = run_ns;
  for (std::size_t l = 0; l < sc->spec().graph.links.size(); ++l)
    account_queue(link_of(*sc, static_cast<int>(l)).queue().stats(), r.raw);
  if constexpr (kSharded) {
    r.raw.pdes_rounds = sc->rounds();
    r.raw.cross_pkts = sc->cross_shard_packets();
    r.raw.shards = static_cast<std::uint64_t>(sc->n_shards());
  } else {
    r.raw.heap_fallbacks = sc->sim().callback_heap_fallbacks();
    r.raw.shards = 1;
  }

  bool ok = true;
  const harness::ScenarioSpec& built = sc->spec();
  for (int i = 0; i < sc->n_flows(); ++i) {
    ok &= account_flow(sc->sender(i), receiver_of(*sc, i),
                       built.flows[static_cast<std::size_t>(i)].variant, true, r);
    const std::int64_t t = done_at[static_cast<std::size_t>(i)];
    if (t != 0) r.xfer_ms.push_back(static_cast<double>(t - t1) / 1e6);
  }
  r.failed = ok ? 0 : 1;
  r.wall_s = static_cast<double>(run_ns) / 1e9;
  r.setup_s = median(builds_s);
  std::uint64_t done = 0;
  for (const Digest::Row& row : r.digest.rows) done += row.done;
  r.note = "flows_done=" + std::to_string(done) +
           " segments=" + std::to_string(r.segments) +
           " events=" + std::to_string(r.raw.events) + " run_cpu_s=" +
           std::to_string(static_cast<double>(r.raw.run_cpu_ns) / 1e9) +
           " shards=" + std::to_string(r.raw.shards);
  return r;
}

class Fleet final : public Workload {
 public:
  Fleet(std::uint64_t seed, Size size, int shards)
      : spec_{fleet_spec(seed, size, shards)}, shards_{shards} {}

  std::string describe() const override {
    int flows = 0;
    for (const harness::FlowSet& s : spec_.flow_sets) flows += s.count;
    return std::to_string(flows) + " flows on " +
           std::to_string(spec_.flow_sets.size()) + " sender hosts, " +
           std::to_string(spec_.horizon.to_seconds()) + " s horizon, " +
           std::to_string(shards_) + " shard(s)" +
           (shards_ > 1 ? "; traced run times queues only (ShardedScenario "
                          "takes no flow_maker)"
                        : "");
  }

  RoundResult round(bool traced) override {
    harness::ScenarioSpec spec = spec_;
    if (traced) {
      time_queues(spec.graph);
      if (shards_ == 1) spec.flow_maker = make_timed_flow;
    }
    if (shards_ == 1) return run_fleet<harness::Scenario>(spec, traced);
    return run_fleet<pdes::ShardedScenario>(spec, traced);
  }

 private:
  harness::ScenarioSpec spec_;
  int shards_;
};

// ---------------------------------------------------------------------------
// live_loopback: sequential transfers over 127.0.0.1 UDP, both endpoints
// polled from this thread.

struct Transfer {
  app::Variant v = app::Variant::kRr;
  std::uint64_t bytes = 0;
};

// 200 per round, so each round's p95 has 10 transfers beyond it.
constexpr int kLiveTransfersFull = 200;
constexpr int kLiveTransfersSmall = 5;
constexpr std::int64_t kTransferTimeoutNs = 10'000'000'000;
constexpr net::FlowId kLiveFlow = 1;

int poll_once(live::LiveEnvironment& e, int timeout_ms, Layer layer, bool traced) {
  std::optional<Span> span;
  if (traced) span.emplace(layer);
  return e.poll(timeout_ms);
}

class LiveLoopback final : public Workload {
 public:
  LiveLoopback(std::uint64_t seed, Size size) {
    const bool full = size == Size::kFull;
    const int n = full ? kLiveTransfersFull : kLiveTransfersSmall;
    const std::uint64_t base = full ? 1'000'000 : 100'000;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t h = harness::derive_seed(seed, static_cast<std::uint64_t>(i));
      transfers_.push_back(
          {app::kAllVariants[(seed + static_cast<std::uint64_t>(i)) % 5],
           base + (h % 48) * 1000});
    }
  }

  std::string describe() const override {
    return std::to_string(transfers_.size()) +
           " sequential transfers per round over 127.0.0.1 (loopback, not a "
           "real link)";
  }

  RoundResult round(bool traced) override {
    RoundResult r;
    std::vector<double> setups_s;
    std::optional<Span> loop;
    if (traced) loop.emplace(Layer::kLiveLoop);
    for (const Transfer& t : transfers_) {
      try {
        setups_s.push_back(run_transfer(t, traced, r));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "live transfer failed: %s\n", e.what());
        ++r.attempted;
        ++r.failed;
      }
    }
    // One set-up is ~15 us, and a rare one takes ~1 ms (socket teardown
    // work landing on it), which would dominate a plain sum; the round's
    // set-up is the median per-transfer set-up times the transfer count.
    r.setup_s = median(setups_s) * static_cast<double>(transfers_.size());
    return r;
  }

 private:
  // Runs one transfer into `r`; returns its set-up time in seconds.
  static double run_transfer(const Transfer& t, bool traced, RoundResult& r) {
    const tcp::TcpConfig cfg;
    const std::int64_t t0 = now_ns();
    // Declared before the endpoints so the endpoints are destroyed first.
    std::unique_ptr<env::Environment> server_env;
    std::unique_ptr<env::Environment> client_env;
    live::LiveEnvironment* server = nullptr;
    live::LiveEnvironment* client = nullptr;
    std::unique_ptr<tcp::TcpReceiver> receiver;
    std::unique_ptr<tcp::TcpSenderBase> sender;
    {
      std::optional<Span> span;
      if (traced) span.emplace(Layer::kBuild);
      live::LiveConfig scfg;
      scfg.local_id = 2;
      scfg.peer_id = 1;
      auto s = std::make_unique<live::LiveEnvironment>(scfg);
      server = s.get();
      live::LiveConfig ccfg;
      ccfg.peer_addr = "127.0.0.1";
      ccfg.peer_port = server->local_port();
      ccfg.local_id = 1;
      ccfg.peer_id = 2;
      auto c = std::make_unique<live::LiveEnvironment>(ccfg);
      client = c.get();
      if (traced) {
        server_env = std::make_unique<TimingEnv>(std::move(s), Layer::kTcpRx);
        client_env = std::make_unique<TimingEnv>(
            std::move(c),
            t.v == app::Variant::kRr ? Layer::kCoreRx : Layer::kTcpRx);
      } else {
        server_env = std::move(s);
        client_env = std::move(c);
      }
      receiver = std::make_unique<tcp::TcpReceiver>(
          *server_env, kLiveFlow, app::receiver_config_for(t.v, cfg));
      sender = app::SenderFactory::instance().make(t.v, *client_env, kLiveFlow, cfg);
    }
    const std::int64_t t1 = now_ns();
    ++r.attempted;

    const std::uint64_t a0 = thread_allocs();
    sender->set_app_bytes(t.bytes);
    sender->start();
    // Never sleep while an endpoint has work: both are polled without
    // blocking, and only when neither dispatched anything does the loop
    // block (1 ms at most) on the client, which holds the RTO timer.
    while (!(sender->complete() && receiver->rcv_nxt() >= t.bytes)) {
      if (now_ns() - t1 > kTransferTimeoutNs) break;
      const int c = poll_once(*client, 0, Layer::kLivePoll, traced);
      const int s = poll_once(*server, 0, Layer::kLivePoll, traced);
      r.raw.polls += 2;
      r.raw.idle_polls += (c == 0 ? 1 : 0) + (s == 0 ? 1 : 0);
      if (c + s == 0) {
        r.raw.polls += 1;
        if (poll_once(*client, 1, Layer::kLiveWait, traced) == 0) ++r.raw.idle_polls;
      }
    }
    const std::int64_t t2 = now_ns();
    r.raw.allocs += thread_allocs() - a0;

    const bool ok = account_flow(*sender, *receiver, t.v, false, r);
    if (!ok || !sender->complete()) ++r.failed;
    r.xfer_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    r.wall_s += static_cast<double>(t2 - t1) / 1e9;
    r.raw.builds += 1;
    r.raw.build_ns += static_cast<std::uint64_t>(t1 - t0);
    r.raw.job_ns += static_cast<std::uint64_t>(t2 - t0);
    r.raw.datagrams += client->datagrams_received() + server->datagrams_received();
    r.raw.decode_failures += client->decode_failures() + server->decode_failures();
    r.raw.unroutable += client->unroutable() + server->unroutable();
    return static_cast<double>(t1 - t0) / 1e9;
  }

  std::vector<Transfer> transfers_;
};

}  // namespace

const char* workload_name(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kPaperGrid: return "paper_grid";
    case WorkloadKind::kFleetSingle: return "fleet_single";
    case WorkloadKind::kFleetSharded: return "fleet_sharded";
    case WorkloadKind::kLiveLoopback: return "live_loopback";
  }
  return "?";
}

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (const WorkloadKind w : kAllWorkloads)
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

std::string Digest::text() const {
  std::string s;
  char line[256];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (r.flows == 0) continue;
    std::snprintf(line, sizeof line,
                  "%s flows=%llu done=%llu bytes=%llu segments=%llu rtx=%llu "
                  "timeouts=%llu\n",
                  app::to_string(static_cast<app::Variant>(i)),
                  static_cast<unsigned long long>(r.flows),
                  static_cast<unsigned long long>(r.done),
                  static_cast<unsigned long long>(r.bytes),
                  static_cast<unsigned long long>(r.segments),
                  static_cast<unsigned long long>(r.rtx),
                  static_cast<unsigned long long>(r.timeouts));
    s += line;
  }
  return s;
}

std::string Digest::hash() const { return hex64(fnv1a(text())); }

void LayerRaw::add(const LayerRaw& o) {
  builds += o.builds;
  build_ns += o.build_ns;
  job_ns += o.job_ns;
  pool_wall_ns += o.pool_wall_ns;
  pool_threads = std::max(pool_threads, o.pool_threads);
  allocs += o.allocs;
  events += o.events;
  heap_fallbacks += o.heap_fallbacks;
  queue_arrivals += o.queue_arrivals;
  queue_drops += o.queue_drops;
  queue_dequeues += o.queue_dequeues;
  timeouts += o.timeouts;
  rtx += o.rtx;
  rr_episodes += o.rr_episodes;
  pdes_rounds += o.pdes_rounds;
  cross_pkts += o.cross_pkts;
  link_traversals += o.link_traversals;
  shards = std::max(shards, o.shards);
  run_ns += o.run_ns;
  run_cpu_ns += o.run_cpu_ns;
  polls += o.polls;
  idle_polls += o.idle_polls;
  datagrams += o.datagrams;
  decode_failures += o.decode_failures;
  unroutable += o.unroutable;
  spans.add(o.spans);
}

std::unique_ptr<Workload> make_workload(WorkloadKind w, std::uint64_t seed,
                                        Size size) {
  switch (w) {
    case WorkloadKind::kPaperGrid: return std::make_unique<PaperGrid>(seed, size);
    case WorkloadKind::kFleetSingle: return std::make_unique<Fleet>(seed, size, 1);
    case WorkloadKind::kFleetSharded: return std::make_unique<Fleet>(seed, size, 2);
    case WorkloadKind::kLiveLoopback: return std::make_unique<LiveLoopback>(seed, size);
  }
  return nullptr;
}

}  // namespace perfbench
