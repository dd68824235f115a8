#include "fuzz/case_spec.hpp"

#include <algorithm>
#include <utility>

#include "fuzz/mutants.hpp"
#include "sim/assert.hpp"
#include "topo/presets.hpp"

namespace rrtcp::fuzz {

namespace {

constexpr std::int64_t kAccessBps = 10'000'000;
constexpr std::uint64_t kAccessQueuePackets = 10'000;

harness::QueueSpec queue_spec(const CaseSpec& cs) {
  if (cs.queue == QueueKind::kRed) {
    net::RedConfig red;
    red.buffer_packets = cs.queue_packets;
    red.min_th = cs.red_min_th;
    red.max_th = cs.red_max_th;
    red.max_p = cs.red_max_p;
    return harness::QueueSpec::red_queue(red);
  }
  return harness::QueueSpec::drop_tail(cs.queue_packets);
}

harness::FlowSpec base_flow(const CaseSpec& cs) {
  harness::FlowSpec fs;
  fs.variant = cs.variant;
  fs.bytes = cs.bytes_per_flow;
  fs.tcp.smooth_start = cs.smooth_start;
  return fs;
}

void materialize_dumbbell(const CaseSpec& cs, harness::ScenarioSpec* spec,
                          InjectionPoints* points) {
  spec->topology.bottleneck_bps = cs.bottleneck_bps;
  spec->topology.bottleneck_delay = cs.bottleneck_delay;
  spec->bottleneck = queue_spec(cs);
  spec->add_flows(cs.n_flows, base_flow(cs), cs.stagger);
  for (int i = 0; i < cs.n_cbr; ++i) {
    harness::CbrSpec cbr;
    cbr.load_fraction = cs.cbr_load;
    spec->add_cbr(cbr);
  }
  if (points != nullptr) {
    // The layout the dumbbell spec resolves to (multi_dumbbell(n, n)):
    // R1 = 0, R2 = 1; the forward bottleneck is link 0, the reverse link 1
    // — same split the chaos soak uses.
    *points = {.data_node = 0, .data_link = 0, .ack_node = 1, .ack_link = 1};
  }
}

void materialize_parking_lot(const CaseSpec& cs, harness::ScenarioSpec* spec,
                             InjectionPoints* points) {
  topo::ParkingLotConfig plc;
  plc.n_bottlenecks = std::max(1, cs.hops);
  plc.bottleneck_bps = cs.bottleneck_bps;
  plc.hop_delay = cs.bottleneck_delay;
  plc.queue_packets = cs.queue_packets;
  const topo::ParkingLotLayout lot = topo::parking_lot(plc);

  spec->graph = lot.spec;
  spec->audited_links = lot.bottleneck_links;

  // Flow 0 runs the full chain; the rest are the per-hop cross flows,
  // round-robin over the bottlenecks. Starts staggered as in add_flows.
  harness::FlowSpec f = base_flow(cs);
  const int hops = static_cast<int>(lot.cross_src.size());
  for (int i = 0; i < cs.n_flows; ++i) {
    f.start = cs.stagger * i;
    if (i == 0) {
      f.src_node = lot.long_src;
      f.dst_node = lot.long_dst;
    } else {
      const std::size_t h = static_cast<std::size_t>((i - 1) % hops);
      f.src_node = lot.cross_src[h];
      f.dst_node = lot.cross_dst[h];
    }
    spec->add_flow(f);
  }
  if (points != nullptr) {
    // presets.cpp interleaves forward/reverse core links: the reverse of
    // bottleneck_links[i] is bottleneck_links[i] + 1.
    *points = {.data_node = lot.routers.front(),
               .data_link = lot.bottleneck_links.front(),
               .ack_node = lot.routers.at(1),
               .ack_link = lot.bottleneck_links.front() + 1};
  }
}

void materialize_multi_dumbbell(const CaseSpec& cs,
                                harness::ScenarioSpec* spec,
                                InjectionPoints* points) {
  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = cs.n_flows;
  mdc.m_receivers = std::max(1, cs.extra_receivers);
  mdc.bottleneck_bps = cs.bottleneck_bps;
  mdc.bottleneck_delay = cs.bottleneck_delay;
  mdc.queue_packets = cs.queue_packets;
  const topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);

  spec->graph = md.spec;
  spec->audited_links = {md.bottleneck_link};

  harness::FlowSpec f = base_flow(cs);
  const std::size_t m = md.receivers.size();
  for (int i = 0; i < cs.n_flows; ++i) {
    f.start = cs.stagger * i;
    f.src_node = md.senders.at(static_cast<std::size_t>(i));
    f.dst_node = md.receivers[static_cast<std::size_t>(i) % m];
    spec->add_flow(f);
  }
  if (points != nullptr) {
    *points = {.data_node = md.r1,
               .data_link = md.bottleneck_link,
               .ack_node = md.r2,
               .ack_link = md.reverse_bottleneck_link};
  }
}

// Ring of R routers with slow core links (the shared resource) plus
// `mesh_chords` deterministic chord duplexes; each flow gets its own host
// pair hung off routers half a ring apart, over fast access links. The
// injectors sit on flow 0's access uplinks — the one place guaranteed to
// be on that flow's data (resp. ACK) path whatever route the core picks.
void materialize_mesh(const CaseSpec& cs, harness::ScenarioSpec* spec,
                      InjectionPoints* points) {
  topo::GraphSpec g;
  const int R = std::max(2, cs.mesh_routers);
  for (int i = 0; i < R; ++i) g.add_node("R" + std::to_string(i));

  const int n_ring = R == 2 ? 1 : R;  // avoid a doubled duplex on a 2-ring
  for (int i = 0; i < n_ring; ++i) {
    const int core = g.add_duplex(i, (i + 1) % R, cs.bottleneck_bps,
                                  cs.bottleneck_delay, cs.queue_packets);
    spec->audited_links.push_back(core);
    spec->audited_links.push_back(core + 1);
  }
  for (int j = 0; j < cs.mesh_chords; ++j) {
    const int a = j % R;
    const int b = (a + 2) % R;
    if (b == a) continue;
    const int core = g.add_duplex(a, b, cs.bottleneck_bps,
                                  cs.bottleneck_delay, cs.queue_packets);
    spec->audited_links.push_back(core);
    spec->audited_links.push_back(core + 1);
  }

  harness::FlowSpec f = base_flow(cs);
  for (int i = 0; i < cs.n_flows; ++i) {
    const int src_router = i % R;
    const int dst_router = (i + R / 2) % R;
    const int src = g.add_node("S" + std::to_string(i));
    const int dst = g.add_node("K" + std::to_string(i));
    const int src_up = g.add_duplex(src, src_router, kAccessBps,
                                    sim::Time::zero(), kAccessQueuePackets);
    const int dst_up = g.add_duplex(dst, dst_router, kAccessBps,
                                    sim::Time::zero(), kAccessQueuePackets);
    if (i == 0 && points != nullptr) {
      *points = {.data_node = src,
                 .data_link = src_up,
                 .ack_node = dst,
                 .ack_link = dst_up};
    }
    f.start = cs.stagger * i;
    f.src_node = src;
    f.dst_node = dst;
    spec->add_flow(f);
  }
  spec->graph = std::move(g);
}

}  // namespace

const char* to_string(TopoKind k) {
  switch (k) {
    case TopoKind::kDumbbell:
      return "dumbbell";
    case TopoKind::kParkingLot:
      return "parking-lot";
    case TopoKind::kMultiDumbbell:
      return "multi-dumbbell";
    case TopoKind::kRandomMesh:
      return "random-mesh";
    case TopoKind::kCount:
      break;
  }
  return "?";
}

bool topo_kind_from_string(std::string_view name, TopoKind* out) {
  for (int i = 0; i < static_cast<int>(TopoKind::kCount); ++i) {
    const TopoKind k = static_cast<TopoKind>(i);
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* to_string(QueueKind k) {
  switch (k) {
    case QueueKind::kDropTail:
      return "droptail";
    case QueueKind::kRed:
      return "red";
    case QueueKind::kCount:
      break;
  }
  return "?";
}

bool queue_kind_from_string(std::string_view name, QueueKind* out) {
  for (int i = 0; i < static_cast<int>(QueueKind::kCount); ++i) {
    const QueueKind k = static_cast<QueueKind>(i);
    if (name == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

harness::ScenarioSpec materialize(const CaseSpec& cs,
                                  InjectionPoints* points) {
  harness::ScenarioSpec spec;
  spec.name = "fuzz";
  spec.seed = cs.seed;
  spec.horizon = cs.horizon;
  spec.shard_count = cs.shard_count;
  spec.instruments.tracers = false;
  spec.instruments.audit = harness::AuditMode::kRecord;
  spec.instruments.watchdog = true;
  spec.instruments.watchdog_config.check_interval = cs.wd_check_interval;
  spec.instruments.watchdog_config.stall_rto_factor = cs.wd_stall_rto_factor;
  spec.instruments.watchdog_config.livelock_rtx_threshold = cs.wd_livelock_rtx;
  spec.instruments.watchdog_config.stall_ceiling = cs.wd_stall_ceiling;

  switch (cs.topo) {
    case TopoKind::kDumbbell:
      materialize_dumbbell(cs, &spec, points);
      break;
    case TopoKind::kParkingLot:
      materialize_parking_lot(cs, &spec, points);
      break;
    case TopoKind::kMultiDumbbell:
      materialize_multi_dumbbell(cs, &spec, points);
      break;
    case TopoKind::kRandomMesh:
      materialize_mesh(cs, &spec, points);
      break;
    case TopoKind::kCount:
      RRTCP_ASSERT_MSG(false, "invalid TopoKind");
      break;
  }
  return spec;
}

std::unique_ptr<BuiltCase> build_case(const CaseSpec& cs,
                                      harness::SpecError* err,
                                      bool timer_wheel) {
  InjectionPoints points;
  harness::ScenarioSpec spec = materialize(cs, &points);
  spec.timer_wheel = timer_wheel;
  if (!cs.mutant.empty()) {
    spec.flow_maker = mutant_flow_maker(cs.mutant);
    RRTCP_ASSERT_MSG(spec.flow_maker != nullptr, "unknown mutant name");
  }

  auto built = std::make_unique<BuiltCase>();
  built->scenario = harness::Scenario::try_build(std::move(spec), err);
  if (built->scenario == nullptr) return nullptr;

  // Interpose the two injectors exactly as the chaos soak does on its
  // dumbbell: the plan's kData subset at the data-path point, its kAck
  // subset at the ACK-path point. Both are installed even for an empty
  // plan — a pass-through injector forwards synchronously, so the trace is
  // unchanged and every case tears down identically.
  topo::TopologyGraph& graph = built->scenario->graph();
  sim::Simulator& sim = built->scenario->sim();
  built->data_injector = std::make_unique<chaos::FaultInjector>(
      sim, graph.link(points.data_link), cs.plan.subset(chaos::FaultPath::kData),
      cs.seed, "fuzz-data");
  chaos::interpose(graph.node(points.data_node), graph.link(points.data_link),
                   *built->data_injector);
  built->ack_injector = std::make_unique<chaos::FaultInjector>(
      sim, graph.link(points.ack_link), cs.plan.subset(chaos::FaultPath::kAck),
      cs.seed, "fuzz-ack");
  chaos::interpose(graph.node(points.ack_node), graph.link(points.ack_link),
                   *built->ack_injector);
  return built;
}

}  // namespace rrtcp::fuzz
