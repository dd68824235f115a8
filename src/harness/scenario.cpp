#include "harness/scenario.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "app/flow_factory.hpp"
#include "harness/sweep.hpp"
#include "net/packet.hpp"
#include "sim/assert.hpp"
#include "topo/presets.hpp"

namespace rrtcp::harness {

namespace {

// Puts a QueueSpec's discipline on a link of the resolved graph. RED
// drop decisions draw from `seed`.
void set_queue(const QueueSpec& qs, std::uint64_t seed, topo::LinkSpec& link) {
  switch (qs.kind) {
    case QueueSpec::Kind::kDropTail:
      link.queue_packets = qs.capacity_packets;
      return;
    case QueueSpec::Kind::kRed: {
      net::RedConfig rc = qs.red;
      rc.seed = seed;
      link.make_queue = [rc](sim::Simulator& sim) {
        return std::make_unique<net::RedQueue>(sim, rc);
      };
      return;
    }
  }
  RRTCP_ASSERT_MSG(false, "unreachable");
}

// Breadth-first reachability over a GraphSpec's directed links — the same
// connectivity TopologyGraph's shortest-path routing will find, computable
// without materializing nodes or a simulator.
bool reachable(const topo::GraphSpec& g, int from, int to) {
  if (from == to) return true;
  std::vector<char> seen(static_cast<std::size_t>(g.n_nodes()), 0);
  std::vector<int> frontier{from};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!frontier.empty()) {
    std::vector<int> next;
    for (const int at : frontier) {
      for (const topo::LinkSpec& l : g.links) {
        if (l.from != at || seen[static_cast<std::size_t>(l.to)] != 0)
          continue;
        if (l.to == to) return true;
        seen[static_cast<std::size_t>(l.to)] = 1;
        next.push_back(l.to);
      }
    }
    frontier = std::move(next);
  }
  return false;
}

}  // namespace

const char* to_string(SpecError::Code c) {
  switch (c) {
    case SpecError::Code::kNoFlows:
      return "no-flows";
    case SpecError::Code::kBadHorizon:
      return "bad-horizon";
    case SpecError::Code::kBadRate:
      return "bad-rate";
    case SpecError::Code::kBadLink:
      return "bad-link";
    case SpecError::Code::kBadEndpoint:
      return "bad-endpoint";
    case SpecError::Code::kUnroutable:
      return "unroutable";
    case SpecError::Code::kBadCbr:
      return "bad-cbr";
    case SpecError::Code::kBadSegment:
      return "bad-segment";
    case SpecError::Code::kShardUnsupported:
      return "shard-unsupported";
  }
  return "?";
}

std::optional<SpecError> Scenario::validate(const ScenarioSpec& spec) {
  auto fail = [](SpecError::Code c, std::string d) {
    return std::optional<SpecError>{SpecError{c, std::move(d)}};
  };

  if (!spec.flow_sets.empty() || (spec.graph.empty() && !spec.flows.empty()))
    return validate(resolve(spec));  // what will actually be built

  if (spec.flows.empty())
    return fail(SpecError::Code::kNoFlows, "scenario has no flows");
  if (spec.horizon <= sim::Time::zero())
    return fail(SpecError::Code::kBadHorizon, "horizon must be > 0");

  const topo::GraphSpec& g = spec.graph;
  const int n = g.n_nodes();
  for (std::size_t i = 0; i < g.links.size(); ++i) {
    const topo::LinkSpec& l = g.links[i];
    if (l.from < 0 || l.from >= n || l.to < 0 || l.to >= n || l.from == l.to)
      return fail(SpecError::Code::kBadLink,
                  "link " + std::to_string(i) + ": endpoints out of range");
    if (l.bandwidth_bps <= 0)
      return fail(SpecError::Code::kBadRate,
                  "link " + std::to_string(i) + ": bandwidth must be > 0");
  }
  for (std::size_t i = 0; i < g.routes.size(); ++i) {
    const topo::RouteSpec& r = g.routes[i];
    if (r.at < 0 || r.at >= n || r.dst < 0 || r.dst >= n || r.link < 0 ||
        r.link >= static_cast<int>(g.links.size()))
      return fail(SpecError::Code::kBadLink,
                  "route " + std::to_string(i) + ": indices out of range");
  }
  for (const int link : spec.audited_links) {
    if (link < 0 || link >= static_cast<int>(g.links.size()))
      return fail(SpecError::Code::kBadLink,
                  "audited link " + std::to_string(link) + " out of range");
  }
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    const FlowSpec& fs = spec.flows[i];
    if (fs.src_node < 0 || fs.src_node >= n || fs.dst_node < 0 ||
        fs.dst_node >= n || fs.src_node == fs.dst_node)
      return fail(SpecError::Code::kBadEndpoint,
                  "flow " + std::to_string(i) + ": src/dst node invalid");
    // Data must reach the receiver AND its ACKs must get home.
    if (!reachable(g, fs.src_node, fs.dst_node) ||
        !reachable(g, fs.dst_node, fs.src_node))
      return fail(SpecError::Code::kUnroutable,
                  "flow " + std::to_string(i) + ": no path " +
                      std::to_string(fs.src_node) + "<->" +
                      std::to_string(fs.dst_node));
    // A segment's payload is carried in 16 bits (net::TcpHeader).
    if (fs.tcp.mss == 0 || fs.tcp.mss > net::kMaxPayloadBytes)
      return fail(SpecError::Code::kBadSegment,
                  "flow " + std::to_string(i) + ": mss " +
                      std::to_string(fs.tcp.mss) + " outside 1.." +
                      std::to_string(net::kMaxPayloadBytes));
  }
  for (std::size_t j = 0; j < spec.cross_traffic.size(); ++j) {
    const CbrSpec& cs = spec.cross_traffic[j];
    if (cs.src_node < 0 || cs.src_node >= n || cs.dst_node < 0 ||
        cs.dst_node >= n || cs.src_node == cs.dst_node)
      return fail(SpecError::Code::kBadCbr,
                  "cbr " + std::to_string(j) + ": src/dst node invalid");
    if (cs.rate_bps <= 0)
      return fail(SpecError::Code::kBadCbr,
                  "cbr " + std::to_string(j) +
                      ": rate_bps must be > 0");
    if (cs.packet_bytes == 0)
      return fail(SpecError::Code::kBadCbr,
                  "cbr " + std::to_string(j) + ": packet_bytes must be > 0");
    if (!reachable(g, cs.src_node, cs.dst_node))
      return fail(SpecError::Code::kUnroutable,
                  "cbr " + std::to_string(j) + ": no path " +
                      std::to_string(cs.src_node) + "->" +
                      std::to_string(cs.dst_node));
  }
  return std::nullopt;
}

ScenarioSpec Scenario::resolve(ScenarioSpec spec) {
  spec.expand_flow_sets();
  // CBR streams ride extra host pairs appended after the TCP flows', so a
  // spec without cross-traffic builds the paper's exact dumbbell.
  const int n_tcp = static_cast<int>(spec.flows.size());
  const int n_cbr = static_cast<int>(spec.cross_traffic.size());
  if (!spec.graph.empty() || n_tcp + n_cbr == 0) return spec;

  topo::MultiDumbbellConfig mdc;
  mdc.n_senders = n_tcp + n_cbr;
  mdc.m_receivers = n_tcp + n_cbr;
  mdc.bottleneck_bps = spec.topology.bottleneck_bps;
  mdc.bottleneck_delay = spec.topology.bottleneck_delay;
  mdc.side_bps = spec.topology.side_bps;
  mdc.side_delay = spec.topology.side_delay;
  topo::MultiDumbbellLayout md = topo::multi_dumbbell(mdc);
  std::vector<topo::LinkSpec>& links = md.spec.links;
  const auto fwd = static_cast<std::size_t>(md.bottleneck_link);
  const auto rev = static_cast<std::size_t>(md.reverse_bottleneck_link);
  set_queue(spec.bottleneck, spec.seed, links[fwd]);
  if (spec.reverse_bottleneck) {
    // A distinct derived seed keeps a reverse RED queue's drop RNG
    // independent of the forward one's.
    set_queue(*spec.reverse_bottleneck, derive_seed(spec.seed, 1),
              links[rev]);
  }

  // Place each flow and CBR stream on its host pair: S_i -> K_i, or
  // K_i -> S_i when it rides the reverse path.
  auto place = [&md](bool reverse, int pair, int* src, int* dst) {
    const int s = md.senders[static_cast<std::size_t>(pair)];
    const int k = md.receivers[static_cast<std::size_t>(pair)];
    *src = reverse ? k : s;
    *dst = reverse ? s : k;
  };
  for (int i = 0; i < n_tcp; ++i) {
    FlowSpec& fs = spec.flows[static_cast<std::size_t>(i)];
    place(fs.reverse, i, &fs.src_node, &fs.dst_node);
  }
  for (int j = 0; j < n_cbr; ++j) {
    CbrSpec& cs = spec.cross_traffic[static_cast<std::size_t>(j)];
    place(cs.reverse, n_tcp + j, &cs.src_node, &cs.dst_node);
    if (cs.load_fraction > 0)
      cs.rate_bps = static_cast<std::int64_t>(
          cs.load_fraction *
          static_cast<double>(links[cs.reverse ? rev : fwd].bandwidth_bps));
  }
  spec.graph = std::move(md.spec);
  spec.audited_links = {md.bottleneck_link, md.reverse_bottleneck_link};
  return spec;
}

std::unique_ptr<Scenario> Scenario::try_build(ScenarioSpec spec,
                                              SpecError* err) {
  if (std::optional<SpecError> e = validate(spec)) {
    if (err != nullptr) *err = std::move(*e);
    return nullptr;
  }
  return std::make_unique<Scenario>(std::move(spec));
}

Scenario::Scenario(ScenarioSpec spec, std::vector<int> node_engine)
    : dumbbell_{spec.graph.empty()}, spec_{resolve(std::move(spec))} {
  RRTCP_ASSERT_MSG(!spec_.flows.empty(), "scenario needs at least one flow");

  // Engine-tier selection must precede every schedule (the hook asserts
  // the wheel is empty); the fuzzer's equivalence oracle builds the same
  // spec with the wheel off and expects byte-identical traces.
  const int n_engines =
      node_engine.empty()
          ? 1
          : *std::max_element(node_engine.begin(), node_engine.end()) + 1;
  for (int e = 0; e < n_engines; ++e) {
    engines_.push_back(std::make_unique<sim::Simulator>());
    if (!spec_.timer_wheel) engines_.back()->set_timer_wheel_enabled(false);
  }
  RRTCP_ASSERT_MSG(n_engines == 1 || (!spec_.flow_maker &&
                                      spec_.instruments.audit ==
                                          AuditMode::kNone &&
                                      !spec_.instruments.watchdog),
                   "flow_maker, audit and watchdog need a single engine");

  std::vector<sim::Simulator*> node_sim(spec_.graph.nodes.size(), &sim());
  if (!node_engine.empty()) {
    RRTCP_ASSERT_MSG(node_engine.size() == node_sim.size(),
                     "one engine index per graph node");
    for (std::size_t v = 0; v < node_sim.size(); ++v)
      node_sim[v] = &engine(node_engine[v]);
  }
  graph_ = std::make_unique<topo::TopologyGraph>(std::move(node_sim),
                                                 spec_.graph);
  if (dumbbell_) {
    if (spec_.bottleneck.kind == QueueSpec::Kind::kRed)
      red_ = static_cast<net::RedQueue*>(&graph_->link(0).queue());
    if (spec_.reverse_bottleneck &&
        spec_.reverse_bottleneck->kind == QueueSpec::Kind::kRed)
      reverse_red_ = static_cast<net::RedQueue*>(&graph_->link(1).queue());
  }

  // Every object lives on the engine of the node it sits on. Flows first,
  // then CBR, then the FTP/ON-OFF sources: CBR and the sources schedule
  // their start on construction, and that order is pinned by the golden
  // traces.
  topo::TopologyGraph& g = graph();
  flows_.reserve(spec_.flows.size());
  for (std::size_t i = 0; i < spec_.flows.size(); ++i) {
    const FlowSpec& fs = spec_.flows[i];
    RRTCP_ASSERT_MSG(fs.src_node >= 0 && fs.dst_node >= 0,
                     "graph-mode flows need src_node/dst_node");
    net::Node& snd = g.node(fs.src_node);
    net::Node& rcv = g.node(fs.dst_node);
    const auto id = static_cast<net::FlowId>(i + 1);
    flows_.push_back(
        spec_.flow_maker
            ? spec_.flow_maker(g.sim_of(fs.src_node), snd, rcv, id, fs)
            : app::make_flow(fs.variant, g.sim_of(fs.src_node), snd,
                             g.sim_of(fs.dst_node), rcv, id, fs.tcp));
  }

  for (std::size_t j = 0; j < spec_.cross_traffic.size(); ++j) {
    const CbrSpec& cs = spec_.cross_traffic[j];
    RRTCP_ASSERT_MSG(cs.src_node >= 0 && cs.dst_node >= 0,
                     "graph-mode CBR streams need src_node/dst_node");
    RRTCP_ASSERT_MSG(cs.rate_bps > 0,
                     "graph-mode CBR streams need an explicit rate_bps");
    traffic::CbrConfig cc;
    cc.rate_bps = cs.rate_bps;
    cc.packet_bytes = cs.packet_bytes;
    cc.start = cs.start;
    cc.stop = cs.stop;
    const auto flow_id =
        static_cast<net::FlowId>(spec_.flows.size() + j + 1);
    net::Node& dst = g.node(cs.dst_node);
    cbr_sinks_.push_back(std::make_unique<traffic::CbrSink>(dst, flow_id));
    cbr_sources_.push_back(std::make_unique<traffic::CbrSource>(
        g.sim_of(cs.src_node), g.node(cs.src_node), flow_id, dst.id(), cc));
  }

  // ON/OFF sources derive their RNG stream from the scenario seed and the
  // flow index, so adding or reordering other stochastic components never
  // perturbs them.
  sources_.reserve(spec_.flows.size());
  onoffs_.reserve(spec_.flows.size());
  for (std::size_t i = 0; i < spec_.flows.size(); ++i) {
    const FlowSpec& fs = spec_.flows[i];
    sim::Simulator& at = g.sim_of(fs.src_node);
    if (fs.onoff) {
      traffic::OnOffConfig oc = *fs.onoff;
      oc.start = fs.start;
      sources_.push_back(nullptr);
      onoffs_.push_back(std::make_unique<traffic::OnOffSource>(
          at, *flows_[i].sender, oc, spec_.seed,
          "onoff/" + std::to_string(i)));
    } else {
      sources_.push_back(std::make_unique<app::FtpSource>(
          at, *flows_[i].sender, fs.start, fs.bytes));
      onoffs_.push_back(nullptr);
    }
  }

  // Tracers are plain sender observers, so they work on any engine; the
  // assert above keeps engine-bound audit/watchdog to one simulator.
  instrumentation_ =
      std::make_unique<Instrumentation>(sim(), spec_.instruments);
  for (app::Flow& f : flows_) instrumentation_->attach(f);
  instrumentation_->attach_queues(*graph_, spec_.audited_links);
}

DumbbellView Scenario::topology() {
  RRTCP_ASSERT_MSG(dumbbell_, "topology() needs a dumbbell-mode spec");
  return DumbbellView{*graph_};
}

std::uint64_t Scenario::run_until(sim::Time deadline) {
  RRTCP_ASSERT_MSG(engines_.size() == 1,
                   "a partitioned scenario runs on pdes::ShardedScenario");
  return sim().run_until(deadline);
}

}  // namespace rrtcp::harness
