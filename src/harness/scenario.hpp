// Declarative scenario description + runner.
//
// A ScenarioSpec is a plain value: topology, bottleneck queue choice, the
// list of flows (variant, start time, transfer size, TCP config), optional
// cross-traffic, instrumentation options, a seed and a horizon. Because it
// is data, a spec can be built once and handed to a sweep job, mutated per
// grid point, or printed; the imperative build-everything-by-hand dance
// the bench binaries used to repeat lives in ONE place, the Scenario
// constructor.
//
//   harness::ScenarioSpec spec;
//   spec.name = "fig5/newreno";
//   spec.bottleneck = harness::QueueSpec::drop_tail(100);
//   spec.add_flow({.variant = app::Variant::kNewReno,
//                  .bytes = 100'000, .tcp = tcfg});
//   harness::Scenario sc{spec};
//   sc.topology().bottleneck().set_loss_model(...);   // optional knobs
//   sc.run();
//   ... sc.instruments(0).meter->throughput_bps(...) ...
//
// Two ways to give the topology, one way to build it:
//   Dumbbell (default, spec.graph empty) — the paper's Figure 4 around
//   spec.topology. Scenario::resolve() turns it into graph form before
//   anything is built: the flows and CBR streams go on host pairs of
//   topo::multi_dumbbell(n, n) (S_i -> K_i, or K_i -> S_i for
//   FlowSpec.reverse / CbrSpec.reverse, which load the ACK path), the
//   spec.bottleneck and spec.reverse_bottleneck queues go on links 0 and 1,
//   and audited_links becomes {0, 1}.
//   Graph (spec.graph non-empty) — any topo::GraphSpec (parking lot, N x M
//   dumbbell, hand-built). Flows and CBR streams name their src/dst node
//   indices; spec.audited_links lists the links the audit layer watches.
//   Queue disciplines ride inside the GraphSpec's per-link factories, so
//   spec.bottleneck is ignored in this mode.
//
// Engines: a Scenario runs on one simulator unless it is given a per-node
// engine assignment (pdes::ShardedScenario passes its partition's
// node->shard map). Every node, link, queue, flow endpoint, source and CBR
// stream is then built on the engine of the node it sits on; this is the
// only code that builds a simulated world, whichever engine runs it.
//
// Member order in Scenario is its teardown contract: instrumentation
// detaches first, then traffic sources stop, then flows die, then the
// topology, then the simulators.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/flow_factory.hpp"
#include "app/ftp.hpp"
#include "app/variant.hpp"
#include "harness/instrumentation.hpp"
#include "net/red.hpp"
#include "sim/simulator.hpp"
#include "tcp/types.hpp"
#include "topo/graph.hpp"
#include "traffic/cbr.hpp"
#include "traffic/onoff.hpp"

namespace rrtcp::harness {

// Bottleneck queue selection, as data. Scenario::resolve() turns it into
// the bottleneck LinkSpec's queue_packets or make_queue.
struct QueueSpec {
  enum class Kind { kDropTail, kRed };
  Kind kind = Kind::kDropTail;
  std::uint64_t capacity_packets = 8;  // drop-tail (Table 3 default)
  net::RedConfig red = {};             // used when kind == kRed

  static QueueSpec drop_tail(std::uint64_t capacity) {
    QueueSpec q;
    q.kind = Kind::kDropTail;
    q.capacity_packets = capacity;
    return q;
  }
  static QueueSpec red_queue(net::RedConfig cfg) {
    QueueSpec q;
    q.kind = Kind::kRed;
    q.red = cfg;
    return q;
  }
};

struct FlowSpec {
  app::Variant variant = app::Variant::kRr;
  sim::Time start = sim::Time::zero();
  // Transfer size; nullopt = unbounded FTP. Ignored when `onoff` is set.
  std::optional<std::uint64_t> bytes = std::nullopt;
  tcp::TcpConfig tcp = {};
  // Dumbbell mode: run this flow K_i -> S_i instead of S_i -> K_i, so its
  // DATA crosses the reverse bottleneck and its ACKs the forward one — the
  // reverse-path bulk flow that queues/compresses the other flows' ACKs.
  bool reverse = false;
  // Web-like ON/OFF source instead of FTP; `start` below overrides the
  // embedded OnOffConfig::start.
  std::optional<traffic::OnOffConfig> onoff = std::nullopt;
  // Graph mode: endpoint node indices into the GraphSpec (required there,
  // ignored in dumbbell mode).
  int src_node = -1;
  int dst_node = -1;
};

// N identical-config flows as ONE spec entry. A million-flow scenario must
// not carry a million FlowSpecs: the set stores one prototype plus an
// expansion rule, and expand_flow_sets() materializes the members at build
// time. Expansion is purely mechanical — member i starts at
// proto.start + stagger*i and (graph mode) runs
// proto.src_node + src_step*i -> proto.dst_node + dst_step*i — so a spec
// written with flow sets is byte-equivalent to the same spec written with
// the expanded flow list.
struct FlowSet {
  int count = 0;
  FlowSpec proto = {};
  sim::Time stagger = sim::Time::zero();
  // Graph mode: node-index strides, letting one set cover "flow i runs
  // host_i -> sink_i" placements. 0 keeps every member on proto's nodes.
  int src_step = 0;
  int dst_step = 0;
};

// Unresponsive constant-bit-rate cross-traffic stream. In dumbbell mode it
// gets its own host pair (forward: extra S -> K across the bottleneck;
// reverse = true: K -> S across the ACK path). In graph mode it runs
// src_node -> dst_node and rate_bps must be set explicitly.
struct CbrSpec {
  std::int64_t rate_bps = 0;   // absolute rate, bits/s
  // Dumbbell-mode convenience: when > 0, rate = fraction x the crossed
  // bottleneck's bandwidth (forward or reverse as placed); wins over
  // rate_bps.
  double load_fraction = 0.0;
  std::uint32_t packet_bytes = 1'000;
  sim::Time start = sim::Time::zero();
  std::optional<sim::Time> stop = std::nullopt;
  bool reverse = false;
  int src_node = -1;  // graph mode placement
  int dst_node = -1;
};

// Why a spec could not be built. `code` is the machine-checkable class
// (what a generator switches on to discard-and-resample); `detail` names
// the offending flow/link/field for humans. Returned by Scenario::validate
// and Scenario::try_build instead of tripping the constructor's asserts.
struct SpecError {
  enum class Code {
    kNoFlows,       // empty flow list
    kBadHorizon,    // horizon <= 0
    kBadRate,       // a link/topology bandwidth <= 0
    kBadLink,       // link or route endpoints outside the node set
    kBadEndpoint,   // flow src/dst missing or outside the node set
    kUnroutable,    // no path between a flow's endpoints (either direction)
    kBadCbr,        // cross-traffic endpoints/rate/packet size invalid
    kBadSegment,    // a flow's tcp.mss is 0 or above net::kMaxPayloadBytes
    // A spec that partitions asks for what only one engine supports
    // (pdes::ShardedScenario::validate).
    kShardUnsupported,
  };
  Code code;
  std::string detail;
};

const char* to_string(SpecError::Code c);

// Upper bound CLI front ends accept for ScenarioSpec::shard_count. Purely
// a sanity rail for --shards typos: the partitioner itself clamps to the
// subgraph count, so any larger value could only waste idle worker
// threads.
inline constexpr int kMaxShardCount = 64;

// Dumbbell-mode link parameters (Table 3 defaults). The reverse
// bottleneck mirrors the forward one's rate and delay; every buffer but
// the two bottlenecks' is a lossless 10'000-packet drop-tail queue. Other
// shapes are edits of the resolved GraphSpec (Scenario::resolve).
struct DumbbellSpec {
  std::int64_t bottleneck_bps = 800'000;
  sim::Time bottleneck_delay = sim::Time::milliseconds(100);  // one-way
  std::int64_t side_bps = 10'000'000;
  sim::Time side_delay = sim::Time::zero();
};

struct ScenarioSpec {
  std::string name = "scenario";
  // Dumbbell mode: the links around the flows.
  DumbbellSpec topology = {};
  QueueSpec bottleneck = {};
  // Dumbbell mode: queue discipline of the reverse (ACK-path) bottleneck.
  // nullopt keeps the deep 10'000-packet drop-tail buffer; set it to make
  // ACK-path drops real.
  std::optional<QueueSpec> reverse_bottleneck = std::nullopt;
  // Graph mode: a non-empty GraphSpec replaces the dumbbell entirely.
  topo::GraphSpec graph;
  // Graph mode: link indices the audit layer should watch (queues and
  // loss-model drops).
  std::vector<int> audited_links;
  std::vector<FlowSpec> flows;
  // Aggregate flow groups, expanded (appended to `flows`, in order) by
  // expand_flow_sets() before validation/build.
  std::vector<FlowSet> flow_sets;
  std::vector<CbrSpec> cross_traffic;
  InstrumentationOptions instruments = {};
  // Engine shards for the pdes::ShardedScenario runner (graph mode only;
  // requires every cut to have positive delay — see topo/partition.hpp).
  // The plain Scenario runner ignores it: 1 means "today's single engine",
  // which is also what pdes builds when the graph does not partition. CLI
  // front ends (--shards) accept 1..kMaxShardCount; the partitioner clamps
  // to the number of subgraphs the topology actually yields.
  int shard_count = 1;
  // Seeds randomized components (RED drop RNG, ON/OFF sources); pass the
  // sweep's derived per-job seed here.
  std::uint64_t seed = 1;
  sim::Time horizon = sim::Time::seconds(60);
  // Test/fuzz hook: when set, builds flow i in place of app::make_flow,
  // letting campaigns and the chaos soak drive intentionally broken
  // senders through the standard build path (mutant self-tests of the
  // fuzz oracles). Single-engine only.
  std::function<app::Flow(sim::Simulator&, net::Node& snd, net::Node& rcv,
                          net::FlowId id, const FlowSpec& fs)>
      flow_maker;
  // False runs the simulation with the hierarchical timer-wheel tier
  // disabled (heap-only scheduling, the pre-wheel engine shape). Traces
  // must be byte-identical either way; the fuzzer's engine-equivalence
  // oracle flips this and compares digests.
  bool timer_wheel = true;

  ScenarioSpec& add_flow(FlowSpec f) {
    flows.push_back(std::move(f));
    return *this;
  }
  // n identical flows whose starts are staggered `stagger` apart.
  ScenarioSpec& add_flows(int n, FlowSpec f,
                          sim::Time stagger = sim::Time::zero()) {
    const sim::Time base = f.start;
    for (int i = 0; i < n; ++i) {
      f.start = base + stagger * i;
      flows.push_back(f);
    }
    return *this;
  }
  ScenarioSpec& add_cbr(CbrSpec c) {
    cross_traffic.push_back(std::move(c));
    return *this;
  }
  ScenarioSpec& add_flow_set(FlowSet s) {
    flow_sets.push_back(std::move(s));
    return *this;
  }

  // Materialize flow_sets into `flows` (appended in set order, members in
  // index order) and clear the set list. Idempotent; called by
  // Scenario::validate / the builders, so specs may carry sets right up to
  // build time.
  void expand_flow_sets() {
    for (const FlowSet& s : flow_sets) {
      flows.reserve(flows.size() + static_cast<std::size_t>(s.count > 0
                                                                ? s.count
                                                                : 0));
      for (int i = 0; i < s.count; ++i) {
        FlowSpec f = s.proto;
        f.start = s.proto.start + s.stagger * i;
        if (s.src_step != 0) f.src_node = s.proto.src_node + s.src_step * i;
        if (s.dst_step != 0) f.dst_node = s.proto.dst_node + s.dst_step * i;
        flows.push_back(std::move(f));
      }
    }
    flow_sets.clear();
  }
};

// The dumbbell a dumbbell-mode spec resolved to, as a view over the built
// graph: multi_dumbbell's R1 = node 0, R2 = node 1, forward bottleneck
// R1->R2 = link 0, reverse bottleneck R2->R1 = link 1.
class DumbbellView {
 public:
  explicit DumbbellView(topo::TopologyGraph& g) : g_{&g} {}
  net::Link& bottleneck() { return g_->link(0); }          // data
  net::Link& reverse_bottleneck() { return g_->link(1); }  // ACKs
  net::Node& r1() { return g_->node(0); }
  net::Node& r2() { return g_->node(1); }

 private:
  topo::TopologyGraph* g_;
};

class Scenario {
 public:
  // `node_engine`, when non-empty, assigns each node of the resolved graph
  // an engine index (engines 0..max are created); empty runs everything on
  // one engine. Several engines require no flow_maker, no audit and no
  // watchdog: those observe a flow from one simulator.
  explicit Scenario(ScenarioSpec spec, std::vector<int> node_engine = {});

  // Structural validation of a spec WITHOUT building anything: empty flow
  // set, non-positive rates, out-of-range link/flow/CBR endpoints,
  // unroutable src/dst pairs (BFS over the GraphSpec, both directions —
  // ACKs must get home too). A dumbbell spec is checked in its resolved
  // form. Returns nullopt when the spec is buildable.
  // The constructor still asserts on these as a backstop; generated specs
  // go through here (or try_build) so a bad sample is a discard, not a
  // crash.
  static std::optional<SpecError> validate(const ScenarioSpec& spec);

  // The spec as it will be built: flow sets expanded and, for a dumbbell
  // spec, the graph form described at the top of this file. A spec
  // without a flow or CBR stream stays a dumbbell spec (validate rejects
  // it). Pure: builds nothing, and the result is a plain graph-mode spec.
  static ScenarioSpec resolve(ScenarioSpec spec);

  // validate() + construct: nullptr (with *err filled when non-null) on a
  // rejected spec, the built scenario otherwise.
  static std::unique_ptr<Scenario> try_build(ScenarioSpec spec,
                                             SpecError* err = nullptr);

  // Engine 0 — the only one unless a node_engine map was given.
  sim::Simulator& sim() { return *engines_.front(); }
  int n_engines() const { return static_cast<int>(engines_.size()); }
  sim::Simulator& engine(int e) {
    return *engines_.at(static_cast<std::size_t>(e));
  }
  // Dumbbell-mode specs only (asserts otherwise).
  DumbbellView topology();
  topo::TopologyGraph& graph() { return *graph_; }

  int n_flows() const { return static_cast<int>(flows_.size()); }
  app::Flow& flow(int i) { return flows_.at(static_cast<std::size_t>(i)); }
  tcp::TcpSenderBase& sender(int i) { return *flow(i).sender; }
  // The FTP source of flow i; null for ON/OFF flows (see onoff()).
  app::FtpSource* source(int i) {
    return sources_.at(static_cast<std::size_t>(i)).get();
  }
  // The ON/OFF source of flow i; null for FTP flows.
  traffic::OnOffSource* onoff(int i) {
    return onoffs_.at(static_cast<std::size_t>(i)).get();
  }
  FlowInstruments& instruments(int i) {
    return instrumentation_->flow(static_cast<std::size_t>(i));
  }
  Instrumentation& instrumentation() { return *instrumentation_; }

  int n_cbr() const { return static_cast<int>(cbr_sources_.size()); }
  traffic::CbrSource& cbr(int i) {
    return *cbr_sources_.at(static_cast<std::size_t>(i));
  }
  traffic::CbrSink& cbr_sink(int i) {
    return *cbr_sinks_.at(static_cast<std::size_t>(i));
  }

  // The bottleneck RED queue, when the spec asked for one (else nullptr).
  net::RedQueue* red() { return red_; }
  // The reverse-bottleneck RED queue, when spec.reverse_bottleneck asked
  // for one (else nullptr).
  net::RedQueue* reverse_red() { return reverse_red_; }

  // Runs to the spec's horizon (or an explicit deadline); returns events
  // executed. Single-engine only: pdes::ShardedScenario runs the engines
  // of a partitioned scenario.
  std::uint64_t run() { return run_until(spec_.horizon); }
  std::uint64_t run_until(sim::Time deadline);

  // The spec as built: resolve() of the one given.
  const ScenarioSpec& spec() const { return spec_; }

 private:
  bool dumbbell_;  // the given spec was a dumbbell spec
  ScenarioSpec spec_;
  std::vector<std::unique_ptr<sim::Simulator>> engines_;
  std::unique_ptr<topo::TopologyGraph> graph_;
  net::RedQueue* red_ = nullptr;
  net::RedQueue* reverse_red_ = nullptr;
  std::vector<app::Flow> flows_;
  std::vector<std::unique_ptr<app::FtpSource>> sources_;      // per flow
  std::vector<std::unique_ptr<traffic::OnOffSource>> onoffs_; // per flow
  std::vector<std::unique_ptr<traffic::CbrSource>> cbr_sources_;
  std::vector<std::unique_ptr<traffic::CbrSink>> cbr_sinks_;
  std::unique_ptr<Instrumentation> instrumentation_;
};

}  // namespace rrtcp::harness
