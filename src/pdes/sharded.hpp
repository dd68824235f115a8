// Sharded conservative-synchronization simulation engine.
//
// One scenario, many cores: the topology graph is partitioned into
// per-shard subgraphs (topo/partition.hpp — cut only at links, zero-delay
// links never cut), each shard runs its own pooled wheel+heap
// sim::Simulator on a dedicated thread, and the shards synchronize with
// classic conservative lookahead (null-message/barrier PDES):
//
//   lookahead LA = min propagation delay over all cut links (> 0).
//   Round k covers the half-open window [k*LA, (k+1)*LA): every shard
//   calls Simulator::run_before((k+1)*LA), so no event at or past the
//   boundary fires early. A packet crossing a cut link is handed off at
//   its serialization end t_done (net::RemoteSink), stamped with its
//   arrival time t_done + prop_delay >= t_done + LA >= (k+1)*LA —
//   i.e. every cross-shard packet produced in round k arrives at or after
//   the next boundary, so merging inboxes AT the boundary can never
//   deliver into a shard's past. That is the whole causality proof: the
//   propagation pipe of the cut links funds the lookahead.
//
// Between rounds the coordinator thread (the caller of run()) drains every
// channel and pushes the arrivals into each cut link's receive line on the
// destination shard (a net::DelayLine: one event per busy line, not one
// per packet) in one canonical order — (arrival time, cut-link index,
// per-channel sequence) — so the merge, and the event keys it reserves,
// are deterministic for ANY shard count and thread timing.
// Determinism contract (DESIGN.md §17): a fixed spec at a fixed shard
// count is bit-repeatable regardless of thread scheduling, and across
// shard counts 1, 2, 4, 8, ... the same ScenarioSpec produces identical
// per-flow traces for tie-free workloads — no two packets arriving at one
// node at the same picosecond via different links. (At such a tie the
// single engine orders deliveries by serialization-end insertion order,
// which a shard cannot observe across the cut; symmetric topologies with
// identical rates and delays can manufacture ties, see DESIGN.md §17 for
// the exact condition and which presets are tie-safe by construction.)
//
// The world itself is built by harness::Scenario, the one builder: given
// the partition's node->shard map it puts every node, link, queue, flow,
// source and CBR stream on its shard's simulator. ShardedScenario only adds
// the Channels on the cut links and runs the rounds. With shard_count <= 1
// (or a graph that does not partition) that Scenario has one engine and
// run() is its own run(), byte-identical to a single-engine run by
// construction.
//
// Thread-safety model: there are no locks on the packet path. Channel
// buffers are written only by the owning source shard DURING a round and
// read only by the coordinator BETWEEN rounds; the round barrier (one
// mutex + condvars) provides the happens-before edges. An AuditSession and
// the watchdog run on one simulator but watch both endpoints of a flow,
// which may live on different shards: a partitioned spec asking for
// AuditMode::kRecord or the watchdog is rejected (SpecError
// kShardUnsupported), and the build-gated audit is off. Per-flow tracers
// are plain sender observers and stay shard-local.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "harness/scenario.hpp"
#include "net/delay_line.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/hot.hpp"
#include "sim/simulator.hpp"
#include "topo/partition.hpp"

namespace rrtcp::pdes {

// One cut link's cross-shard mailbox. push() runs on the source shard's
// thread during a round; the buffer is drained by the coordinator between
// rounds (phase separation — no lock). The per-channel sequence number
// makes the canonical merge order total: (arrival, link index, seq), with
// seq preserving each link's FIFO delivery order.
class Channel final : public net::RemoteSink {
 public:
  struct Msg {
    std::int64_t arrival_ps;
    std::uint64_t seq;
    net::Packet pkt;
  };

  explicit Channel(int link_index) : link_{link_index} {}

  RRTCP_HOT void push(sim::Time arrival, net::Packet p) override {
    // The coordinator's drain clear()s the buffer but keeps its capacity,
    // so growth amortizes away after the first few rounds.
    // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
    buf_.push_back(Msg{arrival.ps(), seq_++, std::move(p)});
  }

  int link_index() const { return link_; }
  std::vector<Msg>& inbox() { return buf_; }
  std::uint64_t total_pushed() const { return seq_; }

 private:
  int link_;
  std::uint64_t seq_ = 0;
  std::vector<Msg> buf_;
};

// Sharded runner for a harness::Scenario. Graph-mode specs with
// spec.shard_count > 1 that partition run on the PDES engine; everything
// else (dumbbell mode, shard_count <= 1, or a graph the partitioner cannot
// split) builds a one-engine Scenario and runs it as is.
class ShardedScenario {
 public:
  explicit ShardedScenario(harness::ScenarioSpec spec);
  ~ShardedScenario();
  ShardedScenario(const ShardedScenario&) = delete;
  ShardedScenario& operator=(const ShardedScenario&) = delete;

  // Scenario::validate, plus kShardUnsupported when a spec that really
  // partitions asks for a flow_maker, AuditMode::kRecord or the watchdog.
  // (The build-gated audit is simply off under sharding.)
  static std::optional<harness::SpecError> validate(
      const harness::ScenarioSpec& spec);
  // validate + construct, mirroring Scenario::try_build.
  static std::unique_ptr<ShardedScenario> try_build(
      harness::ScenarioSpec spec, harness::SpecError* err = nullptr);

  // Runs the whole horizon (single shot). Returns events executed across
  // all shards, including the merged cross-shard deliveries.
  std::uint64_t run();

  // 1 unless the PDES engine is active.
  int n_shards() const { return part_.n_shards; }
  sim::Time lookahead() const { return part_.lookahead; }
  const topo::Partition& partition() const { return part_; }
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t cross_shard_packets() const;
  std::uint64_t events_executed() const;

  // The built world: flows, sources, CBR, instruments and the graph, in
  // the GraphSpec's global numbering whichever shard owns each object.
  harness::Scenario& scenario() { return *scenario_; }
  int n_flows() const { return scenario_->n_flows(); }
  tcp::TcpSenderBase& sender(int i) { return scenario_->sender(i); }
  tcp::TcpReceiver& receiver(int i) { return *scenario_->flow(i).receiver; }
  net::Link& link(int i) { return scenario_->graph().link(i); }
  const harness::ScenarioSpec& spec() const { return scenario_->spec(); }

 private:
  // One cross-shard packet in flight during a merge, with its canonical
  // sort key.
  struct Pending {
    std::int64_t arrival_ps;
    int link;
    std::uint64_t seq;
    std::uint32_t channel;  // index into channels_ and receive_
    net::Packet pkt;
  };

  void start_workers();
  void stop_workers();
  void worker_loop(int shard);
  // Dispatch one synchronized window to every shard and wait for the
  // barrier: run_before(deadline) when !inclusive, run_until(deadline)
  // (events at the deadline fire) for the terminal window(s).
  void parallel_window(sim::Time deadline, bool inclusive);
  // Drain every channel into the destination shards in canonical order.
  // Returns how many merged arrivals are at or before `count_upto` — the
  // terminal loop repeats inclusive windows until this reaches zero, so
  // deliveries landing exactly on the horizon fire just as they do in a
  // single-engine run_until(horizon).
  std::size_t merge_channels(sim::Time count_upto);

  topo::Partition part_;
  // Declared before the scenario so its links, which point at them, die
  // first.
  std::vector<std::unique_ptr<Channel>> channels_;  // one per cut link
  std::vector<int> channel_dst_shard_;
  std::vector<std::vector<Pending>> merge_scratch_;  // per dest shard
  std::unique_ptr<harness::Scenario> scenario_;
  // One per cut link, on its head node's engine: merged arrivals wait here
  // for their instant and are then received by the head node.
  std::vector<std::unique_ptr<net::DelayLine>> receive_;
  std::vector<std::uint64_t> executed_;  // per shard

  // Round barrier. Workers wait for round_gen_ to advance, run their
  // window, then the last one to finish wakes the coordinator.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t round_gen_ = 0;
  sim::Time round_deadline_ = sim::Time::zero();
  bool round_inclusive_ = false;
  bool shutdown_ = false;
  int workers_running_ = 0;
  std::vector<std::thread> workers_;

  std::uint64_t rounds_ = 0;
  bool ran_ = false;
};

}  // namespace rrtcp::pdes
