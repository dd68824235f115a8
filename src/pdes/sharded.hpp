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
//   boundary fires early. A cut link hands each packet to its Channel
//   (net::RemoteSink) when it starts to transmit, stamped with its
//   serialization end t_done and its arrival t_done + prop_delay. The
//   merge after round k passes on exactly the packets with
//   t_done < (k+1)*LA — the ones whose serialization ended inside the
//   windows run so far — and leaves the rest queued for the next merge.
//   A packet passed on after round k has t_done >= k*LA (earlier ones went
//   with an earlier merge), so it arrives at t_done + prop_delay >=
//   k*LA + LA = (k+1)*LA: merging AT the boundary can never deliver into
//   a shard's past. That is the whole causality proof: the propagation
//   pipe of the cut links funds the lookahead.
//
// The merge (between rounds, on the coordinator thread, the caller of
// run()) walks the channels in ascending cut-link index and pushes each
// one's packets, in FIFO order, into that link's receive line on the
// destination shard (a net::DelayLine: one event per busy line, not one
// per packet). Every push reserves one key on the destination engine, so
// a merge reserves one contiguous block of keys at each barrier. Against
// any other key the block's position decides, whatever the order inside
// it; two keys of the block at different instants are decided by time;
// and at one instant, link order then FIFO order is the order a sort by
// (arrival time, cut-link index, per-link sequence) gives. So the merge
// fires arrivals in that canonical order, deterministic for ANY shard
// count and thread timing, without gathering or sorting.
//
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
#include <cstddef>
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

// One cut link's cross-shard mailbox and its receive line. push() runs on
// the source shard's thread during a round, at the instant the link starts
// to transmit; hand_over() runs on the coordinator between rounds (phase
// separation — no lock). Packets leave the buffer in FIFO order, which on
// one link is also t_done order and arrival order.
class Channel final : public net::RemoteSink {
 public:
  // `link` is the cut link; `dst` its head node, run by `dst_engine`.
  Channel(net::Link& link, net::Node& dst, sim::Simulator& dst_engine);

  RRTCP_HOT void push(sim::Time arrival, sim::Time t_done,
                      net::Packet p) override {
    // hand_over() erases what it passes on but keeps the capacity, so
    // growth amortizes away after the first few rounds.
    // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
    buf_.push_back(Msg{arrival.ps(), t_done.ps(), std::move(p)});
  }

  // Passes every packet whose t_done is before `boundary` (at or before
  // it when `inclusive`) to the receive line, in FIFO order, and counts it
  // delivered on the link; later packets wait for the next call. Returns
  // how many of those passed on arrive at or before `boundary`.
  std::size_t hand_over(sim::Time boundary, bool inclusive);

  // Packets passed on so far.
  std::uint64_t handed_over() const { return handed_; }

 private:
  struct Msg {
    std::int64_t arrival_ps;
    std::int64_t t_done_ps;
    net::Packet pkt;
  };

  net::Link& link_;
  net::DelayLine receive_;
  std::vector<Msg> buf_;
  std::uint64_t handed_ = 0;
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
  // Callbacks that did not fit an event inline, summed over the engines.
  std::uint64_t callback_heap_fallbacks();

  // The built world: flows, sources, CBR, instruments and the graph, in
  // the GraphSpec's global numbering whichever shard owns each object.
  harness::Scenario& scenario() { return *scenario_; }
  int n_flows() const { return scenario_->n_flows(); }
  tcp::TcpSenderBase& sender(int i) { return scenario_->sender(i); }
  tcp::TcpReceiver& receiver(int i) { return *scenario_->flow(i).receiver; }
  net::Link& link(int i) { return scenario_->graph().link(i); }
  const harness::ScenarioSpec& spec() const { return scenario_->spec(); }

 private:
  void start_workers();
  void stop_workers();
  void worker_loop(int shard);
  // Dispatch one synchronized window to every shard and wait for the
  // barrier: run_before(deadline) when !inclusive, run_until(deadline)
  // (events at the deadline fire) for the terminal window(s).
  void parallel_window(sim::Time deadline, bool inclusive);
  // Hands over every channel in ascending cut-link index (see
  // Channel::hand_over). Returns how many merged arrivals are at or before
  // `boundary` — the terminal loop repeats inclusive windows until this
  // reaches zero, so deliveries landing exactly on the horizon fire just as
  // they do in a single-engine run_until(horizon).
  std::size_t merge_channels(sim::Time boundary, bool inclusive);

  topo::Partition part_;
  // Declared before the scenario so its links, which point at them, die
  // first. One per cut link, in ascending link index.
  std::vector<std::unique_ptr<Channel>> channels_;
  std::unique_ptr<harness::Scenario> scenario_;
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
