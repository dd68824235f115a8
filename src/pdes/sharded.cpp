#include "pdes/sharded.hpp"

#include <cstddef>
#include <string>
#include <utility>

#include "sim/assert.hpp"

namespace rrtcp::pdes {

namespace {

// The partition a spec runs on: the trivial one-shard partition unless it
// asks for shards in graph mode.
topo::Partition partition_for(const harness::ScenarioSpec& spec) {
  if (spec.shard_count <= 1 || spec.graph.empty()) return {};
  return topo::partition_graph(spec.graph, spec.shard_count);
}

// What a partitioned spec asks for that needs one engine, or nullptr.
const char* single_engine_need(const harness::ScenarioSpec& spec) {
  if (spec.flow_maker) return "flow_maker";
  if (spec.instruments.audit == harness::AuditMode::kRecord)
    return "record-mode audit";
  if (spec.instruments.watchdog) return "watchdog";
  return nullptr;
}

}  // namespace

Channel::Channel(net::Link& link, net::Node& dst, sim::Simulator& dst_engine)
    : link_{link},
      receive_{dst_engine,
               [node = &dst](sim::Time, net::Packet& p) {
                 node->receive(std::move(p));
               }} {}

std::size_t Channel::hand_over(sim::Time boundary, bool inclusive) {
  const std::int64_t b = boundary.ps();
  std::size_t n = 0;
  std::size_t due = 0;
  for (; n < buf_.size(); ++n) {
    const Msg& m = buf_[n];
    if (inclusive ? m.t_done_ps > b : m.t_done_ps >= b) break;
    if (m.arrival_ps <= b) ++due;
    link_.count_handed_off(m.pkt);
    receive_.push(sim::Time::picoseconds(m.arrival_ps), m.pkt);
  }
  // At most the packet still serializing at the boundary stays behind.
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n));
  handed_ += n;
  return due;
}

ShardedScenario::ShardedScenario(harness::ScenarioSpec spec)
    : part_{partition_for(spec)} {
  const int n = part_.n_shards;
  executed_.resize(static_cast<std::size_t>(n));
  if (n <= 1) {
    // Dumbbell mode, an explicit single shard, or a graph the partitioner
    // cannot split (all nodes joined by zero-delay links): one engine.
    scenario_ = std::make_unique<harness::Scenario>(std::move(spec));
    return;
  }

  // Backstop for specs that skipped validate().
  RRTCP_ASSERT_MSG(single_engine_need(spec) == nullptr,
                   "flow_maker, record-mode audit and watchdog are not "
                   "supported in sharded mode");
  spec.instruments.audit = harness::AuditMode::kNone;  // build-gated: off
  scenario_ =
      std::make_unique<harness::Scenario>(std::move(spec), part_.node_shard);

  // A cut link (head on another shard) delivers into its Channel instead
  // of its head node.
  topo::TopologyGraph& g = scenario_->graph();
  for (const int li : part_.cut_links) {
    const int head = g.spec().links[static_cast<std::size_t>(li)].to;
    const int dst_shard = part_.node_shard[static_cast<std::size_t>(head)];
    channels_.push_back(std::make_unique<Channel>(
        g.link(li), g.node(head), scenario_->engine(dst_shard)));
    g.link(li).set_remote_sink(channels_.back().get());
  }
  start_workers();
}

ShardedScenario::~ShardedScenario() { stop_workers(); }

std::optional<harness::SpecError> ShardedScenario::validate(
    const harness::ScenarioSpec& spec) {
  if (std::optional<harness::SpecError> e = harness::Scenario::validate(spec))
    return e;
  const int shards = partition_for(spec).n_shards;
  const char* need = shards > 1 ? single_engine_need(spec) : nullptr;
  if (need == nullptr) return std::nullopt;
  return harness::SpecError{
      harness::SpecError::Code::kShardUnsupported,
      std::string{need} + " needs a single engine; this spec partitions into " +
          std::to_string(shards) + " shards"};
}

std::unique_ptr<ShardedScenario> ShardedScenario::try_build(
    harness::ScenarioSpec spec, harness::SpecError* err) {
  if (std::optional<harness::SpecError> e = validate(spec)) {
    if (err != nullptr) *err = std::move(*e);
    return nullptr;
  }
  return std::make_unique<ShardedScenario>(std::move(spec));
}

void ShardedScenario::start_workers() {
  workers_.reserve(static_cast<std::size_t>(n_shards()));
  for (int s = 0; s < n_shards(); ++s)
    workers_.emplace_back([this, s] { worker_loop(s); });
}

void ShardedScenario::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void ShardedScenario::worker_loop(int shard) {
  sim::Simulator& sim = scenario_->engine(shard);
  std::uint64_t seen = 0;
  for (;;) {
    sim::Time deadline;
    bool inclusive;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return shutdown_ || round_gen_ > seen; });
      if (shutdown_) return;
      seen = round_gen_;
      deadline = round_deadline_;
      inclusive = round_inclusive_;
    }
    // The shard event loop proper — runs outside the lock; all
    // cross-shard effects land in Channel buffers read only after the
    // barrier below.
    const std::uint64_t n = inclusive ? sim.run_until(deadline)
                                      : sim.run_before(deadline);
    {
      std::lock_guard<std::mutex> lk(mu_);
      executed_[static_cast<std::size_t>(shard)] += n;
      if (--workers_running_ == 0) cv_done_.notify_all();
    }
  }
}

void ShardedScenario::parallel_window(sim::Time deadline, bool inclusive) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    workers_running_ = static_cast<int>(workers_.size());
    round_deadline_ = deadline;
    round_inclusive_ = inclusive;
    ++round_gen_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return workers_running_ == 0; });
  ++rounds_;
}

std::size_t ShardedScenario::merge_channels(sim::Time boundary,
                                            bool inclusive) {
  std::size_t due = 0;
  for (const auto& ch : channels_) due += ch->hand_over(boundary, inclusive);
  return due;
}

std::uint64_t ShardedScenario::run() {
  if (n_shards() == 1) return executed_[0] += scenario_->run();
  RRTCP_ASSERT_MSG(!ran_, "ShardedScenario::run is single-shot");
  ran_ = true;

  const sim::Time horizon = spec().horizon;
  const sim::Time la = part_.lookahead;
  RRTCP_ASSERT(la > sim::Time::zero());

  // Conservative rounds over half-open windows [t, t+LA): no shard may
  // execute the boundary instant until the channels feeding it have merged.
  sim::Time t = sim::Time::zero();
  while (t + la < horizon) {
    t = t + la;
    parallel_window(t, /*inclusive=*/false);
    merge_channels(t, /*inclusive=*/false);
  }
  // Terminal windows, deadline-inclusive like Scenario::run ==
  // run_until(horizon). A delivery can land exactly ON the horizon (send
  // at t, arrival t+LA == horizon), and executing it can emit nothing
  // earlier than horizon + serialization time — so the loop drains after
  // at most two passes; the count guards the general case.
  for (;;) {
    parallel_window(horizon, /*inclusive=*/true);
    if (merge_channels(horizon, /*inclusive=*/true) == 0) break;
  }
  return events_executed();
}

std::uint64_t ShardedScenario::cross_shard_packets() const {
  std::uint64_t n = 0;
  for (const auto& ch : channels_) n += ch->handed_over();
  return n;
}

std::uint64_t ShardedScenario::callback_heap_fallbacks() {
  std::uint64_t n = 0;
  for (int e = 0; e < scenario_->n_engines(); ++e)
    n += scenario_->engine(e).callback_heap_fallbacks();
  return n;
}

std::uint64_t ShardedScenario::events_executed() const {
  std::uint64_t n = 0;
  for (const std::uint64_t e : executed_) n += e;
  return n;
}

}  // namespace rrtcp::pdes
