#include "pdes/sharded.hpp"

#include <algorithm>
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
    channels_.push_back(std::make_unique<Channel>(li));
    g.link(li).set_remote_sink(channels_.back().get());
    net::Node* dst = &g.node(head);
    const int dst_shard = part_.node_shard[static_cast<std::size_t>(head)];
    channel_dst_shard_.push_back(dst_shard);
    receive_.push_back(std::make_unique<net::DelayLine>(
        scenario_->engine(dst_shard),
        [dst](sim::Time, net::Packet& p) { dst->receive(std::move(p)); }));
  }
  merge_scratch_.resize(static_cast<std::size_t>(n));
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

std::size_t ShardedScenario::merge_channels(sim::Time count_upto) {
  for (auto& scratch : merge_scratch_) scratch.clear();
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    Channel& ch = *channels_[c];
    std::vector<Channel::Msg>& inbox = ch.inbox();
    if (inbox.empty()) continue;
    auto& scratch =
        merge_scratch_[static_cast<std::size_t>(channel_dst_shard_[c])];
    for (Channel::Msg& m : inbox)
      scratch.push_back(Pending{m.arrival_ps, ch.link_index(), m.seq,
                                static_cast<std::uint32_t>(c),
                                std::move(m.pkt)});
    inbox.clear();
  }

  std::size_t due = 0;
  for (std::size_t s = 0; s < merge_scratch_.size(); ++s) {
    auto& scratch = merge_scratch_[s];
    if (scratch.empty()) continue;
    // Canonical cross-shard delivery order: arrival instant, then cut-link
    // index, then each link's FIFO sequence. Identical for every shard
    // count and thread schedule — this sort is the determinism contract.
    std::sort(scratch.begin(), scratch.end(),
              [](const Pending& a, const Pending& b) {
                if (a.arrival_ps != b.arrival_ps)
                  return a.arrival_ps < b.arrival_ps;
                if (a.link != b.link) return a.link < b.link;
                return a.seq < b.seq;
              });
    // Each push reserves the arrival's key on the destination engine, so
    // keys follow the canonical order too.
    for (Pending& p : scratch) {
      const sim::Time at = sim::Time::picoseconds(p.arrival_ps);
      if (at <= count_upto) ++due;
      receive_[p.channel]->push(at, std::move(p.pkt));
    }
    scratch.clear();
  }
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
  // execute the boundary instant until the inboxes feeding it have merged.
  sim::Time t = sim::Time::zero();
  while (t + la < horizon) {
    t = t + la;
    parallel_window(t, /*inclusive=*/false);
    merge_channels(horizon);
  }
  // Terminal windows, deadline-inclusive like Scenario::run ==
  // run_until(horizon). A delivery can land exactly ON the horizon (send
  // at t, arrival t+LA == horizon), and executing it can emit nothing
  // earlier than horizon + serialization time — so the loop drains after
  // at most two passes; the count guards the general case.
  for (;;) {
    parallel_window(horizon, /*inclusive=*/true);
    if (merge_channels(horizon) == 0) break;
  }
  return events_executed();
}

std::uint64_t ShardedScenario::cross_shard_packets() const {
  std::uint64_t n = 0;
  for (const auto& ch : channels_) n += ch->total_pushed();
  return n;
}

std::uint64_t ShardedScenario::events_executed() const {
  std::uint64_t n = 0;
  for (const std::uint64_t e : executed_) n += e;
  return n;
}

}  // namespace rrtcp::pdes
