#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "app/flow_factory.hpp"
#include "env/sim_env.hpp"
#include "net/drop_tail.hpp"

namespace perfbench {

using namespace rrtcp;

namespace {

constexpr int kMaxDepth = 16;

// Tables outlive their threads (the sweep pool is rebuilt per sweep), so
// the registry owns them and a thread keeps only a pointer.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanTotals>> tables;
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ThreadState {
  SpanTotals* totals = nullptr;
  Layer stack[kMaxDepth] = {};
  int depth = 0;
};
thread_local ThreadState t_state;

SpanTotals& local_totals() {
  if (t_state.totals == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock{r.mu};
    r.tables.push_back(std::make_unique<SpanTotals>());
    t_state.totals = r.tables.back().get();
  }
  return *t_state.totals;
}

std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kNone: return "-";
    case Layer::kSimRun: return "sim.run";
    case Layer::kBuild: return "harness.build";
    case Layer::kEnvSend: return "env.send";
    case Layer::kTcpRx: return "tcp.rx";
    case Layer::kCoreRx: return "core.rx";
    case Layer::kTcpTimer: return "tcp.timer";
    case Layer::kNetQueue: return "net.queue";
    case Layer::kLivePoll: return "live.poll";
    case Layer::kLiveWait: return "live.wait";
    case Layer::kLiveLoop: return "live.loop";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanTotals::add(const SpanTotals& o) {
  for (std::size_t l = 0; l < kLayers; ++l) {
    for (std::size_t p = 0; p < kLayers; ++p) {
      ns[l][p] += o.ns[l][p];
      calls[l][p] += o.calls[l][p];
    }
  }
  timer_arms += o.timer_arms;
}

std::uint64_t SpanTotals::incl_ns(Layer l) const {
  std::uint64_t s = 0;
  for (const std::uint64_t v : ns[idx(l)]) s += v;
  return s;
}

std::uint64_t SpanTotals::n_calls(Layer l) const {
  std::uint64_t s = 0;
  for (const std::uint64_t v : calls[idx(l)]) s += v;
  return s;
}

std::uint64_t SpanTotals::self_ns(Layer l) const {
  std::uint64_t children = 0;
  for (std::size_t c = 0; c < kLayers; ++c) children += ns[c][idx(l)];
  const std::uint64_t incl = incl_ns(l);
  return incl > children ? incl - children : 0;
}

std::uint64_t SpanTotals::root_ns() const {
  std::uint64_t s = 0;
  for (std::size_t l = 0; l < kLayers; ++l) s += ns[l][idx(Layer::kNone)];
  return s;
}

SpanTotals collect_spans() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock{r.mu};
  SpanTotals sum;
  for (const auto& t : r.tables) {
    sum.add(*t);
    *t = SpanTotals{};
  }
  return sum;
}

Span::Span(Layer l) : layer_{l} {
  ThreadState& s = t_state;
  if (s.depth == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span nesting deeper than %d\n", kMaxDepth);
    std::abort();
  }
  parent_ = s.depth > 0 ? s.stack[s.depth - 1] : Layer::kNone;
  s.stack[s.depth++] = l;
  t0_ = now_ns();
}

Span::~Span() {
  const auto dt = static_cast<std::uint64_t>(now_ns() - t0_);
  --t_state.depth;
  SpanTotals& t = local_totals();
  t.ns[idx(layer_)][idx(parent_)] += dt;
  ++t.calls[idx(layer_)][idx(parent_)];
}

class TimingEnv::TimedAgent final : public net::Agent {
 public:
  TimedAgent(net::Agent* inner, Layer layer) : inner_{inner}, layer_{layer} {}
  void receive(net::Packet p) override {
    const Span span{layer_};
    inner_->receive(std::move(p));
  }

 private:
  net::Agent* inner_;
  Layer layer_;
};

TimingEnv::TimingEnv(std::unique_ptr<env::Environment> inner, Layer rx_layer)
    : inner_{std::move(inner)}, rx_layer_{rx_layer} {}

TimingEnv::~TimingEnv() = default;

void TimingEnv::attach(net::FlowId flow, net::Agent* agent) {
  agents_.push_back(std::make_unique<TimedAgent>(agent, rx_layer_));
  inner_->attach(flow, agents_.back().get());
}

void TimingEnv::send(net::Packet p) {
  const Span span{Layer::kEnvSend};
  inner_->send(std::move(p));
}

env::Environment::TimerId TimingEnv::timer_create(
    std::function<void()> on_fire) {
  return inner_->timer_create([fn = std::move(on_fire)] {
    const Span span{Layer::kTcpTimer};
    fn();
  });
}

void TimingEnv::timer_arm(TimerId id, sim::Time delay) {
  ++local_totals().timer_arms;
  inner_->timer_arm(id, delay);
}

bool TimingQueue::enqueue(net::Packet p) {
  const Span span{Layer::kNetQueue};
  const bool ok = inner_->enqueue(std::move(p));
  stats_ = inner_->stats();
  return ok;
}

std::optional<net::Packet> TimingQueue::dequeue() {
  const Span span{Layer::kNetQueue};
  std::optional<net::Packet> p = inner_->dequeue();
  stats_ = inner_->stats();
  return p;
}

app::Flow make_timed_flow(sim::Simulator& sim, net::Node& snd, net::Node& rcv,
                          net::FlowId id, const harness::FlowSpec& fs) {
  const Layer snd_layer =
      fs.variant == app::Variant::kRr ? Layer::kCoreRx : Layer::kTcpRx;
  auto snd_env = std::make_unique<TimingEnv>(
      std::make_unique<env::SimEnvironment>(sim, snd, rcv.id()), snd_layer);
  auto rcv_env = std::make_unique<TimingEnv>(
      std::make_unique<env::SimEnvironment>(sim, rcv, snd.id()),
      Layer::kTcpRx);
  app::Flow f = app::make_flow(fs.variant, *snd_env, *rcv_env, id, fs.tcp);
  f.snd_env = std::move(snd_env);
  f.rcv_env = std::move(rcv_env);
  return f;
}

void time_queues(topo::GraphSpec& g) {
  for (topo::LinkSpec& l : g.links) {
    l.make_queue = [inner = std::move(l.make_queue), cap = l.queue_packets](
                       sim::Simulator& s) -> std::unique_ptr<net::QueueDisc> {
      std::unique_ptr<net::QueueDisc> q =
          inner ? inner(s) : std::make_unique<net::DropTailQueue>(cap);
      return std::make_unique<TimingQueue>(std::move(q));
    };
  }
}

}  // namespace perfbench
