// Tracing for the benchmark's traced run, recorded entirely from outside
// the program: decorators over the library's public seams time each call
// into a layer.
//
//   TimingEnv    wraps an env::Environment (SimEnvironment or
//                LiveEnvironment). Times send() and every timer callback,
//                counts timer arms, and wraps each attached net::Agent so
//                Agent::receive is timed too.
//   TimingQueue  wraps a net::QueueDisc; installed through
//                topo::LinkSpec::make_queue (graph-mode specs only).
//   Span         the scoped timer the decorators and the workload code
//                use around Scenario construction, run() and
//                LiveEnvironment::poll.
//
// Spans are aggregated in memory per (layer, parent layer) in per-thread
// tables, and summed when the caller collects them between rounds, so a
// span costs two steady_clock reads and no allocation. A layer's self time
// is its inclusive time minus the inclusive time of spans opened directly
// inside it; the root layer's self time is the remainder nobody else
// claimed (scheduler, links and node forwarding for a simulator run; the
// transfer loop for live transfers).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "env/environment.hpp"
#include "harness/scenario.hpp"
#include "net/queue_disc.hpp"
#include "topo/graph.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kNone,      // parent of a root span
  kSimRun,    // Scenario / ShardedScenario::run
  kBuild,     // Scenario construction, live endpoint set-up
  kEnvSend,   // Environment::send
  kTcpRx,     // Agent::receive on receivers and non-RR senders
  kCoreRx,    // Agent::receive on RR senders
  kTcpTimer,  // timer callbacks (RTO, delayed ACK, ...)
  kNetQueue,  // QueueDisc::enqueue / dequeue
  kLivePoll,  // LiveEnvironment::poll, non-blocking
  kLiveWait,  // LiveEnvironment::poll blocking while both endpoints idle
  kLiveLoop,  // the live transfer loop
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer l);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanTotals {
  // [layer][parent]
  std::array<std::array<std::uint64_t, kLayers>, kLayers> ns{};
  std::array<std::array<std::uint64_t, kLayers>, kLayers> calls{};
  std::uint64_t timer_arms = 0;

  void add(const SpanTotals& o);
  std::uint64_t incl_ns(Layer l) const;
  std::uint64_t n_calls(Layer l) const;
  // Inclusive time minus the inclusive time of direct children.
  std::uint64_t self_ns(Layer l) const;
  // Inclusive time of spans opened with no span open on their thread.
  std::uint64_t root_ns() const;
};

// Sums every thread's table and zeroes them. Call only while no traced
// work is running (between rounds, after worker threads have joined).
SpanTotals collect_spans();

class Span {
 public:
  explicit Span(Layer l);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  Layer parent_;
  std::int64_t t0_;
};

// Forwards every call to the wrapped environment, timing as described in
// the file comment. Owns the wrapped environment.
class TimingEnv final : public rrtcp::env::Environment {
 public:
  // `rx_layer` is the layer Agent::receive is charged to on this endpoint.
  TimingEnv(std::unique_ptr<rrtcp::env::Environment> inner, Layer rx_layer);
  ~TimingEnv() override;
  TimingEnv(const TimingEnv&) = delete;
  TimingEnv& operator=(const TimingEnv&) = delete;

  rrtcp::sim::Time now() const override { return inner_->now(); }
  rrtcp::net::NodeId local_id() const override { return inner_->local_id(); }
  rrtcp::net::NodeId peer_id() const override { return inner_->peer_id(); }
  void attach(rrtcp::net::FlowId flow, rrtcp::net::Agent* agent) override;
  void detach(rrtcp::net::FlowId flow) override { inner_->detach(flow); }
  void send(rrtcp::net::Packet p) override;
  TimerId timer_create(std::function<void()> on_fire) override;
  void timer_destroy(TimerId id) override { inner_->timer_destroy(id); }
  void timer_arm(TimerId id, rrtcp::sim::Time delay) override;
  void timer_cancel(TimerId id) override { inner_->timer_cancel(id); }
  bool timer_pending(TimerId id) const override {
    return inner_->timer_pending(id);
  }
  void vtrace(rrtcp::sim::LogLevel level, const char* component,
              const char* fmt, std::va_list args) override {
    inner_->vtrace(level, component, fmt, args);
  }

 private:
  class TimedAgent;
  std::unique_ptr<rrtcp::env::Environment> inner_;
  Layer rx_layer_;
  std::vector<std::unique_ptr<TimedAgent>> agents_;
};

class TimingQueue final : public rrtcp::net::QueueDisc {
 public:
  explicit TimingQueue(std::unique_ptr<rrtcp::net::QueueDisc> inner)
      : inner_{std::move(inner)} {}

  bool enqueue(rrtcp::net::Packet p) override;
  std::optional<rrtcp::net::Packet> dequeue() override;
  std::size_t len_packets() const override { return inner_->len_packets(); }
  std::uint64_t len_bytes() const override { return inner_->len_bytes(); }

 private:
  std::unique_ptr<rrtcp::net::QueueDisc> inner_;
};

// ScenarioSpec::flow_maker that builds flow `id` exactly as app::make_flow
// does, but against TimingEnvs (the caller-owned-environment overload).
rrtcp::app::Flow make_timed_flow(rrtcp::sim::Simulator& sim,
                                 rrtcp::net::Node& snd, rrtcp::net::Node& rcv,
                                 rrtcp::net::FlowId id,
                                 const rrtcp::harness::FlowSpec& fs);

// Wraps every link queue of `g` in a TimingQueue, keeping the queue each
// link would have had.
void time_queues(rrtcp::topo::GraphSpec& g);

}  // namespace perfbench
