// The environment seam: everything a TCP endpoint needs from the world.
//
// TcpSenderBase/TcpReceiver and every congestion-control variant are written
// against this interface instead of sim::Simulator directly, so the same
// algorithm object runs unchanged inside the discrete-event simulator
// (env::SimEnvironment, src/env/sim_env.hpp) and over real UDP sockets
// (live::LiveEnvironment, src/live/live_env.hpp). The surface is
// deliberately narrow — five capabilities, nothing else:
//
//   clock      now() — monotonic, sim::Time-valued. In the simulator this
//              is virtual time; live it is CLOCK_MONOTONIC rebased to zero
//              at environment construction. Never wall time (the
//              rrtcp-wall-clock tidy check enforces that outside src/live).
//   address    local_id()/peer_id() — the endpoint's own net::NodeId and
//              its peer's. An Environment is PER-ENDPOINT: it knows who it
//              is and who it talks to, so transport code never sees
//              sockets, routes, or topology.
//   packets    attach()/detach() register the endpoint for ingress under a
//              FlowId; send() hands an egress packet to the environment.
//   timers     a small registry of restartable one-shot timers. Callbacks
//              are fixed at timer_create() (cold path, may allocate);
//              arm/cancel are the hot path and must not allocate. Use the
//              env::Timer wrapper below rather than raw TimerIds.
//   trace      a printf-style sink stamped with the environment clock; the
//              default forwards to sim::Log so sim traces are byte-for-byte
//              what they were before this seam existed.
//
// Ordering contract (what makes differential sim-vs-live testing honest):
// timers armed for the same instant fire in arm order; receive callbacks
// and timer callbacks never overlap (single-threaded dispatch in both
// implementations); now() is non-decreasing across all callbacks.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <functional>
#include <utility>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/assert.hpp"
#include "sim/log.hpp"
#include "sim/time.hpp"

namespace rrtcp::env {

class Environment {
 public:
  using TimerId = std::uint32_t;
  static constexpr TimerId kInvalidTimer = ~TimerId{0};

  virtual ~Environment() = default;

  // ---- Clock -----------------------------------------------------------
  virtual sim::Time now() const = 0;

  // ---- Addressing ------------------------------------------------------
  virtual net::NodeId local_id() const = 0;
  virtual net::NodeId peer_id() const = 0;

  // ---- Packet I/O ------------------------------------------------------
  // Register `agent` to receive packets addressed to `flow` at this
  // endpoint. One agent per flow; re-attaching replaces.
  virtual void attach(net::FlowId flow, net::Agent* agent) = 0;
  virtual void detach(net::FlowId flow) = 0;
  // Hand an egress packet to the environment. On return the environment
  // owns it and the caller has nothing more to do; when it reaches the
  // wire, and its delivery latency, are the environment's business. The
  // simulator injects it at once; the live transport queues it and
  // transmits it by the end of the current dispatch, or at the next
  // poll() when sent outside one (LiveEnvironment, src/live/live_env.hpp).
  virtual void send(net::Packet p) = 0;

  // ---- Timers ----------------------------------------------------------
  // Create a restartable one-shot timer with a fixed callback. Cold path.
  virtual TimerId timer_create(std::function<void()> on_fire) = 0;
  virtual void timer_destroy(TimerId id) = 0;
  // Arm — or re-arm, superseding a pending expiry — to fire `delay` from
  // now(). Hot path: must not allocate.
  virtual void timer_arm(TimerId id, sim::Time delay) = 0;
  // Disarm; no-op if not pending.
  virtual void timer_cancel(TimerId id) = 0;
  virtual bool timer_pending(TimerId id) const = 0;

  // ---- Trace sink ------------------------------------------------------
  // Stamped with now(); the default implementation forwards to sim::Log so
  // existing trace output is unchanged. Call through the RRTCP_ENV_* macros
  // (below) so the level check precedes any formatting work.
  virtual void vtrace(sim::LogLevel level, const char* component,
                      const char* fmt, std::va_list args) {
    sim::Log::vwrite(level, now(), component, fmt, args);
  }
  void trace(sim::LogLevel level, const char* component, const char* fmt, ...)
      __attribute__((format(printf, 4, 5))) {
    std::va_list args;
    va_start(args, fmt);
    vtrace(level, component, fmt, args);
    va_end(args);
  }
};

// Value-type handle over the environment's timer registry, mirroring
// sim::Timer's shape (the RTO idiom: fixed callback, schedule()/cancel()
// control firing). Destroying the Timer destroys the underlying slot, so a
// Timer must not outlive its Environment.
class Timer {
 public:
  Timer(Environment& env, std::function<void()> on_fire)
      : env_{env}, id_{env.timer_create(std::move(on_fire))} {
    RRTCP_ASSERT(id_ != Environment::kInvalidTimer);
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { env_.timer_destroy(id_); }

  // Arm (or re-arm) to fire `delay` from now. A pending expiry is
  // superseded.
  void schedule(sim::Time delay) {
    expiry_ = env_.now() + delay;
    env_.timer_arm(id_, delay);
  }

  void cancel() { env_.timer_cancel(id_); }

  bool pending() const { return env_.timer_pending(id_); }

  // Absolute expiry of the last schedule() call; meaningful only while
  // pending().
  sim::Time expiry() const { return expiry_; }

 private:
  Environment& env_;
  Environment::TimerId id_;
  sim::Time expiry_ = sim::Time::zero();
};

}  // namespace rrtcp::env

// Environment-clocked trace macros: same shape as RRTCP_TRACE/DEBUG/INFO
// but routed through the environment's sink, which stamps now() itself.
#define RRTCP_ENV_LOG(level, env, component, ...)               \
  do {                                                          \
    if (::rrtcp::sim::Log::enabled(level))                      \
      (env).trace(level, component, __VA_ARGS__);               \
  } while (0)

#define RRTCP_ENV_INFO(env, component, ...) \
  RRTCP_ENV_LOG(::rrtcp::sim::LogLevel::kInfo, env, component, __VA_ARGS__)
#define RRTCP_ENV_DEBUG(env, component, ...) \
  RRTCP_ENV_LOG(::rrtcp::sim::LogLevel::kDebug, env, component, __VA_ARGS__)
#define RRTCP_ENV_TRACE(env, component, ...) \
  RRTCP_ENV_LOG(::rrtcp::sim::LogLevel::kTrace, env, component, __VA_ARGS__)
