// The real-network embodiment of env::Environment.
//
// One LiveEnvironment is one endpoint of a UDP "connection": a nonblocking
// UDP socket, an epoll instance, and one CLOCK_MONOTONIC timerfd armed no
// later than the earliest pending deadline of the environment's timer
// registry (see timer_arm below). The clock is CLOCK_MONOTONIC rebased to
// zero at construction, so transport code sees the same near-zero
// sim::Time values it sees in the simulator — and never wall time
// (src/live is the only place the rrtcp-wall-clock tidy check permits a
// real clock, and even here it is the monotonic one).
//
// Threading model: single-threaded, pull-based. Nothing happens between
// poll() calls — arriving datagrams queue in the kernel socket buffer and
// expired timers latch in the timerfd until the owner polls. poll()
// dispatches, in epoll order, every due timer (deadline-then-arm order,
// matching the simulator's (time, insertion-seq) determinism) and every
// readable datagram. This is what lets a differential test drive two
// LiveEnvironments (client + server) from one thread, and what guarantees
// the interface contract that receive and timer callbacks never overlap.
//
// Peer addressing follows the classic UDP server idiom: a client is given
// the server's address at construction; a server binds and learns its
// peer from the first datagram that decodes. Until the peer is known,
// send() counts the packet as unroutable and drops it (TCP's RTO makes
// the loss recoverable, exactly as in the simulator).
//
// An optional ingress drop filter reuses chaos::FaultSpec windows against
// the environment clock: outage/blackhole windows drop every arrival,
// ack-loss and burst-loss apply their probabilistic kinds through the same
// seeded RNG streams the simulator's FaultInjector uses. Duplicate and
// delay-spike kinds need egress scheduling and are not applied live.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/fault.hpp"
#include "env/environment.hpp"
#include "net/flat_table.hpp"
#include "sim/rng.hpp"

namespace rrtcp::live {

struct LiveConfig {
  // Local UDP endpoint. Port 0 lets the kernel pick (clients).
  std::string bind_addr = "127.0.0.1";
  std::uint16_t bind_port = 0;
  // Peer endpoint. Empty addr = learn from the first arriving datagram
  // (server role).
  std::string peer_addr;
  std::uint16_t peer_port = 0;
  // NodeIds stamped onto decoded packets (the wire does not carry them).
  net::NodeId local_id = 0;
  net::NodeId peer_id = 1;
  // Ingress drop filter (see file comment). Empty = pass everything.
  chaos::FaultPlan faults;
  std::uint64_t fault_seed = 1;
};

class LiveEnvironment final : public env::Environment {
 public:
  // Binds the socket and sets up epoll + timerfd. Throws std::runtime_error
  // on any syscall failure (construction is cold; transport code never
  // sees exceptions after it).
  explicit LiveEnvironment(LiveConfig cfg);
  ~LiveEnvironment() override;

  LiveEnvironment(const LiveEnvironment&) = delete;
  LiveEnvironment& operator=(const LiveEnvironment&) = delete;

  // ---- env::Environment ------------------------------------------------
  sim::Time now() const override;
  net::NodeId local_id() const override { return cfg_.local_id; }
  net::NodeId peer_id() const override { return cfg_.peer_id; }
  void attach(net::FlowId flow, net::Agent* agent) override {
    agents_.insert_or_assign(flow, agent);
  }
  void detach(net::FlowId flow) override { agents_.erase(flow); }
  void send(net::Packet p) override;
  // Arming reprograms the timerfd only when the new deadline is earlier
  // than the one it holds; cancel and destroy never touch it. A wake-up
  // for a deadline that was cancelled or pushed back fires nothing and
  // reprograms the timerfd to the true earliest deadline, so an RTO
  // restart per ACK costs no syscall.
  TimerId timer_create(std::function<void()> on_fire) override;
  void timer_destroy(TimerId id) override;
  void timer_arm(TimerId id, sim::Time delay) override;
  void timer_cancel(TimerId id) override;
  bool timer_pending(TimerId id) const override;

  // ---- Event loop ------------------------------------------------------
  // Wait up to `timeout_ms` (-1 = forever, 0 = nonblocking) for anything
  // to do, then dispatch every due timer and every readable datagram.
  // Returns the number of callbacks dispatched (0 = timed out idle).
  int poll(int timeout_ms);

  // poll() in a loop until `done` returns true or `deadline` (environment
  // clock) passes. Returns true if `done` turned true.
  bool run_until(const std::function<bool()>& done, sim::Time deadline);

  // The port the socket actually bound (useful with bind_port = 0).
  std::uint16_t local_port() const { return local_port_; }
  bool peer_known() const { return peer_known_; }

  // ---- Statistics ------------------------------------------------------
  std::uint64_t datagrams_sent() const { return sent_; }
  std::uint64_t datagrams_received() const { return received_; }
  std::uint64_t decode_failures() const { return decode_failures_; }
  std::uint64_t filtered_drops() const { return filtered_; }
  std::uint64_t unroutable() const { return unroutable_; }

 private:
  struct TimerSlot {
    std::function<void()> on_fire;
    bool live = false;     // slot allocated (vs on the free list)
    bool armed = false;
    sim::Time deadline = sim::Time::zero();
    std::uint64_t arm_seq = 0;  // FIFO tiebreak among equal deadlines
  };

  std::int64_t monotonic_ns() const;
  void program_timerfd(sim::Time deadline);
  int fire_due_timers();
  int drain_socket();
  bool ingress_filtered(const net::Packet& p);

  LiveConfig cfg_;
  int sock_fd_ = -1;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::int64_t epoch_ns_ = 0;  // CLOCK_MONOTONIC at construction
  std::uint16_t local_port_ = 0;

  bool peer_known_ = false;
  // struct sockaddr_in, kept opaque here so the header stays free of
  // <netinet/in.h> for non-Linux includers of the repo's headers.
  alignas(8) unsigned char peer_addr_[16] = {};
  std::uint32_t peer_addr_len_ = 0;

  net::FlatTable32<net::Agent*> agents_;
  std::vector<TimerSlot> timers_;
  std::vector<TimerId> free_;
  std::uint64_t next_arm_seq_ = 0;
  // The deadline the timerfd is programmed to; infinity when disarmed.
  sim::Time programmed_ = sim::Time::infinity();

  // Armed ingress filter state, one RNG stream per spec (same naming
  // convention as chaos::FaultInjector).
  struct ArmedFilter {
    chaos::FaultSpec spec;
    sim::Rng rng;
    bool bad = false;  // Gilbert-Elliott chain state
  };
  std::vector<ArmedFilter> filters_;

  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t filtered_ = 0;
  std::uint64_t unroutable_ = 0;
};

}  // namespace rrtcp::live
