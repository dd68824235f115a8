// The real-network embodiment of env::Environment.
//
// One LiveEnvironment is one endpoint of a UDP "connection": one
// nonblocking UDP socket and nothing else — no epoll instance, no timerfd.
// Construction makes three syscalls (socket, bind, getsockname) and
// destruction one (close). The clock is CLOCK_MONOTONIC rebased to zero at
// construction, so transport code sees the same near-zero sim::Time values
// it sees in the simulator — and never wall time (src/live is the only
// place the rrtcp-wall-clock tidy check permits a real clock, and even here
// it is the monotonic one).
//
// Threading model: single-threaded, pull-based. Nothing happens between
// poll() calls — arriving datagrams queue in the kernel socket buffer and
// timers simply come due. poll() fires every due timer (deadline-then-arm
// order, matching the simulator's (time, insertion-seq) determinism), then
// drains every readable datagram. Only when that dispatched nothing and the
// timeout is not zero does it wait, in ppoll(2) on the one socket fd, for
// at most min(timeout, earliest armed deadline - now) at nanosecond
// precision; timers need no fd of their own because the wait itself is
// bounded by the next deadline. This is what lets a differential test
// drive two LiveEnvironments (client + server) from one thread, and what
// guarantees the interface contract that receive and timer callbacks never
// overlap.
//
// Egress is batched. send() makes no syscall: it encodes the packet onto a
// per-environment outbox (datagrams back to back, plus each one's length).
// poll() flushes the outbox at two points: on entry, for sends made
// outside a dispatch (sender->start(), a test's direct send()), and after
// dispatching, for everything the callbacks sent. A flush sends each run of
// consecutive equal-size datagrams as ONE sendmsg carrying a UDP_SEGMENT
// (UDP GSO, Linux >= 4.18) control message; the kernel cuts it back into
// the original datagrams. A run holds at most 64 segments and 65,507 B (the
// IPv4 UDP payload limit), only datagrams of <= 1,472 B (so a segment fits
// a 1,500-byte Ethernet MTU), and may be closed by one shorter datagram; a
// run of one is the same sendmsg without the control message. Datagrams
// leave in send order, so the peer receives them in send order, one
// datagram per packet: the receiver does not enable UDP_GRO, which would
// coalesce them. (Measured on loopback, GRO raised throughput further but
// its setsockopt cost about 22 us of set-up and 22 us of teardown per
// endpoint pair, roughly four times the whole set-up without it.) The
// outbox grows to its high-water mark and keeps its capacity, so a
// steady-state send() does not allocate.
//
// Errors. Construction failures throw std::runtime_error. After that, a
// full socket buffer on send (EAGAIN/ENOBUFS) drops the run — the kernel
// queue is this transport's bottleneck queue, and TCP recovers — and
// ECONNREFUSED on receive (an ICMP error from an earlier send) is skipped;
// any other send, receive or wait error throws std::runtime_error from
// poll() with the errno text rather than dropping or spinning silently.
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

#include <cstddef>
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
  // Creates and binds the socket. Throws std::runtime_error on any syscall
  // failure (construction is cold).
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
  // Encodes onto the outbox; the datagram leaves at the end of the current
  // dispatch, or at the next poll() when sent outside one.
  void send(net::Packet p) override;
  // Timers are deadlines in a slot table and cost no syscall: poll() fires
  // the due ones and bounds its wait by the earliest.
  TimerId timer_create(std::function<void()> on_fire) override;
  void timer_destroy(TimerId id) override;
  void timer_arm(TimerId id, sim::Time delay) override;
  void timer_cancel(TimerId id) override;
  bool timer_pending(TimerId id) const override;

  // ---- Event loop ------------------------------------------------------
  // Flush the outbox; dispatch every due timer and every readable datagram,
  // first waiting up to `timeout_ms` (-1 = forever, 0 = not at all) for
  // one when there is none; then flush again.
  // Returns the number of callbacks dispatched (0 = timed out idle).
  int poll(int timeout_ms);

  // poll() in a loop until `done` returns true or `deadline` (environment
  // clock) passes. Returns true if `done` turned true.
  bool run_until(const std::function<bool()>& done, sim::Time deadline);

  // The port the socket actually bound (useful with bind_port = 0).
  std::uint16_t local_port() const { return local_port_; }
  bool peer_known() const { return peer_known_; }

  // ---- Statistics ------------------------------------------------------
  // Datagrams the kernel accepted (a GSO run counts each of its segments).
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
  int fire_due_timers();
  sim::Time earliest_deadline() const;
  void wait_readable(sim::Time until);
  int drain_socket();
  void flush();
  void send_run(std::size_t offset, std::size_t bytes, std::size_t count,
                std::size_t segment);
  bool ingress_filtered(const net::Packet& p);

  LiveConfig cfg_;
  int sock_fd_ = -1;
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

  // Egress outbox: encoded datagrams back to back, and each one's length.
  std::vector<std::uint8_t> outbox_;
  std::vector<std::uint16_t> outbox_len_;

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
