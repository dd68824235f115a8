// TCP receiver (data sink).
//
// Implements the receiver behavior the paper assumes: an ACK for every
// received data packet (delayed ACKs are available but off by default, and
// are always disabled for out-of-order arrivals, per Section 2.2), duplicate
// ACKs for out-of-order segments, out-of-order reassembly, and — for the
// SACK baseline — RFC 2018 SACK block generation with the most recently
// received block listed first.
//
// Like TcpSenderBase, the receiver sees the world only through
// env::Environment; the (Simulator&, Node&) constructor is a convenience
// that owns a SimEnvironment internally.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "env/environment.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "tcp/types.hpp"

namespace rrtcp::sim {
class Simulator;
}

namespace rrtcp::tcp {

struct ReceiverConfig {
  std::uint32_t ack_bytes = 40;
  bool sack_enabled = false;
  // Delayed ACKs (RFC 1122): ACK every second in-order segment or after the
  // timeout. Off by default — the paper's receivers ACK every packet.
  bool delayed_ack = false;
  sim::Time delack_timeout = sim::Time::milliseconds(200);
  // ECN (RFC 3168): echo a received CE mark on every ACK until the sender
  // signals CWR. Needs no receiver buffering changes — this is the one
  // receiver-side feature RR-era deployments would add.
  bool ecn_enabled = false;
};

struct ReceiverStats {
  std::uint64_t data_packets = 0;       // all data arrivals
  std::uint64_t out_of_order = 0;       // arrivals above rcv_nxt
  std::uint64_t duplicates = 0;         // arrivals entirely below rcv_nxt
  std::uint64_t acks_sent = 0;
  std::uint64_t dupacks_sent = 0;
};

class TcpReceiver final : public net::Agent {
 public:
  // Primary: environment-agnostic. `env` must outlive the receiver.
  TcpReceiver(env::Environment& env, net::FlowId flow,
              ReceiverConfig cfg = {});
  // Simulator convenience: owns an env::SimEnvironment over (sim, node)
  // peered with `peer`.
  TcpReceiver(sim::Simulator& sim, net::Node& node, net::FlowId flow,
              net::NodeId peer, ReceiverConfig cfg = {});
  ~TcpReceiver() override;

  RRTCP_HOT void receive(net::Packet p) override;

  // Next byte expected in order (the cumulative ACK value).
  std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  // Bytes delivered to the "application" in order.
  std::uint64_t bytes_in_order() const { return rcv_nxt_; }

  const ReceiverStats& stats() const { return stats_; }

  // Invoke `fn` the first time rcv_nxt reaches `bytes`. One callback max.
  void notify_at(std::uint64_t bytes, std::function<void(sim::Time)> fn);

  // Unique payload bytes that have reached this receiver (in-order plus
  // buffered out-of-order) — the receiver-side goodput numerator.
  std::uint64_t unique_bytes() const {
    return rcv_nxt_ + buffered_out_of_order();
  }

  // Invoked whenever unique_bytes() grows (i.e. on every arrival carrying
  // new data). Used by the experiment harnesses to measure effective
  // throughput over sub-intervals such as the recovery period.
  void set_progress_callback(
      std::function<void(sim::Time, std::uint64_t)> fn) {
    progress_fn_ = std::move(fn);
  }

  // Out-of-order bytes currently buffered (dormant data, in the paper's
  // terms).
  std::uint64_t buffered_out_of_order() const;

 private:
  // A buffered out-of-order byte range [begin, end).
  struct OooInterval {
    std::uint64_t begin;
    std::uint64_t end;
  };

  // Delegation target of the simulator-convenience constructor.
  TcpReceiver(std::unique_ptr<env::Environment> owned, net::FlowId flow,
              ReceiverConfig cfg);

  RRTCP_HOT void deliver_in_order(std::uint64_t seq, std::uint32_t len);
  RRTCP_HOT void store_out_of_order(std::uint64_t seq, std::uint32_t len);
  RRTCP_HOT void send_ack(bool duplicate);
  RRTCP_HOT void fill_sack_blocks(net::TcpHeader& h) const;
  RRTCP_HOT void note_recent_block(std::uint64_t begin, std::uint64_t end);
  RRTCP_HOT void forget_recent_block(std::uint64_t begin);
  const OooInterval* find_ooo(std::uint64_t begin) const;
  void check_notify();

  // Declared first so the owned environment (simulator-convenience
  // constructor) is destroyed after the env::Timer below.
  std::unique_ptr<env::Environment> owned_env_;
  env::Environment& env_;
  net::FlowId flow_;
  net::NodeId peer_;
  ReceiverConfig cfg_;

  std::uint64_t rcv_nxt_ = 0;
  // Out-of-order intervals, non-overlapping, sorted by begin, all above
  // rcv_nxt_. A flat sorted vector, not a node container: the interval
  // count is bounded by the number of concurrent holes (a handful at any
  // window size), and the vector's capacity is retained across loss
  // episodes — so buffering a reordered segment costs zero allocations in
  // steady state, where a std::map paid one node per out-of-order arrival
  // (the dominant per-packet alloc in the e2e bench before this change).
  std::vector<OooInterval> ooo_;
  // SACK recency: most recently updated blocks first, by begin offset.
  // At most 8 entries (hard-capped), kept in a capacity-pinned vector for
  // the same steady-state-allocation-free reason.
  std::vector<std::uint64_t> recent_blocks_;

  // Delayed-ACK state.
  env::Timer delack_timer_;
  bool ack_pending_ = false;

  // ECN state: true between receiving a CE mark and seeing the sender's
  // CWR acknowledgment.
  bool ece_pending_ = false;

  ReceiverStats stats_;

  std::uint64_t notify_bytes_ = 0;
  std::function<void(sim::Time)> notify_fn_;
  std::function<void(sim::Time, std::uint64_t)> progress_fn_;
  std::uint64_t last_unique_ = 0;
};

}  // namespace rrtcp::tcp
