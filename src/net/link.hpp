// Unidirectional point-to-point link.
//
// A Link models an output buffer (its QueueDisc), a transmitter that
// serializes one packet at a time at `bandwidth_bps`, and a propagation
// pipe of fixed delay. An optional LossModel is consulted *before* the
// queue — that is where a gateway's "artificial losses" live.
//
// Timing of a packet that arrives at an idle link:
//   t0                 enqueue
//   t0 + tx            last bit leaves (tx = size*8/bandwidth)
//   t0 + tx + delay    delivered to the destination node
//
// The transmitter is busy until t0 + tx. Its release (dequeue the next
// packet) is a scheduled event only when a packet waits for it: the key is
// reserved at transmit time and scheduled if the queue is non-empty then,
// or when a later send() finds the transmitter still busy. A release that
// would find the queue empty is never scheduled.
//
// Packets in the propagation pipe are not events either: they wait in the
// link's DelayLine (net/delay_line.hpp), each keyed at transmit time with
// the (arrival, seq) its delivery event would have had, and only the
// front one has an event. A cut link has no pipe of its own: it hands
// each packet to its RemoteSink at transmit time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/delay_line.hpp"
#include "net/loss_model.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/queue_disc.hpp"
#include "net/reorder.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rrtcp::net {

// Cross-engine delivery target for a link whose destination node lives in
// another simulation shard. When installed, the link hands each packet
// off when it starts to transmit, stamped with its serialization end
// t_done and its absolute arrival time t_done + prop_delay, instead of
// holding it in its pipe for dst()->receive(). push() runs on the sending
// shard's thread; the receiving shard drains it only at synchronization
// barriers, and only the packets whose t_done the sending shard has
// already run past (pdes/sharded.hpp).
class RemoteSink {
 public:
  virtual ~RemoteSink() = default;
  virtual void push(sim::Time arrival, sim::Time t_done, Packet p) = 0;
};

struct LinkConfig {
  std::int64_t bandwidth_bps = 10'000'000;
  sim::Time prop_delay = sim::Time::milliseconds(1);
  std::string name = "link";
};

class Link final : public PacketHandler {
 public:
  Link(sim::Simulator& sim, LinkConfig cfg, std::unique_ptr<QueueDisc> queue);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Wiring (done once by the topology builder).
  void set_dst(Node* dst) { dst_ = dst; }
  Node* dst() const { return dst_; }

  // Route deliveries to another shard instead of dst(). Set once by the
  // sharded engine's builder; mutually exclusive with local delivery and
  // with a reorder model (the arrival instant is serialization end plus
  // the propagation delay, nothing else).
  void set_remote_sink(RemoteSink* sink) { remote_ = sink; }
  RemoteSink* remote_sink() const { return remote_; }

  // Install/replace the ingress loss model (may be null).
  void set_loss_model(std::unique_ptr<LossModel> model) {
    loss_ = std::move(model);
  }
  LossModel* loss_model() const { return loss_.get(); }

  // Install/replace a reordering model: selected packets are delivered
  // with an extra delay, letting later packets overtake them.
  void set_reorder_model(std::unique_ptr<ReorderModel> model) {
    reorder_ = std::move(model);
  }
  ReorderModel* reorder_model() const { return reorder_.get(); }

  // Offer a packet to the link. It may be dropped by the loss model or the
  // queue; otherwise it is delivered to dst() after queueing + tx + delay.
  RRTCP_HOT void send(Packet p) override;

  QueueDisc& queue() { return *queue_; }
  const QueueDisc& queue() const { return *queue_; }
  const LinkConfig& config() const { return cfg_; }

  // Serialization time of one packet of `bytes` on this link.
  sim::Time tx_time(std::uint32_t bytes) const {
    return sim::Time::transmission(bytes, cfg_.bandwidth_bps);
  }

  // Statistics. A cut link's packet counts as delivered when the sharded
  // merge passes it on (count_handed_off), not when it is pushed.
  std::uint64_t packets_delivered() const { return delivered_; }
  void count_handed_off(const Packet& p) {
    ++delivered_;
    bytes_delivered_ += p.size_bytes;
  }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  // Data packets the loss model dropped (ACKs and CBR are not counted):
  // the data copies the pipe-conservation audit must see leave the network.
  std::uint64_t loss_model_data_drops() const { return loss_data_drops_; }
  // Fraction of [0, now] the transmitter spent busy.
  double utilization(sim::Time now) const;

 private:
  // True once the last transmission's release key has passed with no
  // release scheduled: a send() may transmit at once.
  bool idle() const {
    return !release_pending_ && sim_.passed(busy_until_, release_seq_);
  }
  RRTCP_HOT void transmit_next();
  RRTCP_HOT void schedule_release();
  // The pipe's sink: the packet reaches dst().
  RRTCP_HOT void deliver(Packet& p);

  sim::Simulator& sim_;
  LinkConfig cfg_;
  std::unique_ptr<QueueDisc> queue_;
  std::unique_ptr<LossModel> loss_;
  std::unique_ptr<ReorderModel> reorder_;
  Node* dst_ = nullptr;
  RemoteSink* remote_ = nullptr;

  // The transmitter's release key: serialization end and the insertion
  // seq reserved for it right after the delivery event.
  sim::Time busy_until_ = sim::Time::zero();
  std::uint64_t release_seq_ = 0;
  bool release_pending_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t loss_data_drops_ = 0;
  sim::Time busy_time_ = sim::Time::zero();
  // Packets in propagation (never used by a cut link).
  DelayLine pipe_;
};

}  // namespace rrtcp::net
