#include "net/link.hpp"

#include "net/node.hpp"
#include "sim/assert.hpp"
#include "sim/log.hpp"

namespace rrtcp::net {

Link::Link(sim::Simulator& sim, LinkConfig cfg,
           std::unique_ptr<QueueDisc> queue)
    : sim_{sim},
      cfg_{std::move(cfg)},
      queue_{std::move(queue)},
      pipe_{sim, [this](sim::Time, Packet& p) { deliver(p); }} {
  RRTCP_ASSERT(cfg_.bandwidth_bps > 0);
  RRTCP_ASSERT(cfg_.prop_delay >= sim::Time::zero());
  RRTCP_ASSERT(queue_ != nullptr);
}

void Link::send(Packet p) {
  if (loss_ && loss_->should_drop(p, sim_.now())) {
    if (p.is_data()) ++loss_data_drops_;
    RRTCP_TRACE(sim_.now(), cfg_.name.c_str(), "loss-model drop %s",
                p.to_string().c_str());
    return;
  }
  if (!queue_->enqueue(std::move(p))) {
    RRTCP_TRACE(sim_.now(), cfg_.name.c_str(), "queue drop (len=%zu)",
                queue_->len_packets());
    return;
  }
  if (idle())
    transmit_next();
  else if (!release_pending_)
    schedule_release();
}

void Link::transmit_next() {
  auto next = queue_->dequeue();
  if (!next) return;

  const sim::Time tx = tx_time(next->size_bytes);
  busy_time_ += tx;
  // Deliver after serialization + propagation (+ any reordering delay);
  // free the transmitter after serialization alone. The delivery's key is
  // reserved (by the pipe's push) *before* the release's: the insertion
  // order is part of the pinned golden traces.
  const sim::Time done = sim_.now() + tx;
  if (remote_ != nullptr) {
    // Cut link: the destination node lives in another shard. Hand off now;
    // the merge passes the packet on once this shard has run past `done`.
    RRTCP_ASSERT_MSG(reorder_ == nullptr,
                     "a cut link cannot carry reorder jitter");
    remote_->push(done + cfg_.prop_delay, done, std::move(*next));
  } else {
    const sim::Time jitter =
        reorder_ ? reorder_->delay_for_next_packet() : sim::Time::zero();
    pipe_.push(done + cfg_.prop_delay + jitter, std::move(*next));
  }
  // Reserve the release key even when nothing waits: a send() before
  // (done, release_seq_) passes schedules the release under it.
  busy_until_ = done;
  release_seq_ = sim_.reserve_seq();
  if (!queue_->empty()) schedule_release();
}

void Link::deliver(Packet& p) {
  ++delivered_;
  bytes_delivered_ += p.size_bytes;
  RRTCP_ASSERT_MSG(dst_ != nullptr, "link has no destination node");
  dst_->receive(std::move(p));
}

void Link::schedule_release() {
  release_pending_ = true;
  auto release = [this] {
    release_pending_ = false;
    transmit_next();
  };
  sim_.schedule_reserved(busy_until_, release_seq_, std::move(release));
}

double Link::utilization(sim::Time now) const {
  if (now <= sim::Time::zero()) return 0.0;
  return busy_time_.to_seconds() / now.to_seconds();
}

}  // namespace rrtcp::net
