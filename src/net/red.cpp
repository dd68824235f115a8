#include "net/red.hpp"

#include <algorithm>
#include <cmath>

#include "sim/assert.hpp"

namespace rrtcp::net {

RedQueue::RedQueue(sim::Simulator& sim, RedConfig cfg)
    : sim_{sim}, cfg_{cfg}, rng_{cfg.seed, "red-queue"} {
  RRTCP_ASSERT(cfg.buffer_packets > 0);
  RRTCP_ASSERT(cfg.min_th >= 0 && cfg.max_th > cfg.min_th);
  RRTCP_ASSERT(cfg.max_p > 0 && cfg.max_p <= 1.0);
  RRTCP_ASSERT(cfg.w_q > 0 && cfg.w_q <= 1.0);
  idle_since_ = sim.now();
  // The ring grows with the traffic, as in DropTailQueue: no buffer memory
  // until the first enqueue, then one doubling per new high-water mark.
}

void RedQueue::update_average() {
  if (!idle_) {
    avg_ = (1.0 - cfg_.w_q) * avg_ + cfg_.w_q * static_cast<double>(q_.size());
    return;
  }
  // The queue has been idle: pretend m small packets departed, each taking
  // mean_pkt_tx, so the average decays as if the queue had drained.
  double m = 0.0;
  if (cfg_.mean_pkt_tx > sim::Time::zero()) {
    const sim::Time idle = sim_.now() - idle_since_;
    m = idle.to_seconds() / cfg_.mean_pkt_tx.to_seconds();
  }
  avg_ *= std::pow(1.0 - cfg_.w_q, m);
}

double RedQueue::drop_probability() const {
  if (avg_ < cfg_.min_th) return 0.0;
  double p_b;
  if (avg_ < cfg_.max_th) {
    p_b = cfg_.max_p * (avg_ - cfg_.min_th) / (cfg_.max_th - cfg_.min_th);
  } else if (cfg_.gentle && avg_ < 2.0 * cfg_.max_th) {
    p_b = cfg_.max_p +
          (1.0 - cfg_.max_p) * (avg_ - cfg_.max_th) / cfg_.max_th;
  } else {
    return 1.0;
  }
  // Spread drops out: with `count_` packets since the last drop, the
  // effective probability makes inter-drop gaps roughly uniform.
  const double denom = 1.0 - static_cast<double>(std::max(count_, 0L)) * p_b;
  if (denom <= p_b) return 1.0;
  return p_b / denom;
}

bool RedQueue::enqueue(Packet p) {
  update_average();
  idle_ = false;

  bool drop = false;
  bool early = false;

  if (q_.size() >= cfg_.buffer_packets) {
    drop = true;   // physical buffer exhausted — the only forced drop
    count_ = 0;    // a drop occurred: restart the inter-drop spacing
  } else if (avg_ >= cfg_.min_th) {
    const double pa = drop_probability();
    if (pa >= 1.0 || rng_.bernoulli(pa)) {
      // Any drop decided by RED is an "early" drop in the statistics,
      // including the deterministic ones where pa saturates at 1
      // (avg_ >= max_th non-gentle, avg_ >= 2*max_th gentle); forced
      // drops are buffer overflows only.
      early = true;
      // ECN marking stays restricted to the probabilistic region: at
      // avg_ >= max_th RED is meant to drop, not mark (RFC 3168 §7).
      const bool markable = avg_ < cfg_.max_th || cfg_.gentle;
      if (cfg_.ecn && markable && p.tcp.ect) {
        // Mark instead of dropping: the congestion signal still reaches
        // the sender, the packet still reaches the receiver.
        p.tcp.ce = true;
        ++ecn_marks_;
      } else {
        drop = true;
      }
      count_ = 0;
    } else {
      ++count_;
    }
  } else {
    count_ = -1;
  }

  if (drop) {
    note_drop(p, early ? DropReason::kEarly : DropReason::kOverflow);
    if (early)
      ++early_drops_;
    else
      ++forced_drops_;
    if (q_.empty()) {
      idle_ = true;
      idle_since_ = sim_.now();
    }
    return false;
  }

  bytes_ += p.size_bytes;
  // q_ is a PacketRing (cold growth only at a new high-water mark), not a
  // std container; the suppression is for the type-blind lite checker.
  // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
  q_.push_back(std::move(p));
  ++stats_.enqueued;
  note_enqueue(q_.back());
  return true;
}

std::optional<Packet> RedQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p.size_bytes;
  ++stats_.dequeued;
  note_dequeue(p);
  if (q_.empty()) {
    idle_ = true;
    idle_since_ = sim_.now();
  }
  return p;
}

}  // namespace rrtcp::net
