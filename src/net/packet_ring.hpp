// Growable ring buffer of Packets — the pooled backing store for queue
// disciplines.
//
// std::deque allocates and frees its block map as a queue breathes, which
// puts allocator traffic on every sustained burst. PacketRing keeps one
// flat power-of-two array that starts empty, takes 16 slots on the first
// push, doubles on overflow and NEVER shrinks. A queue therefore allocates
// only when it reaches a new high-water mark; once it has seen its peak
// depth, enqueue/dequeue are index arithmetic only — the allocation-free
// steady state the forwarding path promises (see DESIGN.md §11).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/assert.hpp"
#include "sim/hot.hpp"

namespace rrtcp::net {

class PacketRing {
 public:
  PacketRing() = default;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  // Slots currently held: 0 until the first push, then the queue's
  // high-water mark rounded up to a power of two (at least 16).
  std::size_t capacity() const { return buf_.size(); }

  RRTCP_HOT void push_back(Packet p) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = std::move(p);
    ++count_;
  }

  Packet& front() {
    RRTCP_DASSERT(count_ > 0);
    return buf_[head_];
  }
  const Packet& front() const {
    RRTCP_DASSERT(count_ > 0);
    return buf_[head_];
  }

  Packet& back() {
    RRTCP_DASSERT(count_ > 0);
    return buf_[(head_ + count_ - 1) & mask_];
  }
  const Packet& back() const {
    RRTCP_DASSERT(count_ > 0);
    return buf_[(head_ + count_ - 1) & mask_];
  }

  RRTCP_HOT Packet pop_front() {
    RRTCP_DASSERT(count_ > 0);
    Packet p = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --count_;
    return p;
  }

 private:
  RRTCP_COLD void grow() {
    const std::size_t new_cap = buf_.empty() ? kMinCapacity : buf_.size() * 2;
    std::vector<Packet> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  static constexpr std::size_t kMinCapacity = 16;

  std::vector<Packet> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace rrtcp::net
