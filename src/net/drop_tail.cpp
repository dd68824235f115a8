#include "net/drop_tail.hpp"

#include "sim/assert.hpp"

namespace rrtcp::net {

// The ring starts empty and grows with the traffic (see PacketRing). Do not
// pre-size it to the configured capacity: every slot is a value-initialised
// 64-byte Packet, and zero-filling buffers most links never use dominated
// the set-up of the paper's short sweep scenarios (DESIGN.md §11).
DropTailQueue::DropTailQueue(std::uint64_t capacity, Mode mode)
    : capacity_{capacity}, mode_{mode} {
  RRTCP_ASSERT_MSG(capacity > 0, "drop-tail queue needs capacity >= 1");
}

bool DropTailQueue::enqueue(Packet p) {
  const bool full = mode_ == Mode::kPackets
                        ? q_.size() >= capacity_
                        : bytes_ + p.size_bytes > capacity_;
  if (full) {
    note_drop(p);
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

std::optional<Packet> DropTailQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  Packet p = std::move(q_.front());
  q_.pop_front();
  RRTCP_DASSERT(bytes_ >= p.size_bytes);
  bytes_ -= p.size_bytes;
  ++stats_.dequeued;
  note_dequeue(p);
  return p;
}

}  // namespace rrtcp::net
