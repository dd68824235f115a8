// Packets in flight, held in one ordered line instead of one event each.
//
// A packet that waits on the clock — in a link's propagation pipe, on a
// shard's receive side, or in a chaos delay spike — used to be its own
// scheduler event, a closure capturing the whole Packet. (A cut link holds
// none: it hands each packet to its pdes::Channel at transmit time.) A
// DelayLine holds those packets instead, sorted by the (at, seq) key each
// one's event would have had: push() takes the seq with
// Simulator::reserve_seq() at the moment the event used to be scheduled.
// Only the front packet has an event, scheduled under its reserved key
// (schedule_reserved) and capturing `this` alone. When it fires, the line
// pops the front, arms the new front and hands the packet to its sink.
// Every key is the one the per-packet event had, so events fire in the
// same order, and as many of them, as before.
//
// A push inserts from the back, so a FIFO pipe only ever appends. A packet
// that overtakes others (reorder jitter, a shorter chaos spike) is moved
// into place; if it lands at the front it is armed at once. The old front
// keeps its event: nothing keyed before it can still be in the line when
// that event fires, because every front is armed and fires first. (A
// cancelled key cannot be scheduled again, see Simulator::reserve_seq.)
//
// Storage is two parallel power-of-two rings in one allocation: 16-byte
// keys, and packet slots of one cache line each. They start empty, grow
// only when the line reaches a new high-water mark and never shrink, so a
// warm line pushes and pops without allocating (DESIGN.md §11). The block
// is raw storage: a grown ring is not written until packets occupy it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "net/packet.hpp"
#include "sim/assert.hpp"
#include "sim/hot.hpp"
#include "sim/simulator.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace rrtcp::net {

class DelayLine {
 public:
  // Receives each packet at its key's instant; `at` is that instant. The
  // packet may be moved from.
  using Sink = sim::SmallCallable<void(sim::Time at, Packet& p), 16>;

  template <typename F>
  DelayLine(sim::Simulator& sim, F&& sink) : sim_{sim} {
    sink_.emplace(std::forward<F>(sink));
  }
  DelayLine(const DelayLine&) = delete;
  DelayLine& operator=(const DelayLine&) = delete;

  // Hands `p` to the sink at `at` (>= now), keyed by a seq reserved now.
  RRTCP_HOT void push(sim::Time at, Packet p) {
    RRTCP_ASSERT_MSG(at >= sim_.now(), "cannot delay a packet into the past");
    const Key k{at.ps(), sim_.reserve_seq()};
    if (count_ == capacity_) grow();
    // Every key already in the line has a smaller seq, so only a later
    // instant sorts after the new one.
    std::size_t i = count_;
    while (i > 0 && keys_[index(i - 1)].at_ps > k.at_ps) {
      keys_[index(i)] = keys_[index(i - 1)];
      put(index(i), packet(index(i - 1)));
      --i;
    }
    keys_[index(i)] = k;
    put(index(i), p);
    ++count_;
    if (i == 0) arm();
  }

  std::size_t size() const { return count_; }
  // Slots held: 0 until the first push, then the high-water mark rounded
  // up to a power of two (at least kMinCapacity).
  std::size_t capacity() const { return capacity_; }

 private:
  // The armed bit marks a key whose event is scheduled: the front always,
  // and any entry that was front until a later push overtook it.
  static constexpr std::uint64_t kArmed = std::uint64_t{1} << 63;
  static constexpr std::size_t kMinCapacity = 4;

  struct Key {
    std::int64_t at_ps;
    std::uint64_t seq;  // | kArmed once scheduled
  };
  struct alignas(64) Slot {
    unsigned char bytes[sizeof(Packet)];
  };
  static_assert(std::is_trivially_copyable_v<Packet> &&
                    std::is_trivially_destructible_v<Packet>,
                "slots hold packets as raw bytes");

  std::size_t index(std::size_t logical) const {
    return (head_ + logical) & (capacity_ - 1);
  }
  Packet& packet(std::size_t i) {
    return *std::launder(reinterpret_cast<Packet*>(slots_[i].bytes));
  }
  void put(std::size_t i, const Packet& p) {
    ::new (static_cast<void*>(slots_[i].bytes)) Packet(p);
  }

  // Schedules the front's event unless it already has one.
  RRTCP_HOT void arm() {
    Key& k = keys_[head_];
    if ((k.seq & kArmed) != 0) return;
    sim_.schedule_reserved(sim::Time::picoseconds(k.at_ps), k.seq,
                           [this] { fire(); });
    k.seq |= kArmed;
  }

  RRTCP_HOT void fire() {
    RRTCP_DASSERT(count_ > 0 && keys_[head_].at_ps == sim_.now().ps());
    const sim::Time at = sim_.now();
    Packet p = packet(head_);
    head_ = index(1);
    if (--count_ > 0) arm();
    sink_(at, p);
  }

  RRTCP_COLD void grow();

  sim::Simulator& sim_;
  Sink sink_;
  // The keys, then (cache-line aligned) the slots. Plain operator new, so
  // allocation counters see it.
  std::unique_ptr<std::byte[]> block_;
  Key* keys_ = nullptr;
  Slot* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace rrtcp::net
