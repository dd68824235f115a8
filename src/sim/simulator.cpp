#include "sim/simulator.hpp"

#include <bit>
#include <memory>

namespace rrtcp::sim {

namespace {
// Rotate the occupancy bitmap so the current bucket is bit 0, then the
// count of trailing zeros is the forward distance to the nearest occupied
// bucket (all occupied buckets sit within one wheel revolution ahead).
inline int bucket_distance(std::uint64_t bits, unsigned cur) {
  return std::countr_zero(std::rotr(bits, cur));
}
}  // namespace

Simulator::Simulator() {
  for (int level = 0; level < kWheelLevels; ++level)
    for (int b = 0; b < kWheelSlots; ++b) {
      wheel_head_[level][b] = detail::kNilLink;
      wheel_tail_[level][b] = detail::kNilLink;
    }
  // Pre-size the heap to a working floor (24 KiB), above the heap depth of
  // a short scenario, so most runs never grow it and a long one starts
  // its doubling from there.
  heap_.reserve(1024);
}

void Simulator::grow_pool() {
  // Grow the pool by one chunk. Chunks are stable in memory (never moved
  // or released), so EventNode references held across callback-triggered
  // scheduling stay valid; the chunk directory and free list reserve up
  // front so steady-state alloc/free touches no allocator at all.
  const std::uint32_t base =
      static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
  chunks_.push_back(std::make_unique<detail::EventNode[]>(kChunkSize));
  free_.reserve(chunks_.size() * kChunkSize);
  // Push in reverse so slots hand out in ascending index order.
  for (std::size_t i = kChunkSize; i-- > 0;)
    free_.push_back(base + static_cast<std::uint32_t>(i));
}

// ---------------------------------------------------------------------------
// Timer wheel

void Simulator::wheel_link(int level, std::uint32_t slot,
                           detail::EventNode& n) {
  const int shift = kWheelShift0 + level * kWheelSlotBits;
  const std::int64_t idx = n.at_ps >> shift;
  const unsigned b = static_cast<unsigned>(idx) & (kWheelSlots - 1);
  n.loc = static_cast<std::uint8_t>(detail::kLocWheel0 + level);
  n.bucket = static_cast<std::uint8_t>(b);
  n.next = detail::kNilLink;
  n.prev = wheel_tail_[level][b];
  if (n.prev == detail::kNilLink)
    wheel_head_[level][b] = slot;
  else
    node(n.prev).next = slot;
  wheel_tail_[level][b] = slot;
  wheel_bits_[level] |= std::uint64_t{1} << b;
  ++wheel_count_;
  const std::int64_t start = idx << shift;
  if (start < wheel_lb_ps_) wheel_lb_ps_ = start;
}

void Simulator::wheel_unlink(detail::EventNode& n) {
  const int level = n.loc - detail::kLocWheel0;
  const unsigned b = n.bucket;
  if (n.prev == detail::kNilLink)
    wheel_head_[level][b] = n.next;
  else
    node(n.prev).next = n.next;
  if (n.next == detail::kNilLink)
    wheel_tail_[level][b] = n.prev;
  else
    node(n.next).prev = n.prev;
  if (wheel_head_[level][b] == detail::kNilLink)
    wheel_bits_[level] &= ~(std::uint64_t{1} << b);
  // wheel_lb_ps_ may now under-estimate; advance_wheel_once() tolerates
  // that (it re-derives the true minimum from the bitmaps).
  if (--wheel_count_ == 0) wheel_lb_ps_ = kMaxPs;
}

void Simulator::insert_far(std::uint32_t slot, detail::EventNode& n) {
  const std::int64_t t = n.at_ps;
  for (int level = 0; level < kWheelLevels; ++level) {
    const int shift = kWheelShift0 + level * kWheelSlotBits;
    if ((t >> shift) - (wheel_now_ps_ >> shift) <
        static_cast<std::int64_t>(kWheelSlots)) {
      wheel_link(level, slot, n);
      return;
    }
  }
  // Beyond the outermost wheel span (~18.8 min out): ordinary heap entry.
  insert_near(slot, n);
}

void Simulator::recompute_wheel_lb() {
  std::int64_t lb = kMaxPs;
  for (int level = 0; level < kWheelLevels; ++level) {
    const std::uint64_t bits = wheel_bits_[level];
    if (bits == 0) continue;
    const int shift = kWheelShift0 + level * kWheelSlotBits;
    const std::int64_t cur = wheel_now_ps_ >> shift;
    const int d = bucket_distance(bits, static_cast<unsigned>(cur) &
                                            (kWheelSlots - 1));
    const std::int64_t start = (cur + d) << shift;
    if (start < lb) lb = start;
  }
  wheel_lb_ps_ = lb;
}

void Simulator::advance_wheel_once() {
  // Find the occupied bucket with the smallest start time. Ties between
  // levels are taken at the *higher* level so a coarse bucket cascades
  // before a same-start fine bucket flushes (its events may sort earlier).
  std::int64_t best = kMaxPs;
  int best_level = -1;
  unsigned best_bucket = 0;
  for (int level = kWheelLevels - 1; level >= 0; --level) {
    const std::uint64_t bits = wheel_bits_[level];
    if (bits == 0) continue;
    const int shift = kWheelShift0 + level * kWheelSlotBits;
    const std::int64_t cur = wheel_now_ps_ >> shift;
    const unsigned cb = static_cast<unsigned>(cur) & (kWheelSlots - 1);
    const int d = bucket_distance(bits, cb);
    const std::int64_t start = (cur + d) << shift;
    if (start < best) {
      best = start;
      best_level = level;
      best_bucket = (cb + static_cast<unsigned>(d)) & (kWheelSlots - 1);
    }
  }
  RRTCP_ASSERT(best_level >= 0);
  // The horizon only moves forward: `best` is the minimum start over all
  // occupied buckets, and every event still in the wheel is >= its
  // bucket's start.
  wheel_now_ps_ = best;

  // Detach the whole bucket, then redistribute. Level 0 buckets are fully
  // inside the current coarse tick, so their events go straight to the
  // heap; coarser buckets cascade into strictly finer levels (every event
  // of a level-k bucket fits level k-1 once wheel_now_ sits at the bucket
  // start). Each heap-bound event gets its own entry under its original
  // (at, seq) key, so the heap's tie-break restores insertion order
  // whatever order the bucket list holds them in.
  std::uint32_t s = wheel_head_[best_level][best_bucket];
  wheel_head_[best_level][best_bucket] = detail::kNilLink;
  wheel_tail_[best_level][best_bucket] = detail::kNilLink;
  wheel_bits_[best_level] &= ~(std::uint64_t{1} << best_bucket);

  while (s != detail::kNilLink) {
    detail::EventNode& n = node(s);
    const std::uint32_t next = n.next;
    --wheel_count_;
    if ((n.at_ps >> kWheelShift0) > (wheel_now_ps_ >> kWheelShift0)) {
      // Still in a future coarse tick: re-stage at a finer level.
      for (int level = 0;; ++level) {
        RRTCP_DASSERT(level < best_level);
        const int shift = kWheelShift0 + level * kWheelSlotBits;
        if ((n.at_ps >> shift) - (wheel_now_ps_ >> shift) <
            static_cast<std::int64_t>(kWheelSlots)) {
          wheel_link(level, s, n);
          break;
        }
      }
    } else {
      insert_near(s, n);
    }
    s = next;
  }
  recompute_wheel_lb();
}

// ---------------------------------------------------------------------------
// Cancellation / reschedule

bool Simulator::cancel_event(std::uint32_t slot, std::uint64_t seq) {
  if (seq == 0) return false;
  detail::EventNode& n = node(slot);
  if (n.seq != seq) return false;  // already fired, cancelled, or recycled
  const std::uint8_t loc = n.loc;
  if (loc >= detail::kLocWheel0) wheel_unlink(n);
  n.fn.reset();  // release captured resources eagerly
  n.seq = 0;
  n.loc = detail::kLocFree;
  // The slot is reusable immediately: a heap resident's entry still
  // carries the old seq and is recognized as stale when it surfaces.
  free_slot(slot);
  --live_events_;
  if (loc == detail::kLocHeap) note_stale();
  return true;
}

EventHandle Simulator::reschedule_at(const EventHandle& h, Time at) {
  RRTCP_ASSERT(h.sim_ == this);
  RRTCP_ASSERT_MSG(at >= now_, "cannot schedule an event in the past");
  detail::EventNode& n = node(h.slot_);
  RRTCP_ASSERT_MSG(h.seq_ != 0 && n.seq == h.seq_,
                   "reschedule_at requires a pending event");
  const std::uint8_t loc = n.loc;
  if (loc >= detail::kLocWheel0) wheel_unlink(n);
  // Re-sequencing keeps FIFO semantics identical to cancel + schedule;
  // the stored callable and slot are reused untouched.
  n.seq = ++last_seq_;
  n.at_ps = at.ps();
  if (loc == detail::kLocHeap) note_stale();
  insert_event(h.slot_, n);
  return EventHandle{this, h.slot_, n.seq};
}

// ---------------------------------------------------------------------------
// Heap

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::heap_pop_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

// Rebuild the heap without its corpses: filter live entries in place,
// then Floyd-heapify (bottom-up sift-down, O(n)).
void Simulator::compact_heap() {
  std::size_t w = 0;
  for (const HeapEntry& e : heap_)
    if (node(e.slot).seq == e.seq && node(e.slot).loc == detail::kLocHeap)
      heap_[w++] = e;
  heap_.resize(w);
  if (w > 1)
    for (std::size_t i = (w - 2) >> 2;; --i) {
      sift_down(i);
      if (i == 0) break;
    }
  stale_heap_ = 0;
}

bool Simulator::heap_settle_top() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_[0];
    if (node(top.slot).seq == top.seq &&
        node(top.slot).loc == detail::kLocHeap)
      return true;
    RRTCP_DASSERT(stale_heap_ > 0);
    --stale_heap_;
    heap_pop_top();
  }
  return false;
}

bool Simulator::settle_ready(std::int64_t limit_ps) {
  for (;;) {
    const bool live = heap_settle_top();
    if (wheel_count_ == 0) return live;
    // The wheel can only hold events at wheel_lb_ps_ or later, so a live
    // heap top strictly earlier than that is globally next already.
    if (live && heap_[0].at.ps() < wheel_lb_ps_) return true;
    // Nothing in the wheel is due within the limit: leave it staged.
    if (wheel_lb_ps_ > limit_ps) return live;
    advance_wheel_once();
  }
}

// ---------------------------------------------------------------------------
// Execution

void Simulator::fire_node(std::uint32_t slot, detail::EventNode& n) {
  RRTCP_ASSERT(n.at_ps >= now_.ps());
  now_ = Time::picoseconds(n.at_ps);
  cur_seq_ = n.seq;
  // Consume the occupancy before invoking so the handle reports "not
  // pending" and a self-cancel inside the callback is a no-op. The slot
  // returns to the free list only after the callback finishes — its
  // captures live in the slot's inline buffer.
  n.seq = 0;
  n.loc = detail::kLocFree;
  --live_events_;
  ++executed_;
  n.fn.consume();
  free_slot(slot);
}

void Simulator::fire_next() {
  // Pop before the callback runs: it may schedule or cancel, and either
  // can move the heap.
  const std::uint32_t slot = heap_[0].slot;
  heap_pop_top();
  fire_node(slot, node(slot));
}

bool Simulator::step() {
  // Entries cancelled after insertion are discarded lazily here.
  if (!settle_ready(kMaxPs)) return false;
  fire_next();
  return true;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && settle_ready(kMaxPs)) {
    fire_next();
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until(Time deadline) {
  stopped_ = false;
  const std::int64_t limit = deadline.ps();
  std::uint64_t n = 0;
  while (!stopped_ && settle_ready(limit)) {
    // Peek at the next live event without executing it. Wheel buckets
    // beyond the deadline stay staged (settle_ready never flushes them).
    if (heap_[0].at > deadline) break;
    fire_next();
    ++n;
  }
  // Only a run that exhausted the work up to `deadline` advances the clock
  // there; a stopped run leaves now_ at the stopping event's time so the
  // caller can observe when the stop happened and resume from it.
  // Everything keyed so far at or before `deadline` has fired.
  if (!stopped_ && now_ <= deadline) {
    now_ = deadline;
    cur_seq_ = last_seq_;
  }
  return n;
}

std::uint64_t Simulator::run_before(Time deadline) {
  stopped_ = false;
  const std::int64_t limit = deadline.ps();
  std::uint64_t n = 0;
  while (!stopped_ && settle_ready(limit)) {
    // Exclusive bound: an event at exactly `deadline` belongs to the next
    // window. settle_ready may have flushed it from the wheel into the
    // heap already; leaving it there is harmless.
    if (heap_[0].at >= deadline) break;
    fire_next();
    ++n;
  }
  // Nothing at `deadline` itself has fired.
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
    cur_seq_ = 0;
  }
  return n;
}

}  // namespace rrtcp::sim
