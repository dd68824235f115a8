// Discrete-event simulation engine.
//
// The Simulator keys its event queue by (time, insertion sequence): events
// scheduled for the same instant execute in the order they were scheduled,
// which makes every run deterministic. Events are arbitrary callables;
// cancellation is supported through EventHandle.
//
// Hot-path design (see DESIGN.md §11):
//
//  * Event callables live in pooled, chunk-allocated slots with a fixed
//    inline capture buffer of kEventInlineBytes (sim/small_fn.hpp), two
//    words: packets in flight wait in net::DelayLine, so no event carries
//    a Packet, and a slot is one 64-byte cache line.
//    Slots are recycled through a free list, so steady-state scheduling
//    performs zero allocations; only captures larger than
//    kEventInlineBytes fall back to the heap, and that fallback is
//    counted (callback_heap_fallbacks()).
//  * The queue is two-tiered. Near-horizon events go into an implicit
//    4-ary min-heap over 24-byte (time, seq, slot) entries. Far-future
//    events — RTO timers, fault-plan windows — go into a hierarchical
//    timer wheel (4 levels x 64 slots, level-0 granularity 2^26 ps
//    ~ 67 us, total span ~ 18.8 min) where insert AND cancel are O(1)
//    list operations that never leave stale entries behind. The wheel is
//    a staging area only: buckets are flushed into the heap before any
//    of their events can become the next to fire, so global (time, seq)
//    FIFO order is preserved exactly. Every heap-resident event has its
//    own (time, seq) entry; same-instant events sort by seq alone.
//  * A key can be reserved before its event exists (reserve_seq() /
//    schedule_reserved()), and passed() tells whether a key's turn has
//    come. Link uses the pair to schedule its transmitter release only
//    when a packet waits for it, at the key the release always had, and
//    net::DelayLine to give only the front packet of a pipe an event.
//  * A slot's occupancy is identified by the event's unique insertion
//    sequence number, so stale heap entries (cancelled events whose slot
//    was already recycled) are recognized and skipped on pop without any
//    generation-counter wraparound hazard. Stale entries are bounded: a
//    compaction pass rebuilds the heap when more than half of it is dead.
//
// The pre-pool engine is preserved in sim/legacy_scheduler.hpp; the
// scheduler-equivalence test pins the two to byte-identical execution
// traces (including a heap-only mode with the wheel disabled).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/assert.hpp"
#include "sim/hot.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace rrtcp::sim {

// Convenience alias for storable event callbacks (the scheduler itself
// accepts any callable, not just std::function).
using EventFn = std::function<void()>;

namespace detail {

// Null link for the intrusive lists threaded through event slots.
inline constexpr std::uint32_t kNilLink = 0xFFFFFFFFu;

// Where an event currently lives. Cancellation and reschedule dispatch on
// this: heap residents are removed lazily (their entry goes stale), wheel
// residents unlink in O(1).
enum : std::uint8_t {
  kLocFree = 0,    // slot unoccupied
  kLocHeap = 1,    // its own heap entry carries it
  kLocWheel0 = 2,  // wheel level = loc - kLocWheel0
};

struct EventNode {
  SmallFn<kEventInlineBytes> fn;
  // Insertion sequence of the occupying event; 0 = slot free (or the
  // event was cancelled/fired and the slot is back on the free list).
  std::uint64_t seq = 0;
  std::int64_t at_ps = 0;          // absolute fire time
  std::uint32_t next = kNilLink;   // intrusive wheel-bucket list
  std::uint32_t prev = kNilLink;
  std::uint8_t loc = kLocFree;
  std::uint8_t bucket = 0;         // wheel bucket while wheel-resident
};

// One cache line per slot; a 128-event pool chunk is 8 KiB.
static_assert(sizeof(EventNode) <= 64);

}  // namespace detail

class Simulator;

// A cheap, copyable handle to a scheduled event. A default-constructed
// handle refers to no event. Cancelling an already-fired or already-
// cancelled event is a harmless no-op. Handles must not outlive the
// Simulator that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  // Returns true if the event was pending and is now cancelled.
  bool cancel();

  // True while the event is still waiting to fire.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint64_t seq)
      : sim_{sim}, slot_{slot}, seq_{seq} {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulation time. Monotonically non-decreasing.
  Time now() const { return now_; }

  // True when a callable of type F schedules without touching the heap
  // allocator — the compile-time check behind allocation-free forwarding.
  template <typename F>
  static constexpr bool fits_inline() {
    return SmallFn<kEventInlineBytes>::template fits_inline<F>();
  }

  // Schedule `fn` to run at absolute time `at` (must be >= now()).
  template <typename F>
  RRTCP_HOT EventHandle schedule_at(Time at, F&& fn) {
    RRTCP_ASSERT_MSG(at >= now_, "cannot schedule an event in the past");
    if constexpr (requires { static_cast<bool>(fn); }) {
      RRTCP_ASSERT_MSG(static_cast<bool>(fn),
                       "event callable must be non-empty");
    }
    const std::uint32_t slot = alloc_slot();
    detail::EventNode& n = node(slot);
    if (!n.fn.emplace(std::forward<F>(fn))) ++fallback_allocs_;
    n.seq = ++last_seq_;
    n.at_ps = at.ps();
    ++live_events_;
    insert_event(slot, n);
    return EventHandle{this, slot, n.seq};
  }

  // Schedule `fn` to run `delay` from now (delay must be >= 0).
  template <typename F>
  RRTCP_HOT EventHandle schedule_in(Time delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Move a pending event to a new fire time, keeping its slot and stored
  // callable (no capture destroy/re-emplace, no free-list round-trip).
  // The event is re-sequenced as if it had been cancelled and scheduled
  // afresh, so FIFO order among same-instant events is identical to a
  // cancel() + schedule_at() pair. The handle passed in is dead afterwards;
  // use the returned one. Asserts if `h` is not pending.
  RRTCP_HOT EventHandle reschedule_at(const EventHandle& h, Time at);
  RRTCP_HOT EventHandle reschedule_in(const EventHandle& h, Time delay) {
    return reschedule_at(h, now_ + delay);
  }

  // Reserved keys. reserve_seq() consumes the next insertion sequence
  // number without scheduling anything; schedule_reserved() later inserts
  // an event under that (at, seq) key, so it fires exactly where an event
  // scheduled at reservation time would have. A component whose follow-up
  // event usually has nothing to do (Link's transmitter release) reserves
  // the key up front and schedules only when there is work: every other
  // event keeps its key, and same-instant order is unchanged. The event
  // becomes a plain heap entry (no wheel staging).
  // `seq` must come from reserve_seq(), be scheduled at most once, and
  // the key must not have passed(). Cancelling a reserved event spends
  // its key: the cancelled heap entry keeps (at, seq) and could match a
  // second event scheduled under it.
  std::uint64_t reserve_seq() { return ++last_seq_; }

  template <typename F>
  RRTCP_HOT EventHandle schedule_reserved(Time at, std::uint64_t seq,
                                          F&& fn) {
    RRTCP_ASSERT_MSG(seq != 0 && seq <= last_seq_,
                     "schedule_reserved needs a key from reserve_seq()");
    RRTCP_ASSERT_MSG(!passed(at, seq),
                     "cannot schedule under a key that has already passed");
    const std::uint32_t slot = alloc_slot();
    detail::EventNode& n = node(slot);
    if (!n.fn.emplace(std::forward<F>(fn))) ++fallback_allocs_;
    n.seq = seq;
    n.at_ps = at.ps();
    n.loc = detail::kLocHeap;
    ++live_events_;
    heap_push(HeapEntry{at, seq, slot});
    return EventHandle{this, slot, seq};
  }

  // True once every event that sorts at or before (at, seq) has fired:
  // during an event's callback, keys up to and including the firing
  // event's own; after run_until(d), everything at d keyed so far; after
  // run_before(d) moved the clock to d, nothing at d.
  bool passed(Time at, std::uint64_t seq) const {
    return at < now_ || (at == now_ && seq <= cur_seq_);
  }

  // Run until the event queue drains or stop() is called.
  // Returns the number of events executed.
  RRTCP_HOT std::uint64_t run();

  // Run until simulation time reaches `deadline` (events at exactly
  // `deadline` are executed), the queue drains, or stop() is called.
  RRTCP_HOT std::uint64_t run_until(Time deadline);

  // Run events strictly before `deadline` (events at exactly `deadline`
  // stay pending), then advance the clock to `deadline`. This is the
  // half-open window primitive for conservative sharded execution: a
  // round covering [T_k, T_{k+1}) must leave events stamped T_{k+1} for
  // the next round, after cross-shard arrivals for T_{k+1} have merged.
  RRTCP_HOT std::uint64_t run_before(Time deadline);

  // Execute at most one pending event. Returns false if the queue is empty.
  RRTCP_HOT bool step();

  // Request that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  // Number of live events waiting to fire. Cancelled events are excluded
  // immediately (even though a lazily-removed heap entry may still be
  // physically present — see heap_entries()/stale_heap_entries()).
  std::size_t pending_events() const {
    return static_cast<std::size_t>(live_events_);
  }

  std::uint64_t events_executed() const { return executed_; }

  // Pool introspection (perf harness / allocation-regression tests).
  // Total pooled event slots ever created (the pool never shrinks).
  std::size_t event_pool_slots() const { return chunks_.size() * kChunkSize; }
  // Events whose capture exceeded kEventInlineBytes and hit the heap.
  std::uint64_t callback_heap_fallbacks() const { return fallback_allocs_; }
  // Physical heap entries, including lazily-cancelled (stale) ones.
  std::size_t heap_entries() const { return heap_.size(); }
  std::size_t stale_heap_entries() const { return stale_heap_; }
  // Events currently staged in the timer wheel.
  std::size_t wheel_events() const { return wheel_count_; }

  // Test hook: route every event through the heap (the pre-wheel shape).
  // The differential suite runs the randomized workloads in both modes.
  // May only be toggled while the wheel is empty.
  void set_timer_wheel_enabled(bool on) {
    RRTCP_ASSERT_MSG(wheel_count_ == 0,
                     "cannot toggle the timer wheel while it holds events");
    wheel_enabled_ = on;
  }
  bool timer_wheel_enabled() const { return wheel_enabled_; }

 private:
  friend class EventHandle;

  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // Min-order on (at, seq): FIFO among events at the same instant.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  // The pool grows 128 nodes (8 KiB) at a time. Each chunk is
  // value-initialised when it is created, so the first chunk is set-up
  // cost every scenario pays, however short; a deeper run just takes more
  // chunks on the cold grow path.
  static constexpr std::size_t kChunkShift = 7;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  // Timer-wheel geometry. Level k buckets are 2^(kWheelShift0 + 6k) ps
  // wide: ~67 us, ~4.3 ms, ~275 ms, ~17.6 s — level 3 spans ~18.8 min.
  // Events past the whole span (rare: watchdog horizons) use the heap.
  static constexpr int kWheelLevels = 4;
  static constexpr int kWheelSlotBits = 6;
  static constexpr int kWheelSlots = 1 << kWheelSlotBits;
  static constexpr int kWheelShift0 = 26;
  static constexpr std::int64_t kMaxPs = INT64_MAX;

  // Compact the heap once it is more than half stale (and big enough for
  // the rebuild to be worth it). Bounds heap memory at ~2x the live count
  // under cancel storms.
  static constexpr std::size_t kCompactMin = 1024;

  detail::EventNode& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const detail::EventNode& node(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  // Slot alloc/free, classification, and heap_push are the per-schedule
  // fast path; they are defined inline (below the class) so schedule_at()
  // — itself a template instantiated at every call site — compiles down
  // to straight-line code with no out-of-line calls except when the pool
  // has to grow or the event is wheel-bound.
  RRTCP_HOT std::uint32_t alloc_slot() {
    if (free_.empty()) grow_pool();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  RRTCP_HOT void free_slot(std::uint32_t slot) {
    // free_ is reserved to the full pool size by grow_pool(), so this
    // push_back never reallocates.
    // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
    free_.push_back(slot);
  }
  RRTCP_COLD void grow_pool();

  RRTCP_HOT bool cancel_event(std::uint32_t slot, std::uint64_t seq);
  bool event_pending(std::uint32_t slot, std::uint64_t seq) const {
    return seq != 0 && node(slot).seq == seq;
  }

  // Route a freshly-sequenced node into wheel or heap.
  RRTCP_HOT void insert_event(std::uint32_t slot, detail::EventNode& n) {
    if (wheel_enabled_ &&
        (n.at_ps >> kWheelShift0) > (wheel_now_ps_ >> kWheelShift0)) {
      insert_far(slot, n);
      return;
    }
    insert_near(slot, n);
  }

  // Near-horizon (or wheel-overflow): the event's own heap entry.
  RRTCP_HOT void insert_near(std::uint32_t slot, detail::EventNode& n) {
    n.loc = detail::kLocHeap;
    heap_push(HeapEntry{Time::picoseconds(n.at_ps), n.seq, slot});
  }

  RRTCP_HOT void insert_far(std::uint32_t slot, detail::EventNode& n);

  // Wheel internals (simulator.cpp).
  RRTCP_HOT void wheel_link(int level, std::uint32_t slot,
                            detail::EventNode& n);
  RRTCP_HOT void wheel_unlink(detail::EventNode& n);
  RRTCP_HOT void advance_wheel_once();
  RRTCP_HOT void recompute_wheel_lb();

  RRTCP_HOT void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    // heap_ is grow-only with a reserved floor; steady-state churn stays
    // within the warmed capacity (compaction bounds it at ~2x live), so
    // growth is amortized warm-up.
    // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  RRTCP_HOT void sift_down(std::size_t i);
  RRTCP_HOT void heap_pop_top();
  // Drops stale (cancelled) entries off the top; true if a live top remains.
  RRTCP_HOT bool heap_settle_top();
  // Settles the heap against the wheel: flushes every wheel bucket that
  // could hold an event due at or before min(heap top, limit_ps), then
  // reports whether a live heap top exists. After it returns true,
  // heap_[0] is the globally next event in (at, seq) order.
  RRTCP_HOT bool settle_ready(std::int64_t limit_ps);
  // Executes the next event; caller must have settle_ready() == true.
  RRTCP_HOT void fire_next();
  RRTCP_HOT void fire_node(std::uint32_t slot, detail::EventNode& n);
  // Lazy-cancellation bookkeeping: count a newly-dead heap entry and
  // compact when the heap is mostly corpses.
  RRTCP_HOT void note_stale() {
    if (++stale_heap_ >= kCompactMin && stale_heap_ * 2 > heap_.size())
      compact_heap();
  }
  RRTCP_COLD void compact_heap();

  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<detail::EventNode[]>> chunks_;
  std::vector<std::uint32_t> free_;

  // Timer wheel: per-level bucket lists + occupancy bitmaps. wheel_now_ps_
  // is the monotone "flushed up to" horizon (>= bucket start of everything
  // already moved to the heap, <= every event still in the wheel);
  // wheel_lb_ps_ caches a lower bound on the earliest wheel event (exact
  // after a flush; may be stale-low after cancellations, which only costs
  // a spurious flush, never a missed event).
  std::uint32_t wheel_head_[kWheelLevels][kWheelSlots];
  std::uint32_t wheel_tail_[kWheelLevels][kWheelSlots];
  std::uint64_t wheel_bits_[kWheelLevels] = {};
  std::int64_t wheel_now_ps_ = 0;
  std::int64_t wheel_lb_ps_ = kMaxPs;
  std::size_t wheel_count_ = 0;
  bool wheel_enabled_ = true;

  std::size_t stale_heap_ = 0;
  std::uint64_t live_events_ = 0;

  Time now_ = Time::zero();
  // Seq of the event firing (or last fired) at now_; see passed().
  std::uint64_t cur_seq_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t fallback_allocs_ = 0;
  bool stopped_ = false;
};

inline bool EventHandle::cancel() {
  return sim_ != nullptr && sim_->cancel_event(slot_, seq_);
}

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->event_pending(slot_, seq_);
}

}  // namespace rrtcp::sim
