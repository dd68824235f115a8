// Inline-storage callable for the event pool.
//
// std::function keeps its target behind a pointer it may heap-allocate
// and adds a manager call to every copy and destroy. SmallFn instead gives
// every pooled event node a fixed inline buffer of kEventInlineBytes, sized
// for the largest hot-path capture (one pointer); only oversized captures
// fall back to the heap, and that fallback is counted so the perf harness
// can assert it never happens on the forwarding path.
//
// This header stays C++17-clean: the rrtcp-smallfn-inline clang-tidy
// plugin includes it for kEventInlineBytes.
//
// SmallFn is deliberately neither copyable nor movable: instances live in
// stable pool slots (sim/simulator.hpp) and are emplaced/reset in place.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/hot.hpp"

namespace rrtcp::sim {

// Inline capture budget per pooled event (sim/simulator.hpp): two words.
// The largest capture left in src/ is one pointer ({this} of a DelayLine,
// a Link release or a timer; {&sender} of an FTP start), and the buffer
// is aligned to max_align_t, 16 bytes, either way. Packets never ride in
// an event — a packet that waits on the clock waits in a net::DelayLine —
// and that is what lets the event slot shrink to one cache line. The
// rrtcp-smallfn-inline lint holds every schedule call site to this budget
// (and flags any Packet capture), and callback_heap_fallbacks() == 0 is
// asserted by the alloc-regression tests, so forwarding stays
// allocation-free.
inline constexpr std::size_t kEventInlineBytes = 16;

template <std::size_t InlineBytes>
class SmallFn {
 public:
  SmallFn() = default;
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  // True when a decayed `F` stores in the inline buffer (no allocation).
  template <typename F>
  static constexpr bool fits_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= InlineBytes && alignof(D) <= alignof(std::max_align_t);
  }

  // Installs a new callable, destroying any previous one. Returns true if
  // the callable was stored inline (false = heap fallback).
  template <typename F>
  RRTCP_HOT bool emplace(F&& fn) {
    reset();
    using D = std::decay_t<F>;
    if constexpr (fits_inline<F>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      consume_ = [](SmallFn* self) {
        D* t = self->inline_target<D>();
        (*t)();
        t->~D();
      };
      destroy_ = [](SmallFn* self) { self->inline_target<D>()->~D(); };
      return true;
    } else {
      // The counted escape hatch for oversized captures.
      // rrtcp-smallfn-inline flags the offending call site, and
      // callback_heap_fallbacks() == 0 is asserted by the alloc-regression
      // tests, so this branch is dead on the hot path.
      // NOLINTNEXTLINE(rrtcp-hot-path-alloc)
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      consume_ = [](SmallFn* self) {
        D* t = *self->inline_target<D*>();
        (*t)();
        delete t;
      };
      destroy_ = [](SmallFn* self) { delete *self->inline_target<D*>(); };
      return false;
    }
  }

  // Destroys the stored callable (releasing captured resources eagerly).
  RRTCP_HOT void reset() {
    if (destroy_ != nullptr) {
      destroy_(this);
      destroy_ = nullptr;
      consume_ = nullptr;
    }
  }

  // Invokes the stored callable and destroys it afterwards — one indirect
  // call instead of operator() + reset(). An event fires exactly once, so
  // the scheduler's hot path never needs invoke and destroy separately.
  // The callable must not touch this SmallFn re-entrantly (the scheduler
  // guarantees that: the slot's seq is consumed before the call, so a
  // self-cancel is a no-op and the slot cannot be re-emplaced mid-call).
  RRTCP_HOT void consume() {
    auto f = consume_;
    consume_ = nullptr;
    destroy_ = nullptr;
    f(this);
  }

  explicit operator bool() const { return consume_ != nullptr; }

 private:
  template <typename D>
  D* inline_target() {
    return std::launder(reinterpret_cast<D*>(buf_));
  }

  static_assert(InlineBytes >= sizeof(void*),
                "the buffer must hold the heap fallback's pointer");

  void (*consume_)(SmallFn*) = nullptr;
  void (*destroy_)(SmallFn*) = nullptr;
  // The callable itself, or for an oversized one a pointer to its heap copy.
  alignas(std::max_align_t) unsigned char buf_[InlineBytes];
};

// SmallFn's repeat-invocable sibling: a stored callback with arguments that
// may fire any number of times (completion/notify hooks), still inline-only
// and non-copyable. Unlike SmallFn there is NO heap fallback — emplace()
// static_asserts the capture fits, so a SmallCallable member is
// allocation-free by construction, not by convention.
template <typename Sig, std::size_t InlineBytes>
class SmallCallable;

template <typename R, typename... Args, std::size_t InlineBytes>
class SmallCallable<R(Args...), InlineBytes> {
 public:
  SmallCallable() = default;
  SmallCallable(const SmallCallable&) = delete;
  SmallCallable& operator=(const SmallCallable&) = delete;
  ~SmallCallable() { reset(); }

  // True when a decayed `F` stores in the inline buffer.
  template <typename F>
  static constexpr bool fits_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= InlineBytes && alignof(D) <= alignof(std::max_align_t);
  }

  // Installs a new callable, destroying any previous one. Oversized
  // captures are a compile error — widen InlineBytes at the member, don't
  // silently allocate.
  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(fits_inline<F>(),
                  "capture exceeds SmallCallable's inline buffer");
    reset();
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
    invoke_ = [](SmallCallable* self, Args... args) -> R {
      return (*self->inline_target<D>())(std::forward<Args>(args)...);
    };
    destroy_ = [](SmallCallable* self) { self->inline_target<D>()->~D(); };
  }

  void reset() {
    if (destroy_ != nullptr) {
      destroy_(this);
      destroy_ = nullptr;
      invoke_ = nullptr;
    }
  }

  // Invoke the stored callable; it stays installed (unlike SmallFn's
  // consume()). The callable may reset() or re-emplace() this object only
  // after returning.
  R operator()(Args... args) {
    return invoke_(this, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  template <typename D>
  D* inline_target() {
    return std::launder(reinterpret_cast<D*>(buf_));
  }

  R (*invoke_)(SmallCallable*, Args...) = nullptr;
  void (*destroy_)(SmallCallable*) = nullptr;
  alignas(std::max_align_t) unsigned char buf_[InlineBytes];
};

}  // namespace rrtcp::sim
