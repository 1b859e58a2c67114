// Discrete-event simulation kernel.
//
// A Simulation owns the virtual clock and a 4-ary-heap event queue. Events
// are closures scheduled at absolute or relative times; ties dispatch in
// scheduling order (FIFO), which the rest of the platform relies on for
// determinism.
//
// Storage is split: callbacks live in a slab and the heap orders compact
// 24-byte {when, seq, slot} entries. That makes cancel() a true O(1) slab
// store (no scan, no heap surgery — the entry is dropped lazily at pop
// time) and keeps sifts small: a heap move shifts 24 bytes instead of a
// whole closure, which matters because dispatch cost dominates
// 10^8-event runs.
//
// The event path never relocates a closure. The slab is a list of
// geometrically growing chunks, so a slot's address is stable for its
// whole life;
// schedule_at() builds the closure directly in its slot
// (InlineCallback::emplace), and dispatch runs it there and recycles the
// slot only after it returns. Callbacks may therefore schedule any number
// of events — growing the slab by whole chunks — while they run.
//
// The kernel itself is single-threaded: one Simulation is one logical
// timeline and must only ever be driven from one thread at a time. The
// parallel engine (src/engine) runs K independent Simulations — one per
// shard — and merges cross-shard traffic deterministically; see
// engine/engine.hpp for the synchronization protocol, which uses
// next_event_time() / advance_to() / run_before() to interleave a shard's
// heap with its cross-shard ingress.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "metrics/registry.hpp"
#include "sim/inline_callback.hpp"

namespace p2plab::sim {

/// Handle identifying a scheduled event; valid until the event fires or is
/// cancelled. The default-constructed id is "invalid" and safe to cancel.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return seq_ != 0; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class Simulation;
  constexpr EventId(std::uint64_t seq, std::uint32_t slot)
      : seq_(seq), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class Simulation {
 public:
  /// Event closures are small-buffer-optimized and move-only; typical
  /// captures (a few pointers + a packet handle) never touch the
  /// allocator. Oversized captures still work — they fall back to the
  /// heap and tick sim.alloc.callback_heap_fallbacks.
  using Callback = InlineCallback;

  /// Slots in the first slab chunk; chunk c holds kFirstChunkSlots << c
  /// slots, so the slab grows geometrically like a vector but never moves
  /// a slot. Small, so that a short-lived simulation costs one small
  /// allocation.
  static constexpr std::uint32_t kFirstChunkShift = 8;
  static constexpr std::uint32_t kFirstChunkSlots = 1u << kFirstChunkShift;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation() {
    for (std::uint32_t i = 0; i < slab_size_; ++i) slot(i).~Slot();
  }

  SimTime now() const { return now_; }

  /// Schedule `f` at absolute time `when` (>= now). `f` is any void()
  /// callable, or a Callback; it is constructed in place in its slot.
  template <typename F>
  EventId schedule_at(SimTime when, F&& f) {
    P2PLAB_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    const std::uint64_t seq = ++next_seq_;
    const std::uint32_t index = acquire_slot();
    Slot& s = slot(index);
    s.seq = seq;
    s.cancelled = false;
    s.cb.emplace(std::forward<F>(f));
    if (s.cb.on_heap()) metrics_.callback_heap_fallbacks.inc();
    push_heap(HeapEntry{when, seq, index});
    ++live_events_;
    metrics_.scheduled.inc();
    return EventId{seq, index};
  }

  /// Schedule `f` after a relative delay (>= 0).
  template <typename F>
  EventId schedule_after(Duration delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Cancel a pending event in O(1): the slab slot is flagged and the heap
  /// entry is discarded when it reaches the top. Returns true if the event
  /// was still pending. Safe to call with an invalid/fired/already-cancelled
  /// id (slot recycling is disambiguated by the sequence number).
  bool cancel(EventId id) {
    if (!id.valid() || id.slot_ >= slab_size_) return false;
    Slot& s = slot(id.slot_);
    if (s.seq != id.seq_ || s.cancelled) return false;
    s.cancelled = true;
    s.cb = nullptr;  // release captures promptly
    --live_events_;
    metrics_.cancelled.inc();
    return true;
  }

  /// Number of pending (non-cancelled) events.
  size_t pending_events() const { return live_events_; }

  /// Total events dispatched so far.
  std::uint64_t dispatched_events() const { return dispatched_; }

  /// Time of the next pending event, skipping cancelled entries; nullopt if
  /// the queue is empty.
  std::optional<SimTime> next_event_time() {
    prune_cancelled_top();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().when;
  }

  /// Advance the clock without running events. Used by the parallel engine
  /// to move a quiescent shard to a window boundary (and by tests); all
  /// pending events must lie at or after `t`.
  void advance_to(SimTime t) {
    P2PLAB_ASSERT_MSG(t >= now_, "cannot advance the clock backwards");
    now_ = t;
  }

  /// Run one event. Returns false if the queue is empty.
  bool step() {
    while (!heap_.empty()) {
      if (dispatch_front()) return true;
    }
    return false;
  }

  /// Run until the queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Run until the clock would pass `deadline`; the clock is left at
  /// min(deadline, time of last event). Events at exactly `deadline` run.
  void run_until(SimTime deadline) {
    // A cancelled top entry past the deadline ends the loop too: every
    // live event lies at or after it.
    while (!heap_.empty() && heap_.front().when <= deadline) dispatch_front();
    if (now_ < deadline) now_ = deadline;
  }

  /// Run events strictly before `end`; the clock is NOT advanced to `end`
  /// (the parallel engine owns window-boundary clock advancement).
  void run_before(SimTime end) {
    while (!heap_.empty() && heap_.front().when < end) dispatch_front();
  }

  /// Run while `predicate()` is true and events remain.
  void run_while(const std::function<bool()>& predicate) {
    while (predicate() && step()) {
    }
  }

  /// Slots currently in use or on the free list (a watermark; the gauge
  /// sim.slab.capacity counts the slots of every allocated chunk).
  size_t slab_size() const { return slab_size_; }

  /// Shrink kernel storage after a burst: recycle every cancelled heap
  /// entry, pop dead trailing slab slots, and release the chunks past the
  /// new tail. Dispatch order is untouched — the heap is rebuilt on the
  /// same (when, seq) total order — so this is safe at any quiescent
  /// point; the parallel engine calls maybe_compact() at window
  /// boundaries, where each shard's kernel is between events by
  /// construction. Never call it from inside a callback: the running
  /// slot may be the tail.
  void compact() {
    P2PLAB_ASSERT_MSG(!dispatching_, "compact() inside a callback");
    if (compact_hook_ != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      compact_impl();
      const auto dur = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0);
      compact_hook_(compact_ctx_, static_cast<std::uint64_t>(dur.count()));
      return;
    }
    compact_impl();
  }

  /// Wall-clock observer for compact(): invoked after each compaction with
  /// the wall nanoseconds it took. A bare function pointer + context keeps
  /// the kernel dependency-free (the BSP profiler installs itself here);
  /// virtual time and event order are untouched. nullptr clears the hook.
  using CompactHook = void (*)(void* ctx, std::uint64_t wall_dur_ns);
  void set_compact_hook(CompactHook hook, void* ctx) {
    compact_hook_ = hook;
    compact_ctx_ = ctx;
  }

 private:
  void compact_impl() {
    std::erase_if(heap_, [this](const HeapEntry& e) {
      if (!slot(e.slot).cancelled) return false;
      free_slots_.push_back(e.slot);
      return true;
    });
    // A sorted array satisfies the heap invariant for any arity.
    std::sort(heap_.begin(), heap_.end(),
              [](const HeapEntry& a, const HeapEntry& b) { return a.before(b); });
    // Only trailing dead slots can be returned; interior ones must stay,
    // since live heap entries index into the slab.
    while (slab_size_ > 0 && slot(slab_size_ - 1).cancelled) {
      slot(--slab_size_).~Slot();
    }
    std::erase_if(free_slots_, [this](std::uint32_t s) {
      return s >= slab_size_;
    });
    chunks_.resize(chunks_for(slab_size_));
    if (heap_.capacity() > 2 * heap_.size()) heap_.shrink_to_fit();
    if (free_slots_.capacity() > 2 * free_slots_.size()) {
      free_slots_.shrink_to_fit();
    }
    last_compact_slots_ = slab_size_;
    metrics_.slab_capacity.set(static_cast<double>(slab_capacity()));
  }

 public:
  /// compact() when the slab is mostly dead after a burst (occupancy
  /// < 25% over at least kCompactMinSlots). The slab-size memo makes the
  /// check O(1) between growths: a compact that could not shrink (a live
  /// slot pins the tail) is not retried until the slab grows again.
  void maybe_compact() {
    if (slab_size_ >= kCompactMinSlots && live_events_ * 4 < slab_size_ &&
        slab_size_ != last_compact_slots_) {
      compact();
    }
  }

  /// Resolve kernel metrics from `reg`. Call before running: the counters
  /// count from the moment they are bound (a fresh simulation keeps
  /// `sim.events.dispatched` equal to dispatched_events()). Binding also
  /// enables the sampled dispatch-time histogram. `reg` must outlive the
  /// simulation AND its users: component teardown that cancels events
  /// still increments the bound counters.
  void bind_metrics(metrics::Registry& reg) {
    metrics_.scheduled = reg.counter("sim.events.scheduled");
    metrics_.dispatched = reg.counter("sim.events.dispatched");
    metrics_.cancelled = reg.counter("sim.events.cancelled");
    metrics_.queue_depth = reg.gauge("sim.queue.depth");
    metrics_.callback_heap_fallbacks =
        reg.counter("sim.alloc.callback_heap_fallbacks");
    metrics_.slab_capacity = reg.gauge("sim.slab.capacity");
    metrics_.slab_capacity.set(static_cast<double>(slab_capacity()));
    metrics_.dispatch_ns = reg.histogram(
        "sim.dispatch.wall_ns",
        {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000, 1000000});
    profile_dispatch_ = true;
  }

 private:
  /// Slab cell: the closure plus the seq that disambiguates slot reuse.
  struct Slot {
    std::uint64_t seq = 0;
    Callback cb;
    bool cancelled = false;
  };

  /// Compact heap entry; ordering key only, so sift swaps stay cheap.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq = 0;  // tie-break: FIFO among same-time events
    std::uint32_t slot = 0;

    bool before(const HeapEntry& other) const {
      if (when != other.when) return when < other.when;
      return seq < other.seq;
    }
  };

  // Slot i lives in chunk c = floor(log2(i + kFirstChunkSlots)) -
  // kFirstChunkShift, at offset i + kFirstChunkSlots - 2^(c +
  // kFirstChunkShift). Chunks are raw storage: a slot is constructed only
  // once the slab reaches it, so an untouched tail never becomes resident.
  static_assert(alignof(Slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  void* slot_storage(std::uint32_t i) {
    const std::uint32_t j = i + kFirstChunkSlots;
    const auto top = static_cast<std::uint32_t>(std::bit_width(j)) - 1;
    return chunks_[top - kFirstChunkShift].get() +
           sizeof(Slot) * (j - (1u << top));
  }
  Slot& slot(std::uint32_t i) {
    return *std::launder(static_cast<Slot*>(slot_storage(i)));
  }

  /// Chunks holding slots [0, n).
  static size_t chunks_for(std::uint32_t n) {
    if (n == 0) return 0;
    return static_cast<size_t>(std::bit_width(n - 1 + kFirstChunkSlots)) -
           kFirstChunkShift;
  }

  size_t slab_capacity() const {
    return size_t{kFirstChunkSlots} * ((size_t{1} << chunks_.size()) - 1);
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t index = free_slots_.back();
      free_slots_.pop_back();
      return index;
    }
    if (slab_size_ == slab_capacity()) {
      chunks_.push_back(std::make_unique_for_overwrite<unsigned char[]>(
          sizeof(Slot) * (size_t{kFirstChunkSlots} << chunks_.size())));
      metrics_.slab_capacity.set(static_cast<double>(slab_capacity()));
    }
    const std::uint32_t index = slab_size_++;
    ::new (slot_storage(index)) Slot{};
    return index;
  }

  /// Pop the heap top and run it in place if it is live. Returns false if
  /// it was a cancelled entry (recycled, nothing run).
  bool dispatch_front() {
    const HeapEntry top = pop_top();
    Slot& s = slot(top.slot);
    if (s.cancelled) {
      free_slots_.push_back(top.slot);
      return false;
    }
    P2PLAB_ASSERT(top.when >= now_);
    now_ = top.when;
    // Dead to cancel() from here on, but off the free list until the
    // callback returns: events it schedules take other slots, so it runs
    // from storage nothing else writes.
    s.cancelled = true;
    --live_events_;
    ++dispatched_;
    metrics_.dispatched.inc();
    metrics_.queue_depth.set(static_cast<double>(live_events_));
    dispatching_ = true;
    if (profile_dispatch_ &&
        (dispatched_ & (kDispatchSamplePeriod - 1)) == 0) {
      // Wall-clock one callback in kDispatchSamplePeriod: the histogram
      // stays representative while the two clock reads are amortized to
      // noise on the 10^8-event hot path.
      const auto t0 = std::chrono::steady_clock::now();
      s.cb();
      const auto t1 = std::chrono::steady_clock::now();
      metrics_.dispatch_ns.record(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    } else {
      s.cb();
    }
    dispatching_ = false;
    s.cb = nullptr;
    free_slots_.push_back(top.slot);
    return true;
  }

  // 4-ary heap: half the depth of a binary heap and fewer cache misses,
  // which matters because dispatch cost dominates 10^8-event runs. Sifts
  // move a hole instead of swapping: one entry write per level.
  static constexpr size_t kArity = 4;

  void push_heap(const HeapEntry e) {
    size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!e.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  HeapEntry pop_top() {
    P2PLAB_ASSERT(!heap_.empty());
    const HeapEntry top = heap_.front();
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) return top;
    size_t i = 0;
    for (;;) {
      const size_t first_child = kArity * i + 1;
      if (first_child >= n) break;
      const size_t last_child = std::min(first_child + kArity, n);
      size_t smallest = first_child;
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (heap_[c].before(heap_[smallest])) smallest = c;
      }
      if (!heap_[smallest].before(last)) break;
      heap_[i] = heap_[smallest];
      i = smallest;
    }
    heap_[i] = last;
    return top;
  }

  /// Drop cancelled entries off the heap top so front() is a live event.
  void prune_cancelled_top() {
    while (!heap_.empty() && slot(heap_.front().slot).cancelled) {
      free_slots_.push_back(pop_top().slot);
    }
  }

  // Kernel instrumentation. Default handles write to no-op sinks, so an
  // unbound simulation pays two dead stores per event and no branches.
  struct KernelMetrics {
    metrics::Counter scheduled;
    metrics::Counter dispatched;
    metrics::Counter cancelled;
    metrics::Counter callback_heap_fallbacks;
    metrics::Gauge queue_depth;
    metrics::Gauge slab_capacity;
    metrics::Histogram dispatch_ns;
  };
  static constexpr std::uint64_t kDispatchSamplePeriod = 64;
  static constexpr size_t kCompactMinSlots = 1024;

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  size_t live_events_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::uint32_t slab_size_ = 0;  // slots [0, slab_size_) are constructed
  std::vector<std::uint32_t> free_slots_;
  size_t last_compact_slots_ = 0;
  KernelMetrics metrics_;
  bool profile_dispatch_ = false;
  bool dispatching_ = false;
  CompactHook compact_hook_ = nullptr;
  void* compact_ctx_ = nullptr;
};

/// A repeating task: reschedules itself every `period` until stopped.
/// Holds no ownership of the simulation; stop() before destroying it if the
/// simulation outlives this object.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Start firing `cb` every `period`, first at now+`initial_delay`.
  void start(Simulation& sim, Duration period, Duration initial_delay,
             Simulation::Callback cb) {
    P2PLAB_ASSERT(period > Duration::zero());
    stop();
    sim_ = &sim;
    period_ = period;
    cb_ = std::move(cb);
    arm(initial_delay);
  }

  void stop() {
    if (sim_ != nullptr) sim_->cancel(pending_);
    pending_ = EventId{};
    sim_ = nullptr;
  }

  bool running() const { return sim_ != nullptr; }

  ~PeriodicTask() { stop(); }

 private:
  void arm(Duration delay) {
    pending_ = sim_->schedule_after(delay, [this] {
      // Re-arm first so cb_ may call stop() to end the cycle.
      arm(period_);
      cb_();
    });
  }

  Simulation* sim_ = nullptr;
  Duration period_ = Duration::zero();
  EventId pending_;
  Simulation::Callback cb_;
};

}  // namespace p2plab::sim
