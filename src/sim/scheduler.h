// Discrete-event scheduler.
//
// The scheduler is the heart of the simulator: every link transmission,
// timer expiry, application arrival, and sampler tick is an event. Events
// with equal timestamps fire in insertion order (FIFO tie-break on a
// monotonically increasing sequence number), which makes simulations fully
// deterministic for a fixed seed.
//
// Engineering notes (see docs/perf.md): events live in indexed 4-ary heaps
// (src/sim/event_heap.h) so Cancel is a true O(log n) removal — no
// tombstone set that grows with every cancelled retransmission timer — and
// callbacks are small-buffer-optimized move-only callables
// (src/sim/inplace_function.h), so scheduling an event performs zero heap
// allocations.
//
// Two time tiers. A schedule call due within kNearHorizon of now() goes to
// the near heap (serialization, propagation, host departures, TFC release
// timers); a later one goes to the far heap (retransmission, probe-retry
// and failover timers, recorder and audit ticks). The tier is chosen once
// and an event never migrates. Both heaps order by the same (time, seq)
// key, with seq drawn once per schedule call, and Pop takes the earlier of
// the two tops by that key, so the firing order is the single-heap total
// order whatever kNearHorizon is. The gain: the hundreds of pending
// retransmission timers that almost never fire no longer sit in the heap
// every packet event sifts through.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <initializer_list>

#include "src/sim/audit.h"
#include "src/sim/check.h"
#include "src/sim/event_heap.h"
#include "src/sim/inplace_function.h"
#include "src/sim/time.h"

namespace tfc {

class Scheduler {
 public:
  using Callback = InplaceFunction<void(), kDefaultInplaceCapacity>;

  // Handle for a scheduled event; can be used to cancel it before it fires.
  // A default-constructed EventId is invalid and safe to Cancel (no-op), as
  // is the id of an event that has already fired or been cancelled. A far
  // event's id carries kFarBit in its record index, which EventHeap keeps
  // spare, so the id stays 8 bytes.
  using EventId = EventHeap<Callback>::Handle;

  // Events due at most this far past now() when scheduled go to the near
  // tier. Any value gives the same firing order; this one keeps the packet
  // and arbiter events together and the 200 ms retransmission timers out.
  static constexpr TimeNs kNearHorizon = Microseconds(100);

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimeNs now() const { return now_; }

  // Schedules `cb` to run at absolute time `t` (must be >= now()). Takes
  // the callable itself (not a pre-built Callback) so it can be constructed
  // directly in the event heap's callback slab.
  template <typename F>
  EventId ScheduleAt(TimeNs t, F&& cb) {
    TFC_CHECK_GE(t, now_);
    return Push(t, std::forward<F>(cb), /*daemon=*/false);
  }

  // Schedules `cb` to run `delay` nanoseconds from now (delay >= 0).
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& cb) {
    return ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  // Schedules a *daemon* event: it fires like any other event inside
  // Run()/RunUntil(), but does not keep Run() alive — drain-mode Run()
  // returns as soon as only daemon events remain pending. PeriodicTimer
  // (src/sim/timer.h) ticks on these, which is what lets the periodic
  // invariant auditor, the telemetry recorder and the liveness watchdog
  // coexist with tests that run the simulation to completion. The heap
  // flags the event as a daemon, so plain Cancel removes it like any other.
  template <typename F>
  EventId ScheduleDaemonAfter(TimeNs delay, F&& cb) {
    const TimeNs t = now_ + delay;
    TFC_CHECK_GE(t, now_);
    return Push(t, std::forward<F>(cb), /*daemon=*/true);
  }

  // Cancels a pending user or daemon event. Returns true if the event was
  // still pending. Cancelling an already-fired, already-cancelled, or
  // invalid id is a no-op. (A default id's index is all ones: it reads as
  // far record 2^31 - 1, which EventHeap never allocates, so Remove rejects
  // it.)
  bool Cancel(EventId id) {
    if ((id.index & kFarBit) != 0) {
      return far_.Remove(EventId{id.index & ~kFarBit, id.gen});
    }
    return near_.Remove(id);
  }

  // Number of pending (non-cancelled) user events. Daemon events are
  // infrastructure (PeriodicTimer ticks) and are excluded, so
  // "no leaked timers" assertions keep working with the auditor enabled.
  size_t pending() const { return pending_total() - daemon_pending(); }

  // Number of pending events including daemons.
  size_t pending_total() const { return near_.size() + far_.size(); }

  // Number of pending daemon events.
  size_t daemon_pending() const { return near_.daemon_size() + far_.daemon_size(); }

  // Total number of events executed so far.
  uint64_t executed() const { return executed_; }

  // Heap levels walked by every sift in both tiers: a deterministic work
  // counter for the queue, independent of host speed.
  uint64_t heap_sift_levels() const { return near_.sift_levels() + far_.sift_levels(); }

  // Runs until the event queue drains (daemon events excepted) or Stop()
  // is called.
  void Run() {
    stopped_ = false;
    while (!stopped_ && PopAndRunOne(/*limit=*/INT64_MAX, /*drain_mode=*/true)) {
    }
  }

  // Runs all events with timestamp <= t, then advances the clock to t.
  void RunUntil(TimeNs t) {
    TFC_CHECK_GE(t, now_);
    stopped_ = false;
    while (!stopped_ && PopAndRunOne(t, /*drain_mode=*/false)) {
    }
    if (!stopped_ && now_ < t) {
      now_ = t;
    }
  }

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  // Runtime-auditor hook: structural validation of both tiers' heaps plus
  // the clock/queue relationship (no pending event may be in the past).
  void AuditInvariants(Auditor& audit) const {
    for (const Heap* heap : {&near_, &far_}) {
      if (!heap->empty()) {
        audit.CheckGe(heap->top_time(), now_, "no pending event in the past");
      }
      heap->AuditInvariants(audit);
    }
  }

 private:
  using Heap = EventHeap<Callback>;
  static constexpr uint32_t kFarBit = 0x80000000u;

  // Two call sites, not one through a heap reference: each inlines against
  // a fixed member, which measured faster on tfcbench's incast.
  template <typename F>
  EventId Push(TimeNs t, F&& cb, bool daemon) {
    const uint64_t seq = ++next_seq_;
    if (t - now_ <= kNearHorizon) {
      return near_.Push(t, seq, std::forward<F>(cb), daemon);
    }
    EventId id = far_.Push(t, seq, std::forward<F>(cb), daemon);
    id.index |= kFarBit;
    return id;
  }

  // The tier whose top comes first by (time, seq); both must be non-empty
  // for the seq compare, so a lone tier wins outright.
  Heap& EarliestTier() {
    if (far_.empty()) {
      return near_;
    }
    if (near_.empty()) {
      return far_;
    }
    const TimeNs near_t = near_.top_time();
    const TimeNs far_t = far_.top_time();
    const bool near_first =
        near_t != far_t ? near_t < far_t : near_.top_seq() < far_.top_seq();
    return near_first ? near_ : far_;
  }

  // Pops and runs the earliest event if its time is <= limit.
  // Returns false when there is nothing eligible left; in drain mode a
  // queue holding only daemon events counts as drained (their times are
  // always > now_ here — an eligible daemon would have been popped on an
  // earlier iteration).
  bool PopAndRunOne(TimeNs limit, bool drain_mode) {
    Heap& heap = EarliestTier();
    if (heap.empty() || heap.top_time() > limit || (drain_mode && pending() == 0)) {
      return false;
    }
    TimeNs t;
    Callback cb = heap.Pop(&t);
    TFC_DCHECK_GE(t, now_);
    now_ = t;
    ++executed_;
    cb();
    return true;
  }

  Heap near_;  // due within kNearHorizon of now() when scheduled
  Heap far_;   // everything later
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace tfc

#endif  // SRC_SIM_SCHEDULER_H_
