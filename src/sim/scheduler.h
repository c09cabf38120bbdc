// Discrete-event scheduler.
//
// The scheduler is the heart of the simulator: every link transmission,
// timer expiry, application arrival, and sampler tick is an event. Events
// with equal timestamps fire in insertion order (FIFO tie-break on a
// monotonically increasing sequence number), which makes simulations fully
// deterministic for a fixed seed.
//
// Engineering notes (see docs/perf.md): events live in an indexed 4-ary
// heap (src/sim/event_heap.h) so Cancel is a true O(log n) removal — no
// tombstone set that grows with every cancelled retransmission timer — and
// callbacks are small-buffer-optimized move-only callables
// (src/sim/inplace_function.h), so scheduling an event performs zero heap
// allocations.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>

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
  // is the id of an event that has already fired or been cancelled.
  using EventId = EventHeap<Callback>::Handle;

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
    return heap_.Push(t, ++next_seq_, std::forward<F>(cb));
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
    return heap_.Push(t, ++next_seq_, std::forward<F>(cb), /*daemon=*/true);
  }

  // Cancels a pending user or daemon event. Returns true if the event was
  // still pending. Cancelling an already-fired, already-cancelled, or
  // invalid id is a no-op.
  bool Cancel(EventId id) { return heap_.Remove(id); }

  // Number of pending (non-cancelled) user events. Daemon events are
  // infrastructure (PeriodicTimer ticks) and are excluded, so
  // "no leaked timers" assertions keep working with the auditor enabled.
  size_t pending() const { return heap_.size() - heap_.daemon_size(); }

  // Number of pending events including daemons.
  size_t pending_total() const { return heap_.size(); }

  // Number of pending daemon events.
  size_t daemon_pending() const { return heap_.daemon_size(); }

  // Total number of events executed so far.
  uint64_t executed() const { return executed_; }

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

  // Runtime-auditor hook: structural validation of the event heap plus the
  // clock/queue relationship (no pending event may be in the past).
  void AuditInvariants(Auditor& audit) const {
    if (!heap_.empty()) {
      audit.CheckGe(heap_.top_time(), now_, "no pending event in the past");
    }
    heap_.AuditInvariants(audit);
  }

 private:
  // Pops and runs the earliest event if its time is <= limit.
  // Returns false when there is nothing eligible left; in drain mode a
  // queue holding only daemon events counts as drained (their times are
  // always > now_ here — an eligible daemon would have been popped on an
  // earlier iteration).
  bool PopAndRunOne(TimeNs limit, bool drain_mode) {
    if (heap_.empty() || heap_.top_time() > limit ||
        (drain_mode && heap_.size() == heap_.daemon_size())) {
      return false;
    }
    TimeNs t;
    Callback cb = heap_.Pop(&t);
    TFC_DCHECK_GE(t, now_);
    now_ = t;
    ++executed_;
    cb();
    return true;
  }

  EventHeap<Callback> heap_;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace tfc

#endif  // SRC_SIM_SCHEDULER_H_
