// Timers built on the scheduler.
//
// Timer is the one-shot restartable timer: retransmission timeouts and
// delayed actions. It owns its pending event: destroying or restarting it
// cancels any outstanding expiry, so callbacks never fire on dead objects as
// long as the Timer member outlives the scheduler run (the usual composition
// is a Timer field inside the object whose method it calls).
//
// PeriodicTimer is the one periodic primitive: the telemetry recorder, the
// liveness watchdog, the network's audit tick and bench-side samplers all
// tick through it. Its ticks are daemon events, so a running PeriodicTimer
// never keeps drain-mode Run() alive and is excluded from pending().

#ifndef SRC_SIM_TIMER_H_
#define SRC_SIM_TIMER_H_

#include <utility>

#include "src/sim/inplace_function.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace tfc {

class Timer {
 public:
  using Callback = InplaceFunction<void(), kDefaultInplaceCapacity>;

  Timer(Scheduler* scheduler, Callback cb)
      : scheduler_(scheduler), cb_(std::move(cb)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { Cancel(); }

  // (Re)arms the timer to fire `delay` from now. Cancels any pending expiry.
  void RestartAfter(TimeNs delay) {
    Cancel();
    expiry_ = scheduler_->now() + delay;
    id_ = scheduler_->ScheduleAt(expiry_, [this] {
      id_ = {};
      cb_();
    });
  }

  void Cancel() {
    if (id_.valid()) {
      scheduler_->Cancel(id_);
      id_ = {};
    }
  }

  bool pending() const { return id_.valid(); }

  // Absolute expiry time of the last arming (meaningful while pending()).
  TimeNs expiry() const { return expiry_; }

 private:
  Scheduler* scheduler_;
  Callback cb_;
  Scheduler::EventId id_;
  TimeNs expiry_ = 0;
};

// Fixed-interval periodic callback on daemon events. Start() or Stop()
// called from inside the callback is honoured; the destructor cancels.
class PeriodicTimer {
 public:
  using Callback = InplaceFunction<void(), kDefaultInplaceCapacity>;

  PeriodicTimer(Scheduler* scheduler, Callback cb)
      : scheduler_(scheduler), cb_(std::move(cb)) {}

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  ~PeriodicTimer() { Stop(); }

  // (Re)starts ticking every `interval`, first tick at now + interval
  // (or now + first_delay when given). Cancels any pending tick.
  void Start(TimeNs interval) { Start(interval, interval); }
  void Start(TimeNs interval, TimeNs first_delay) {
    Stop();
    interval_ = interval;
    running_ = true;
    Arm(first_delay);
  }

  void Stop() {
    running_ = false;
    scheduler_->Cancel(id_);  // fired/invalid ids are safe no-ops
    id_ = {};
  }

  // Changes the cadence without re-arming: the pending tick keeps its time
  // and the new interval applies from the re-arm after it.
  void set_interval(TimeNs interval) { interval_ = interval; }

  bool running() const { return running_; }

 private:
  void Arm(TimeNs delay) {
    id_ = scheduler_->ScheduleDaemonAfter(delay, [this] { Fire(); });
  }

  void Fire() {
    id_ = {};
    cb_();
    // The callback may have called Stop() (running_ is false) or Start()
    // with a new cadence (a tick is pending again and must not be doubled).
    if (running_ && !id_.valid()) {
      Arm(interval_);
    }
  }

  Scheduler* scheduler_;
  Callback cb_;
  Scheduler::EventId id_;
  TimeNs interval_ = 0;
  bool running_ = false;
};

}  // namespace tfc

#endif  // SRC_SIM_TIMER_H_
