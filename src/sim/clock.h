// The clock seam: virtual time for deterministic simulation, monotonic host time for the
// real-threads execution mode.
//
// Every cost in the reproduction (syscall entry, command decode, disk service, ...) is charged
// to a clock instead of being measured ad hoc. Components that the paper runs as kernel
// threads (the security checker, the pageout daemon) and asynchronous completions (disk
// write-back) are modelled as scheduled events that fire when time passes their deadline.
//
// Two implementations sit behind the Clock interface:
//   * VirtualClock — the deterministic discrete-event clock. Advance() moves time and fires
//     due events inline; two runs of the same inputs are bit-for-bit identical.
//   * RealClock — a monotonic wall clock for ExecMode::kRealThreads. Advance() is a no-op
//     (real time passes by itself); scheduled events are held in a mutex-protected deadline
//     queue and fired by explicit PollDue() calls from whoever owns the affected state.
//
// Hot paths that charge per-command costs keep a raw `VirtualClock*` (null in real mode) so
// the deterministic mode pays no virtual dispatch: see KernelContext::Charge() in
// mach/kernel.h.
//
// Both clocks keep their events in one EventQueue, a binary min-heap in a vector, so at
// steady state scheduling and firing an event allocate nothing (DESIGN.md §7).
#ifndef HIPEC_SIM_CLOCK_H_
#define HIPEC_SIM_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace hipec::sim {

// Virtual nanoseconds. Signed so that subtraction of timestamps is safe.
using Nanos = int64_t;

constexpr Nanos kMicrosecond = 1'000;
constexpr Nanos kMillisecond = 1'000'000;
constexpr Nanos kSecond = 1'000'000'000;

// How the kernel executes: the deterministic single-threaded reference mode on a
// VirtualClock, or real concurrent threads on a RealClock with real locks.
enum class ExecMode {
  kDeterministic,  // one thread, virtual time, locks compiled to no-ops, bit-for-bit runs
  kRealThreads,    // N threads, monotonic time, real mutexes under the documented hierarchy
};

// The seam both clocks implement. Deadline-queue semantics are shared: events fire in
// (deadline, scheduling order); a callback may schedule or cancel events but must not advance
// time itself.
//
// A callback on the fault path must capture at most 16 trivially copyable bytes (`this` and
// one pointer, say): libstdc++ then stores it inside the std::function instead of on the
// heap. tests/fault_path_alloc_test.cc holds the fault path to zero allocations.
class Clock {
 public:
  using EventId = uint64_t;
  using Callback = std::function<void()>;

  virtual ~Clock() = default;

  // Current time in nanoseconds (virtual, or monotonic since construction).
  virtual Nanos now() const = 0;

  // Charges `delta` ns of modelled cost. Virtual mode: moves time forward, firing due events.
  // Real mode: no-op — host time passes on its own and modelled costs are not re-charged.
  virtual void Advance(Nanos delta) = 0;

  // Moves time forward to `when` if it is in the future; no-op otherwise (and always a no-op
  // on a real clock).
  virtual void AdvanceTo(Nanos when) = 0;

  // Schedules `fn` to run at absolute time `when` (>= now()). Returns an id usable with
  // Cancel(). `label`, a string literal, names the event in error messages.
  virtual EventId ScheduleAt(Nanos when, Callback fn, const char* label = "") = 0;

  // Schedules `fn` to run `delta` ns from now.
  virtual EventId ScheduleAfter(Nanos delta, Callback fn, const char* label = "") = 0;

  // Cancels a pending event. Returns false if it already fired or was never scheduled.
  virtual bool Cancel(EventId id) = 0;

  // Number of events still pending.
  virtual size_t pending_events() const = 0;

  // Deadline of the earliest pending event, or -1 if none.
  virtual Nanos next_deadline() const = 0;

  // True for VirtualClock: same inputs, same outputs, single thread.
  virtual bool deterministic() const = 0;

  // Real clocks: fires events whose deadline has passed (all pending events when
  // `fire_all`), in deadline order, on the calling thread; returns the number fired. The
  // caller must hold whatever lock protects the state the callbacks touch. Virtual clocks
  // fire events from Advance()/AdvanceTo() instead and return 0 here.
  virtual size_t PollDue(bool fire_all = false) {
    (void)fire_all;
    return 0;
  }
};

// The deadline queue behind both clocks: a binary min-heap on (deadline, id) in one vector.
// Ids are issued in scheduling order, so same-deadline events fire in the order they were
// scheduled. The vector only grows, to the high-water mark of pending events. Not
// synchronized; RealClock guards its queue with its own mutex.
class EventQueue {
 public:
  struct Event {
    Nanos deadline = 0;
    Clock::EventId id = 0;
    Clock::Callback fn;
  };

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  // Deadline of the earliest event, or INT64_MAX when there is none.
  Nanos earliest() const { return heap_.empty() ? INT64_MAX : heap_.front().deadline; }

  Clock::EventId Push(Nanos when, Clock::Callback fn);
  // Removes and returns the earliest event; the queue must not be empty.
  Event Pop();
  // Removes a pending event: a linear search, then a re-heap. False if `id` is not pending.
  bool Cancel(Clock::EventId id);

 private:
  std::vector<Event> heap_;
  Clock::EventId next_id_ = 1;
};

// The deterministic discrete-event clock.
//
// The "foreground" computation (an application touching memory, the kernel handling a fault)
// advances the clock with Advance(); any events whose deadline is crossed fire, in deadline
// order, before Advance() returns. Event callbacks run *at* their deadline (now() reports the
// deadline while the callback runs) and may schedule further events, but must not call
// Advance() themselves — they represent instantaneous occurrences whose costs are modelled by
// scheduling follow-up events.
//
// `final` matters: hot paths hold a VirtualClock* and the compiler devirtualizes + inlines
// the Advance() fast path through it.
class VirtualClock final : public Clock {
 public:
  VirtualClock() = default;
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  // Current virtual time.
  Nanos now() const override { return now_; }

  // Moves time forward by `delta` (>= 0), firing due events in deadline order. Inlined fast
  // path for the executor's per-command decode charge: when no pending event falls inside the
  // step — the overwhelmingly common case — advancing is a single compare plus an add.
  void Advance(Nanos delta) override {
    Nanos when = now_ + delta;
    if (delta >= 0 && !dispatching_ && events_.earliest() > when) [[likely]] {
      now_ = when;
      return;
    }
    AdvanceSlow(delta);  // due events to fire, or a misuse to diagnose
  }

  void AdvanceTo(Nanos when) override;

  EventId ScheduleAt(Nanos when, Callback fn, const char* label = "") override;
  EventId ScheduleAfter(Nanos delta, Callback fn, const char* label = "") override;
  bool Cancel(EventId id) override { return events_.Cancel(id); }

  size_t pending_events() const override { return events_.size(); }
  Nanos next_deadline() const override;
  bool deterministic() const override { return true; }

  // Runs pending events until none remain with deadline <= `until`, advancing time to each
  // event in turn and finally to `until`.
  void RunUntil(Nanos until) { AdvanceTo(until); }

  // True while an event callback is executing (Advance() is then forbidden).
  bool dispatching() const { return dispatching_; }

  // Stable address of the current virtual time, for the policy JIT's inlined charge fast
  // path. A store through it must satisfy the same precondition as the Advance() fast path:
  // delta >= 0, not dispatching, and no pending event with deadline <= the new time. The JIT
  // guards this with a cached charge_horizon() and bridges into Advance() otherwise.
  Nanos* now_storage() { return &now_; }

  // The guard value for that cached-horizon check: the earliest pending deadline (INT64_MAX
  // when none — any charge is safe), or INT64_MIN while an event callback is dispatching so
  // that every charge bridges into AdvanceSlow and hits the same misuse CHECK the
  // interpreter's Advance() would. Inline (and the class final) because the JIT entry path
  // recomputes it per event.
  Nanos charge_horizon() const {
    if (dispatching_) [[unlikely]] {
      return INT64_MIN;
    }
    return events_.earliest();
  }

 private:
  void AdvanceSlow(Nanos delta);
  void DispatchDueEvents(Nanos horizon);

  Nanos now_ = 0;
  bool dispatching_ = false;
  EventQueue events_;
};

// Monotonic host clock for the real-threads mode. now() is steady_clock time since
// construction, so timestamps stay small and comparable with virtual-time constants.
//
// The deadline queue is mutex-protected (rank: leaf — see DESIGN.md §10); callbacks fire from
// PollDue() *outside* the internal mutex, on the polling thread, so a callback may freely
// schedule or cancel. In this codebase the only real-mode events are disk write completions,
// polled by the frame manager under the manager lock.
class RealClock final : public Clock {
 public:
  RealClock() : epoch_(std::chrono::steady_clock::now()) {}
  RealClock(const RealClock&) = delete;
  RealClock& operator=(const RealClock&) = delete;

  Nanos now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Host time passes on its own; modelled costs are not re-charged in real mode.
  void Advance(Nanos) override {}
  void AdvanceTo(Nanos) override {}

  EventId ScheduleAt(Nanos when, Callback fn, const char* label = "") override;
  EventId ScheduleAfter(Nanos delta, Callback fn, const char* label = "") override;
  bool Cancel(EventId id) override;

  size_t pending_events() const override;
  Nanos next_deadline() const override;
  bool deterministic() const override { return false; }

  size_t PollDue(bool fire_all = false) override;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  EventQueue events_;  // guarded by mu_
};

}  // namespace hipec::sim

#endif  // HIPEC_SIM_CLOCK_H_
