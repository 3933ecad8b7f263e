#include "sim/clock.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace hipec::sim {

namespace {

// Heap order: the event that fires later sorts first, so the heap's front fires next.
bool FiresAfter(const EventQueue::Event& a, const EventQueue::Event& b) {
  return a.deadline != b.deadline ? a.deadline > b.deadline : a.id > b.id;
}

}  // namespace

Clock::EventId EventQueue::Push(Nanos when, Clock::Callback fn) {
  const Clock::EventId id = next_id_++;
  heap_.push_back(Event{when, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), FiresAfter);
  return id;
}

EventQueue::Event EventQueue::Pop() {
  HIPEC_CHECK(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), FiresAfter);
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

bool EventQueue::Cancel(Clock::EventId id) {
  auto it = std::find_if(heap_.begin(), heap_.end(),
                         [id](const Event& event) { return event.id == id; });
  if (it == heap_.end()) {
    return false;
  }
  std::swap(*it, heap_.back());
  heap_.pop_back();
  std::make_heap(heap_.begin(), heap_.end(), FiresAfter);
  return true;
}

void VirtualClock::AdvanceSlow(Nanos delta) {
  HIPEC_CHECK_MSG(delta >= 0, "cannot advance the clock backwards (delta=" << delta << ")");
  HIPEC_CHECK_MSG(!dispatching_, "Advance() called from inside an event callback");
  AdvanceTo(now_ + delta);
}

void VirtualClock::AdvanceTo(Nanos when) {
  if (when <= now_) {
    return;
  }
  HIPEC_CHECK_MSG(!dispatching_, "AdvanceTo() called from inside an event callback");
  DispatchDueEvents(when);
  now_ = when;
}

VirtualClock::EventId VirtualClock::ScheduleAt(Nanos when, Callback fn, const char* label) {
  HIPEC_CHECK_MSG(when >= now_, "event scheduled in the past: " << label);
  return events_.Push(when, std::move(fn));
}

VirtualClock::EventId VirtualClock::ScheduleAfter(Nanos delta, Callback fn, const char* label) {
  HIPEC_CHECK_MSG(delta >= 0, "negative delay for event: " << label);
  return ScheduleAt(now_ + delta, std::move(fn), label);
}

Nanos VirtualClock::next_deadline() const {
  return events_.empty() ? -1 : events_.earliest();
}

RealClock::EventId RealClock::ScheduleAt(Nanos when, Callback fn, const char* /*label*/) {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.Push(when, std::move(fn));
}

RealClock::EventId RealClock::ScheduleAfter(Nanos delta, Callback fn, const char* label) {
  HIPEC_CHECK_MSG(delta >= 0, "negative delay for event: " << label);
  return ScheduleAt(now() + delta, std::move(fn), label);
}

bool RealClock::Cancel(EventId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.Cancel(id);
}

size_t RealClock::pending_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

Nanos RealClock::next_deadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.empty() ? -1 : events_.earliest();
}

size_t RealClock::PollDue(bool fire_all) {
  // Pop due events one at a time and run each callback outside the internal mutex so
  // callbacks can schedule or cancel without deadlocking. The caller serializes against
  // other threads touching the callbacks' state (DESIGN.md §10).
  size_t fired = 0;
  for (;;) {
    Callback fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (events_.empty() || (!fire_all && events_.earliest() > now())) {
        return fired;
      }
      fn = events_.Pop().fn;
    }
    fn();
    ++fired;
  }
}

void VirtualClock::DispatchDueEvents(Nanos horizon) {
  // Events fired here may schedule new events, possibly also due before `horizon`; the loop
  // re-inspects the queue head every iteration so those fire in correct order too.
  while (!events_.empty() && events_.earliest() <= horizon) {
    EventQueue::Event event = events_.Pop();
    now_ = event.deadline;  // Callbacks observe their own deadline as now().
    dispatching_ = true;
    try {
      event.fn();
    } catch (...) {
      dispatching_ = false;
      throw;
    }
    dispatching_ = false;
  }
}

}  // namespace hipec::sim
