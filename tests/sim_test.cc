// Unit tests for the simulation substrate: virtual clock, events, RNG, stats.
#include <gtest/gtest.h>

#include <vector>

#include "sim/check.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace hipec::sim {
namespace {

TEST(VirtualClockTest, StartsAtZero) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  EXPECT_EQ(clock.pending_events(), 0u);
  EXPECT_EQ(clock.next_deadline(), -1);
}

TEST(VirtualClockTest, AdvanceMovesTime) {
  VirtualClock clock;
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100);
  clock.Advance(0);
  EXPECT_EQ(clock.now(), 100);
}

TEST(VirtualClockTest, NegativeAdvanceThrows) {
  VirtualClock clock;
  EXPECT_THROW(clock.Advance(-1), CheckFailure);
}

TEST(VirtualClockTest, EventFiresAtDeadline) {
  VirtualClock clock;
  Nanos fired_at = -1;
  clock.ScheduleAt(50, [&] { fired_at = clock.now(); });
  clock.Advance(49);
  EXPECT_EQ(fired_at, -1);
  clock.Advance(1);
  EXPECT_EQ(fired_at, 50);
}

TEST(VirtualClockTest, EventsFireInDeadlineOrder) {
  VirtualClock clock;
  std::vector<int> order;
  clock.ScheduleAt(30, [&] { order.push_back(3); });
  clock.ScheduleAt(10, [&] { order.push_back(1); });
  clock.ScheduleAt(20, [&] { order.push_back(2); });
  clock.Advance(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(VirtualClockTest, SameDeadlineFiresInScheduleOrder) {
  VirtualClock clock;
  std::vector<int> order;
  clock.ScheduleAt(10, [&] { order.push_back(1); });
  clock.ScheduleAt(10, [&] { order.push_back(2); });
  clock.Advance(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(VirtualClockTest, CallbackObservesItsDeadlineAsNow) {
  VirtualClock clock;
  Nanos seen = -1;
  clock.ScheduleAt(25, [&] { seen = clock.now(); });
  clock.Advance(1000);
  EXPECT_EQ(seen, 25);
  EXPECT_EQ(clock.now(), 1000);
}

TEST(VirtualClockTest, CallbackMayScheduleFurtherEventsWithinHorizon) {
  VirtualClock clock;
  std::vector<Nanos> fires;
  clock.ScheduleAt(10, [&] {
    fires.push_back(clock.now());
    clock.ScheduleAfter(5, [&] { fires.push_back(clock.now()); });
  });
  clock.Advance(100);
  EXPECT_EQ(fires, (std::vector<Nanos>{10, 15}));
}

TEST(VirtualClockTest, AdvanceInsideCallbackThrows) {
  VirtualClock clock;
  bool threw = false;
  clock.ScheduleAt(10, [&] {
    try {
      clock.Advance(1);
    } catch (const CheckFailure&) {
      threw = true;
    }
  });
  clock.Advance(20);
  EXPECT_TRUE(threw);
}

TEST(VirtualClockTest, CancelPreventsFiring) {
  VirtualClock clock;
  int fired = 0;
  auto id = clock.ScheduleAt(10, [&] { ++fired; });
  EXPECT_TRUE(clock.Cancel(id));
  EXPECT_FALSE(clock.Cancel(id));
  clock.Advance(100);
  EXPECT_EQ(fired, 0);
}

TEST(VirtualClockTest, PeriodicRescheduleChain) {
  VirtualClock clock;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    if (fires < 5) {
      clock.ScheduleAfter(100, tick);
    }
  };
  clock.ScheduleAfter(100, tick);
  clock.Advance(10'000);
  EXPECT_EQ(fires, 5);
}

TEST(VirtualClockTest, SchedulingInPastThrows) {
  VirtualClock clock;
  clock.Advance(100);
  EXPECT_THROW(clock.ScheduleAt(50, [] {}), CheckFailure);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = rng.Between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  ZipfGenerator zipf(1000, 0.9, 123);
  int low = 0;
  constexpr int kDraws = 20'000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t r = zipf.Next();
    EXPECT_LT(r, 1000u);
    if (r < 100) {
      ++low;
    }
  }
  // With theta=0.9, far more than 10% of draws hit the hottest 10% of ranks.
  EXPECT_GT(low, kDraws / 2);
}

TEST(CounterSetTest, AddAndGet) {
  CounterSet counters;
  EXPECT_EQ(counters.Get("x"), 0);
  counters.Add("x");
  counters.Add("x", 4);
  EXPECT_EQ(counters.Get("x"), 5);
}

TEST(CounterRegistryTest, InternIsIdempotentAndRoundTrips) {
  NameTable& registry = CounterNames();
  CounterId id = registry.Intern("registry_test.round_trip");
  EXPECT_EQ(registry.Intern("registry_test.round_trip"), id);  // duplicate registration
  EXPECT_EQ(registry.NameOf(id), "registry_test.round_trip");
  EXPECT_EQ(registry.Find("registry_test.round_trip"), id);

  CounterId other = registry.Intern("registry_test.other");
  EXPECT_NE(other, id);
  EXPECT_EQ(registry.NameOf(other), "registry_test.other");
}

TEST(CounterRegistryTest, FindOfUnknownNameDoesNotIntern) {
  NameTable& registry = CounterNames();
  size_t size_before = registry.size();
  EXPECT_EQ(registry.Find("registry_test.never_interned"), NameTable::kInvalid);
  EXPECT_EQ(registry.size(), size_before);

  // Get() by an unknown string reports 0 without registering the name.
  CounterSet counters;
  EXPECT_EQ(counters.Get("registry_test.never_interned"), 0);
  EXPECT_EQ(registry.size(), size_before);
}

TEST(CounterRegistryTest, IdAndStringApisHitTheSameCounter) {
  CounterId id = InternCounter("registry_test.same_counter");
  CounterSet counters;
  counters.Add(id, 3);
  counters.Add("registry_test.same_counter", 4);
  EXPECT_EQ(counters.Get(id), 7);
  EXPECT_EQ(counters.Get("registry_test.same_counter"), 7);
  EXPECT_EQ(counters.all().at("registry_test.same_counter"), 7);
}

TEST(CounterSetTest, ClearZeroesEverything) {
  CounterSet counters;
  CounterId id = InternCounter("registry_test.clear_me");
  counters.Add(id, 41);
  counters.Add("registry_test.clear_me_too", 1);
  counters.Clear();
  EXPECT_EQ(counters.Get(id), 0);
  EXPECT_EQ(counters.Get("registry_test.clear_me_too"), 0);
  EXPECT_TRUE(counters.all().empty());
  counters.Add(id);  // still usable after Clear
  EXPECT_EQ(counters.Get(id), 1);
}

TEST(CounterSetTest, ToStringListsNonZeroCountersSorted) {
  CounterSet counters;
  counters.Add("registry_test.b_second", 2);
  counters.Add("registry_test.a_first", 1);
  EXPECT_EQ(counters.ToString(),
            "registry_test.a_first=1\nregistry_test.b_second=2\n");
}

TEST(FormatNanosTest, PicksUnits) {
  EXPECT_EQ(FormatNanos(150), "150 ns");
  EXPECT_EQ(FormatNanos(19 * kMicrosecond), "19.0 us");
  EXPECT_EQ(FormatNanos(4016'500'000), "4016.5 ms");
  EXPECT_EQ(FormatNanos(82 * kSecond), "82000.0 ms");
  EXPECT_EQ(FormatNanos(200 * kSecond), "200.000 s");
}

TEST(CostModelTest, CalibratedAgainstPaperTable4) {
  CostModel costs;
  EXPECT_EQ(costs.null_syscall_ns, 19'000);
  EXPECT_EQ(costs.null_ipc_ns, 292'000);
  // "Simple HiPEC page fault overhead ~= 150 nsec" = fetch+decode of Comp, DeQueue, Return.
  EXPECT_EQ(3 * costs.command_decode_ns, 150);
  EXPECT_LT(costs.HipecDecisionNs(3), costs.UpcallDecisionNs());
  EXPECT_LT(costs.UpcallDecisionNs(), costs.IpcDecisionNs());
}

TEST(CheckTest, ThrowsWithMessage) {
  try {
    HIPEC_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace hipec::sim
