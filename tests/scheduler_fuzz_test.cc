// Differential scheduler fuzz: long random schedule/cancel/run-until op
// sequences executed against a trivially-correct reference model (a sorted
// std::multimap, which keeps equal keys in insertion order), asserting the
// exact firing order matches event for event. This proves the two-tier
// indexed 4-ary event queue equivalent to the obvious implementation,
// including the FIFO tie-break that determinism depends on, within a tier
// and across the near/far boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/audit.h"
#include "src/sim/random.h"
#include "src/sim/scheduler.h"

namespace tfc {
namespace {

// Structural validation of the live heap (back-index consistency, heap
// property, free-list integrity) — the fuzz driver runs it after every
// run-until step, so any structural corruption is caught at the op that
// introduced it rather than as a later firing-order divergence.
void ExpectHeapStructurallyValid(const Scheduler& sched, int step, uint64_t seed) {
  AuditReport report;
  Auditor auditor(&report);
  auditor.set_component("fuzz.scheduler");
  sched.AuditInvariants(auditor);
  ASSERT_TRUE(report.ok()) << "heap structure broken at step " << step
                           << " (seed " << seed << ")\n"
                           << report.ToString();
  EXPECT_GT(report.checks, 0u);
}

TEST(SchedulerFuzzTest, FiringOrderMatchesReferenceModel) {
  constexpr int kOpsPerSeed = 12000;  // acceptance floor is 10k random ops
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
    Rng rng(seed);
    Scheduler sched;

    // Reference: (time -> op) in FIFO-per-time order. The scheduler fires
    // callbacks that append their op-id to `executed`; draining the model
    // appends the same ids to `expected` in model order.
    std::multimap<TimeNs, int> model;
    std::map<int, std::pair<TimeNs, Scheduler::EventId>> live;  // op -> handle
    std::vector<int> executed;
    std::vector<int> expected;
    int next_op = 0;

    auto drain_model_until = [&](TimeNs horizon) {
      while (!model.empty() && model.begin()->first <= horizon) {
        expected.push_back(model.begin()->second);
        live.erase(model.begin()->second);
        model.erase(model.begin());
      }
    };

    TimeNs horizon = 0;
    for (int step = 0; step < kOpsPerSeed; ++step) {
      const double dice = rng.Uniform();
      if (dice < 0.60 || live.empty()) {
        // Schedule at a random future time drawn from three bands: short
        // delays, delays at the tier boundary (kNearHorizon +- 1 ns), and
        // delays deep in the far tier. Short and far times snap up to a
        // 100 ns grid, so events collide often, to stress the FIFO
        // tie-break within a tier and, once the clock has caught up with a
        // far event, across tiers.
        const double band = rng.Uniform();
        TimeNs at;
        if (band < 0.15) {
          at = horizon + Scheduler::kNearHorizon + rng.UniformInt(-1, 1);
        } else {
          const TimeNs delay = band < 0.85 ? rng.UniformInt(0, 500)
                                           : 100 * Scheduler::kNearHorizon -
                                                 rng.UniformInt(0, 20) * 500;
          at = (horizon + delay + 99) / 100 * 100;
        }
        const int op = next_op++;
        auto id = sched.ScheduleAt(at, [op, &executed] { executed.push_back(op); });
        model.emplace(at, op);
        live.emplace(op, std::make_pair(at, id));
      } else if (dice < 0.80) {
        // Cancel a random live event.
        auto it = live.begin();
        std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        EXPECT_TRUE(sched.Cancel(it->second.second));
        // Double-cancel must be a no-op.
        EXPECT_FALSE(sched.Cancel(it->second.second));
        auto range = model.equal_range(it->second.first);
        for (auto m = range.first; m != range.second; ++m) {
          if (m->second == it->first) {
            model.erase(m);
            break;
          }
        }
        live.erase(it);
      } else {
        // Run forward a random amount and drain the model to match. Now
        // and then jump to just short of a random pending event, so far
        // events come due while near events are still being scheduled
        // onto the same grid times.
        if (rng.Bernoulli(0.03)) {
          auto it = live.begin();
          std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
          horizon = std::max(horizon, it->second.first - TimeNs(rng.UniformInt(0, 500)));
        } else {
          horizon += rng.UniformInt(0, 400);
        }
        sched.RunUntil(horizon);
        drain_model_until(horizon);
        ASSERT_EQ(executed, expected) << "divergence at step " << step
                                      << " (seed " << seed << ")";
        ASSERT_EQ(sched.pending(), model.size());
        ASSERT_EQ(sched.now(), horizon);
        ExpectHeapStructurallyValid(sched, step, seed);
      }
    }
    sched.Run();
    drain_model_until(INT64_MAX);

    ASSERT_EQ(executed, expected) << "final divergence (seed " << seed << ")";
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_EQ(sched.executed(), executed.size());
    // No event fired twice.
    std::vector<int> sorted = executed;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
        << "an event executed twice (seed " << seed << ")";
  }
}

TEST(SchedulerFuzzTest, FifoOrderWithinEqualTimesSurvivesCancellations) {
  Rng rng(99);
  Scheduler sched;
  std::vector<int> executed;
  std::vector<int> expected;
  std::vector<Scheduler::EventId> ids;
  // 200 events at the same instant; cancel a random subset.
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sched.ScheduleAt(1000, [i, &executed] { executed.push_back(i); }));
  }
  for (int i = 0; i < 200; ++i) {
    if (rng.Bernoulli(0.4)) {
      sched.Cancel(ids[static_cast<size_t>(i)]);
    } else {
      expected.push_back(i);
    }
  }
  sched.Run();
  EXPECT_EQ(executed, expected);
}

// Regression: cancelling an already-fired event used to insert a tombstone
// and decrement the pending count, underflowing it (the count is a size_t)
// and leaking the tombstone. The indexed heap detects the stale handle via
// its generation counter and treats the cancel as the documented no-op.
TEST(SchedulerFuzzTest, CancelAfterFireIsANoOp) {
  Scheduler sched;
  int fired = 0;
  Scheduler::EventId id = sched.ScheduleAt(10, [&fired] { ++fired; });
  EXPECT_EQ(sched.pending(), 1u);
  sched.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending(), 0u);

  EXPECT_FALSE(sched.Cancel(id));   // already fired: must not "succeed"
  EXPECT_EQ(sched.pending(), 0u);   // and must not underflow the count
  EXPECT_FALSE(sched.Cancel(id));

  // The scheduler stays fully usable: new events (which may recycle the
  // fired event's slot) schedule, count, and cancel correctly.
  Scheduler::EventId id2 = sched.ScheduleAfter(5, [&fired] { ++fired; });
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_FALSE(sched.Cancel(id));   // stale handle must not hit the new event
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_TRUE(sched.Cancel(id2));
  EXPECT_EQ(sched.pending(), 0u);
  sched.Run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace tfc
