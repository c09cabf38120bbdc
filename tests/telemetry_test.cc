// Telemetry layer tests: registry mechanics (ownership, collisions, audit),
// histogram bucket math, recorder cadence/drain semantics, and the run
// exporter's JSON formats (round-tripped through the schema the files
// promise in docs/observability.md).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/audit.h"
#include "src/sim/profile.h"
#include "src/sim/scheduler.h"
#include "src/sim/telemetry.h"

namespace tfc {
namespace {

// --- MetricRegistry ---------------------------------------------------------

TEST(MetricRegistryTest, CountersGaugesAndCallbacksReadBack) {
  MetricRegistry registry;
  Counter* c = registry.AddCounter("c");
  Gauge* g = registry.AddGauge("g");
  double source = 7.5;
  registry.AddCallbackGauge("cb", [&source] { return source; });

  c->Add();
  c->Add(41);
  g->Set(-2.25);

  double v = 0;
  ASSERT_TRUE(registry.Read("c", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  ASSERT_TRUE(registry.Read("g", &v));
  EXPECT_DOUBLE_EQ(v, -2.25);
  ASSERT_TRUE(registry.Read("cb", &v));
  EXPECT_DOUBLE_EQ(v, 7.5);
  source = 8.5;
  ASSERT_TRUE(registry.Read("cb", &v));
  EXPECT_DOUBLE_EQ(v, 8.5);

  EXPECT_FALSE(registry.Read("missing", &v));
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.Has("c"));
  registry.Unregister("c");
  EXPECT_FALSE(registry.Has("c"));
}

TEST(MetricRegistryTest, ForEachNameVisitsInNameOrder) {
  MetricRegistry registry;
  registry.AddGauge("z");
  registry.AddCounter("a");
  registry.AddHistogram("m");

  std::vector<std::string> names;
  std::vector<MetricKind> kinds;
  registry.ForEachName([&](const std::string& name, MetricKind kind) {
    names.push_back(name);
    kinds.push_back(kind);
  });
  EXPECT_EQ(names, (std::vector<std::string>{"a", "m", "z"}));
  EXPECT_EQ(kinds[0], MetricKind::kCounter);
  EXPECT_EQ(kinds[1], MetricKind::kHistogram);
  EXPECT_EQ(kinds[2], MetricKind::kGauge);
}

TEST(MetricRegistryDeathTest, DuplicateNameAborts) {
  MetricRegistry registry;
  registry.AddCounter("dup");
  EXPECT_DEATH(registry.AddCounter("dup"), "duplicate metric name: dup");
  // Across kinds too: a gauge cannot shadow a counter.
  EXPECT_DEATH(registry.AddGauge("dup"), "duplicate metric name: dup");
  // Scoped owners get no exception: a second live owner of a name aborts.
  ScopedMetrics first(&registry);
  first.AddGauge("owned");
  ScopedMetrics second(&registry);
  EXPECT_DEATH(second.AddGauge("owned"), "duplicate metric name: owned");
}

TEST(ScopedMetricsTest, UnregistersOnDestructionAndReset) {
  MetricRegistry registry;
  {
    ScopedMetrics scoped(&registry);
    scoped.AddCounter("s.c");
    scoped.AddGauge("s.g");
    EXPECT_EQ(registry.size(), 2u);
    scoped.Reset(&registry);  // rebind unregisters previous names
    EXPECT_EQ(registry.size(), 0u);
    scoped.AddHistogram("s.h");
    EXPECT_EQ(registry.size(), 1u);
  }
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricRegistryTest, IdIndexedReadsAndGenerationTracking) {
  MetricRegistry registry;
  const uint64_t gen0 = registry.generation();
  Counter* c = registry.AddCounter("c");
  registry.AddHistogram("h");
  EXPECT_GT(registry.generation(), gen0);  // registration bumps

  const MetricId c_id = registry.IdOf("c");
  const MetricId h_id = registry.IdOf("h");
  ASSERT_NE(c_id, kInvalidMetricId);
  EXPECT_EQ(registry.IdOf("missing"), kInvalidMetricId);
  EXPECT_EQ(registry.KindOfId(c_id), MetricKind::kCounter);

  c->Add(42);
  MetricRegistry::CompiledRead read{};
  ASSERT_TRUE(registry.CompileReadId(c_id, &read));
  EXPECT_DOUBLE_EQ(read.fn(read.obj), 42.0);
  EXPECT_FALSE(registry.CompileReadId(h_id, &read));  // histograms are not scalars

  // Unregister frees the slot (compiles fail) and bumps the generation; a
  // later registration may reuse the id, which is why consumers re-resolve
  // on generation change.
  const uint64_t gen1 = registry.generation();
  registry.Unregister("c");
  EXPECT_GT(registry.generation(), gen1);
  EXPECT_FALSE(registry.CompileReadId(c_id, &read));
  registry.AddGauge("g2")->Set(5.0);
  EXPECT_EQ(registry.IdOf("g2"), c_id);  // freed id reused
  ASSERT_TRUE(registry.CompileReadId(c_id, &read));
  EXPECT_DOUBLE_EQ(read.fn(read.obj), 5.0);
}

TEST(MetricRegistryTest, CounterMonotonicityAudit) {
  MetricRegistry registry;
  Counter* good = registry.AddCounter("good");
  Counter* bad = registry.AddCounter("bad");
  good->Add(10);
  bad->Add(10);

  AuditReport report;
  Auditor auditor(&report);
  registry.AuditInvariants(auditor);
  EXPECT_TRUE(report.ok());

  good->Add(1);          // fine: still monotone
  bad->ResetForTest();   // regression: value went backwards
  AuditReport second;
  Auditor auditor2(&second);
  registry.AuditInvariants(auditor2);
  ASSERT_EQ(second.failures.size(), 1u);
  EXPECT_NE(second.failures[0].detail.find("bad"), std::string::npos);
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, SmallValuesAreExactAndBoundariesAreContinuous) {
  // Below kSub (16) every value has its own bucket.
  for (uint64_t v = 0; v < Histogram::kSub; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<int>(v)) << v;
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<int>(v)), v);
  }
  // The 15 -> 16 and 31 -> 32 octave seams: indexes advance by exactly one
  // bucket and lower bounds match the values.
  EXPECT_EQ(Histogram::BucketIndex(16), Histogram::BucketIndex(15) + 1);
  EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(16)), 16u);
  EXPECT_EQ(Histogram::BucketIndex(31), Histogram::BucketIndex(32) - 1);
  EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(32)), 32u);

  // Global continuity: every bucket's upper bound is the next bucket's
  // lower bound, and BucketIndex(lower_bound(b)) == b.
  for (int b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBound(b), Histogram::BucketLowerBound(b + 1)) << b;
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(b)), b) << b;
  }
  // Boundary values land in the bucket they open, one less in the previous.
  for (uint64_t v : {16ull, 32ull, 1024ull, 1ull << 40}) {
    EXPECT_EQ(Histogram::BucketIndex(v - 1) + 1, Histogram::BucketIndex(v)) << v;
    EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(v)), v) << v;
  }
}

TEST(HistogramTest, RecordAndSummaryStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500'500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);

  // Log-linear percentiles are upper bounds within one sub-bucket (6.25%).
  EXPECT_GE(h.Percentile(50), 500u);
  EXPECT_LE(h.Percentile(50), 532u);
  EXPECT_GE(h.Percentile(99), 990u);
  EXPECT_LE(h.Percentile(99), 1000u);  // clamped to observed max
  EXPECT_EQ(h.Percentile(100), 1000u);
  EXPECT_EQ(h.Percentile(0), 1u);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0u);
}

// --- TimeSeriesRecorder -----------------------------------------------------

TEST(TimeSeriesRecorderTest, SamplesOnCadenceWithoutPerturbingPending) {
  Scheduler sched;
  MetricRegistry registry;
  Gauge* g = registry.AddGauge("g");

  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.Watch("g");
  recorder.Start(Microseconds(10));

  // The armed daemon tick is invisible to user-event accounting.
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.daemon_pending(), 1u);

  // A user event ramps the gauge; drain-mode Run() must return even though
  // the recorder would re-arm forever.
  sched.ScheduleAt(Microseconds(25), [g] { g->Set(1.0); });
  sched.Run();
  EXPECT_EQ(sched.pending(), 0u);

  // Ticks at t=0, 10us, 20us fired before the queue drained (the 25us user
  // event kept the 20us tick eligible; the re-armed 30us tick did not run).
  std::vector<TimeSeriesRecorder::Sample> s = recorder.Series("g");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].t, 0);
  EXPECT_EQ(s[1].t, Microseconds(10));
  EXPECT_EQ(s[2].t, Microseconds(20));
  EXPECT_DOUBLE_EQ(s[2].v, 0.0);  // gauge set at 25us, after the 20us tick

  recorder.Stop();
  EXPECT_EQ(sched.daemon_pending(), 0u);
  EXPECT_FALSE(recorder.running());
}

TEST(TimeSeriesRecorderTest, FirstDelayAndRestartRepace) {
  Scheduler sched;
  MetricRegistry registry;
  Gauge* g = registry.AddGauge("g");
  g->Set(3.0);

  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.Watch("g");
  recorder.Start(Microseconds(10), /*first_delay=*/Microseconds(5));
  sched.ScheduleAt(Microseconds(16), [] {});
  sched.Run();
  std::vector<TimeSeriesRecorder::Sample> s = recorder.Series("g");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].t, Microseconds(5));
  EXPECT_EQ(s[1].t, Microseconds(15));

  // Restart re-paces from "now" with the new period.
  recorder.Start(Microseconds(2));
  sched.ScheduleAt(Microseconds(21), [] {});
  sched.Run();
  s = recorder.Series("g");
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[2].t, Microseconds(16));
  EXPECT_EQ(s[3].t, Microseconds(18));
  EXPECT_EQ(s[4].t, Microseconds(20));
  EXPECT_EQ(recorder.ticks(), 5u);
}

TEST(TimeSeriesRecorderTest, PrefixWatchPicksUpLateMetrics) {
  Scheduler sched;
  MetricRegistry registry;
  registry.AddGauge("app.early")->Set(1.0);

  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.WatchPrefix("app.");
  recorder.Start(Microseconds(10));
  sched.ScheduleAt(Microseconds(15), [&registry] {
    registry.AddGauge("app.late")->Set(2.0);
  });
  sched.ScheduleAt(Microseconds(21), [] {});
  sched.Run();

  EXPECT_EQ(recorder.Series("app.early").size(), 3u);  // t=0,10,20
  std::vector<TimeSeriesRecorder::Sample> late = recorder.Series("app.late");
  ASSERT_EQ(late.size(), 1u);  // only the t=20us tick saw it
  EXPECT_EQ(late[0].t, Microseconds(20));
  EXPECT_EQ(recorder.SeriesNames(),
            (std::vector<std::string>{"app.early", "app.late"}));
}

TEST(TimeSeriesRecorderTest, DuplicateWatchRecordsOneSamplePerTick) {
  Scheduler sched;
  MetricRegistry registry;
  registry.AddGauge("g")->Set(1.0);

  TimeSeriesRecorder recorder(&sched, &registry);
  // Redundant watches of every flavor must still record exactly one sample
  // per tick (watches_ used to be an un-deduped vector: each duplicate
  // exact watch appended its own sample).
  recorder.Watch("g");
  recorder.Watch("g");
  recorder.WatchPrefix("g");
  recorder.WatchPrefix("g");
  recorder.Start(Microseconds(10));
  sched.ScheduleAt(Microseconds(21), [] {});
  sched.Run();

  EXPECT_EQ(recorder.Series("g").size(), 3u);  // t=0,10,20 — one each
}

TEST(TimeSeriesRecorderTest, CachedPlanMatchesFreshPlanUnderRegistryChurn) {
  // Two recorders over the same registry: one uses the cached sample plan
  // (rebuilt only on registry-generation change), the reference rebuilds
  // from strings on every tick. ScopedMetrics churn — a component destroyed
  // and replaced mid-run — must leave their series identical.
  Scheduler sched;
  MetricRegistry registry;
  registry.AddGauge("app.stable")->Set(1.0);

  auto churn = std::make_unique<ScopedMetrics>(&registry);
  churn->AddGauge("churn.q")->Set(10.0);

  TimeSeriesRecorder cached(&sched, &registry);
  TimeSeriesRecorder fresh(&sched, &registry);
  fresh.set_replan_every_tick_for_test(true);
  for (TimeSeriesRecorder* r : {&cached, &fresh}) {
    r->Watch("churn.q");
    r->WatchPrefix("app.");
    r->Start(Microseconds(10));
  }

  sched.ScheduleAt(Microseconds(15), [&churn] {
    churn.reset();  // component dies: churn.q and its id disappear
  });
  sched.ScheduleAt(Microseconds(35), [&churn, &registry] {
    // Replacement component re-registers the same name (new id) plus a new
    // prefix-matched metric the next plan must pick up.
    churn = std::make_unique<ScopedMetrics>(&registry);
    churn->AddGauge("churn.q")->Set(20.0);
    churn->AddGauge("app.late")->Set(2.0);
  });
  sched.ScheduleAt(Microseconds(51), [] {});
  sched.Run();

  // Ticks at 0,10,20,30,40,50: churn.q recorded at 0,10 (v=10) and 40,50
  // (v=20); app.late at 40,50; app.stable at every tick.
  std::vector<TimeSeriesRecorder::Sample> q = cached.Series("churn.q");
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q[1].t, Microseconds(10));
  EXPECT_DOUBLE_EQ(q[1].v, 10.0);
  EXPECT_EQ(q[2].t, Microseconds(40));
  EXPECT_DOUBLE_EQ(q[2].v, 20.0);
  EXPECT_EQ(cached.Series("app.late").size(), 2u);
  EXPECT_EQ(cached.Series("app.stable").size(), 6u);

  ASSERT_EQ(cached.SeriesNames(), fresh.SeriesNames());
  for (const std::string& name : cached.SeriesNames()) {
    std::vector<TimeSeriesRecorder::Sample> a = cached.Series(name);
    std::vector<TimeSeriesRecorder::Sample> b = fresh.Series(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].t, b[i].t) << name << "[" << i << "]";
      EXPECT_DOUBLE_EQ(a[i].v, b[i].v) << name << "[" << i << "]";
    }
  }
}

// --- Run-length storage -----------------------------------------------------

using SeriesRun = TimeSeriesRecorder::Run;

std::vector<SeriesRun> RunsOf(const TimeSeriesRecorder& r, const std::string& name) {
  std::vector<SeriesRun> out;
  r.ForEachSeriesRuns([&](const std::string& n, const std::vector<SeriesRun>& runs) {
    if (n == name) {
      out = runs;
    }
  });
  return out;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Expects `a` and `b` to hold the same series, samples compared bitwise,
// and the same runs.
void ExpectSameRecording(const TimeSeriesRecorder& a, const TimeSeriesRecorder& b) {
  ASSERT_EQ(a.SeriesNames(), b.SeriesNames());
  a.ForEachSeries([&b](const std::string& name,
                       const std::vector<TimeSeriesRecorder::Sample>& sa) {
    const std::vector<TimeSeriesRecorder::Sample> sb = b.Series(name);
    ASSERT_EQ(sa.size(), sb.size()) << name;
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].t, sb[i].t) << name << "[" << i << "]";
      EXPECT_EQ(Bits(sa[i].v), Bits(sb[i].v)) << name << "[" << i << "]";
    }
  });
  for (const std::string& name : a.SeriesNames()) {
    const std::vector<SeriesRun> ra = RunsOf(a, name);
    const std::vector<SeriesRun> rb = RunsOf(b, name);
    ASSERT_EQ(ra.size(), rb.size()) << name;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].first_tick, rb[i].first_tick) << name << " run " << i;
      EXPECT_EQ(ra[i].ticks, rb[i].ticks) << name << " run " << i;
      EXPECT_EQ(Bits(ra[i].v), Bits(rb[i].v)) << name << " run " << i;
    }
  }
}

// A recorder folding tiles on its normal cadence next to the reference
// that re-plans (and therefore folds) on every tick, both watching "g"
// every 10us from t=0.
struct RecorderPair {
  Scheduler sched;
  MetricRegistry registry;
  TimeSeriesRecorder tiled{&sched, &registry};
  TimeSeriesRecorder reference{&sched, &registry};

  RecorderPair() {
    reference.set_replan_every_tick_for_test(true);
    for (TimeSeriesRecorder* r : {&tiled, &reference}) {
      r->Watch("g");
      r->Start(Microseconds(10));
    }
  }
  // Runs through tick k (at k * 10us).
  void RunThroughTick(int k) { sched.RunUntil(Microseconds(10) * k); }
};

TEST(TimeSeriesRecorderRunsTest, ConstantValueIsOneRunAcrossTileBoundaries) {
  RecorderPair p;
  Gauge* g = p.registry.AddGauge("g");
  g->Set(7.0);
  const int ticks = 3 * static_cast<int>(TimeSeriesRecorder::kTileTicks) + 5;
  p.RunThroughTick(ticks - 1);

  const std::vector<SeriesRun> runs = RunsOf(p.tiled, "g");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first_tick, 0u);
  EXPECT_EQ(runs[0].ticks, static_cast<uint32_t>(ticks));
  EXPECT_EQ(p.tiled.total_samples(), static_cast<size_t>(ticks));
  EXPECT_EQ(p.tiled.total_runs(), 1u);

  // Hand-expanded: one sample per tick, every one 7.0.
  const std::vector<TimeSeriesRecorder::Sample> s = p.tiled.Series("g");
  ASSERT_EQ(s.size(), static_cast<size_t>(ticks));
  for (int k = 0; k < ticks; ++k) {
    EXPECT_EQ(s[static_cast<size_t>(k)].t, Microseconds(10) * k);
    EXPECT_EQ(s[static_cast<size_t>(k)].v, 7.0);
  }
  ExpectSameRecording(p.tiled, p.reference);
}

TEST(TimeSeriesRecorderRunsTest, ChangeAtTileBoundaryAndReadMidTile) {
  RecorderPair p;
  Gauge* g = p.registry.AddGauge("g");
  const int tile = static_cast<int>(TimeSeriesRecorder::kTileTicks);
  g->Set(1.0);
  p.RunThroughTick(tile - 1);  // exactly one full tile of 1.0
  g->Set(2.0);
  p.RunThroughTick(tile + 9);
  // A read in the middle of a tile folds the partial tile; the run it
  // leaves open keeps growing afterwards.
  EXPECT_EQ(p.tiled.total_runs(), 2u);
  p.RunThroughTick(2 * tile + 3);

  const std::vector<SeriesRun> runs = RunsOf(p.tiled, "g");
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].first_tick, 0u);
  EXPECT_EQ(runs[0].ticks, static_cast<uint32_t>(tile));
  EXPECT_EQ(runs[1].first_tick, static_cast<uint32_t>(tile));
  EXPECT_EQ(runs[1].ticks, static_cast<uint32_t>(tile + 4));
  EXPECT_EQ(runs[1].v, 2.0);
  ExpectSameRecording(p.tiled, p.reference);
}

TEST(TimeSeriesRecorderRunsTest, SeriesThatLeavesThePlanRestartsWithAGap) {
  RecorderPair p;
  auto owner = std::make_unique<ScopedMetrics>(&p.registry);
  owner->AddGauge("g")->Set(5.0);
  p.RunThroughTick(2);  // ticks 0,1,2
  owner.reset();        // "g" unregisters: ticks 3,4 sample nothing
  p.RunThroughTick(4);
  owner = std::make_unique<ScopedMetrics>(&p.registry);
  owner->AddGauge("g")->Set(5.0);  // same name, same value, new id
  p.RunThroughTick(6);  // ticks 5,6

  // The equal value must not bridge the gap: two runs, and no samples
  // at the ticks the series was absent.
  const std::vector<SeriesRun> runs = RunsOf(p.tiled, "g");
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].first_tick, 0u);
  EXPECT_EQ(runs[0].ticks, 3u);
  EXPECT_EQ(runs[1].first_tick, 5u);
  EXPECT_EQ(runs[1].ticks, 2u);
  const std::vector<TimeSeriesRecorder::Sample> s = p.tiled.Series("g");
  ASSERT_EQ(s.size(), 5u);
  const std::vector<TimeNs> want = {Microseconds(0), Microseconds(10), Microseconds(20),
                                    Microseconds(50), Microseconds(60)};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(s[i].t, want[i]) << i;
    EXPECT_EQ(s[i].v, 5.0) << i;
  }
  EXPECT_EQ(p.tiled.tick_times().size(), 7u);
  ExpectSameRecording(p.tiled, p.reference);
}

TEST(TimeSeriesRecorderRunsTest, ValuesCompareBitwise) {
  RecorderPair p;
  Gauge* g = p.registry.AddGauge("g");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {0.0, -0.0, -0.0, nan, nan, 0.0};
  for (size_t k = 0; k < values.size(); ++k) {
    g->Set(values[k]);
    p.RunThroughTick(static_cast<int>(k));
  }
  // 0.0 == -0.0 and NaN != NaN as doubles; as bits it is the other way
  // round, and bits are what the spill must reproduce.
  const std::vector<SeriesRun> runs = RunsOf(p.tiled, "g");
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(Bits(runs[0].v), Bits(0.0));
  EXPECT_EQ(runs[0].ticks, 1u);
  EXPECT_EQ(Bits(runs[1].v), Bits(-0.0));
  EXPECT_EQ(runs[1].ticks, 2u);
  EXPECT_EQ(Bits(runs[2].v), Bits(nan));
  EXPECT_EQ(runs[2].ticks, 2u);
  EXPECT_EQ(Bits(runs[3].v), Bits(0.0));
  EXPECT_EQ(runs[3].ticks, 1u);
  const std::vector<TimeSeriesRecorder::Sample> s = p.tiled.Series("g");
  ASSERT_EQ(s.size(), values.size());
  for (size_t k = 0; k < values.size(); ++k) {
    EXPECT_EQ(Bits(s[k].v), Bits(values[k])) << k;
  }
  ExpectSameRecording(p.tiled, p.reference);
}

TEST(TimeSeriesRecorderRunsTest, StopAndStartContinueTheTickSequence) {
  RecorderPair p;
  Gauge* g = p.registry.AddGauge("g");
  g->Set(3.0);
  p.RunThroughTick(2);  // ticks at 0,10,20
  p.tiled.Stop();
  p.reference.Stop();
  p.sched.RunUntil(Microseconds(100));
  for (TimeSeriesRecorder* r : {&p.tiled, &p.reference}) {
    r->Start(Microseconds(10));  // ticks at 100,110
  }
  p.sched.RunUntil(Microseconds(110));

  // Recorder ticks stay consecutive across the pause, so the unchanged
  // value is one run; its samples keep their real timestamps.
  const std::vector<SeriesRun> runs = RunsOf(p.tiled, "g");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].ticks, 5u);
  const std::vector<TimeSeriesRecorder::Sample> s = p.tiled.Series("g");
  const std::vector<TimeNs> want = {Microseconds(0), Microseconds(10), Microseconds(20),
                                    Microseconds(100), Microseconds(110)};
  ASSERT_EQ(s.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(s[i].t, want[i]) << i;
  }
  ExpectSameRecording(p.tiled, p.reference);
}

// --- Exporter ---------------------------------------------------------------

std::string Slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Little-endian byte packing for expected spills.
void PutLe(std::string& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(ExporterTest, JsonEscapeAndNumber) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("tab\there\n"), "tab\\there\\n");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");

  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(2.5), "2.5");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(ExporterTest, RunDirectoryGoldenRoundTrip) {
  Scheduler sched;
  MetricRegistry registry;
  Profiler profiler;
  registry.AddCounter("events")->Add(3);
  Gauge* q = registry.AddGauge("queue");
  Histogram* h = registry.AddHistogram("fct_us");
  h->Record(10);
  h->Record(20);
  ProfileSite* site = profiler.Site("test.site");
  site->Hit();
  site->AddSim(50);

  TimeSeriesRecorder recorder(&sched, &registry);
  recorder.Watch("queue");
  recorder.Start(Microseconds(10));
  sched.ScheduleAt(Microseconds(5), [q] { q->Set(1500.0); });
  sched.ScheduleAt(Microseconds(12), [] {});
  sched.Run();
  recorder.Stop();

  RunManifest manifest;
  manifest.Set("workload", "unit\"test");
  manifest.SetInt("seed", 7);
  manifest.SetDouble("duration_s", 0.5);
  manifest.SetBool("quick", true);

  const std::string dir = testing::TempDir() + "/telemetry_golden";
  std::string error;
  ASSERT_TRUE(WriteRunDirectory(dir, manifest, registry, &recorder, &profiler,
                                &error))
      << error;

  // The spill, byte for byte: header (magic, version 2, one series, two
  // ticks, two runs), the name table, the tick times, then one run per
  // value (the queue changed between the ticks).
  std::string want = "TFCB";
  PutLe(want, 2, 4);
  PutLe(want, 1, 4);
  PutLe(want, 2, 8);
  PutLe(want, 2, 8);
  PutLe(want, 5, 4);
  want += "queue";
  PutLe(want, 0, 8);
  PutLe(want, 10000, 8);
  for (const auto& [first_tick, v] : {std::pair{0u, 0.0}, std::pair{1u, 1500.0}}) {
    PutLe(want, 0, 4);  // series id
    PutLe(want, first_tick, 4);
    PutLe(want, 1, 4);  // ticks
    PutLe(want, std::bit_cast<uint64_t>(v), 8);
  }
  EXPECT_EQ(Slurp(dir + "/metrics.tfcb"), want);

  // The manifest carries the verbatim run section (with escaping) plus the
  // exporter's own provenance keys.
  const std::string manifest_text = Slurp(dir + "/manifest.json");
  EXPECT_NE(manifest_text.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(manifest_text.find("\"git_describe\": "), std::string::npos);
  EXPECT_NE(manifest_text.find("\"workload\": \"unit\\\"test\""), std::string::npos);
  EXPECT_NE(manifest_text.find("\"seed\": 7"), std::string::npos);
  EXPECT_NE(manifest_text.find("\"duration_s\": 0.5"), std::string::npos);
  EXPECT_NE(manifest_text.find("\"quick\": true"), std::string::npos);

  // summary.json: every metric's final value, histogram stats with sparse
  // buckets, and the profiler site.
  const std::string summary = Slurp(dir + "/summary.json");
  EXPECT_NE(summary.find("\"events\": 3"), std::string::npos);
  EXPECT_NE(summary.find("\"queue\": 1500"), std::string::npos);
  EXPECT_NE(summary.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(summary.find("\"buckets\": [[10, 11, 1], [20, 21, 1]]"),
            std::string::npos);
  EXPECT_NE(summary.find("\"test.site\": {\"hits\": 1, \"sim_ns\": 50, "
                         "\"wall_ns\": 0}"),
            std::string::npos);
}

TEST(ExporterTest, NullRecorderWritesHeaderOnlySpill) {
  MetricRegistry registry;
  RunManifest manifest;
  const std::string dir = testing::TempDir() + "/telemetry_empty";
  std::string error;
  ASSERT_TRUE(WriteRunDirectory(dir, manifest, registry, nullptr, nullptr,
                                &error))
      << error;
  // Header only: no series, no ticks, no runs.
  std::string want = "TFCB";
  PutLe(want, 2, 4);
  PutLe(want, 0, 4);
  PutLe(want, 0, 8);
  PutLe(want, 0, 8);
  EXPECT_EQ(Slurp(dir + "/metrics.tfcb"), want);
}

TEST(ExporterTest, WriteFailureReportsError) {
  MetricRegistry registry;
  RunManifest manifest;
  std::string error;
  EXPECT_FALSE(WriteRunDirectory("/proc/definitely/not/writable", manifest,
                                 registry, nullptr, nullptr, &error));
  EXPECT_FALSE(error.empty());
}

// --- Profiler ---------------------------------------------------------------

TEST(ProfilerTest, SitesCountScopes) {
  Profiler profiler;
  ProfileSite* site = profiler.Site("x.y");
  EXPECT_EQ(profiler.Site("x.y"), site);  // get-or-create
  EXPECT_EQ(profiler.site_count(), 1u);

  {
    ProfileScope scope(&profiler, site);
  }
  {
    ProfileScope scope(&profiler, site);
  }
  EXPECT_EQ(site->hits(), 2u);

  // Disabled profiler (the default unless TFC_PROFILE is set): hits count,
  // wall clock is never read.
  if (!profiler.enabled()) {
    EXPECT_EQ(site->wall_ns(), 0u);
  }

  // Null-safe: a scope on a component with no profiler wired is a no-op.
  ProfileScope inert(nullptr, nullptr);
}

}  // namespace
}  // namespace tfc
