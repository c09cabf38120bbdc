// Telemetry layer tests: registry mechanics (ownership, collisions, audit),
// histogram bucket math, recorder cadence/drain semantics, and the run
// exporter's JSON formats (round-tripped through the schema the files
// promise in docs/observability.md).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
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

TEST(ScopedMetricsTest, ReplaceOnCollisionHandsOverOwnership) {
  MetricRegistry registry;
  ScopedMetrics first(&registry);
  Counter* c1 = first.AddCounter("shared");
  c1->Add(5);

  ScopedMetrics second(&registry);
  second.set_replace_on_collision(true);
  Counter* c2 = second.AddCounter("shared");
  EXPECT_EQ(c2->value(), 0u);  // fresh metric, not the displaced one's 5
  c2->Add(1);
  double v = 0;
  ASSERT_TRUE(registry.Read("shared", &v));
  EXPECT_DOUBLE_EQ(v, 1.0);

  // The displaced owner's cleanup must not remove the new owner's entry.
  first.Reset(nullptr);
  EXPECT_TRUE(registry.Has("shared"));
  ASSERT_TRUE(registry.Read("shared", &v));
  EXPECT_DOUBLE_EQ(v, 1.0);

  second.Reset(nullptr);
  EXPECT_FALSE(registry.Has("shared"));
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
  double v = 0;
  ASSERT_TRUE(registry.ReadId(c_id, &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  EXPECT_FALSE(registry.ReadId(h_id, &v));  // histograms are not scalars
  EXPECT_EQ(registry.FindHistogram(h_id), registry.FindHistogram("h"));
  EXPECT_EQ(registry.FindHistogram(c_id), nullptr);

  // Unregister frees the slot (reads fail) and bumps the generation; a
  // later registration may reuse the id, which is why consumers re-resolve
  // on generation change.
  const uint64_t gen1 = registry.generation();
  registry.Unregister("c");
  EXPECT_GT(registry.generation(), gen1);
  EXPECT_FALSE(registry.ReadId(c_id, &v));
  registry.AddGauge("g2")->Set(5.0);
  EXPECT_EQ(registry.IdOf("g2"), c_id);  // freed id reused
  ASSERT_TRUE(registry.ReadId(c_id, &v));
  EXPECT_DOUBLE_EQ(v, 5.0);
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

// --- Exporter ---------------------------------------------------------------

std::string Slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
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
  Profiler profiler(&registry);
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

  // The binary spill decodes back to the exact bytes the pre-tfcb JSONL
  // exporter produced: same line format, same number rendering.
  ASSERT_TRUE(ConvertMetricsTfcbToJsonl(dir + "/metrics.tfcb",
                                        dir + "/metrics.jsonl", &error))
      << error;
  EXPECT_EQ(Slurp(dir + "/metrics.jsonl"),
            "{\"t_ns\": 0, \"name\": \"queue\", \"v\": 0}\n"
            "{\"t_ns\": 10000, \"name\": \"queue\", \"v\": 1500}\n");

  // The spill itself: magic + version=1, one series, two records.
  const std::string tfcb = Slurp(dir + "/metrics.tfcb");
  ASSERT_GE(tfcb.size(), 20u);
  EXPECT_EQ(tfcb.substr(0, 4), "TFCB");
  EXPECT_EQ(tfcb.size(), 20u + (4 + 5) + 2 * SpillWriter::kRecordBytes);

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

TEST(ExporterTest, NullRecorderWritesHeaderOnlySpillThatConvertsToEmptyJsonl) {
  MetricRegistry registry;
  RunManifest manifest;
  const std::string dir = testing::TempDir() + "/telemetry_empty";
  std::string error;
  ASSERT_TRUE(WriteRunDirectory(dir, manifest, registry, nullptr, nullptr,
                                &error))
      << error;
  EXPECT_EQ(Slurp(dir + "/metrics.tfcb").size(), 20u);  // header, no payload
  ASSERT_TRUE(ConvertMetricsTfcbToJsonl(dir + "/metrics.tfcb",
                                        dir + "/metrics.jsonl", &error))
      << error;
  EXPECT_EQ(Slurp(dir + "/metrics.jsonl"), "");
}

TEST(ExporterTest, ConverterRejectsMissingAndCorruptSpills) {
  const std::string dir = testing::TempDir() + "/telemetry_corrupt";
  std::string error;
  EXPECT_FALSE(ConvertMetricsTfcbToJsonl(dir + "/nope.tfcb",
                                         dir + "/out.jsonl", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  std::filesystem::create_directories(dir);
  {
    std::ofstream f(dir + "/bad.tfcb", std::ios::binary);
    f << "JUNKJUNKJUNKJUNKJUNK";  // 20 bytes, wrong magic
  }
  EXPECT_FALSE(ConvertMetricsTfcbToJsonl(dir + "/bad.tfcb",
                                         dir + "/out.jsonl", &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos);

  {
    // Valid magic/version but the header promises records that are not
    // there: 1 series, 1 record, then a truncated body.
    std::ofstream f(dir + "/short.tfcb", std::ios::binary);
    const unsigned char header[] = {'T', 'F', 'C', 'B', 1, 0, 0, 0,
                                    1,   0,   0,   0,   1, 0, 0, 0,
                                    0,   0,   0,   0};
    f.write(reinterpret_cast<const char*>(header), sizeof header);
    f << "\x01" << std::string(3, '\0') << "q";  // name table: "q"
  }
  EXPECT_FALSE(ConvertMetricsTfcbToJsonl(dir + "/short.tfcb",
                                         dir + "/out.jsonl", &error));
  EXPECT_NE(error.find("record section"), std::string::npos);
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

TEST(ProfilerTest, SitesRegisterGaugesAndScopeCounts) {
  MetricRegistry registry;
  Profiler profiler(&registry);
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

  double v = 0;
  ASSERT_TRUE(registry.Read("profile.x.y.hits", &v));
  EXPECT_DOUBLE_EQ(v, 2.0);
  ASSERT_TRUE(registry.Read("profile.x.y.wall_ns", &v));
  ASSERT_TRUE(registry.Read("profile.x.y.sim_ns", &v));

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
