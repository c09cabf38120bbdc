// Crash-isolated run supervisor (src/sim/supervisor.h).
//
// The contracts under test are the ones `tfcsim --sweep` leans on: a child
// that aborts (even through the TFC_CHECK/audit funnel, with a post-mortem
// flight dump) takes only itself down and its artifacts are salvaged; a
// hung child is SIGKILLed at the deadline; failed runs retry with a
// deterministic backoff schedule and stop early when the failure is
// deterministic (two attempts dying the same way); completed runs leave a
// done marker that --resume verifies before skipping; and a retried run
// with the same seed produces byte-identical output to a clean run —
// supervision changes *whether* a run executes, never what it computes.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/sim/audit.h"
#include "src/sim/supervisor.h"
#include "src/sim/telemetry.h"
#include "src/topo/topologies.h"
#include "src/workload/incast.h"
#include "src/workload/protocol.h"

namespace tfc {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << p;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void WriteFile(const fs::path& p, const std::string& contents) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f << contents;
}

// Fast supervisor options for tests: 1ms backoff so retry tests don't wait.
SupervisorOptions FastOptions(int workers) {
  SupervisorOptions o;
  o.workers = workers;
  o.backoff_base_ms = 1;
  o.backoff_cap_ms = 4;
  return o;
}

// A self-contained micro incast run that exports a telemetry run directory —
// what a real sweep job does, scaled down. Runs *in the forked child*.
int RunMicroIncast(uint64_t seed, const std::string& run_dir,
                   std::string* report) {
  ProtocolSuite suite;
  Network net(seed);
  LinkOptions link_opts;
  link_opts.ecn_threshold_bytes = suite.EcnThresholdBytes(kGbps);
  StarTopology topo = BuildStar(net, 5, link_opts, kGbps);
  suite.InstallSwitchLogic(net);

  TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
  recorder.WatchPrefix("port.");
  recorder.WatchPrefix("incast.");
  recorder.Start(Microseconds(500));

  std::vector<Host*> responders(topo.hosts.begin() + 1, topo.hosts.end());
  IncastConfig cfg;
  cfg.block_bytes = 32 * 1024;
  cfg.rounds = 1;
  IncastApp app(&net, suite, topo.hosts[0], responders, cfg);
  app.Start();
  net.scheduler().Run();
  recorder.Stop();

  RunManifest manifest;
  manifest.SetInt("seed", static_cast<int64_t>(seed));
  std::string error;
  if (!WriteRunDirectory(run_dir, manifest, net.metrics(), &recorder,
                         &net.profiler(), &error)) {
    *report += "export failed: " + error + "\n";
    return 1;
  }
  *report += "rounds=" + std::to_string(app.rounds_completed()) + "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Pure mechanics: backoff schedule, done markers
// ---------------------------------------------------------------------------

TEST(SupervisorTest, BackoffScheduleIsDeterministicAndCapped) {
  EXPECT_EQ(RunSupervisor::BackoffMs(1, 250, 8000), 250);
  EXPECT_EQ(RunSupervisor::BackoffMs(2, 250, 8000), 500);
  EXPECT_EQ(RunSupervisor::BackoffMs(3, 250, 8000), 1000);
  EXPECT_EQ(RunSupervisor::BackoffMs(6, 250, 8000), 8000);   // capped
  EXPECT_EQ(RunSupervisor::BackoffMs(40, 250, 8000), 8000);  // shift clamp
  EXPECT_EQ(RunSupervisor::BackoffMs(0, 250, 8000), 250);    // floor at 1
  // Same inputs, same schedule — every call site sees identical delays.
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(RunSupervisor::BackoffMs(i, 10, 100),
              RunSupervisor::BackoffMs(i, 10, 100));
  }
}

TEST(SupervisorTest, DoneMarkerRoundTrip) {
  const fs::path dir = FreshDir("tfc_supervisor_marker");
  const std::string key = SweepCacheKey("workload=incast|senders=4", 7);
  EXPECT_NE(key.find("|seed=7"), std::string::npos);
  EXPECT_NE(key.find("|sweep_schema=" + std::to_string(kSweepSchemaVersion)),
            std::string::npos);

  // No marker yet.
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(dir.string(), key));
  std::string error;
  ASSERT_TRUE(RunSupervisor::WriteDoneMarker(dir.string(), key, &error)) << error;
  EXPECT_TRUE(RunSupervisor::DoneMarkerMatches(dir.string(), key));

  // The marker embeds both the hash and the full key.
  const std::string contents =
      ReadFile(fs::path(RunSupervisor::DoneMarkerPath(dir.string())));
  EXPECT_EQ(contents, RunSupervisor::DoneMarkerContents(key));
  EXPECT_NE(contents.find("tfc-run-done v1\n"), std::string::npos);
  EXPECT_NE(contents.find("key " + key), std::string::npos);

  // A different key (config drift, new git describe, schema bump) must not
  // verify; neither must a corrupted marker.
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(
      dir.string(), SweepCacheKey("workload=incast|senders=4", 8)));
  WriteFile(RunSupervisor::DoneMarkerPath(dir.string()), contents + "x");
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(dir.string(), key));
  // Empty key/dir never match (uncacheable runs).
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(dir.string(), ""));
  EXPECT_FALSE(RunSupervisor::DoneMarkerMatches("", key));
}

// ---------------------------------------------------------------------------
// Ordering: results in submission order, whatever order children finish in
// ---------------------------------------------------------------------------

TEST(SupervisorTest, ResultsLandInSubmissionOrderWhenChildrenFinishOutOfOrder) {
  // Six jobs on three workers, longest first: later submissions finish
  // before earlier ones. Each child appends its index to a shared log as it
  // finishes (O_APPEND keeps the one-byte writes whole), which proves the
  // completion order really was scrambled.
  const fs::path dir = FreshDir("tfc_supervisor_order");
  const std::string finish_log = (dir / "finish_order").string();
  constexpr int kJobs = 6;
  RunSupervisor sup(FastOptions(/*workers=*/3));
  for (int i = 0; i < kJobs; ++i) {
    sup.Add("job" + std::to_string(i), "", "",
            [i, finish_log](std::string* report) {
              usleep(static_cast<useconds_t>((kJobs - i) * 40000));
              *report = "hello from " + std::to_string(i) + "\n";
              const int fd = open(finish_log.c_str(),
                                  O_WRONLY | O_APPEND | O_CREAT, 0644);
              const char c = static_cast<char>('0' + i);
              const bool logged = fd >= 0 && write(fd, &c, 1) == 1;
              if (fd >= 0) {
                close(fd);
              }
              if (!logged) {
                return 99;
              }
              return i == 4 ? 3 : 0;  // one deliberate failure
            });
  }
  std::vector<SupervisedResult> results = sup.Run();

  const std::string finished = ReadFile(finish_log);
  ASSERT_EQ(finished.size(), static_cast<size_t>(kJobs)) << finished;
  EXPECT_NE(finished, "012345") << "children finished in submission order";

  ASSERT_EQ(results.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    const SupervisedResult& r = results[static_cast<size_t>(i)];
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(r.name, "job" + std::to_string(i));
    EXPECT_EQ(r.status, i == 4 ? RunStatus::kFailed : RunStatus::kOk);
    EXPECT_EQ(r.exit_code, i == 4 ? 3 : 0);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_GE(r.wall_seconds, 0.0);
    // Each result carries its own child's report (the failed one followed
    // by the supervisor's verdict line).
    const std::string hello = "hello from " + std::to_string(i) + "\n";
    if (i == 4) {
      EXPECT_TRUE(r.report.starts_with(hello)) << r.report;
    } else {
      EXPECT_EQ(r.report, hello);
    }
  }
}

// ---------------------------------------------------------------------------
// Crash isolation
// ---------------------------------------------------------------------------

TEST(SupervisorTest, AbortingChildIsIsolatedAndReportsSignal) {
  const fs::path dir = FreshDir("tfc_supervisor_abort");
  RunSupervisor sup(FastOptions(/*workers=*/3));
  sup.Add("ok-0", "", "", [](std::string* report) {
    *report = "first fine\n";
    return 0;
  });
  sup.Add("crashes", (dir / "crash").string(), "",
          [&](std::string* report) -> int {
            fs::create_directories(dir / "crash");
            WriteFile(dir / "crash" / "partial.bin", "partial artifact");
            *report = "about to abort\n";  // lost: never reaches the pipe flush
            std::abort();
          });
  sup.Add("ok-2", "", "", [](std::string* report) {
    *report = "second fine\n";
    return 0;
  });

  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 3u);

  // Siblings of the crashed run completed normally.
  EXPECT_EQ(results[0].status, RunStatus::kOk);
  EXPECT_EQ(results[0].report, "first fine\n");
  EXPECT_EQ(results[2].status, RunStatus::kOk);
  EXPECT_EQ(results[2].report, "second fine\n");

  // The crash is classified, not propagated.
  EXPECT_EQ(results[1].status, RunStatus::kFailed);
  EXPECT_EQ(results[1].term_signal, SIGABRT);
  EXPECT_EQ(results[1].exit_code, 128 + SIGABRT);
  EXPECT_EQ(results[1].attempts, 1);
  EXPECT_NE(results[1].report.find("killed by signal"), std::string::npos);
  // Artifacts the dead child left behind are inventoried.
  ASSERT_EQ(results[1].salvaged.size(), 1u);
  EXPECT_EQ(results[1].salvaged[0], "partial.bin");
}

TEST(SupervisorTest, AuditTripInChildSalvagesFlightPostMortem) {
  // The full tfcsim crash path in miniature: the child arms the flight
  // recorder, registers the post-mortem dump, and trips an audit — the
  // TFC_CHECK funnel dumps flight.tfct and aborts. The parent must classify
  // the SIGABRT and inventory the dump for the manifest.
  const fs::path dir = FreshDir("tfc_supervisor_trip");
  const std::string run_dir = (dir / "run").string();
  RunSupervisor sup(FastOptions(1));
  sup.Add("tripped", run_dir, "", [run_dir](std::string* report) {
    ProtocolSuite suite;
    Network net(3);
    LinkOptions link_opts;
    link_opts.ecn_threshold_bytes = suite.EcnThresholdBytes(kGbps);
    StarTopology topo = BuildStar(net, 5, link_opts, kGbps);
    suite.InstallSwitchLogic(net);
    net.flight().Arm(1024);
    std::error_code ec;
    fs::create_directories(run_dir, ec);
    net.ArmFlightPostMortem(run_dir + "/flight.tfct");
    net.EnableAudit(Microseconds(50));
    Network* net_ptr = &net;
    ScopedAudit trip(&net.audit(), "supervisor_test.trip",
                     [net_ptr](Auditor& a) {
                       a.Check(net_ptr->scheduler().now() < Microseconds(200),
                               "forced trip");
                     });
    std::vector<Host*> responders(topo.hosts.begin() + 1, topo.hosts.end());
    IncastConfig cfg;
    cfg.block_bytes = 64 * 1024;
    cfg.rounds = 4;
    IncastApp app(&net, suite, topo.hosts[0], responders, cfg);
    app.Start();
    net.scheduler().Run();  // aborts at the 200us audit tick
    *report += "unreachable\n";
    return 0;
  });

  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kFailed);
  EXPECT_EQ(results[0].term_signal, SIGABRT);
  ASSERT_FALSE(results[0].salvaged.empty());
  EXPECT_NE(std::find(results[0].salvaged.begin(), results[0].salvaged.end(),
                      std::string("flight.tfct")),
            results[0].salvaged.end());
  // The salvaged post-mortem is a real, non-empty dump.
  EXPECT_GT(fs::file_size(fs::path(run_dir) / "flight.tfct"), 0u);
}

TEST(SupervisorTest, HungChildIsKilledAtDeadline) {
  SupervisorOptions o = FastOptions(1);
  o.timeout_s = 0.2;
  RunSupervisor sup(o);
  sup.Add("hangs", "", "", [](std::string*) {
    for (;;) {
      sleep(1);
    }
    return 0;
  });
  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kTimeout);
  EXPECT_EQ(results[0].term_signal, SIGKILL);
  EXPECT_EQ(results[0].exit_code, 128 + SIGKILL);
  EXPECT_NE(results[0].report.find("timed out"), std::string::npos);
}

TEST(SupervisorTest, ThrowPreservesPartialReportAndMapsToExit70) {
  // Partial output buffered before the throw must survive into the result —
  // the child catches, appends the message, and ships the report over the
  // pipe before exiting 70.
  RunSupervisor sup(FastOptions(1));
  sup.Add("throws", "", "", [](std::string* report) -> int {
    *report += "progress before the explosion\n";
    throw std::runtime_error("boom");
  });
  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kFailed);
  EXPECT_EQ(results[0].exit_code, 70);
  EXPECT_EQ(results[0].term_signal, 0);
  EXPECT_NE(results[0].report.find("progress before the explosion"),
            std::string::npos);
  EXPECT_NE(results[0].report.find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(SupervisorTest, DeterministicFailureStopsAfterTwoIdenticalAttempts) {
  SupervisorOptions o = FastOptions(1);
  o.max_retries = 5;
  RunSupervisor sup(o);
  sup.Add("det", "", "", [](std::string*) { return 9; });
  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kFailed);
  EXPECT_EQ(results[0].exit_code, 9);
  // Budget allowed 6 attempts; two identical failures end it at 2.
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_NE(results[0].report.find("deterministic, not retrying"),
            std::string::npos);
}

TEST(SupervisorTest, TransientFailureRetriesThenSucceeds) {
  // Attempt state must live on the filesystem: every attempt is a fresh
  // fork, so in-memory state resets. First attempt fails, second succeeds.
  const fs::path dir = FreshDir("tfc_supervisor_transient");
  const fs::path flag = dir / "first_attempt_done";
  SupervisorOptions o = FastOptions(1);
  o.max_retries = 3;
  RunSupervisor sup(o);
  sup.Add("transient", "", "", [flag](std::string* report) {
    if (!fs::exists(flag)) {
      WriteFile(flag, "x");
      *report += "failing once\n";
      return 21;
    }
    *report += "recovered\n";
    return 0;
  });
  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kOk);
  EXPECT_EQ(results[0].exit_code, 0);
  EXPECT_EQ(results[0].attempts, 2);
  // Both attempts' reports, in order.
  EXPECT_NE(results[0].report.find("failing once"), std::string::npos);
  EXPECT_NE(results[0].report.find("retrying in"), std::string::npos);
  EXPECT_NE(results[0].report.find("recovered"), std::string::npos);
}

TEST(SupervisorTest, AlternatingFailuresExhaustTheRetryBudget) {
  const fs::path dir = FreshDir("tfc_supervisor_budget");
  const fs::path counter = dir / "attempts";
  SupervisorOptions o = FastOptions(1);
  o.max_retries = 2;
  RunSupervisor sup(o);
  sup.Add("flaky", "", "", [counter](std::string*) {
    int n = 0;
    if (fs::exists(counter)) {
      n = std::atoi(ReadFile(counter).c_str());
    }
    WriteFile(counter, std::to_string(n + 1));
    return 11 + n;  // 11, 12, 13 — never the same signature twice
  });
  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kFailed);
  EXPECT_EQ(results[0].attempts, 3);  // 1 + max_retries
  EXPECT_EQ(results[0].exit_code, 13);
  EXPECT_NE(results[0].report.find("retry budget exhausted"), std::string::npos);
}

TEST(SupervisorTest, RetrySalvagesThePreviousAttemptsArtifacts) {
  const fs::path dir = FreshDir("tfc_supervisor_salvage");
  const std::string run_dir = (dir / "run").string();
  SupervisorOptions o = FastOptions(1);
  o.max_retries = 1;
  RunSupervisor sup(o);
  const fs::path flag = dir / "failed_once";
  sup.Add("salvage", run_dir, "", [run_dir, flag](std::string* report) {
    fs::create_directories(run_dir);
    if (!fs::exists(flag)) {
      WriteFile(flag, "x");
      WriteFile(fs::path(run_dir) / "flight.tfct", "attempt-1 post-mortem");
      std::abort();
    }
    WriteFile(fs::path(run_dir) / "metrics.tfcb", "attempt-2 output");
    *report += "clean rerun\n";
    return 0;
  });
  std::vector<SupervisedResult> results = sup.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::kOk);
  EXPECT_EQ(results[0].attempts, 2);
  // Attempt 1's artifact was moved aside before attempt 2 ran, not lost.
  EXPECT_EQ(ReadFile(fs::path(run_dir) / "salvage-attempt-1" / "flight.tfct"),
            "attempt-1 post-mortem");
  EXPECT_EQ(ReadFile(fs::path(run_dir) / "metrics.tfcb"), "attempt-2 output");
  EXPECT_NE(results[0].report.find("salvaged 1 file(s)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

TEST(SupervisorTest, ResumeSkipsVerifiedRunsAndExecutesTheRest) {
  const fs::path dir = FreshDir("tfc_supervisor_resume");
  const std::string key_a = SweepCacheKey("cfg", 1);
  const std::string key_b = SweepCacheKey("cfg", 2);
  const std::string run_a = (dir / "run-a").string();
  const std::string run_b = (dir / "run-b").string();

  // First sweep: run A succeeds (marker written), run B aborts (no marker).
  {
    RunSupervisor sup(FastOptions(2));
    sup.Add("a", run_a, key_a, [](std::string* r) {
      *r = "a ran\n";
      return 0;
    });
    sup.Add("b", run_b, key_b, [](std::string*) -> int { std::abort(); });
    std::vector<SupervisedResult> results = sup.Run();
    EXPECT_EQ(results[0].status, RunStatus::kOk);
    EXPECT_EQ(results[1].status, RunStatus::kFailed);
    EXPECT_TRUE(RunSupervisor::DoneMarkerMatches(run_a, key_a));
    EXPECT_FALSE(RunSupervisor::DoneMarkerMatches(run_b, key_b));
  }

  // Resume: A is skipped without forking (its side effect would be visible),
  // B re-executes and completes.
  {
    SupervisorOptions o = FastOptions(2);
    o.resume = true;
    RunSupervisor sup(o);
    const fs::path a_reran = dir / "a_reran";
    sup.Add("a", run_a, key_a, [a_reran](std::string*) {
      WriteFile(a_reran, "x");
      return 0;
    });
    sup.Add("b", run_b, key_b, [](std::string* r) {
      *r = "b recovered\n";
      return 0;
    });
    std::vector<SupervisedResult> results = sup.Run();
    EXPECT_EQ(results[0].status, RunStatus::kSkippedCached);
    EXPECT_EQ(results[0].attempts, 0);
    EXPECT_FALSE(fs::exists(a_reran)) << "skipped run must not fork";
    EXPECT_EQ(results[1].status, RunStatus::kOk);
    EXPECT_EQ(results[1].report, "b recovered\n");
    EXPECT_TRUE(RunSupervisor::DoneMarkerMatches(run_b, key_b));
  }

  // A stale key (config drift) invalidates the cache: A re-executes.
  {
    SupervisorOptions o = FastOptions(1);
    o.resume = true;
    RunSupervisor sup(o);
    sup.Add("a", run_a, SweepCacheKey("cfg-changed", 1), [](std::string* r) {
      *r = "a re-ran under new config\n";
      return 0;
    });
    std::vector<SupervisedResult> results = sup.Run();
    EXPECT_EQ(results[0].status, RunStatus::kOk);
    EXPECT_EQ(results[0].attempts, 1);
  }
}

// ---------------------------------------------------------------------------
// Determinism: supervision never changes what a run computes
// ---------------------------------------------------------------------------

TEST(SupervisorTest, RetriedRunIsByteIdenticalToACleanRun) {
  const fs::path dir = FreshDir("tfc_supervisor_bitident");
  const std::string clean_dir = (dir / "clean").string();
  const std::string retried_dir = (dir / "retried").string();
  constexpr uint64_t kSeed = 77;

  // Clean reference: one supervised attempt, no drama.
  {
    RunSupervisor sup(FastOptions(1));
    sup.Add("clean", clean_dir, "", [clean_dir](std::string* report) {
      return RunMicroIncast(kSeed, clean_dir, report);
    });
    std::vector<SupervisedResult> results = sup.Run();
    ASSERT_EQ(results[0].status, RunStatus::kOk) << results[0].report;
  }

  // Same simulation, but the first attempt crashes mid-run; the retry must
  // reproduce the clean run bit for bit (same seed, fresh process).
  {
    SupervisorOptions o = FastOptions(1);
    o.max_retries = 1;
    RunSupervisor sup(o);
    const fs::path flag = dir / "crashed_once";
    sup.Add("retried", retried_dir, "", [retried_dir, flag](std::string* report) {
      if (!fs::exists(flag)) {
        WriteFile(flag, "x");
        fs::create_directories(retried_dir);
        WriteFile(fs::path(retried_dir) / "metrics.tfcb", "garbage partial");
        std::abort();
      }
      return RunMicroIncast(kSeed, retried_dir, report);
    });
    std::vector<SupervisedResult> results = sup.Run();
    ASSERT_EQ(results[0].status, RunStatus::kOk) << results[0].report;
    EXPECT_EQ(results[0].attempts, 2);
  }

  for (const char* file : {"metrics.tfcb", "summary.json"}) {
    EXPECT_EQ(ReadFile(fs::path(clean_dir) / file),
              ReadFile(fs::path(retried_dir) / file))
        << file;
  }
  // The garbage partial from the crashed attempt was salvaged, not merged.
  EXPECT_EQ(ReadFile(fs::path(retried_dir) / "salvage-attempt-1" / "metrics.tfcb"),
            "garbage partial");
}

// ---------------------------------------------------------------------------
// Manifest plumbing
// ---------------------------------------------------------------------------

TEST(SupervisorTest, ManifestRecordsPerRunStatusSignalAndSalvage) {
  const fs::path dir = FreshDir("tfc_supervisor_manifest");
  RunSupervisor sup(FastOptions(2));
  sup.Add("good", "", "", [](std::string*) { return 0; });
  const std::string crash_dir = (dir / "crash").string();
  sup.Add("bad", crash_dir, "", [crash_dir](std::string*) -> int {
    fs::create_directories(crash_dir);
    WriteFile(fs::path(crash_dir) / "flight.tfct", "dump");
    std::abort();
  });
  std::vector<SupervisedResult> results = sup.Run();

  const std::string path = (dir / "sweep.json").string();
  RunManifest extra;
  extra.Set("tool", "supervisor_test");
  extra.SetInt("sweep", 2);
  std::string error;
  ASSERT_TRUE(WriteSweepManifest(path, extra, results, &error)) << error;
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  // Sweep-level config from `extra`, and one entry per run.
  EXPECT_NE(json.find("\"tool\": \"supervisor_test\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"index\": 0, \"name\": \"good\""), std::string::npos);
  EXPECT_NE(json.find("\"index\": 1, \"name\": \"bad\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
  std::ostringstream sig;
  sig << "\"signal\": " << SIGABRT;
  EXPECT_NE(json.find(sig.str()), std::string::npos);
  EXPECT_NE(json.find("\"salvaged\": [\"flight.tfct\"]"), std::string::npos);
}

}  // namespace
}  // namespace tfc
