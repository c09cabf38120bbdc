// Sweep determinism on the run supervisor (src/sim/supervisor.h) +
// multi-instance thread-compatibility of the simulator core.
//
// The contract under test is the one the Fig. 15/16 large-scale sweeps
// depend on: running N independent simulations as a supervised sweep must
// produce *bit-identical* per-run output whether the sweep runs on 1 or N
// workers — and identical to calling the same run directly in this
// process, a reference that involves no executor at all. Job bodies run in
// forked children, where a gtest EXPECT_* would be lost, so they report
// failure through their exit code instead. The MultiInstance tests are the
// regression tests for shared process-wide state (caches such as
// GitDescribe) and are the designated prey of the tsan preset: any hidden
// cross-simulation mutable state shows up here as a TSan report.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/fault.h"
#include "src/net/network.h"
#include "src/sim/supervisor.h"
#include "src/sim/telemetry.h"
#include "src/topo/topologies.h"
#include "src/workload/incast.h"
#include "src/workload/protocol.h"

namespace tfc {
namespace {

Protocol ProtocolForIndex(int i) {
  switch (i % 3) {
    case 0:
      return Protocol::kTfc;
    case 1:
      return Protocol::kDctcp;
    default:
      return Protocol::kTcp;
  }
}

// One self-contained Fig. 4 testbed incast run: builds its own Network,
// runs to completion, and (when `dir` is non-empty) exports a telemetry run
// directory. Appends a compact result line to *report so sweeps can also be
// compared without touching the filesystem. Returns nonzero when the export
// fails: in a forked child the exit code is the only failure signal.
int RunTestbedIncast(uint64_t seed, Protocol protocol, const std::string& dir,
                     std::string* report) {
  ProtocolSuite suite;
  suite.protocol = protocol;
  Network net(seed);
  LinkOptions link_opts;
  link_opts.ecn_threshold_bytes = suite.EcnThresholdBytes(kGbps);
  TestbedTopology topo = BuildTestbed(net, link_opts, kGbps);
  suite.InstallSwitchLogic(net);

  TimeSeriesRecorder recorder(&net.scheduler(), &net.metrics());
  for (const char* prefix : {"port.", "tfc.", "flow.", "sim.", "pool."}) {
    recorder.WatchPrefix(prefix);
  }
  recorder.Start(Microseconds(500));

  std::vector<Host*> responders(topo.hosts.begin() + 1, topo.hosts.begin() + 1 + 6);
  IncastConfig cfg;
  cfg.block_bytes = 64 * 1024;
  cfg.rounds = 2;
  IncastApp app(&net, suite, topo.hosts[0], responders, cfg);
  app.Start();
  net.scheduler().Run();
  recorder.Stop();

  std::ostringstream line;
  line << ProtocolName(protocol) << " seed=" << seed
       << " rounds=" << app.rounds_completed() << " goodput=" << app.goodput_bps()
       << " executed=" << net.scheduler().executed();
  *report += line.str();

  if (!dir.empty()) {
    RunManifest manifest;
    manifest.Set("protocol", suite.name());
    manifest.SetInt("seed", static_cast<int64_t>(seed));
    std::string error;
    if (!WriteRunDirectory(dir, manifest, net.metrics(), &recorder,
                           &net.profiler(), &error)) {
      *report += " export failed: " + error;
      return 1;
    }
  }
  return 0;
}

// The result line alone, for callers that run on plain threads.
std::string TestbedIncastLine(uint64_t seed, Protocol protocol) {
  std::string line;
  EXPECT_EQ(RunTestbedIncast(seed, protocol, /*dir=*/"", &line), 0) << line;
  return line;
}

// Supervised sweep of `jobs` on `workers` children; each job's report, in
// submission order. Fails the test if any run did not finish ok.
using SweepJob = RunSupervisor::JobFn;
std::vector<std::string> RunSupervised(int workers, const std::vector<SweepJob>& jobs) {
  SupervisorOptions options;
  options.workers = workers;
  RunSupervisor supervisor(options);
  for (size_t i = 0; i < jobs.size(); ++i) {
    supervisor.Add("run-" + std::to_string(i), /*run_dir=*/"", /*cache_key=*/"",
                   jobs[i]);
  }
  std::vector<std::string> reports;
  for (const SupervisedResult& r : supervisor.Run()) {
    EXPECT_EQ(r.status, RunStatus::kOk) << r.name << ": " << r.report;
    EXPECT_EQ(r.attempts, 1) << r.name;
    reports.push_back(r.report);
  }
  return reports;
}

// The same jobs called directly in this process, one after another: the
// executor-free reference every supervised sweep must reproduce.
std::vector<std::string> RunDirect(const std::vector<SweepJob>& jobs) {
  std::vector<std::string> reports;
  for (const SweepJob& job : jobs) {
    std::string report;
    EXPECT_EQ(job(&report), 0) << report;
    reports.push_back(report);
  }
  return reports;
}

// ---------------------------------------------------------------------------
// 1 worker == N workers == direct call, bit for bit
// ---------------------------------------------------------------------------

std::string ReadFile(const std::filesystem::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << p;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// manifest.json carries wall-clock fields (created_unix/created_utc) that
// legitimately differ between two executions; every *simulation-derived*
// field must still match exactly, so compare line by line minus those keys.
std::string StripWallClockFields(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"created_unix\"") != std::string::npos ||
        line.find("\"created_utc\"") != std::string::npos) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

TEST(SweepTest, EightRunParallelSweepIsBitIdenticalToSerial) {
  const std::filesystem::path base =
      std::filesystem::path(::testing::TempDir()) / "tfc_sweep_bitident";
  std::filesystem::remove_all(base);
  constexpr int kRuns = 8;

  // Mixed TFC/DCTCP/TCP over the Fig. 4 testbed, distinct seeds — the same
  // grid three times: directly in this process, supervised on 1 worker,
  // and supervised on 8 workers.
  const auto grid = [&base](const char* mode) {
    std::vector<SweepJob> jobs;
    for (int i = 0; i < kRuns; ++i) {
      const std::string dir = (base / mode / ("run-" + std::to_string(i))).string();
      const uint64_t seed = 100 + static_cast<uint64_t>(i);
      const Protocol protocol = ProtocolForIndex(i);
      jobs.push_back([seed, protocol, dir](std::string* report) {
        return RunTestbedIncast(seed, protocol, dir, report);
      });
    }
    return jobs;
  };
  const std::vector<std::string> direct = RunDirect(grid("direct"));
  const std::vector<std::string> serial = RunSupervised(1, grid("serial"));
  const std::vector<std::string> parallel = RunSupervised(8, grid("parallel"));

  // Same results, in the same order.
  ASSERT_EQ(direct.size(), static_cast<size_t>(kRuns));
  ASSERT_EQ(serial.size(), direct.size());
  ASSERT_EQ(parallel.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(serial[i], direct[i]) << "run " << i;
    EXPECT_EQ(parallel[i], direct[i]) << "run " << i;
  }

  // Same bytes on disk, file for file.
  for (int i = 0; i < kRuns; ++i) {
    const std::string run = "run-" + std::to_string(i);
    for (const char* mode : {"serial", "parallel"}) {
      for (const char* file : {"metrics.tfcb", "summary.json"}) {
        EXPECT_EQ(ReadFile(base / "direct" / run / file),
                  ReadFile(base / mode / run / file))
            << mode << "/" << run << "/" << file;
      }
      EXPECT_EQ(StripWallClockFields(ReadFile(base / "direct" / run / "manifest.json")),
                StripWallClockFields(ReadFile(base / mode / run / "manifest.json")))
          << mode << "/" << run << "/manifest.json";
    }
  }
}

// ---------------------------------------------------------------------------
// Fault-spec sweep: the replay-equality contract survives supervision
// ---------------------------------------------------------------------------

// A seeded fault schedule over the testbed (parsed from the same spec string
// the CLI accepts), reporting every injector counter plus per-flow delivery —
// the field-for-field replay signature from tests/chaos_test.cc. Returns
// nonzero if the spec does not parse.
int RunFaultCase(uint64_t seed, std::string* report) {
  Network net(seed);
  net.EnableAudit(Milliseconds(1));
  TestbedTopology topo = BuildTestbed(net);
  InstallTfcSwitches(net);

  FaultSpec spec;
  std::string error;
  const std::string text =
      "drop=0.004,ge=0.01/0.3/0.6,flap=2ms/300us,wipe=8ms,start=1ms,stop=30ms,seed=" +
      std::to_string(seed * 977 + 13);
  if (!FaultSpec::Parse(text, &spec, &error)) {
    *report += "bad fault spec: " + error;
    return 1;
  }
  FaultInjector inject(&net, spec.seed);
  inject.ApplySpec(spec);

  ProtocolSuite suite;
  constexpr int kPairs[4][2] = {{0, 3}, {1, 6}, {4, 2}, {7, 5}};
  std::vector<std::unique_ptr<ReliableSender>> flows;
  for (const auto& pair : kPairs) {
    auto f = suite.MakeSender(&net, topo.hosts[static_cast<size_t>(pair[0])],
                              topo.hosts[static_cast<size_t>(pair[1])]);
    f->Write(96 * 1024);
    f->Close();
    f->Start();
    flows.push_back(std::move(f));
  }
  net.scheduler().RunUntil(Seconds(10));

  std::ostringstream line;
  line << "seed=" << seed << " executed=" << net.scheduler().executed()
       << " drops=" << inject.drops() << " dups=" << inject.dups()
       << " reorders=" << inject.reorders() << " wipes=" << inject.agent_wipes()
       << " transitions=" << inject.link_transitions()
       << " down_ns=" << inject.link_down_ns();
  for (const auto& f : flows) {
    line << " d=" << f->delivered_bytes();
  }
  line << " audit_ok=" << net.RunAudit().ok();
  *report += line.str();
  return 0;
}

TEST(SweepTest, FaultSpecSweepReplaysIdenticallyAcrossPoolSizes) {
  constexpr int kRuns = 6;
  std::vector<SweepJob> jobs;
  for (int i = 0; i < kRuns; ++i) {
    const uint64_t seed = 7 + static_cast<uint64_t>(i);
    jobs.push_back([seed](std::string* report) { return RunFaultCase(seed, report); });
  }
  const std::vector<std::string> direct = RunDirect(jobs);
  ASSERT_EQ(direct.size(), static_cast<size_t>(kRuns));
  for (int workers : {1, 6}) {
    const std::vector<std::string> supervised = RunSupervised(workers, jobs);
    ASSERT_EQ(supervised.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(supervised[i], direct[i]) << "fault case " << i << " on "
                                          << workers << " worker(s)";
    }
  }
  for (const std::string& line : direct) {
    // The schedule actually injected something.
    EXPECT_NE(line.find(" drops="), std::string::npos);
    EXPECT_EQ(line.find(" drops=0 "), std::string::npos) << line;
  }
}

// ---------------------------------------------------------------------------
// Multi-instance thread compatibility (the shared-state regression tests)
// ---------------------------------------------------------------------------

TEST(MultiInstanceTest, TwoSimulationsRunConcurrentlyFromTwoThreads) {
  // Two full simulations, two protocols, constructed and destroyed on two
  // plain threads with overlapping lifetimes. Before the shared-state sweep
  // this was undefined behavior waiting to be scheduled (shared telemetry
  // caches); now it must produce exactly the single-threaded results.
  const std::string expect_a = TestbedIncastLine(/*seed=*/41, Protocol::kTfc);
  const std::string expect_b = TestbedIncastLine(/*seed=*/42, Protocol::kDctcp);

  std::string got_a;
  std::string got_b;
  std::thread ta([&got_a] { got_a = TestbedIncastLine(41, Protocol::kTfc); });
  std::thread tb([&got_b] { got_b = TestbedIncastLine(42, Protocol::kDctcp); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, expect_a);
  EXPECT_EQ(got_b, expect_b);
}

TEST(MultiInstanceTest, ConcurrentManifestExportsShareTheGitDescribeCache) {
  // GitDescribe() is the one process-wide cache in the telemetry layer
  // (popen, filled once, guarded by a tfc::Mutex). Hammer it from several
  // threads while manifests export — TSan verifies the guard, and every
  // caller must observe the same value.
  const std::string first = GitDescribe();
  std::vector<std::thread> threads;
  std::vector<std::string> seen(8);
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([t, &seen] { seen[t] = GitDescribe(); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const std::string& s : seen) {
    EXPECT_EQ(s, first);
  }
}

}  // namespace
}  // namespace tfc
