// tfcsim — scenario driver for the TFC simulator.
//
// One binary to run any combination of workload, protocol, and topology
// from the command line and get a standard report (goodput, FCT, queues,
// loss), with optional packet tracing.
//
//   ./tfcsim --workload=incast --protocol=tfc --senders=60
//   ./tfcsim --workload=shuffle --protocol=dctcp --topology=fattree
//   ./tfcsim --workload=longflows --protocol=tcp --flows=8 --duration=2
//   ./tfcsim --workload=benchmark --protocol=tfc --topology=leafspine
//   ./tfcsim --help
//
// Flags (all optional):
//   --workload=incast|shuffle|longflows|benchmark     (default incast)
//   --protocol=tfc|dctcp|tcp|all                      (default tfc)
//   --topology=star|testbed|leafspine|fattree         (default star)
//   --senders=N  --flows=N  --block_kb=N  --rounds=N  --duration=SECONDS
//   --gbps=N (link rate)  --seed=N  --trace=FILE  --quick
//   --trace-ring=N            arm the binary flight recorder (N events)
//   --export-trace=RUN_DIR    render RUN_DIR/flight.tfct to Perfetto JSON
//   --force-audit-trip=US     fail an audit at US microseconds (testing)
//   --telemetry-dir=DIR       write manifest.json/metrics.tfcb/summary.json
//   --telemetry-interval=US   recorder sampling period in microseconds
//   --convert=RUN_DIR         decode RUN_DIR/metrics.tfcb to RUN_DIR/metrics.jsonl
//   --fault-spec=SPEC         inject faults (see src/net/fault.h), e.g.
//                             drop=0.01,flap=5ms/500us,wipe=10ms,seed=7
//   --sweep=N                 run N independent repetitions (seeds seed..seed+N-1)
//   --jobs=J                  concurrent sweep runs (default: all hardware threads)
//   --retry=N --run-timeout=S --resume --backoff-ms=MS   supervised-sweep knobs
//   --watchdog=S              per-run no-progress detector (sim seconds)

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "src/net/fault.h"
#include "src/net/trace.h"
#include "src/sim/supervisor.h"
#include "src/sim/telemetry.h"
#include "src/topo/topologies.h"
#include "src/workload/benchmark_traffic.h"
#include "src/workload/incast.h"
#include "src/workload/persistent_flow.h"
#include "src/workload/shuffle.h"

namespace {

using namespace tfc;

struct Options {
  std::string workload = "incast";
  std::string protocol = "tfc";
  std::string topology = "star";
  int senders = 40;
  int flows = 4;
  uint64_t block_kb = 256;
  int rounds = 10;
  double duration_s = 1.0;
  uint64_t gbps = 1;
  uint64_t seed = 1;
  std::string trace_file;
  std::string telemetry_dir;
  std::string convert_dir;
  std::string fault_spec;
  uint64_t telemetry_interval_us = 1000;
  int sweep = 1;
  int jobs = 0;  // 0 = RunSupervisor::DefaultWorkers()
  uint64_t trace_ring = 0;  // flight-recorder capacity (0 = disarmed)
  std::string export_trace_dir;
  uint64_t force_audit_trip_us = 0;  // schedule a failing audit (testing)
  int trip_run = -1;        // sweep repetition the forced trip applies to (-1 = all)
  int retry = 0;            // supervised sweeps: extra attempts per failed run
  double run_timeout_s = 0; // supervised sweeps: per-run wall-clock limit
  int backoff_ms = 250;     // supervised sweeps: first retry delay
  bool resume = false;      // supervised sweeps: skip done-marker-verified runs
  double watchdog_s = -1;   // no-progress stall threshold (sim s); -1 = default
};

// Buffered per-run output: sweep jobs must never write to stdout directly
// (parallel runs would interleave), so every run appends to the caller's
// string and main() prints reports in submission order. Identical bytes
// whether the run executed in this process or in a forked child.
// Writing *through* to the result slot (instead of copying at job end)
// preserves everything written before a mid-run throw or crash.
struct Report {
  explicit Report(std::string* out) : text(*out) {}
  std::string& text;

  __attribute__((format(printf, 2, 3))) void Printf(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    char buf[1024];
    const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    if (n > 0) {
      text.append(buf, std::min(static_cast<size_t>(n), sizeof buf - 1));
    }
  }
};

void PrintHelp() {
  std::puts(
      "tfcsim - TFC simulator scenario driver\n"
      "  --workload=incast|shuffle|longflows|benchmark   (default incast)\n"
      "  --protocol=tfc|dctcp|tcp|all                    (default tfc)\n"
      "  --topology=star|testbed|leafspine|fattree       (default star)\n"
      "  --senders=N      incast responders               (default 40)\n"
      "  --flows=N        longflows/shuffle participants  (default 4)\n"
      "  --block_kb=N     incast block / shuffle block    (default 256)\n"
      "  --rounds=N       incast rounds                   (default 10)\n"
      "  --duration=S     longflows/benchmark seconds     (default 1.0)\n"
      "  --gbps=N         edge link rate                  (default 1)\n"
      "  --seed=N         RNG seed                        (default 1)\n"
      "  --trace=FILE     write a packet trace (ns-2 style text)\n"
      "  --trace-ring=N   arm the flight recorder with an N-event ring; the\n"
      "                   ring dumps to flight.tfct (next to metrics.tfcb when\n"
      "                   --telemetry-dir is set) at end of run and on any\n"
      "                   audit/TFC_CHECK/watchdog abort\n"
      "  --export-trace=DIR        read DIR/flight.tfct and write\n"
      "                            DIR/trace.perfetto.json (load in Perfetto)\n"
      "                            and DIR/flows.txt, then exit\n"
      "  --force-audit-trip=US     register an audit invariant that fails once\n"
      "                            sim time reaches US microseconds (exercises\n"
      "                            the post-mortem dump path; testing only)\n"
      "  --telemetry-dir=DIR       write a telemetry run directory\n"
      "                            (manifest.json, metrics.tfcb, summary.json)\n"
      "  --telemetry-interval=US   recorder sampling period (default 1000 us)\n"
      "  --convert=RUN_DIR         decode RUN_DIR/metrics.tfcb into the legacy\n"
      "                            RUN_DIR/metrics.jsonl and exit\n"
      "  --fault-spec=SPEC         deterministic fault schedule, e.g.\n"
      "                            drop=0.01,ge=0.02/0.3/0.5,flap=5ms/500us,\n"
      "                            wipe=10ms,host_down=4ms+1ms,seed=7\n"
      "                            (keys: drop dup reorder reorder_delay ge\n"
      "                             flap wipe host_down start stop seed)\n"
      "  --sweep=N        run N repetitions with seeds seed..seed+N-1;\n"
      "                   telemetry lands in DIR/run-NNNN, DIR/sweep.json merges;\n"
      "                   each run executes in its own forked child (a crashing\n"
      "                   run cannot take the sweep down)\n"
      "  --jobs=J         concurrent sweep runs (default: hardware threads)\n"
      "  --retry=N        extra attempts per failed sweep run; two attempts that\n"
      "                   die the same way stop early (deterministic failure)\n"
      "  --run-timeout=S  SIGKILL a sweep run after S wall-clock seconds\n"
      "  --backoff-ms=MS  first retry delay, doubling per failure (default 250)\n"
      "  --resume         skip sweep runs whose done marker verifies against\n"
      "                   (config, seed, git describe, schema); needs\n"
      "                   --telemetry-dir\n"
      "  --trip-run=K     apply --force-audit-trip to sweep repetition K only\n"
      "  --watchdog=S     abort a run that makes no progress for S sim-seconds\n"
      "                   (default: 5 in sweep mode, off single-run; 0 disables)");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

struct BuiltTopology {
  std::vector<Host*> hosts;
  std::vector<Switch*> switches;
};

BuiltTopology Build(Network& net, const Options& opt, const LinkOptions& link_opts) {
  BuiltTopology out;
  const BitsPerSec bps = opt.gbps * kGbps;
  if (opt.topology == "testbed") {
    TestbedTopology t = BuildTestbed(net, link_opts, bps);
    out.hosts = t.hosts;
    out.switches = t.switches;
  } else if (opt.topology == "leafspine") {
    LeafSpineTopology t = BuildLeafSpine(net, 6, 8, link_opts, bps, 10 * bps);
    out.hosts = t.all_hosts;
    out.switches = t.leaves;
    out.switches.push_back(t.spine);
  } else if (opt.topology == "fattree") {
    FatTreeTopology t = BuildFatTree(net, 4, link_opts, bps);
    out.hosts = t.hosts;
    out.switches = t.cores;
  } else {  // star
    const int hosts = std::max(opt.senders + 1, opt.flows + 1);
    StarTopology t = BuildStar(net, hosts, link_opts, bps);
    out.hosts = t.hosts;
    out.switches.push_back(t.sw);
  }
  return out;
}

struct PortTotals {
  uint64_t drops = 0;
  Bytes max_queue = 0;
};

PortTotals SwitchTotals(const Network& net) {
  PortTotals totals;
  for (const auto& node : net.nodes()) {
    if (node->is_host()) {
      continue;
    }
    for (const auto& port : node->ports()) {
      totals.drops += port->drops();
      totals.max_queue = std::max(totals.max_queue, port->max_queue_bytes());
    }
  }
  return totals;
}

int RunOne(const Options& opt, Protocol protocol, const std::string& run_dir,
           Report& rep) {
  ProtocolSuite suite;
  suite.protocol = protocol;
  Network net(opt.seed);
  LinkOptions link_opts;
  link_opts.ecn_threshold_bytes = suite.EcnThresholdBytes(opt.gbps * kGbps);
  BuiltTopology topo = Build(net, opt, link_opts);
  suite.InstallSwitchLogic(net);

  // Flight recorder: arm the ring before any workload traffic, and register
  // the post-mortem path immediately so an abort at *any* later point (audit
  // trip, TFC_CHECK, watchdog stall) still drains the ring to disk. The dump
  // directory must exist before the trip, not after.
  std::string flight_path;
  if (opt.trace_ring > 0) {
    net.flight().Arm(static_cast<size_t>(opt.trace_ring));
    if (run_dir.empty()) {
      flight_path = "flight.tfct";
    } else {
      std::error_code ec;
      std::filesystem::create_directories(run_dir, ec);
      flight_path = run_dir + "/flight.tfct";
    }
    net.ArmFlightPostMortem(flight_path);
  }

  // Forced audit trip (testing): an invariant that holds until the requested
  // sim time, then fails — the next periodic AuditTick aborts through the
  // TFC_CHECK funnel, which dumps the armed flight recorder first.
  std::unique_ptr<ScopedAudit> forced_trip;
  if (opt.force_audit_trip_us > 0) {
    net.EnableAudit(Microseconds(100));
    const TimeNs trip_at =
        Microseconds(static_cast<int64_t>(opt.force_audit_trip_us));
    Network* net_ptr = &net;
    forced_trip = std::make_unique<ScopedAudit>(
        &net.audit(), "tfcsim.forced_trip", [net_ptr, trip_at](Auditor& a) {
          a.Check(net_ptr->scheduler().now() < trip_at,
                  "forced audit trip (--force-audit-trip)");
        });
  }

  // Liveness watchdog (default-on in sweep mode): samples the total bytes
  // every port has transmitted; a workload that is neither done nor moving
  // any bytes for watchdog_s sim-seconds aborts through the TFC_CHECK
  // funnel, which drains any armed flight recorder to flight.tfct first.
  // Ticks are daemon events, so the watchdog never keeps drain-mode Run()
  // alive and never perturbs what the simulation computes.
  std::unique_ptr<LivenessWatchdog> watchdog;
  if (opt.watchdog_s > 0) {
    watchdog = std::make_unique<LivenessWatchdog>(&net.scheduler(),
                                                  Seconds(opt.watchdog_s / 4.0),
                                                  Seconds(opt.watchdog_s));
    watchdog->set_abort_on_stall(true);
  }
  Network* const net_for_watch = &net;
  const auto arm_watchdog = [&watchdog,
                             net_for_watch](LivenessWatchdog::DoneFn done) {
    if (watchdog == nullptr) {
      return;
    }
    watchdog->Watch(
        "workload",
        [net_for_watch] {
          double total = 0;
          for (const auto& node : net_for_watch->nodes()) {
            for (const auto& port : node->ports()) {
              total += static_cast<double>(port->tx_bytes());
            }
          }
          return total;
        },
        std::move(done));
    watchdog->Start();
  };

  // The injector owns daemon timers into the scheduler, so it must die
  // before the Network: declare it after `net`.
  std::unique_ptr<FaultInjector> inject;
  if (!opt.fault_spec.empty()) {
    FaultSpec spec;
    std::string error;
    if (!FaultSpec::Parse(opt.fault_spec, &spec, &error)) {
      rep.Printf("bad --fault-spec: %s\n", error.c_str());
      return 1;
    }
    inject = std::make_unique<FaultInjector>(&net, spec.seed);
    inject->ApplySpec(spec);
  }

  std::ofstream trace_out;
  std::unique_ptr<TextTracer> tracer;
  if (!opt.trace_file.empty()) {
    trace_out.open(opt.trace_file);
    if (!trace_out) {
      rep.Printf("cannot open trace file '%s'\n", opt.trace_file.c_str());
      return 1;
    }
    tracer = std::make_unique<TextTracer>(&trace_out);
    net.set_tracer(tracer.get());
  }

  // Telemetry: watch every component prefix (prefixes re-expand on each
  // tick, so flows and apps registered below are picked up automatically).
  std::unique_ptr<TimeSeriesRecorder> recorder;
  if (!run_dir.empty()) {
    recorder = std::make_unique<TimeSeriesRecorder>(&net.scheduler(), &net.metrics());
    for (const char* prefix : {"port.", "tfc.", "flow.", "sim.", "pool.", "incast."}) {
      recorder->WatchPrefix(prefix);
    }
    recorder->Start(Microseconds(static_cast<int64_t>(opt.telemetry_interval_us)));
  }

  rep.Printf("--- %s | %s | %s ---\n", suite.name(), opt.workload.c_str(),
              opt.topology.c_str());

  // Workload objects are hoisted out of the branches so their registered
  // metrics (FCT histograms, per-flow gauges) are still alive when the
  // telemetry exporter snapshots the registry below.
  std::unique_ptr<IncastApp> incast_app;
  std::unique_ptr<ShuffleApp> shuffle_app;
  std::vector<std::unique_ptr<PersistentFlow>> long_flows;
  std::unique_ptr<BenchmarkTrafficApp> bench_app;

  if (opt.workload == "incast") {
    if (static_cast<size_t>(opt.senders) + 1 > topo.hosts.size()) {
      rep.Printf("topology too small for %d senders\n", opt.senders);
      return 1;
    }
    std::vector<Host*> responders(topo.hosts.begin() + 1,
                                  topo.hosts.begin() + 1 + opt.senders);
    IncastConfig cfg;
    cfg.block_bytes = opt.block_kb * 1024;
    cfg.rounds = opt.rounds;
    incast_app = std::make_unique<IncastApp>(&net, suite, topo.hosts[0],
                                             responders, cfg);
    IncastApp& app = *incast_app;
    app.Start();
    arm_watchdog([app_ptr = &app, rounds = opt.rounds] {
      return app_ptr->rounds_completed() >= rounds;
    });
    // Drain-mode Run(): finishes when the workload does, and recorder
    // daemon ticks never keep it alive (unlike RunUntil with a horizon).
    net.scheduler().Run();
    if (recorder != nullptr) {
      // Per-flow block FCT summary gauges land in summary.json.
      for (size_t i = 0; i < responders.size(); ++i) {
        SampleSet fcts = app.block_fcts(i);
        const std::string prefix = "incast.flow" + std::to_string(i);
        net.metrics().AddGauge(prefix + ".fct_mean_us")->Set(fcts.Mean() * 1e6);
        net.metrics().AddGauge(prefix + ".fct_p99_us")->Set(fcts.Percentile(99) * 1e6);
        net.metrics().AddGauge(prefix + ".fct_max_us")->Set(fcts.Max() * 1e6);
      }
    }
    PortTotals totals = SwitchTotals(net);
    rep.Printf("rounds=%d/%d goodput=%.1fMbps timeouts=%llu maxTO/block=%.2f "
                "drops=%llu maxq=%.1fKB\n",
                app.rounds_completed(), opt.rounds, app.goodput_bps() / 1e6,
                static_cast<unsigned long long>(app.total_timeouts()),
                app.max_timeouts_per_block(),
                static_cast<unsigned long long>(totals.drops),
                static_cast<double>(totals.max_queue) / 1024.0);
  } else if (opt.workload == "shuffle") {
    std::vector<Host*> participants(topo.hosts.begin(),
                                    topo.hosts.begin() + std::min<size_t>(
                                                             topo.hosts.size(),
                                                             static_cast<size_t>(opt.flows)));
    ShuffleConfig cfg;
    cfg.block_bytes = opt.block_kb * 1024;
    shuffle_app = std::make_unique<ShuffleApp>(&net, suite, participants, cfg);
    ShuffleApp& app = *shuffle_app;
    app.Start();
    arm_watchdog([app_ptr = &app] {
      return app_ptr->flows_completed() >= app_ptr->flows_total();
    });
    net.scheduler().Run();
    PortTotals totals = SwitchTotals(net);
    rep.Printf("flows=%zu/%zu elapsed=%.3fs goodput=%.1fMbps timeouts=%llu "
                "drops=%llu maxq=%.1fKB\n",
                app.flows_completed(), app.flows_total(), ToSeconds(app.elapsed()),
                app.goodput_bps() / 1e6,
                static_cast<unsigned long long>(app.total_timeouts()),
                static_cast<unsigned long long>(totals.drops),
                static_cast<double>(totals.max_queue) / 1024.0);
  } else if (opt.workload == "longflows") {
    std::vector<std::unique_ptr<PersistentFlow>>& flows = long_flows;
    for (int i = 1; i <= opt.flows && static_cast<size_t>(i) < topo.hosts.size(); ++i) {
      flows.push_back(std::make_unique<PersistentFlow>(
          suite.MakeSender(&net, topo.hosts[static_cast<size_t>(i)], topo.hosts[0])));
      flows.back()->Start();
    }
    // Persistent flows are never "done": only the duration horizon ends the
    // run, so any sustained silence is a genuine stall.
    arm_watchdog([] { return false; });
    net.scheduler().RunUntil(Seconds(opt.duration_s));
    uint64_t delivered = 0;
    for (auto& f : flows) {
      delivered += f->delivered_bytes();
    }
    PortTotals totals = SwitchTotals(net);
    rep.Printf("flows=%zu goodput=%.1fMbps drops=%llu maxq=%.1fKB\n", flows.size(),
                static_cast<double>(delivered) * 8.0 / opt.duration_s / 1e6,
                static_cast<unsigned long long>(totals.drops),
                static_cast<double>(totals.max_queue) / 1024.0);
  } else if (opt.workload == "benchmark") {
    BenchmarkTrafficConfig cfg;
    cfg.stop_time = Seconds(opt.duration_s);
    bench_app = std::make_unique<BenchmarkTrafficApp>(&net, suite, topo.hosts, cfg);
    BenchmarkTrafficApp& app = *bench_app;
    app.Start();
    arm_watchdog([app_ptr = &app, net_for_watch, stop = Seconds(opt.duration_s)] {
      return net_for_watch->scheduler().now() >= stop &&
             app_ptr->flows_completed() >= app_ptr->flows_started();
    });
    net.scheduler().RunUntil(Seconds(opt.duration_s) + Seconds(30));
    rep.Printf("flows=%llu/%llu query FCT: mean=%.1fus 99th=%.1fus 99.9th=%.1fus "
                "timeouts=%llu\n",
                static_cast<unsigned long long>(app.flows_completed()),
                static_cast<unsigned long long>(app.flows_started()),
                app.fct().query().Mean(), app.fct().query().Percentile(99),
                app.fct().query().Percentile(99.9),
                static_cast<unsigned long long>(app.total_timeouts()));
  } else {
    rep.Printf("unknown workload '%s'\n", opt.workload.c_str());
    return 1;
  }

  if (inject != nullptr) {
    rep.Printf("faults: drops=%llu (rand=%llu burst=%llu link=%llu) dups=%llu "
                "reorders=%llu wipes=%llu link_transitions=%llu downtime=%.3fms\n",
                static_cast<unsigned long long>(inject->drops()),
                static_cast<unsigned long long>(inject->random_drops()),
                static_cast<unsigned long long>(inject->burst_drops()),
                static_cast<unsigned long long>(inject->link_drops()),
                static_cast<unsigned long long>(inject->dups()),
                static_cast<unsigned long long>(inject->reorders()),
                static_cast<unsigned long long>(inject->agent_wipes()),
                static_cast<unsigned long long>(inject->link_transitions()),
                static_cast<double>(inject->link_down_ns()) / 1e6);
  }

  if (tracer != nullptr) {
    rep.Printf("trace: %llu events -> %s\n",
                static_cast<unsigned long long>(tracer->events_written()),
                opt.trace_file.c_str());
    net.set_tracer(nullptr);
  }

  if (opt.trace_ring > 0) {
    // Clean end of run: dump the ring now. The recorder stays armed (and the
    // post-mortem registration stays live) through teardown, so a violation
    // in the final audit pass still overwrites this file with the fuller
    // picture.
    std::string error;
    if (!net.DumpFlight(flight_path, &error)) {
      rep.Printf("flight dump failed: %s\n", error.c_str());
      return 1;
    }
    rep.Printf("flight: %llu event(s) in ring (%llu recorded) -> %s\n",
                static_cast<unsigned long long>(net.flight().size()),
                static_cast<unsigned long long>(net.flight().recorded()),
                flight_path.c_str());
  }

  if (recorder != nullptr) {
    recorder->Stop();
    RunManifest manifest;
    manifest.Set("tool", "tfcsim");
    manifest.Set("workload", opt.workload);
    manifest.Set("protocol", suite.name());
    manifest.Set("topology", opt.topology);
    manifest.SetInt("senders", opt.senders);
    manifest.SetInt("flows", opt.flows);
    manifest.SetInt("block_kb", static_cast<int64_t>(opt.block_kb));
    manifest.SetInt("rounds", opt.rounds);
    manifest.SetDouble("duration_s", opt.duration_s);
    manifest.SetInt("gbps", static_cast<int64_t>(opt.gbps));
    manifest.SetInt("seed", static_cast<int64_t>(opt.seed));
    if (!opt.fault_spec.empty()) {
      manifest.Set("fault_spec", opt.fault_spec);
    }
    manifest.SetInt("telemetry_interval_us",
                    static_cast<int64_t>(opt.telemetry_interval_us));
    manifest.SetDouble("sim_end_s", ToSeconds(net.scheduler().now()));
    std::string error;
    if (!WriteRunDirectory(run_dir, manifest, net.metrics(), recorder.get(),
                           &net.profiler(), &error)) {
      rep.Printf("telemetry export failed: %s\n", error.c_str());
      return 1;
    }
    rep.Printf("telemetry: %zu series, %llu ticks -> %s/\n",
                recorder->SeriesNames().size(),
                static_cast<unsigned long long>(recorder->ticks()), run_dir.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintHelp();
      return 0;
    } else if (ParseFlag(arg, "workload", &opt.workload) ||
               ParseFlag(arg, "protocol", &opt.protocol) ||
               ParseFlag(arg, "topology", &opt.topology) ||
               ParseFlag(arg, "trace", &opt.trace_file) ||
               ParseFlag(arg, "telemetry-dir", &opt.telemetry_dir) ||
               ParseFlag(arg, "convert", &opt.convert_dir) ||
               ParseFlag(arg, "export-trace", &opt.export_trace_dir) ||
               ParseFlag(arg, "fault-spec", &opt.fault_spec)) {
      continue;
    } else if (ParseFlag(arg, "trace-ring", &value)) {
      opt.trace_ring = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "force-audit-trip", &value)) {
      opt.force_audit_trip_us = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "telemetry-interval", &value)) {
      opt.telemetry_interval_us = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "senders", &value)) {
      opt.senders = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "flows", &value)) {
      opt.flows = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "block_kb", &value)) {
      opt.block_kb = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "rounds", &value)) {
      opt.rounds = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "duration", &value)) {
      opt.duration_s = std::atof(value.c_str());
    } else if (ParseFlag(arg, "gbps", &value)) {
      opt.gbps = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "seed", &value)) {
      opt.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "sweep", &value)) {
      opt.sweep = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "jobs", &value)) {
      opt.jobs = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "retry", &value)) {
      opt.retry = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "run-timeout", &value)) {
      opt.run_timeout_s = std::atof(value.c_str());
    } else if (ParseFlag(arg, "backoff-ms", &value)) {
      opt.backoff_ms = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "trip-run", &value)) {
      opt.trip_run = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "watchdog", &value)) {
      opt.watchdog_s = std::atof(value.c_str());
    } else if (std::strcmp(arg, "--resume") == 0) {
      opt.resume = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg);
      return 1;
    }
  }
  if (!opt.convert_dir.empty()) {
    // Offline converter mode: no simulation, just decode the binary spill
    // back to the legacy JSONL for plotting scripts and diffing.
    const std::string tfcb = opt.convert_dir + "/metrics.tfcb";
    const std::string jsonl = opt.convert_dir + "/metrics.jsonl";
    std::string error;
    if (!tfc::ConvertMetricsTfcbToJsonl(tfcb, jsonl, &error)) {
      std::fprintf(stderr, "convert failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("converted %s -> %s\n", tfcb.c_str(), jsonl.c_str());
    return 0;
  }
  if (!opt.export_trace_dir.empty()) {
    // Offline exporter mode: no simulation, just render DIR/flight.tfct into
    // a Perfetto-loadable JSON trace and a per-flow text timeline.
    std::string error;
    if (!tfc::ExportFlightTrace(opt.export_trace_dir, &error)) {
      std::fprintf(stderr, "export-trace failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("exported %s/flight.tfct -> %s/trace.perfetto.json, %s/flows.txt\n",
                opt.export_trace_dir.c_str(), opt.export_trace_dir.c_str(),
                opt.export_trace_dir.c_str());
    return 0;
  }
  if (opt.senders < 1 || opt.flows < 1 || opt.rounds < 1 || opt.gbps < 1 ||
      opt.duration_s <= 0 || opt.telemetry_interval_us < 1 || opt.sweep < 1 ||
      opt.jobs < 0 || opt.retry < 0 || opt.run_timeout_s < 0 ||
      opt.backoff_ms < 1) {
    std::fprintf(stderr, "numeric flags must be positive\n");
    return 1;
  }
  if (opt.sweep > 1 && !opt.trace_file.empty()) {
    std::fprintf(stderr, "--trace and --sweep cannot combine "
                         "(runs would clobber one trace file)\n");
    return 1;
  }
  if (opt.sweep > 1 && opt.trace_ring > 0 && opt.telemetry_dir.empty()) {
    std::fprintf(stderr, "--trace-ring with --sweep needs --telemetry-dir "
                         "(each run dumps flight.tfct into its run directory)\n");
    return 1;
  }
  if (opt.sweep == 1 && (opt.resume || opt.retry > 0 || opt.run_timeout_s > 0 ||
                         opt.trip_run >= 0)) {
    std::fprintf(stderr, "--resume/--retry/--run-timeout/--trip-run "
                         "require --sweep\n");
    return 1;
  }
  if (opt.resume && opt.telemetry_dir.empty()) {
    std::fprintf(stderr, "--resume needs --telemetry-dir "
                         "(done markers live in the run directories)\n");
    return 1;
  }
  // Watchdog default: on (5 sim-seconds) for sweep runs — a silently hung
  // run should fail loudly, not pin a worker slot — off for interactive
  // single runs. --watchdog=0 disables it everywhere.
  if (opt.watchdog_s < 0) {
    opt.watchdog_s = opt.sweep > 1 ? 5.0 : 0.0;
  }

  std::vector<tfc::Protocol> protocols;
  if (opt.protocol == "all") {
    protocols = {tfc::Protocol::kTfc, tfc::Protocol::kDctcp, tfc::Protocol::kTcp};
  } else if (opt.protocol == "tfc") {
    protocols = {tfc::Protocol::kTfc};
  } else if (opt.protocol == "dctcp") {
    protocols = {tfc::Protocol::kDctcp};
  } else if (opt.protocol == "tcp") {
    protocols = {tfc::Protocol::kTcp};
  } else {
    std::fprintf(stderr, "unknown protocol '%s' (tfc|dctcp|tcp|all)\n",
                 opt.protocol.c_str());
    return 1;
  }
  if (opt.sweep == 1) {
    for (tfc::Protocol p : protocols) {
      // With --protocol=all each protocol gets its own run subdirectory.
      std::string run_dir = opt.telemetry_dir;
      if (!run_dir.empty() && protocols.size() > 1) {
        run_dir += std::string("/") + tfc::ProtocolName(p);
      }
      std::string text;
      Report rep(&text);
      const int rc = RunOne(opt, p, run_dir, rep);
      std::fputs(text.c_str(), stdout);
      if (rc != 0) {
        return rc;
      }
    }
    return 0;
  }

  // Sweep mode: one job per (repetition, protocol), each with its own seed
  // and telemetry subdirectory. The supervisor forks every run into its own
  // child process (crash isolation, per-run timeout, retry with backoff,
  // done-marker resume); reports print in submission order.
  const int workers = opt.jobs > 0 ? opt.jobs : tfc::RunSupervisor::DefaultWorkers();

  // Cache-key fingerprint: every flag that influences a run's *output*.
  // Execution-only knobs (--jobs, --retry, --run-timeout, --backoff-ms,
  // --watchdog, --trip-run, --force-audit-trip, --trace-ring) are excluded
  // on purpose: a run that completed under different supervision is still
  // the same run, so `--resume` after a crashed or force-tripped sweep
  // reuses every run that finished clean.
  const auto fingerprint = [&opt](tfc::Protocol p) {
    std::string fp;
    fp += "workload=" + opt.workload;
    fp += "|protocol=" + std::string(tfc::ProtocolName(p));
    fp += "|topology=" + opt.topology;
    fp += "|senders=" + std::to_string(opt.senders);
    fp += "|flows=" + std::to_string(opt.flows);
    fp += "|block_kb=" + std::to_string(opt.block_kb);
    fp += "|rounds=" + std::to_string(opt.rounds);
    fp += "|duration_s=" + std::to_string(opt.duration_s);
    fp += "|gbps=" + std::to_string(opt.gbps);
    fp += "|fault_spec=" + opt.fault_spec;
    fp += "|telemetry_interval_us=" + std::to_string(opt.telemetry_interval_us);
    return fp;
  };

  tfc::SupervisorOptions sup;
  sup.workers = workers;
  sup.max_retries = opt.retry;
  sup.timeout_s = opt.run_timeout_s;
  sup.backoff_base_ms = opt.backoff_ms;
  sup.resume = opt.resume;
  tfc::RunSupervisor supervisor(sup);
  std::vector<uint64_t> seeds;  // by submission index, for the report headers
  for (int i = 0; i < opt.sweep; ++i) {
    char run_name[32];
    std::snprintf(run_name, sizeof run_name, "run-%04d", i);
    for (tfc::Protocol p : protocols) {
      std::string name = run_name;
      if (protocols.size() > 1) {
        name += std::string("/") + tfc::ProtocolName(p);
      }
      Options job_opt = opt;
      job_opt.seed = opt.seed + static_cast<uint64_t>(i);
      // The forced audit trip targets one repetition (--trip-run=K): the
      // others run clean, which is what makes crash isolation observable.
      if (opt.trip_run >= 0 && i != opt.trip_run) {
        job_opt.force_audit_trip_us = 0;
      }
      std::string run_dir;
      std::string cache_key;
      if (!opt.telemetry_dir.empty()) {
        run_dir = opt.telemetry_dir + "/" + name;
        cache_key = tfc::SweepCacheKey(fingerprint(p), job_opt.seed);
      }
      seeds.push_back(job_opt.seed);
      supervisor.Add(std::move(name), run_dir, std::move(cache_key),
                     [job_opt, p, run_dir](std::string* report) {
                       Report rep(report);
                       return RunOne(job_opt, p, run_dir, rep);
                     });
    }
  }
  const std::vector<tfc::SupervisedResult> results = supervisor.Run();
  int exit_code = 0;
  std::vector<std::string> failed_names;
  for (const tfc::SupervisedResult& r : results) {
    std::string annot;
    if (r.status != tfc::RunStatus::kOk || r.attempts > 1) {
      annot = std::string(" [") + tfc::RunStatusName(r.status);
      if (r.attempts != 1) {
        annot += ", attempts=" + std::to_string(r.attempts);
      }
      annot += "]";
    }
    std::printf("=== %s (seed %llu, %.3fs)%s ===\n", r.name.c_str(),
                static_cast<unsigned long long>(
                    seeds[static_cast<size_t>(r.index)]),
                r.wall_seconds, annot.c_str());
    std::fputs(r.report.c_str(), stdout);
    if (!r.ok()) {
      std::printf("(exit code %d)\n", r.exit_code);
      const int rc = r.exit_code != 0 ? r.exit_code : 1;
      exit_code = exit_code == 0 ? rc : exit_code;
      failed_names.push_back(r.name);
    }
  }

  // The merged manifest is written even when runs failed — a degraded sweep
  // still ships a queryable sweep.json naming every failure.
  if (!opt.telemetry_dir.empty()) {
    tfc::RunManifest sweep_manifest;
    sweep_manifest.Set("tool", "tfcsim");
    sweep_manifest.Set("workload", opt.workload);
    sweep_manifest.Set("protocol", opt.protocol);
    sweep_manifest.Set("topology", opt.topology);
    sweep_manifest.SetInt("base_seed", static_cast<int64_t>(opt.seed));
    sweep_manifest.SetInt("sweep", opt.sweep);
    sweep_manifest.SetInt("jobs", workers);
    sweep_manifest.SetInt("retry", opt.retry);
    sweep_manifest.SetDouble("run_timeout_s", opt.run_timeout_s);
    sweep_manifest.SetBool("resume", opt.resume);
    if (!opt.fault_spec.empty()) {
      sweep_manifest.Set("fault_spec", opt.fault_spec);
    }
    std::string error;
    if (!tfc::WriteSweepManifest(opt.telemetry_dir + "/sweep.json",
                                 sweep_manifest, results, &error)) {
      std::fprintf(stderr, "sweep manifest failed: %s\n", error.c_str());
      return exit_code != 0 ? exit_code : 1;
    }
    std::printf("sweep: %d runs x %zu protocol(s) on %d worker(s) -> %s/sweep.json\n",
                opt.sweep, protocols.size(), workers, opt.telemetry_dir.c_str());
  }
  if (!failed_names.empty()) {
    std::string names;
    for (const std::string& n : failed_names) {
      names += (names.empty() ? "" : ", ") + n;
    }
    std::fprintf(stderr, "sweep: %zu run(s) failed: %s\n", failed_names.size(),
                 names.c_str());
  }
  return exit_code;
}
