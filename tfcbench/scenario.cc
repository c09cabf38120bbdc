// tfcbench scenario program: runs one paper-scale scenario through the public library
// API and prints what it measured as one JSON object on stdout.
//
//   tfcbench_scenario --workload=W --seed=N --mode=plain|traced
//                   --run-dir=DIR [--setups=K] [--no-recorder] [--spans=FILE]
//
// plain   one untraced run (profiler off, unsliced Run/RunUntil), timed per
//         phase from outside, then K set-up-only repetitions for setup_s.
// traced  one run with the profiler on, RunUntil sliced at 1 ms to sample
//         heap depth, a packet-counting tracer for transport counters, and
//         one span per phase kept in memory and written to FILE at exit.
//
// This program never judges correctness itself: it reports the simulated
// outcomes exactly (%.17g) and run.py compares them. Everything it reads is
// a counter, accessor or profiler site the library already exposes.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/trace.h"
#include "src/sim/telemetry.h"
#include "src/tfc/switch_port.h"
#include "src/topo/topologies.h"
#include "src/workload/benchmark_traffic.h"
#include "src/workload/incast.h"
#include "src/workload/shuffle.h"

namespace {

using namespace tfc;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start, Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double>(end - start).count();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Ordered (name, JSON literal) list rendered as one JSON object.
class JsonObject {
 public:
  void Add(const std::string& key, double v) { fields_.emplace_back(key, Num(v)); }
  void AddRaw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }
  // Exact decimal text of a simulated outcome, compared as a string.
  void AddExact(const std::string& key, double v) {
    fields_.emplace_back(key, "\"" + Num(v) + "\"");
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------------
// Spans: one per phase, recorded from this file around calls into a layer.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  // Opens a span under the innermost open span; returns its id.
  int Begin(const std::string& name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, parent, Now(), -1});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    TFC_CHECK(!open_.empty() && open_.back() == id);
    spans_[static_cast<size_t>(id)].end_ns = Now();
    open_.pop_back();
  }

  bool Write(const std::string& path, const std::string& run_id) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [\n", run_id.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld}", i == 0 ? "" : ",\n",
                   i, s.parent, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Times a phase always, and records it as a span when a log is attached.
class Phase {
 public:
  Phase(SpanLog* log, const char* name, double* seconds)
      : log_(log), seconds_(seconds), start_(Clock::now()) {
    if (log_ != nullptr) {
      id_ = log_->Begin(name);
    }
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  ~Phase() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
    if (seconds_ != nullptr) {
      *seconds_ += Since(start_);
    }
  }

 private:
  SpanLog* log_;
  double* seconds_;
  Clock::time_point start_;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Transport counters from packet events: host-originated data packets that
// carry payload, their payload bytes, and re-sent payload (a data packet
// whose byte range does not extend past what the flow already sent).
// Traced pass only: the library keeps no per-flow totals once a sender is
// destroyed, and web-search senders are destroyed as they complete.
// ---------------------------------------------------------------------------

class TransportCounter : public Tracer {
 public:
  explicit TransportCounter(const Network& net) {
    for (const auto& node : net.nodes()) {
      is_host_.push_back(node->is_host());
    }
  }
  void OnEvent(const FlightEvent& e, const FlightNames&) override {
    if ((e.type != FlightEventType::kEnqueue && e.type != FlightEventType::kDrop) ||
        e.port < 0 || e.ptype != static_cast<uint8_t>(PacketType::kData) || e.a <= 0 ||
        !is_host_[static_cast<size_t>(e.node)]) {
      return;
    }
    ++data_packets;
    data_bytes += static_cast<uint64_t>(e.a);
    const size_t flow = static_cast<size_t>(e.flow);
    if (flow >= sent_end_.size()) {
      sent_end_.resize(flow + 1, 0);
    }
    const uint64_t end = e.seq + static_cast<uint64_t>(e.a);
    if (end <= sent_end_[flow]) {
      ++retransmits;
      resent_bytes += static_cast<uint64_t>(e.a);
    } else {
      sent_end_[flow] = end;
    }
  }

  uint64_t data_packets = 0;
  uint64_t data_bytes = 0;
  uint64_t retransmits = 0;
  uint64_t resent_bytes = 0;

 private:
  std::vector<bool> is_host_;
  std::vector<uint64_t> sent_end_;
};

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual void BuildTopology(Network& net) = 0;
  void InstallSwitches(Network& net) const { suite_.InstallSwitchLogic(net); }
  // Constructs the workload app and calls its Start().
  virtual void StartWorkload(Network& net) = 0;
  // Sim time by which every operation must have finished.
  virtual TimeNs Horizon() const = 0;
  // true: run until the event queue drains (Run()); false: run to Horizon().
  virtual bool Drains() const { return true; }
  virtual bool WantsRecorder() const { return false; }
  virtual Ops Operations() const = 0;
  virtual uint64_t Flows() const = 0;
  virtual uint64_t Timeouts() const = 0;
  // Simulated outcomes, each as exact text.
  virtual void Outcomes(JsonObject& out) = 0;

 protected:
  ProtocolSuite suite_;
};

void FctOutcomes(BenchmarkTrafficApp& app, JsonObject& out) {
  out.AddExact("flows_started", static_cast<double>(app.flows_started()));
  out.AddExact("flows_completed", static_cast<double>(app.flows_completed()));
  SampleSet& q = app.fct().query();
  out.AddExact("query_n", static_cast<double>(q.count()));
  out.AddExact("query_fct_mean_us", q.Mean());
  out.AddExact("query_fct_p99_us", q.Percentile(99));
  out.AddExact("query_fct_p999_us", q.Percentile(99.9));
  for (int bin = 0; bin < kNumSizeBins; ++bin) {
    SampleSet& s = app.fct().background(bin);
    const std::string key = "bg_bin" + std::to_string(bin);
    out.AddExact(key + "_n", static_cast<double>(s.count()));
    out.AddExact(key + "_fct_mean_us", s.Mean());
  }
  out.AddExact("timeouts", static_cast<double>(app.total_timeouts()));
}

// Fig. 16 web-search traffic on the 18x20 leaf-spine (bench/fig16, TFC).
class WebSearch : public Scenario {
 public:
  void BuildTopology(Network& net) override {
    LinkOptions opts;
    opts.switch_buffer_bytes = 512 * 1024;
    opts.ecn_threshold_bytes = suite_.EcnThresholdBytes(kGbps);
    hosts_ = BuildLeafSpine(net, 18, 20, opts).all_hosts;
  }
  void StartWorkload(Network& net) override {
    BenchmarkTrafficConfig cfg;
    cfg.query_interarrival = Milliseconds(25);
    cfg.query_fanin = 0;
    cfg.background_interarrival = Microseconds(400);
    cfg.stop_time = Milliseconds(800);
    app_ = std::make_unique<BenchmarkTrafficApp>(&net, suite_, hosts_, cfg);
    app_->Start();
  }
  TimeNs Horizon() const override { return Milliseconds(800) + Seconds(40.0); }
  Ops Operations() const override {
    return {app_->flows_started(), app_->flows_started() - app_->flows_completed()};
  }
  uint64_t Flows() const override { return app_->flows_started(); }
  uint64_t Timeouts() const override { return app_->total_timeouts(); }
  void Outcomes(JsonObject& out) override { FctOutcomes(*app_, out); }

 protected:
  std::vector<Host*> hosts_;
  std::unique_ptr<BenchmarkTrafficApp> app_;
};

// tfcsim --workload=benchmark --topology=leafspine --duration=0.3
// --telemetry-dir: 6x8 leaf-spine, default traffic, arrivals stop at 0.3 s,
// recorder at 1 ms through a 10 s tail (tfcsim's is 30 s).
class TelemetryLeafSpine : public WebSearch {
 public:
  void BuildTopology(Network& net) override {
    LinkOptions opts;
    opts.ecn_threshold_bytes = suite_.EcnThresholdBytes(kGbps);
    hosts_ = BuildLeafSpine(net, 6, 8, opts, kGbps, 10 * kGbps).all_hosts;
  }
  void StartWorkload(Network& net) override {
    BenchmarkTrafficConfig cfg;
    cfg.stop_time = Milliseconds(300);
    app_ = std::make_unique<BenchmarkTrafficApp>(&net, suite_, hosts_, cfg);
    app_->Start();
  }
  TimeNs Horizon() const override { return Milliseconds(300) + Seconds(10.0); }
  bool Drains() const override { return false; }
  bool WantsRecorder() const override { return true; }
};

// Fig. 15 incast: 400 senders -> 1 receiver on a 10 Gbps star, TFC.
class Incast : public Scenario {
 public:
  static constexpr int kSenders = 400;
  static constexpr int kRounds = 22;  // ~2 simulated seconds of 256 KB blocks

  void BuildTopology(Network& net) override {
    LinkOptions opts;
    opts.switch_buffer_bytes = 512 * 1024;
    opts.ecn_threshold_bytes = suite_.EcnThresholdBytes(10 * kGbps);
    StarTopology topo = BuildStar(net, kSenders + 1, opts, 10 * kGbps, Microseconds(5));
    hosts_ = topo.hosts;
  }
  void StartWorkload(Network& net) override {
    IncastConfig cfg;
    cfg.block_bytes = 256 * 1024;
    cfg.rounds = kRounds;
    app_ = std::make_unique<IncastApp>(
        &net, suite_, hosts_[0], std::vector<Host*>(hosts_.begin() + 1, hosts_.end()),
        cfg);
    app_->Start();
  }
  TimeNs Horizon() const override { return Seconds(10.0); }
  Ops Operations() const override {
    uint64_t blocks = 0;
    for (size_t i = 0; i < app_->flows().size(); ++i) {
      blocks += app_->block_fcts(i).count();
    }
    const uint64_t attempted = static_cast<uint64_t>(kRounds) * kSenders;
    return {attempted, attempted - std::min(attempted, blocks)};
  }
  uint64_t Flows() const override { return app_->flows().size(); }
  uint64_t Timeouts() const override { return app_->total_timeouts(); }
  void Outcomes(JsonObject& out) override {
    out.AddExact("rounds_completed", app_->rounds_completed());
    out.AddExact("finish_time_ns", static_cast<double>(app_->finish_time()));
    out.AddExact("goodput_bps", app_->goodput_bps());
    SampleSet blocks = app_->MergedBlockFcts();
    out.AddExact("block_n", static_cast<double>(blocks.count()));
    out.AddExact("block_fct_mean_s", blocks.Mean());
    out.AddExact("block_fct_p99_s", blocks.Percentile(99));
    out.AddExact("block_fct_p999_s", blocks.Percentile(99.9));
    out.AddExact("timeouts", static_cast<double>(app_->total_timeouts()));
  }

 private:
  std::vector<Host*> hosts_;
  std::unique_ptr<IncastApp> app_;
};

// All-to-all shuffle among 32 spread hosts of a k=8 fat tree, DCTCP.
class ShuffleFatTree : public Scenario {
 public:
  ShuffleFatTree() { suite_.protocol = Protocol::kDctcp; }
  void BuildTopology(Network& net) override {
    LinkOptions opts;
    opts.ecn_threshold_bytes = suite_.EcnThresholdBytes(kGbps);
    FatTreeTopology topo = BuildFatTree(net, 8, opts);
    for (size_t i = 0; i < topo.hosts.size(); i += 4) {
      participants_.push_back(topo.hosts[i]);
    }
  }
  void StartWorkload(Network& net) override {
    app_ = std::make_unique<ShuffleApp>(&net, suite_, participants_, ShuffleConfig());
    app_->Start();
  }
  TimeNs Horizon() const override { return Seconds(10.0); }
  Ops Operations() const override {
    return {app_->flows_total(), app_->flows_total() - app_->flows_completed()};
  }
  uint64_t Flows() const override { return app_->flows_total(); }
  uint64_t Timeouts() const override { return app_->total_timeouts(); }
  void Outcomes(JsonObject& out) override {
    out.AddExact("flows_completed", static_cast<double>(app_->flows_completed()));
    out.AddExact("elapsed_ns", static_cast<double>(app_->elapsed()));
    out.AddExact("goodput_bps", app_->goodput_bps());
    out.AddExact("timeouts", static_cast<double>(app_->total_timeouts()));
  }

 private:
  std::vector<Host*> participants_;
  std::unique_ptr<ShuffleApp> app_;
};

std::unique_ptr<Scenario> MakeScenario(const std::string& name) {
  if (name == "websearch") return std::make_unique<WebSearch>();
  if (name == "incast") return std::make_unique<Incast>();
  if (name == "shuffle_fattree") return std::make_unique<ShuffleFatTree>();
  if (name == "telemetry_leafspine") return std::make_unique<TelemetryLeafSpine>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  bool recorder = true;  // only consulted by workloads that want one
  int setups = 0;
  std::string run_dir;
  std::string spans_path;
};

struct Timings {
  double setup_s = 0;
  double topo_s = 0;
  double install_s = 0;
  double start_s = 0;
  double run_s = 0;
  double export_s = 0;
  double teardown_s = 0;
  double total_s = 0;
};

constexpr TimeNs kSlice = Milliseconds(1);

uint64_t DirectoryBytes(const std::string& dir, uint64_t* tfcb_bytes) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
      if (entry.path().filename() == "metrics.tfcb") {
        *tfcb_bytes = entry.file_size();
      }
    }
  }
  return total;
}

// Builds everything up to the first event. The recorder, when used, is
// attached after the switches and before the workload, as tfcsim does.
void SetUp(Scenario& scen, Network& net, std::unique_ptr<TimeSeriesRecorder>* recorder,
           bool use_recorder, SpanLog* spans, Timings& t) {
  {
    Phase p(spans, "topo.build", &t.topo_s);
    scen.BuildTopology(net);
  }
  {
    Phase p(spans, "tfc.install", &t.install_s);
    scen.InstallSwitches(net);
  }
  if (use_recorder) {
    *recorder = std::make_unique<TimeSeriesRecorder>(&net.scheduler(), &net.metrics());
    for (const char* prefix : {"port.", "tfc.", "flow.", "sim.", "pool.", "incast."}) {
      (*recorder)->WatchPrefix(prefix);
    }
    (*recorder)->Start(Milliseconds(1));
  }
  {
    Phase p(spans, "workload.start", &t.start_s);
    scen.StartWorkload(net);
  }
}

// Per-port counters summed over the network; the drop, ECN, queue and busy
// figures cover switch ports only.
struct PortTotals {
  uint64_t host_tx = 0;
  uint64_t all_tx = 0;
  uint64_t ports = 0;
  uint64_t drops = 0;
  uint64_t ecn = 0;
  Bytes max_queue = 0;
  TimeNs busiest = 0;
  uint64_t agents = 0;
  uint64_t slots = 0;
  uint64_t parked = 0;
};

PortTotals SumPorts(const Network& net) {
  PortTotals t;
  for (const auto& node : net.nodes()) {
    for (const auto& port : node->ports()) {
      ++t.ports;
      t.all_tx += port->tx_packets();
      if (node->is_host()) {
        t.host_tx += port->tx_packets();
        continue;
      }
      t.drops += port->drops();
      t.ecn += port->ecn_marks();
      t.max_queue = std::max(t.max_queue, port->max_queue_bytes());
      t.busiest = std::max(t.busiest, port->busy_ns());
      if (const auto* agent = dynamic_cast<const TfcPortAgent*>(port->agent())) {
        ++t.agents;
        t.slots += agent->slots_completed();
        t.parked += agent->delayed_acks();
      }
    }
  }
  return t;
}

void CollectLayers(Network& net, const Scenario& scen, const PortTotals& p,
                   JsonObject& out) {
  const uint64_t host_tx = p.host_tx;
  const double events = static_cast<double>(net.scheduler().executed());
  out.Add("sim.events", events);
  out.Add("net.packets_tx", static_cast<double>(host_tx));
  out.Add("net.events_per_packet", host_tx > 0 ? events / static_cast<double>(host_tx) : 0);
  out.Add("net.hops_per_packet",
          host_tx > 0 ? static_cast<double>(p.all_tx) / static_cast<double>(host_tx) : 0);
  out.Add("net.pool_hits", static_cast<double>(net.packet_pool().hits()));
  out.Add("net.pool_misses", static_cast<double>(net.packet_pool().misses()));
  out.Add("net.pool_high_water", static_cast<double>(net.packet_pool().high_water()));
  out.Add("net.drops", static_cast<double>(p.drops));
  out.Add("net.ecn_marks", static_cast<double>(p.ecn));
  out.Add("net.max_queue_kb", static_cast<double>(p.max_queue) / 1024.0);
  out.Add("net.bottleneck_busy_frac",
          static_cast<double>(p.busiest) / static_cast<double>(net.scheduler().now()));
  out.Add("topo.nodes", net.num_nodes());
  out.Add("topo.ports", static_cast<double>(p.ports));
  out.Add("tfc.agents", static_cast<double>(p.agents));
  out.Add("tfc.slots", static_cast<double>(p.slots));
  out.Add("tfc.parked_acks", static_cast<double>(p.parked));
  out.Add("transport.flows", static_cast<double>(scen.Flows()));
  out.Add("transport.timeouts", static_cast<double>(scen.Timeouts()));
  std::string sites = "{";
  net.profiler().ForEachSite([&sites](const ProfileSite& site) {
    sites += (sites.size() > 1 ? ", \"" : "\"") + site.name() + "\": [" +
             Num(static_cast<double>(site.hits())) + ", " +
             Num(static_cast<double>(site.wall_ns()) / 1e9) + "]";
  });
  out.AddRaw("profile", sites + "}");
}

int RunOnce(const Options& opt) {
  std::unique_ptr<Scenario> scen = MakeScenario(opt.workload);
  if (scen == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const bool use_recorder = scen->WantsRecorder() && opt.recorder;
  const Clock::time_point t0 = Clock::now();
  SpanLog log(t0);
  SpanLog* spans = opt.traced ? &log : nullptr;
  const int root = opt.traced ? log.Begin("run") : -1;
  Timings t;
  JsonObject out;
  JsonObject outcomes;
  JsonObject layers;
  // Heap depth at each slice boundary, weighted by the events the slice
  // fired: the depth an average event saw, undiluted by idle drain tails.
  double depth_weighted = 0;
  double depth_events = 0;
  size_t depth_max = 0;
  std::unique_ptr<TransportCounter> counter;
  {
    auto net = std::make_unique<Network>(opt.seed);
    net->profiler().set_enabled(opt.traced);
    std::unique_ptr<TimeSeriesRecorder> recorder;
    SetUp(*scen, *net, &recorder, use_recorder, spans, t);
    if (opt.traced) {
      counter = std::make_unique<TransportCounter>(*net);
      net->set_tracer(counter.get());
    }
    t.setup_s = Since(t0);

    Scheduler& sched = net->scheduler();
    const TimeNs horizon = scen->Horizon();
    {
      Phase p(spans, "sim.run", &t.run_s);
      if (opt.traced) {
        while (sched.now() < horizon && !(scen->Drains() && sched.pending() == 0)) {
          Phase slice(spans, "sim.run.slice", nullptr);
          const uint64_t before = sched.executed();
          sched.RunUntil(std::min(sched.now() + kSlice, horizon));
          const double fired = static_cast<double>(sched.executed() - before);
          depth_weighted += fired * static_cast<double>(sched.pending_total());
          depth_events += fired;
          depth_max = std::max(depth_max, sched.pending_total());
        }
      } else if (scen->Drains()) {
        // A daemon event never keeps Run() alive; it only stops a run that
        // has not drained by the horizon.
        sched.ScheduleDaemonAfter(horizon, [&sched] { sched.Stop(); });
        sched.Run();
      } else {
        sched.RunUntil(horizon);
      }
    }
    net->set_tracer(nullptr);
    const double sim_s = ToSeconds(sched.now());
    const Ops ops = scen->Operations();
    const PortTotals ports = SumPorts(*net);
    if (opt.traced) {
      CollectLayers(*net, *scen, ports, layers);
    }
    scen->Outcomes(outcomes);
    outcomes.AddExact("switch_drops", static_cast<double>(ports.drops));
    outcomes.AddExact("ecn_marks", static_cast<double>(ports.ecn));
    {
      Phase p(spans, "sim.telemetry.export", &t.export_s);
      if (recorder != nullptr) {
        recorder->Stop();
      }
      RunManifest manifest;
      manifest.Set("tool", "tfcbench");
      manifest.Set("workload", opt.workload);
      manifest.SetInt("seed", static_cast<int64_t>(opt.seed));
      manifest.SetDouble("sim_end_s", sim_s);
      std::string error;
      if (!WriteRunDirectory(opt.run_dir, manifest, net->metrics(), recorder.get(),
                             &net->profiler(), &error)) {
        std::fprintf(stderr, "export failed: %s\n", error.c_str());
        return 1;
      }
    }
    uint64_t tfcb_bytes = 0;
    const uint64_t output_bytes = DirectoryBytes(opt.run_dir, &tfcb_bytes);
    out.Add("sim_s", sim_s);
    out.Add("events", static_cast<double>(sched.executed()));
    out.Add("ops_attempted", static_cast<double>(ops.attempted));
    out.Add("ops_failed", static_cast<double>(ops.failed));
    out.Add("output_bytes", static_cast<double>(output_bytes));
    out.Add("spill_bytes", static_cast<double>(tfcb_bytes));
    out.Add("series", recorder != nullptr ? static_cast<double>(recorder->series_count()) : 0);
    out.Add("ticks", recorder != nullptr ? static_cast<double>(recorder->ticks()) : 0);

    Phase p(spans, "teardown", &t.teardown_s);
    scen.reset();
    recorder.reset();
    net.reset();
  }
  t.total_s = Since(t0);
  if (opt.traced) {
    log.End(root);
  }

  // Set-up-only repetitions: build to the first event, then tear down.
  std::string setups = "[" + Num(t.setup_s);
  for (int i = 0; i < opt.setups; ++i) {
    std::unique_ptr<Scenario> s = MakeScenario(opt.workload);
    const Clock::time_point s0 = Clock::now();
    auto net = std::make_unique<Network>(opt.seed);
    net->profiler().set_enabled(false);
    std::unique_ptr<TimeSeriesRecorder> recorder;
    Timings ignored;
    SetUp(*s, *net, &recorder, use_recorder, nullptr, ignored);
    setups += ", " + Num(Since(s0));
    s.reset();
    recorder.reset();
    net.reset();
  }
  setups += "]";

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.Add("peak_rss_kb", static_cast<double>(usage.ru_maxrss));
  out.Add("setup_s", t.setup_s);
  out.AddRaw("setup_samples_s", setups);
  out.Add("topo_build_s", t.topo_s);
  out.Add("tfc_install_s", t.install_s);
  out.Add("workload_start_s", t.start_s);
  out.Add("run_s", t.run_s);
  out.Add("export_s", t.export_s);
  out.Add("teardown_s", t.teardown_s);
  out.Add("total_s", t.total_s);
  if (opt.traced) {
    layers.Add("sim.heap_depth_mean", depth_events > 0 ? depth_weighted / depth_events : 0);
    layers.Add("sim.heap_depth_max", static_cast<double>(depth_max));
    layers.Add("transport.data_packets", static_cast<double>(counter->data_packets));
    layers.Add("transport.retransmits", static_cast<double>(counter->retransmits));
    layers.Add("transport.useful_frac",
               counter->data_bytes > 0
                   ? static_cast<double>(counter->data_bytes - counter->resent_bytes) /
                         static_cast<double>(counter->data_bytes)
                   : 0);
    out.AddRaw("layers", layers.Render());
    const std::string run_id =
        opt.workload + "-" + std::to_string(opt.seed) + "-" + std::to_string(getpid());
    if (!log.Write(opt.spans_path, run_id)) {
      std::fprintf(stderr, "cannot write spans to '%s'\n", opt.spans_path.c_str());
      return 1;
    }
  }
  out.AddRaw("outcomes", outcomes.Render());
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &opt.workload) ||
        Flag(argv[i], "--run-dir", &opt.run_dir) ||
        Flag(argv[i], "--spans", &opt.spans_path)) {
    } else if (Flag(argv[i], "--seed", &value)) {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--setups", &value)) {
      opt.setups = std::atoi(value.c_str());
    } else if (Flag(argv[i], "--mode", &value) && (value == "plain" || value == "traced")) {
      opt.traced = value == "traced";
    } else if (std::strcmp(argv[i], "--no-recorder") == 0) {
      opt.recorder = false;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (opt.workload.empty() || opt.run_dir.empty() || opt.setups < 0 ||
      (opt.traced && opt.spans_path.empty())) {
    std::fprintf(stderr, "usage: %s --workload=W --seed=N --mode=plain|traced "
                 "--run-dir=DIR [--setups=K] [--no-recorder] [--spans=FILE]\n", argv[0]);
    return 2;
  }
  return RunOnce(opt);
}
