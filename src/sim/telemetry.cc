#include "src/sim/telemetry.h"

// The exporter is the one sanctioned I/O path out of the hot layers: it
// runs after (or between) simulation phases, never per event.
// lint:allow hot-io

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>

#include "src/sim/audit.h"
#include "src/sim/profile.h"
#include "src/sim/thread_annotations.h"

namespace tfc {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kCallbackGauge:
      return "callback_gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank over buckets: the first bucket whose cumulative count
  // reaches ceil(p% of n) holds the percentile sample.
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  uint64_t cum = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cum += buckets_[static_cast<size_t>(b)];
    if (cum >= target) {
      const uint64_t ub = BucketUpperBound(b);
      const uint64_t largest_in_bucket = ub == 0 ? max_ : ub - 1;
      return std::min(largest_in_bucket, max_);
    }
  }
  return max_;
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

MetricRegistry::Entry::~Entry() { delete hist; }

MetricRegistry::Entry& MetricRegistry::Insert(std::string name, MetricKind kind) {
  TFC_CHECK_MSG(!name.empty(), "metric names must be non-empty");
  auto [it, inserted] = entries_.try_emplace(std::move(name));
  TFC_CHECK_MSG(inserted, "duplicate metric name: " << it->first);
  it->second.kind = kind;
  AssignId(it->second);
  return it->second;
}

void MetricRegistry::AssignId(Entry& e) {
  if (!free_ids_.empty()) {
    e.id = free_ids_.back();
    free_ids_.pop_back();
    by_id_[e.id] = &e;
  } else {
    e.id = static_cast<MetricId>(by_id_.size());
    by_id_.push_back(&e);
  }
  ++generation_;
}

void MetricRegistry::ReleaseId(Entry& e) {
  if (e.id != kInvalidMetricId) {
    by_id_[e.id] = nullptr;
    free_ids_.push_back(e.id);
    e.id = kInvalidMetricId;
  }
  ++generation_;
}

MetricId MetricRegistry::IdOf(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() ? it->second.id : kInvalidMetricId;
}

MetricKind MetricRegistry::KindOfId(MetricId id) const {
  TFC_CHECK(id < by_id_.size() && by_id_[id] != nullptr);
  return by_id_[id]->kind;
}

Counter* MetricRegistry::AddCounter(std::string name) {
  return &Insert(std::move(name), MetricKind::kCounter).counter;
}

Gauge* MetricRegistry::AddGauge(std::string name) {
  return &Insert(std::move(name), MetricKind::kGauge).gauge;
}

void MetricRegistry::AddCallbackGauge(std::string name, GaugeFn fn) {
  Insert(std::move(name), MetricKind::kCallbackGauge).fn = std::move(fn);
}

Histogram* MetricRegistry::AddHistogram(std::string name) {
  Entry& e = Insert(std::move(name), MetricKind::kHistogram);
  e.hist = new Histogram();
  return e.hist;
}

void MetricRegistry::Unregister(const std::string& name) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    ReleaseId(it->second);
    entries_.erase(it);
  }
}

bool MetricRegistry::Read(const std::string& name, double* out) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return false;
  }
  Entry& e = it->second;
  switch (e.kind) {
    case MetricKind::kCounter:
      *out = static_cast<double>(e.counter.value());
      return true;
    case MetricKind::kGauge:
      *out = e.gauge.value();
      return true;
    case MetricKind::kCallbackGauge:
      *out = e.fn();
      return true;
    case MetricKind::kHistogram:
      return false;
  }
  return false;
}

const Histogram* MetricRegistry::FindHistogram(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != MetricKind::kHistogram) {
    return nullptr;
  }
  return it->second.hist;
}

void MetricRegistry::AuditInvariants(Auditor& audit) {
  for (auto& [name, entry] : entries_) {
    if (entry.kind != MetricKind::kCounter) {
      continue;
    }
    const bool ok = entry.counter.value() >= entry.last_audited;
    audit.Check(ok, "counter monotone between audit passes",
                ok ? std::string{}
                   : name + " went " + std::to_string(entry.last_audited) +
                         " -> " + std::to_string(entry.counter.value()));
    entry.last_audited = entry.counter.value();
  }
}

// ---------------------------------------------------------------------------
// ScopedMetrics
// ---------------------------------------------------------------------------

Counter* ScopedMetrics::AddCounter(std::string name) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  return &registry_->Insert(std::move(name), MetricKind::kCounter).counter;
}

Gauge* ScopedMetrics::AddGauge(std::string name) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  return &registry_->Insert(std::move(name), MetricKind::kGauge).gauge;
}

void ScopedMetrics::AddCallbackGauge(std::string name, MetricRegistry::GaugeFn fn) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  registry_->Insert(std::move(name), MetricKind::kCallbackGauge).fn = std::move(fn);
}

Histogram* ScopedMetrics::AddHistogram(std::string name) {
  TFC_CHECK(registry_ != nullptr);
  names_.push_back(name);
  MetricRegistry::Entry& e = registry_->Insert(std::move(name), MetricKind::kHistogram);
  e.hist = new Histogram();
  return e.hist;
}

void ScopedMetrics::Clear() {
  if (registry_ != nullptr) {
    for (const std::string& name : names_) {
      registry_->Unregister(name);
    }
  }
  names_.clear();
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder
// ---------------------------------------------------------------------------

void TimeSeriesRecorder::Watch(std::string name) {
  if (std::find(watches_.begin(), watches_.end(), name) != watches_.end()) {
    return;  // one watch, one sample per tick
  }
  watches_.push_back(std::move(name));
  plan_generation_ = 0;
}

void TimeSeriesRecorder::WatchPrefix(std::string prefix) {
  if (std::find(prefixes_.begin(), prefixes_.end(), prefix) != prefixes_.end()) {
    return;
  }
  prefixes_.push_back(std::move(prefix));
  plan_generation_ = 0;
}

void TimeSeriesRecorder::Start(TimeNs period, TimeNs first_delay) {
  TFC_CHECK_GT(period, 0);
  TFC_CHECK_GE(first_delay, 0);
  timer_.Start(period, first_delay);
}

// Cold path, runs only when the registry generation moved (or on the first
// tick): resolves watches and prefixes to (id, sid) pairs in the exact
// order the pre-plan Tick sampled them — exact watches in insertion order,
// then prefix matches in registry name order minus the exact names — so
// stateful callback gauges see an identical read sequence.
void TimeSeriesRecorder::RebuildPlan() {
  FoldTile();  // the tile's rows are laid out by the plan about to change
  ++plan_rebuilds_;
  plan_reads_.clear();
  plan_sids_.clear();
  for (const std::string& name : watches_) {
    const MetricId id = registry_->IdOf(name);
    if (id == kInvalidMetricId ||
        registry_->KindOfId(id) == MetricKind::kHistogram) {
      // A watched metric that has disappeared (component destroyed mid-run)
      // silently stops extending its series; distributions export via
      // summary.json, not as series.
      continue;
    }
    AddPlanEntry(name, id);
  }
  if (!prefixes_.empty()) {
    registry_->ForEachMetric(
        [this](const std::string& name, MetricKind kind, MetricId id) {
          if (kind == MetricKind::kHistogram) {
            return;
          }
          bool matched = false;
          for (const std::string& p : prefixes_) {
            if (name.compare(0, p.size(), p) == 0) {
              matched = true;
              break;
            }
          }
          if (!matched ||
              std::find(watches_.begin(), watches_.end(), name) != watches_.end()) {
            return;  // not watched, or already planned via the exact-name list
          }
          AddPlanEntry(name, id);
        });
  }
  plan_generation_ = registry_->generation();
  if (tile_.size() < kTileTicks * plan_reads_.size()) {
    tile_.resize(kTileTicks * plan_reads_.size());
  }
}

void TimeSeriesRecorder::AddPlanEntry(const std::string& name, MetricId id) {
  auto [it, inserted] =
      sid_by_name_.try_emplace(name, static_cast<uint32_t>(runs_.size()));
  if (inserted) {
    runs_.emplace_back();
  }
  MetricRegistry::CompiledRead read;
  if (!registry_->CompileReadId(id, &read)) {
    // Defensive (the callers exclude histograms and dead ids): the series
    // exists but never extends, exactly as an unreadable metric behaved.
    return;
  }
  plan_reads_.push_back(read);
  plan_sids_.push_back(it->second);
}

void TimeSeriesRecorder::Tick() {
  ++ticks_;
  if (replan_every_tick_ || plan_generation_ != registry_->generation()) {
    RebuildPlan();
  }
  // One 8-byte store per sample into the tile row for this tick; comparing
  // against the previous value here would put a branch per sample on the
  // busy path, so run detection waits for FoldTile. Write through a raw
  // cursor: reads can run arbitrary callback-gauge code, so everything the
  // loop needs lives in locals the compiler can keep in registers instead
  // of vector internals it must reload.
  const size_t n = plan_reads_.size();
  double* out = tile_.data() + tile_ticks_ * n;
  const MetricRegistry::CompiledRead* reads = plan_reads_.data();
  for (size_t pos = 0; pos < n; ++pos) {
    out[pos] = reads[pos].fn(reads[pos].obj);
  }
  tick_t_.push_back(scheduler_->now());
  if (++tile_ticks_ == kTileTicks) {
    FoldTile();
  }
}

void TimeSeriesRecorder::FoldTile() const {
  const size_t n = tile_ticks_;
  if (n == 0) {
    return;
  }
  tile_ticks_ = 0;
  TFC_CHECK_LE(tick_t_.size(), std::numeric_limits<uint32_t>::max());
  const uint32_t first = static_cast<uint32_t>(tick_t_.size() - n);
  const size_t width = plan_sids_.size();
  // Series-major over the tick-major tile: each series' column is a
  // strided walk through rows that stay cache-resident, and an idle series
  // costs one compare per tick.
  for (size_t pos = 0; pos < width; ++pos) {
    std::vector<Run>& runs = runs_[plan_sids_[pos]];
    // A run only continues across consecutive ticks: a series that missed
    // the previous tick (it left the plan and came back) starts a new run
    // even if its value is unchanged.
    Run* last = nullptr;
    uint64_t last_bits = 0;
    if (!runs.empty() && runs.back().first_tick + runs.back().ticks == first) {
      last = &runs.back();
      last_bits = std::bit_cast<uint64_t>(last->v);
    }
    const double* vp = tile_.data() + pos;
    for (size_t k = 0; k < n; ++k, vp += width) {
      const uint64_t bits = std::bit_cast<uint64_t>(*vp);
      if (last != nullptr && bits == last_bits) {
        ++last->ticks;
        continue;
      }
      runs.push_back(Run{first + static_cast<uint32_t>(k), 1, *vp});
      last = &runs.back();
      last_bits = bits;
    }
  }
}

void TimeSeriesRecorder::ExpandRuns(const std::vector<Run>& runs,
                                    std::vector<Sample>* out) const {
  size_t samples = 0;
  for (const Run& r : runs) {
    samples += r.ticks;
  }
  out->clear();
  out->reserve(samples);
  for (const Run& r : runs) {
    for (uint32_t k = r.first_tick; k < r.first_tick + r.ticks; ++k) {
      out->push_back(Sample{tick_t_[k], r.v});
    }
  }
}

std::vector<TimeSeriesRecorder::Sample> TimeSeriesRecorder::Series(
    const std::string& name) const {
  std::vector<Sample> samples;
  auto it = sid_by_name_.find(name);
  if (it != sid_by_name_.end()) {
    FoldTile();
    ExpandRuns(runs_[it->second], &samples);
  }
  return samples;
}

std::vector<std::string> TimeSeriesRecorder::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(sid_by_name_.size());
  for (const auto& [name, sid] : sid_by_name_) {
    names.push_back(name);
  }
  return names;
}

size_t TimeSeriesRecorder::total_samples() const {
  FoldTile();
  size_t n = 0;
  for (const std::vector<Run>& runs : runs_) {
    for (const Run& r : runs) {
      n += r.ticks;
    }
  }
  return n;
}

size_t TimeSeriesRecorder::total_runs() const {
  FoldTile();
  size_t n = 0;
  for (const std::vector<Run>& runs : runs_) {
    n += runs.size();
  }
  return n;
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";  // JSON has no NaN/inf
  }
  // Integers that fit exactly render without a fraction — counter values
  // and byte counts stay greppable as plain integers.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) {
    return "null";
  }
  return std::string(buf, ptr);
}

namespace {

std::string Quoted(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

}  // namespace

// ---------------------------------------------------------------------------
// RunManifest
// ---------------------------------------------------------------------------

void RunManifest::SetLiteral(const std::string& key, std::string json) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(json);
      return;
    }
  }
  entries_.emplace_back(key, std::move(json));
}

void RunManifest::Set(const std::string& key, const std::string& value) {
  SetLiteral(key, Quoted(value));
}

void RunManifest::SetInt(const std::string& key, int64_t value) {
  SetLiteral(key, std::to_string(value));
}

void RunManifest::SetDouble(const std::string& key, double value) {
  SetLiteral(key, JsonNumber(value));
}

void RunManifest::SetBool(const std::string& key, bool value) {
  SetLiteral(key, value ? "true" : "false");
}

// ---------------------------------------------------------------------------
// Exporter
// ---------------------------------------------------------------------------

namespace {

std::string RunGitDescribe() {
  std::string out = "unknown";
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe != nullptr) {
    std::string text;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
      text += buf;
    }
    const int rc = ::pclose(pipe);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    if (rc == 0 && !text.empty()) {
      out = std::move(text);
    }
  }
  return out;
}

// The one process-wide cache in the telemetry layer. Every simulation
// thread exporting a manifest may read it concurrently (the MultiInstance
// tests drive two from two threads), so it is explicitly guarded
// and annotated rather than left as a magic static hiding a popen() — the
// subprocess spawn runs exactly once, under the lock, and the returned
// reference is immutable afterwards (annotation-checked under clang,
// TSan-checked under the tsan preset).
Mutex g_git_describe_mu;
std::string* g_git_describe TFC_GUARDED_BY(g_git_describe_mu) = nullptr;

}  // namespace

const std::string& GitDescribe() {
  MutexLock lock(&g_git_describe_mu);
  if (g_git_describe == nullptr) {
    g_git_describe = new std::string(RunGitDescribe());  // leaked by design
  }
  return *g_git_describe;
}

namespace {

bool WriteManifest(const std::string& path, const RunManifest& manifest,
                   std::string* error) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  const std::time_t now = std::time(nullptr);
  char utc[32] = "unknown";
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(utc, sizeof utc, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  f << "{\n";
  // v2: metrics.tfcb (binary spill) replaced metrics.jsonl as the recorded
  // format; everything else is unchanged.
  f << "  \"schema_version\": 2,\n";
  f << "  \"git_describe\": " << Quoted(GitDescribe()) << ",\n";
  f << "  \"created_unix\": " << static_cast<int64_t>(now) << ",\n";
  f << "  \"created_utc\": " << Quoted(utc) << ",\n";
  f << "  \"run\": {";
  bool first = true;
  for (const auto& [key, json] : manifest.entries()) {
    f << (first ? "\n" : ",\n") << "    " << Quoted(key) << ": " << json;
    first = false;
  }
  f << (first ? "}" : "\n  }") << "\n}\n";
  f.flush();
  if (!f) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

// Fixed little-endian packing, independent of host byte order.
void PutU32(std::vector<unsigned char>& buf, uint32_t v) {
  buf.push_back(static_cast<unsigned char>(v));
  buf.push_back(static_cast<unsigned char>(v >> 8));
  buf.push_back(static_cast<unsigned char>(v >> 16));
  buf.push_back(static_cast<unsigned char>(v >> 24));
}

void PutU64(std::vector<unsigned char>& buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

bool WriteMetricsTfcb(const std::string& path, const TimeSeriesRecorder* recorder,
                      std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  constexpr size_t kFlushBytes = 256 * 1024;
  std::vector<unsigned char> buf;
  bool ok = true;
  auto flush = [&] {
    if (!buf.empty() && std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
      ok = false;
    }
    buf.clear();
  };
  auto flush_if_full = [&] {
    if (buf.size() >= kFlushBytes) {
      flush();
    }
  };
  for (const char c : kTfcbMagic) {
    buf.push_back(static_cast<unsigned char>(c));
  }
  PutU32(buf, kTfcbVersion);
  if (recorder == nullptr) {
    PutU32(buf, 0);
    PutU64(buf, 0);
    PutU64(buf, 0);
  } else {
    PutU32(buf, static_cast<uint32_t>(recorder->series_count()));
    PutU64(buf, recorder->tick_times().size());
    PutU64(buf, recorder->total_runs());
    // SeriesNames() and ForEachSeriesRuns both walk the series in name
    // order, so a series' position in the name table is its series_id.
    for (const std::string& name : recorder->SeriesNames()) {
      PutU32(buf, static_cast<uint32_t>(name.size()));
      buf.insert(buf.end(), name.begin(), name.end());
      flush_if_full();
    }
    for (const TimeNs t : recorder->tick_times()) {
      PutU64(buf, static_cast<uint64_t>(t.count()));
      flush_if_full();
    }
    uint32_t series_id = 0;
    recorder->ForEachSeriesRuns(
        [&](const std::string&, const std::vector<TimeSeriesRecorder::Run>& runs) {
          for (const TimeSeriesRecorder::Run& r : runs) {
            PutU32(buf, series_id);
            PutU32(buf, r.first_tick);
            PutU32(buf, r.ticks);
            PutU64(buf, std::bit_cast<uint64_t>(r.v));
            flush_if_full();
          }
          ++series_id;
        });
  }
  flush();
  if (std::fclose(f) != 0) {
    ok = false;
  }
  if (!ok) {
    *error = "write failed: " + path;
  }
  return ok;
}

void WriteHistogramJson(std::ofstream& f, const Histogram& h, const char* indent) {
  f << "{\n";
  f << indent << "  \"count\": " << h.count() << ",\n";
  f << indent << "  \"sum\": " << h.sum() << ",\n";
  f << indent << "  \"min\": " << h.min() << ",\n";
  f << indent << "  \"max\": " << h.max() << ",\n";
  f << indent << "  \"mean\": " << JsonNumber(h.mean()) << ",\n";
  f << indent << "  \"p50\": " << h.Percentile(50) << ",\n";
  f << indent << "  \"p90\": " << h.Percentile(90) << ",\n";
  f << indent << "  \"p99\": " << h.Percentile(99) << ",\n";
  f << indent << "  \"p999\": " << h.Percentile(99.9) << ",\n";
  f << indent << "  \"buckets\": [";
  bool first = true;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t n = h.bucket_count(b);
    if (n == 0) {
      continue;  // sparse export: all-zero buckets dominate and carry nothing
    }
    f << (first ? "" : ", ") << "[" << Histogram::BucketLowerBound(b) << ", "
      << Histogram::BucketUpperBound(b) << ", " << n << "]";
    first = false;
  }
  f << "]\n" << indent << "}";
}

bool WriteSummary(const std::string& path, MetricRegistry& metrics,
                  const Profiler* profiler, std::string* error) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  f << "{\n  \"schema_version\": 2,\n";

  f << "  \"counters\": {";
  bool first = true;
  metrics.ForEachName([&](const std::string& name, MetricKind kind) {
    if (kind != MetricKind::kCounter) {
      return;
    }
    double v = 0.0;
    metrics.Read(name, &v);
    f << (first ? "\n" : ",\n") << "    " << Quoted(name) << ": " << JsonNumber(v);
    first = false;
  });
  f << (first ? "}," : "\n  },") << "\n";

  f << "  \"gauges\": {";
  first = true;
  metrics.ForEachName([&](const std::string& name, MetricKind kind) {
    if (kind != MetricKind::kGauge && kind != MetricKind::kCallbackGauge) {
      return;
    }
    double v = 0.0;
    metrics.Read(name, &v);
    f << (first ? "\n" : ",\n") << "    " << Quoted(name) << ": " << JsonNumber(v);
    first = false;
  });
  f << (first ? "}," : "\n  },") << "\n";

  f << "  \"histograms\": {";
  first = true;
  metrics.ForEachName([&](const std::string& name, MetricKind kind) {
    if (kind != MetricKind::kHistogram) {
      return;
    }
    const Histogram* h = metrics.FindHistogram(name);
    f << (first ? "\n" : ",\n") << "    " << Quoted(name) << ": ";
    WriteHistogramJson(f, *h, "    ");
    first = false;
  });
  f << (first ? "}," : "\n  },") << "\n";

  f << "  \"profile\": {";
  first = true;
  if (profiler != nullptr) {
    profiler->ForEachSite([&](const ProfileSite& site) {
      f << (first ? "\n" : ",\n") << "    " << Quoted(site.name()) << ": {\"hits\": "
        << site.hits() << ", \"sim_ns\": " << site.sim_ns() << ", \"wall_ns\": "
        << site.wall_ns() << "}";
      first = false;
    });
  }
  f << (first ? "}" : "\n  }") << "\n}\n";

  f.flush();
  if (!f) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace

bool WriteRunDirectory(const std::string& dir, const RunManifest& manifest,
                       MetricRegistry& metrics, const TimeSeriesRecorder* recorder,
                       const Profiler* profiler, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "create_directories(" + dir + "): " + ec.message();
    return false;
  }
  return WriteManifest(dir + "/manifest.json", manifest, error) &&
         WriteMetricsTfcb(dir + "/metrics.tfcb", recorder, error) &&
         WriteSummary(dir + "/summary.json", metrics, profiler, error);
}

}  // namespace tfc
