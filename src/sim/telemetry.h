// Telemetry layer: metrics registry, time-series recorder, run exporter.
//
// The paper's entire evaluation (Sec. 6, Figs. 6-16) is built from internal
// time series — per-port queue length, token counter, effective flow count,
// rho, per-flow cwnd — and this layer is the unified way to record them.
//
// Three pieces:
//
//   MetricRegistry   named counters, gauges, and log-linear histograms.
//                    Register once (cold path, name lookup); update on the
//                    hot path through the returned pointer — a branch-free
//                    increment, no map access, no formatting. Callback
//                    gauges invert the flow: components expose an existing
//                    member (queue_bytes_, token_bytes_) through a pull
//                    function, so instrumented hot paths pay nothing at all
//                    until somebody actually samples. Registration also
//                    interns a dense MetricId: sampling loops read through
//                    the id (flat-vector index), never the name.
//
//   TimeSeriesRecorder  samples watched metrics on a fixed cadence into
//                    append-only buffers through a *compiled sample plan*:
//                    watch names and prefixes resolve to (MetricId, series
//                    id) pairs once, re-resolved only when the registry
//                    generation changes, so a tick touches no strings and
//                    no maps. Ticks are *daemon* events
//                    (Scheduler::ScheduleDaemonAfter), so an attached
//                    recorder never keeps Run() alive and never perturbs
//                    "no leaked timers" pending() assertions.
//
//   Run exporter     writes a per-run directory: manifest.json (what ran),
//                    metrics.tfcb (the recorded series, binary spill
//                    format), summary.json (final snapshot of every metric
//                    + profiler sites). ConvertMetricsTfcbToJsonl (exposed
//                    as `tfcsim --convert`) renders the spill back to the
//                    PR-3 metrics.jsonl byte-compatibly. Formats are
//                    documented in docs/observability.md and validated by
//                    tools/telemetry_schema.py in CI.
//
// The registry lives on the Network (Network::metrics()) next to the audit
// registry; components self-register their gauges at construction and
// unregister through ScopedMetrics when destroyed mid-run.

#ifndef SRC_SIM_TELEMETRY_H_
#define SRC_SIM_TELEMETRY_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/inplace_function.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace tfc {

class Auditor;

// Monotonically increasing event count. Hot-path update is `counter->Add()`
// — one add through a stable pointer, no branches. The registry's audit
// hook verifies monotonicity between audit passes.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

  // Test seam for the monotonicity audit: real code never decreases a
  // counter; the audit test uses this to simulate a buggy component.
  void ResetForTest() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Last-written value (instantaneous level: queue depth, cwnd, rho).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Log-linear histogram over non-negative integer samples (latencies in us,
// sizes in bytes). Octaves above 2^kSubBits are split into kSub linear
// sub-buckets, so relative resolution is bounded by 1/kSub (6.25%) while
// the whole uint64 range fits in kNumBuckets fixed slots. Values below kSub
// are recorded exactly. Hot-path Record is a bit-scan plus two increments.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;  // 16 sub-buckets per octave
  static constexpr int kNumBuckets = (64 - kSubBits) * kSub + kSub;

  void Record(uint64_t v) {
    ++buckets_[static_cast<size_t>(BucketIndex(v))];
    ++count_;
    sum_ += v;
    if (v > max_) {
      max_ = v;
    }
    if (v < min_) {
      min_ = v;
    }
  }

  // Bucket index for a value; shared with the tests that pin boundaries.
  static int BucketIndex(uint64_t v) {
    const int shift = std::max(0, static_cast<int>(std::bit_width(v)) - 1 - kSubBits);
    return shift * kSub + static_cast<int>(v >> shift);
  }

  // Smallest value mapping to bucket `b` (inverse of BucketIndex).
  static uint64_t BucketLowerBound(int b) {
    if (b < kSub) {
      return static_cast<uint64_t>(b);
    }
    const int shift = b / kSub - 1;
    const uint64_t mantissa = static_cast<uint64_t>(b - shift * kSub);
    return mantissa << shift;
  }

  // One past the largest value mapping to bucket `b` (0 = unbounded top).
  static uint64_t BucketUpperBound(int b) {
    return b + 1 < kNumBuckets ? BucketLowerBound(b + 1) : 0;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return count_ > 0 ? max_ : 0; }
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  uint64_t bucket_count(int b) const { return buckets_.at(static_cast<size_t>(b)); }

  // Upper estimate of the p-th percentile (p in [0,100]): the smallest
  // bucket upper bound such that at least p% of samples fall at or below
  // it, clamped to the observed max. Error is bounded by one sub-bucket
  // (<= 6.25% relative).
  uint64_t Percentile(double p) const;

  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kNumBuckets, 0);
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  uint64_t min_ = ~0ull;
};

enum class MetricKind : uint8_t {
  kCounter,
  kGauge,          // push gauge (Gauge::Set)
  kCallbackGauge,  // pull gauge (sampled via function)
  kHistogram,
};

const char* MetricKindName(MetricKind kind);

// Dense interned handle for a registered metric: an index into the
// registry's flat id table, assigned at registration. Id-indexed reads are
// the sampling hot path — one bounds check, one vector index, one kind
// switch; no string, no map. An id freed by Unregister may be reused by a
// later registration, and every register/unregister bumps the registry
// generation, so consumers caching ids (the recorder's sample plan)
// re-resolve exactly when the mapping can have changed.
using MetricId = uint32_t;
inline constexpr MetricId kInvalidMetricId = ~static_cast<MetricId>(0);

// Registry of named metrics. Registration and lookup are cold-path (map by
// name); the returned pointers are stable for the metric's lifetime, so hot
// paths touch only the metric object. Duplicate names abort (TFC_CHECK):
// two components claiming the same series is a wiring bug, not a runtime
// condition. Not thread-safe (the simulator is single-threaded).
class MetricRegistry {
 public:
  using GaugeFn = InplaceFunction<double(), kDefaultInplaceCapacity>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* AddCounter(std::string name);
  Gauge* AddGauge(std::string name);
  void AddCallbackGauge(std::string name, GaugeFn fn);
  Histogram* AddHistogram(std::string name);

  // Removes a metric (no-op if absent). Components that can die before the
  // registry (flows, replaced agents) unregister via ScopedMetrics.
  void Unregister(const std::string& name);

  // Removes a metric only if it is still owned by `token` (see
  // ScopedMetrics): after a replace-on-collision, the displaced owner's
  // cleanup must not take the new owner's entry with it.
  void UnregisterOwned(const std::string& name, uint64_t token);

  bool Has(const std::string& name) const { return entries_.count(name) > 0; }
  size_t size() const { return entries_.size(); }

  // Reads the current numeric value of a counter or gauge (histograms and
  // absent names return false). Non-const: callback gauges may be stateful.
  bool Read(const std::string& name, double* out);

  // Id-indexed Read: the sampling hot path. Freed slots, out-of-range ids,
  // and histograms return false. Ids stay valid while generation() is
  // unchanged.
  bool ReadId(MetricId id, double* out) {
    if (id >= by_id_.size() || by_id_[id] == nullptr) {
      return false;
    }
    Entry& e = *by_id_[id];
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

  // A read compiled all the way down: one indirect call through `fn(obj)`
  // with the kind dispatch resolved at compile-the-plan time instead of per
  // sample. Valid under the same contract as ids — until generation()
  // changes.
  struct CompiledRead {
    double (*fn)(void*);
    void* obj;
  };

  // Compiles a live counter/gauge/callback id to a direct read. Histograms,
  // freed slots, and empty callbacks return false (cold path).
  bool CompileReadId(MetricId id, CompiledRead* out) {
    if (id >= by_id_.size() || by_id_[id] == nullptr) {
      return false;
    }
    Entry& e = *by_id_[id];
    switch (e.kind) {
      case MetricKind::kCounter:
        out->fn = [](void* p) {
          return static_cast<double>(static_cast<Counter*>(p)->value());
        };
        out->obj = &e.counter;
        return true;
      case MetricKind::kGauge:
        out->fn = [](void* p) { return static_cast<Gauge*>(p)->value(); };
        out->obj = &e.gauge;
        return true;
      case MetricKind::kCallbackGauge:
        out->fn = e.fn.raw_invoke();
        out->obj = e.fn.raw_storage();
        return out->fn != nullptr;
      case MetricKind::kHistogram:
        return false;
    }
    return false;
  }

  // Resolves a name to its interned id (cold path; kInvalidMetricId when
  // absent), and the kind of a live id (precondition: id is live).
  MetricId IdOf(const std::string& name) const;
  MetricKind KindOfId(MetricId id) const;

  // Bumped on every register and unregister. Consumers holding resolved ids
  // (the recorder's compiled sample plan) re-resolve when this changes.
  uint64_t generation() const { return generation_; }

  // Visits every metric in name order: fn(name, kind). Use Read /
  // FindHistogram to pull values; name order makes exports deterministic.
  template <typename Fn>
  void ForEachName(Fn&& fn) const {
    for (const auto& [name, entry] : entries_) {
      fn(name, entry.kind);
    }
  }

  // Like ForEachName but also hands out the interned id: fn(name, kind, id).
  // Plan builders use this to resolve prefix watches in one ordered pass.
  template <typename Fn>
  void ForEachMetric(Fn&& fn) const {
    for (const auto& [name, entry] : entries_) {
      fn(name, entry.kind, entry.id);
    }
  }

  const Histogram* FindHistogram(const std::string& name) const;
  const Histogram* FindHistogram(MetricId id) const;

  // Runtime-auditor hook: every counter must be monotone between audit
  // passes (a shrinking counter means double-release or reset-in-flight).
  void AuditInvariants(Auditor& audit);

 private:
  friend class ScopedMetrics;

  struct Entry {
    MetricKind kind;
    Counter counter;           // kCounter
    Gauge gauge;               // kGauge
    GaugeFn fn;                // kCallbackGauge
    Histogram* hist = nullptr;  // kHistogram (owned; ~8 KB, heap-allocated)
    uint64_t last_audited = 0;  // monotonicity watermark for counters
    uint64_t owner = 0;         // ScopedMetrics token; 0 = direct registration
    MetricId id = kInvalidMetricId;  // dense slot in by_id_
    ~Entry();
    Entry() : kind(MetricKind::kCounter) {}
    Entry(Entry&&) = delete;
  };

  // `replace` re-claims an existing name (dropping the previous entry)
  // instead of aborting; only ScopedMetrics exposes it.
  Entry& Insert(std::string name, MetricKind kind, uint64_t owner, bool replace);

  // Id bookkeeping: both bump generation_ so cached plans re-resolve.
  void AssignId(Entry& e);
  void ReleaseId(Entry& e);

  uint64_t NewOwnerToken() { return next_owner_token_++; }

  // std::map: stable node addresses (metric pointers survive unrelated
  // inserts/erases) and deterministic name-ordered iteration for exports.
  std::map<std::string, Entry> entries_;
  // Dense id -> entry; nullptr marks a freed slot awaiting reuse. Entry
  // addresses are map-node stable, so these pointers survive churn.
  std::vector<Entry*> by_id_;
  std::vector<MetricId> free_ids_;
  uint64_t generation_ = 1;  // starts above the recorder's "no plan" zero
  uint64_t next_owner_token_ = 1;
};

// RAII bundle of registrations: everything added through this object is
// unregistered when it is destroyed, so a component destroyed mid-run
// cannot leave a dangling callback gauge behind (same contract as
// ScopedAudit). Default-constructed inert; Reset() binds a registry.
class ScopedMetrics {
 public:
  ScopedMetrics() = default;
  explicit ScopedMetrics(MetricRegistry* registry) { Reset(registry); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;
  ~ScopedMetrics() { Clear(); }

  // Binds (or rebinds) the registry; unregisters anything already added.
  void Reset(MetricRegistry* registry) {
    Clear();
    registry_ = registry;
    token_ = registry_ != nullptr ? registry_->NewOwnerToken() : 0;
  }

  // When set, a name collision re-claims the existing metric instead of
  // aborting. For components that can be legitimately rebuilt for the same
  // resource (a port's protocol agent replaced mid-test): the new instance
  // takes over the names, and the displaced instance's destructor cannot
  // remove them (ownership-token mismatch).
  void set_replace_on_collision(bool v) { replace_ = v; }

  Counter* AddCounter(std::string name);
  Gauge* AddGauge(std::string name);
  void AddCallbackGauge(std::string name, MetricRegistry::GaugeFn fn);
  Histogram* AddHistogram(std::string name);

  MetricRegistry* registry() const { return registry_; }
  bool bound() const { return registry_ != nullptr; }

 private:
  void Clear();

  MetricRegistry* registry_ = nullptr;
  uint64_t token_ = 0;
  bool replace_ = false;
  std::vector<std::string> names_;
};

// Samples watched counters/gauges on a fixed cadence into per-metric
// buffers. Ticks are daemon events: they fire inside Run()/RunUntil() like
// any event but do not keep drain-mode Run() alive and are excluded from
// pending(). A watched metric that disappears (its component unregistered)
// simply stops extending its series.
//
// Ticks run off a compiled sample plan: watches and prefixes resolve once
// to (MetricId, series id) pairs, re-resolved only when the registry
// generation changes, so the per-tick cost is an id-indexed read plus a
// log append per watched metric — no string compares, no map lookups.
class TimeSeriesRecorder {
 public:
  struct Sample {
    // The user-provided (empty) default constructor leaves members
    // uninitialized on purpose: MaterializeLog resize()s series and then
    // overwrites every slot, and value-initialization would memset
    // megabytes only to throw the zeros away.
    Sample() {}
    Sample(TimeNs t_, double v_) : t(t_), v(v_) {}
    TimeNs t;
    double v;
  };

  TimeSeriesRecorder(Scheduler* scheduler, MetricRegistry* registry)
      : scheduler_(scheduler), registry_(registry) {}
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;
  ~TimeSeriesRecorder() { Stop(); }

  // Watch one metric by exact name (duplicates are ignored: one watch, one
  // sample per tick), or every current and future metric whose name starts
  // with `prefix` (the plan re-expands when the registry changes, so
  // metrics registered after Start() are picked up).
  void Watch(std::string name);
  void WatchPrefix(std::string prefix);
  void WatchAll() { WatchPrefix(""); }

  // Test seam: rebuild the sample plan on every tick instead of only on
  // generation change — the reference the cached plan is checked against.
  void set_replan_every_tick_for_test(bool v) { replan_every_tick_ = v; }

  // Starts sampling every `period`, first tick after `first_delay`
  // (defaults to 0: an immediate baseline sample). Restart re-paces.
  void Start(TimeNs period, TimeNs first_delay = 0);
  void Stop();
  bool running() const { return running_; }

  TimeNs period() const { return period_; }
  uint64_t ticks() const { return ticks_; }

  // How many times the sample plan was compiled — equals the number of
  // registry-churn episodes the recorder saw (plus the initial build).
  // ticks() >> plan_rebuilds() is the signature of a healthy hot path.
  uint64_t plan_rebuilds() const { return plan_rebuilds_; }

  // Number of distinct recorded series / total samples across them.
  size_t series_count() const { return series_.size(); }
  size_t total_samples() const;

  // Recorded series for `name`, oldest sample first (empty if never
  // sampled).
  std::vector<Sample> Series(const std::string& name) const;

  // Names with at least one sample, sorted.
  std::vector<std::string> SeriesNames() const;

  // Visits every (name, samples oldest-first) pair in name order.
  template <typename Fn>
  void ForEachSeries(Fn&& fn) const {
    MaterializeLog();
    for (const auto& [name, samples] : series_) {
      fn(name, samples);
    }
  }

 private:
  // Ticks append to a value-stream log — contiguous cursors instead of ~N
  // scattered series tails — and readers demux into the per-series vectors
  // later. A tick stores one timestamp plus its values in plan order; the
  // sid sequence those values map to is snapshotted once per plan epoch,
  // so the per-sample record is just the 8-byte double.
  struct LogEpoch {
    std::vector<uint32_t> sids;  // plan sid order when the epoch began
    uint64_t ticks = 0;          // ticks recorded under this epoch
  };

  void Tick();
  void RebuildPlan();
  void AddPlanEntry(const std::string& name, MetricId id);
  // Demuxes the flat log into the per-series vectors (counted reserve, one
  // pass); cold path, called by readers. Const because every accessor
  // needs it; only the log and series contents move.
  void MaterializeLog() const;
  void GrowLogV(size_t need) const;  // ensures capacity for `need` more

  Scheduler* scheduler_;
  MetricRegistry* registry_;
  std::vector<std::string> watches_;
  std::vector<std::string> prefixes_;
  std::map<std::string, std::vector<Sample>> series_;
  std::map<std::string, uint32_t> sid_by_name_;
  // Demux targets by sid: series_ map nodes are stable, so the pointers
  // survive re-plans.
  std::vector<std::vector<Sample>*> series_by_sid_;
  // Value log, tick-major. A raw buffer instead of std::vector<double>
  // because resize() value-initializes: the tick path would memset every
  // slot it is about to overwrite. GrowLogV keeps amortized growth.
  mutable std::unique_ptr<double[]> log_v_;
  mutable size_t log_v_size_ = 0;
  mutable size_t log_v_cap_ = 0;
  mutable std::vector<TimeNs> log_t_;  // one timestamp per tick
  mutable std::vector<LogEpoch> log_epochs_;
  // Plan changed (or the log drained) since the last epoch snapshot.
  mutable bool epoch_dirty_ = true;
  // The compiled sample plan, as two parallel arrays: the tick loop streams
  // the dense reads once per tick, and the sids are only copied when an
  // epoch begins. Compiled reads are valid until the registry generation
  // moves, which forces a rebuild before the next sample.
  std::vector<MetricRegistry::CompiledRead> plan_reads_;
  std::vector<uint32_t> plan_sids_;
  uint64_t plan_generation_ = 0;  // registry generation the plan matches;
                                  // 0 = never built (registry starts at 1)
  uint64_t plan_rebuilds_ = 0;
  bool replan_every_tick_ = false;
  TimeNs period_ = 0;
  uint64_t ticks_ = 0;
  bool running_ = false;
  Scheduler::EventId tick_event_;
};

// ---------------------------------------------------------------------------
// Run exporter: manifest.json + metrics.tfcb + summary.json per run.
// ---------------------------------------------------------------------------

class Profiler;

// metrics.tfcb — compact binary series spill (all fields little-endian):
//
//   header   "TFCB" magic, u32 version (=1), u32 series_count,
//            u64 record_count                              (20 bytes)
//   names    series_count entries of {u32 len, bytes};
//            a name's position in the table is its series_id
//   records  record_count entries of {u32 series_id, u64 t_ns, f64 v},
//            grouped by series in name-table order, oldest first
//
// The converter re-emits the legacy metrics.jsonl byte-compatibly (same
// shortest-round-trip number formatting as the old exporter).
inline constexpr char kTfcbMagic[4] = {'T', 'F', 'C', 'B'};
inline constexpr uint32_t kTfcbVersion = 1;

// Buffered writer for metrics.tfcb. AppendRecord is the hot call: it only
// memcpy-packs into the buffer; file I/O happens in batched Flush()es.
class SpillWriter {
 public:
  static constexpr size_t kRecordBytes = 4 + 8 + 8;  // series_id, t_ns, v
  static constexpr size_t kBufferBytes = 256 * 1024;

  SpillWriter() { buf_.reserve(kBufferBytes); }
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;
  ~SpillWriter() { Close(); }

  // Opens `path` and writes the header. Returns false on I/O failure.
  bool Open(const std::string& path, uint32_t series_count,
            uint64_t record_count);
  // Appends one name-table entry; call series_count times after Open.
  void AppendName(const std::string& name);
  // Hot path: packs one fixed-width record into the batch buffer.
  void AppendRecord(uint32_t series_id, TimeNs t_ns, double v);
  // Flushes the buffer and closes the file. Returns false if any write
  // failed (sticky across the writer's lifetime).
  bool Close();

 private:
  void Flush();

  std::FILE* file_ = nullptr;
  std::vector<unsigned char> buf_;
  bool ok_ = true;
};

// Offline converter: decodes `tfcb_path` and writes the legacy JSONL
// (`{"t_ns": ..., "name": ..., "v": ...}` per line) to `jsonl_path`,
// byte-compatible with the pre-binary exporter. Returns false and fills
// *error on decode or I/O failure. Exposed via `tfcsim --convert=RUN_DIR`.
bool ConvertMetricsTfcbToJsonl(const std::string& tfcb_path,
                               const std::string& jsonl_path,
                               std::string* error);

// Ordered key/value description of what ran (workload, protocol, topology,
// seeds, flags). Values keep their JSON type; the exporter adds
// schema_version, git_describe, and wall-clock timestamps itself.
class RunManifest {
 public:
  void Set(const std::string& key, const std::string& value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;  // key -> pre-encoded JSON literal
  }

 private:
  void SetLiteral(const std::string& key, std::string json);
  std::vector<std::pair<std::string, std::string>> entries_;
};

// `git describe --always --dirty` of the working tree, or "unknown" when
// git/repo are unavailable. Cached after the first call (cold path only).
const std::string& GitDescribe();

// Writes the per-run directory (created if needed):
//   dir/manifest.json   schema_version, git describe, timestamps, manifest
//   dir/metrics.tfcb    binary series spill (header-only when recorder is
//                       null); convert to JSONL with tfcsim --convert
//   dir/summary.json    final value of every registry metric, histogram
//                       percentiles, and profiler sites (profiler may be null)
// Returns false and fills *error on filesystem failure. Formats are stable
// and validated by tools/telemetry_schema.py.
bool WriteRunDirectory(const std::string& dir, const RunManifest& manifest,
                       MetricRegistry& metrics, const TimeSeriesRecorder* recorder,
                       const Profiler* profiler, std::string* error);

// JSON string escaping for the exporter and tracers (exposed for tests).
std::string JsonEscape(const std::string& s);
// Finite doubles render with shortest round-trip precision; NaN/inf render
// as null (JSON has no non-finite numbers).
std::string JsonNumber(double v);

}  // namespace tfc

#endif  // SRC_SIM_TELEMETRY_H_
