// Scheduler/component profiler.
//
// Answers "where do the events go and where does the wall-clock go"
// per run instead of per benchmark: each instrumented callback site owns a
// ProfileSite that counts dispatches (always on — one increment through a
// stable pointer) and, only when profiling is enabled, accumulates
// wall-clock and simulated time per site. The whole thing exports through
// the telemetry registry ("profile.<site>.hits" / ".wall_ns" / ".sim_ns"
// callback gauges) and the run exporter's summary.json "profile" section,
// so a telemetry run doubles as a coarse profile.
//
// Wall-clock sampling costs two std::chrono::steady_clock reads per scope;
// the enable flag gates exactly those reads, so a disabled profiler adds a
// predictable branch and nothing else to the hot path (regression-tested by
// bench/micro_core.cc against BENCH_core.json).
//
// Confined, not shared: a Profiler belongs to one Network, sites register
// against that instance (never a process-wide table), so concurrent
// simulations — e.g. two Networks driven from two threads — profile
// independently without locks.

#ifndef SRC_SIM_PROFILE_H_
#define SRC_SIM_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "src/sim/telemetry.h"
#include "src/sim/time.h"

namespace tfc {

// Per-callback-site accumulator. Obtained once from Profiler::Site() (cold
// path); hot paths touch only the returned pointer.
class ProfileSite {
 public:
  explicit ProfileSite(std::string name) : name_(std::move(name)) {}

  void Hit() { ++hits_; }
  void AddWall(uint64_t ns) { wall_ns_ += ns; }
  void AddSim(TimeNs ns) { sim_ns_ += ns; }

  const std::string& name() const { return name_; }
  uint64_t hits() const { return hits_; }
  uint64_t wall_ns() const { return wall_ns_; }  // lint:allow units (host wall clock)
  TimeNs sim_ns() const { return sim_ns_; }

 private:
  std::string name_;
  uint64_t hits_ = 0;
  // Host wall-clock nanoseconds from std::chrono, not simulated TimeNs —
  // the one clock the unit layer deliberately leaves raw.
  uint64_t wall_ns_ = 0;  // lint:allow units (accumulated only while enabled)
  TimeNs sim_ns_ = 0;     // simulated time attributed by the component
};

// Registry of profile sites. When constructed with a MetricRegistry, each
// site self-exports as "profile.<name>.hits|wall_ns|sim_ns" callback
// gauges, so the time-series recorder and summary.json see sites with no
// extra wiring. Not thread-safe (the simulator is single-threaded).
class Profiler {
 public:
  explicit Profiler(MetricRegistry* registry = nullptr)
      : metrics_(registry), enabled_(ProfileEnabledByDefault()) {}
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Get-or-create the site named `name`. The pointer is stable for the
  // profiler's lifetime.
  ProfileSite* Site(const std::string& name);

  // Enables/disables wall-clock sampling (hit counting is always on).
  // Defaults to the TFC_PROFILE environment variable.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  size_t site_count() const { return sites_.size(); }

  // Visits every site in name order: fn(const ProfileSite&).
  template <typename Fn>
  void ForEachSite(Fn&& fn) const {
    for (const auto& [name, site] : sites_) {
      fn(site);
    }
  }

  static bool ProfileEnabledByDefault();

 private:
  // std::map: stable ProfileSite addresses across unrelated inserts.
  std::map<std::string, ProfileSite> sites_;
  ScopedMetrics metrics_;
  bool enabled_;
};

// RAII wall-clock scope around one callback dispatch:
//
//   void Port::OnSerialized() {
//     ProfileScope prof(profiler_, serialize_site_);
//     ...
//   }
//
// Always counts the hit; reads steady_clock only when the profiler is
// enabled. Null profiler/site pointers make the scope a no-op, so call
// sites need no "is telemetry wired" branches of their own.
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, ProfileSite* site) : site_(site) {
    if (site_ == nullptr) {
      return;
    }
    site_->Hit();
    if (profiler != nullptr && profiler->enabled()) {
      timing_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;
  ~ProfileScope() {
    if (timing_) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      site_->AddWall(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    }
  }

 private:
  ProfileSite* site_;
  bool timing_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tfc

#endif  // SRC_SIM_PROFILE_H_
