// Crash-isolated run supervisor: the one sweep executor.
//
// The paper's evaluation (Figs. 6-16) is a grid of *independent*
// simulations — flow counts, RTTs, loads, seeds — that share nothing but
// the binary they run in. The supervisor executes such a grid with every
// job isolated in its own process, so a TFC_CHECK trip, audit violation,
// watchdog stall, or plain segfault in one run cannot take the sweep down
// or discard completed results:
//
//   * every job executes in a forked child process — an aborting run takes
//     only its own process down, siblings keep running, and the parent
//     captures both the exit status and the terminating signal;
//   * a per-run wall-clock timeout SIGKILLs runaway children (status
//     `timeout`), so one hung run cannot pin a worker slot forever;
//   * failed runs retry up to `max_retries` times with deterministic capped
//     exponential backoff, classifying deterministic vs. transient
//     failures: two attempts that die the *same* way (same status, exit
//     code, and signal) mark the failure deterministic and stop retrying;
//   * artifacts a failed attempt left in its run directory (most notably
//     the post-mortem flight.tfct dump, src/sim/flight.h) are salvaged —
//     moved aside to salvage-attempt-N/ before a retry can clobber them,
//     and inventoried in the result on final failure;
//   * completed runs write a `done` marker keyed by a hash of (config,
//     seed, git-describe, sweep-schema-version); with `resume` set, runs
//     whose marker verifies are skipped (`skipped-cached`) without forking.
//
// Jobs communicate with the caller only through their result: stdout-style
// output is buffered into `report`, shipped back over a pipe, and emitted
// by the caller in submission order, so interleaving cannot scramble logs.
//
// Determinism contract: the supervisor never changes what a run computes —
// a run produces byte-identical output whether it executed at 1 or N
// workers, on a retry, or as a direct call in the parent (regression-tested
// in tests/sweep_test.cc and tests/supervisor_test.cc, gated end-to-end by
// `ci.sh sweep`).
//
// The parent is single-threaded: concurrency comes from having several
// children alive at once, not from threads.

#ifndef SRC_SIM_SUPERVISOR_H_
#define SRC_SIM_SUPERVISOR_H_

// Cold orchestration layer, one callback per *process*: type-erased
// heap-allocating callables are fine here, unlike in the event hot path.
#include <functional>  // lint:allow std-function
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/telemetry.h"

namespace tfc {

// sweep.json schema: v2 added per-run status ("ok" / "failed" / "timeout" /
// "skipped-cached"), terminating signal, attempt count, and salvaged-file
// inventory so a degraded sweep is still queryable run by run.
inline constexpr int kSweepSchemaVersion = 2;

// Terminal state of one supervised run.
enum class RunStatus {
  kOk,            // child exited 0
  kFailed,        // nonzero exit or killed by a signal (its own abort/crash)
  kTimeout,       // parent SIGKILLed it at the wall-clock deadline
  kSkippedCached, // resume: verified done marker, never forked
};

const char* RunStatusName(RunStatus s);

struct SupervisorOptions {
  int workers = 1;           // max concurrent children (>= 1)
  int max_retries = 0;       // extra attempts after the first failure
  double timeout_s = 0.0;    // per-run wall-clock limit; 0 = unlimited
  int backoff_base_ms = 250; // first retry delay
  int backoff_cap_ms = 8000; // backoff ceiling
  bool resume = false;       // skip runs with a verified done marker
};

// Outcome of one supervised job, in submission order.
struct SupervisedResult {
  int index = -1;
  std::string name;
  RunStatus status = RunStatus::kOk;
  int exit_code = 0;    // child exit code; 128+signal when signal-killed
  int term_signal = 0;  // terminating signal (0 when it exited)
  int attempts = 0;     // child executions (0 when skipped-cached)
  std::string report;   // every attempt's buffered output, in order
  double wall_seconds = 0.0;  // wall-clock of the final attempt
  // Top-level files left in the run directory by a finally-failed run
  // (flight.tfct, partial telemetry, ...), sorted. Empty on success.
  std::vector<std::string> salvaged;

  bool ok() const {
    return status == RunStatus::kOk || status == RunStatus::kSkippedCached;
  }
};

// Runs a list of independent jobs, each in its own forked child process.
// Single-use: Add everything, then Run once. POSIX-only (fork/pipe/waitpid)
// — the one sanctioned process-spawning site in src/.
class RunSupervisor {
 public:
  // The callable runs *in the child*, builds and tears down its own
  // simulation, writes its buffered output into *report, and returns an
  // exit code. The report crosses back to the parent over a pipe; a crashed
  // child's report is whatever the supervisor can reconstruct (termination
  // cause) plus salvaged files.
  using JobFn = std::function<int(std::string* report)>;  // lint:allow std-function

  explicit RunSupervisor(const SupervisorOptions& options);
  RunSupervisor(const RunSupervisor&) = delete;
  RunSupervisor& operator=(const RunSupervisor&) = delete;

  // `run_dir` is the job's artifact directory ("" = none: no salvage, no
  // caching). `cache_key` keys the done marker ("" = never cached); build
  // it with SweepCacheKey so git-describe and the schema version are in.
  void Add(std::string name, std::string run_dir, std::string cache_key,
           JobFn fn);

  // Executes all jobs; blocks until every job reached a terminal status.
  // result[i] corresponds to the i-th Add call.
  std::vector<SupervisedResult> Run();

  const SupervisorOptions& options() const { return options_; }
  size_t job_count() const { return jobs_.size(); }

  // Online processors (sysconf), clamped to >= 1: the default worker count.
  static int DefaultWorkers();

  // Deterministic capped exponential backoff before retry number
  // `failures` (1-based): min(cap_ms, base_ms << (failures - 1)).
  static int64_t BackoffMs(int failures, int base_ms, int cap_ms);

  // Done-marker plumbing (exposed for tests and tools).
  static uint64_t HashKey(const std::string& key);  // FNV-1a 64
  static std::string DoneMarkerContents(const std::string& cache_key);
  static std::string DoneMarkerPath(const std::string& run_dir);
  static bool DoneMarkerMatches(const std::string& run_dir,
                                const std::string& cache_key);
  static bool WriteDoneMarker(const std::string& run_dir,
                              const std::string& cache_key,
                              std::string* error);

 private:
  struct Job {
    std::string name;
    std::string run_dir;
    std::string cache_key;
    JobFn fn;
    // Scheduling state (parent-side only).
    int attempts = 0;        // executions started so far
    bool running = false;
    bool done = false;
    int64_t ready_at_ms = 0; // steady-clock ms; backoff gate for retries
    bool have_failure_sig = false;  // previous failure's signature
    RunStatus sig_status = RunStatus::kOk;
    int sig_exit = 0;
    int sig_signal = 0;
    SupervisedResult result;
  };

  struct Child {
    int pid = -1;
    size_t job = 0;
    int read_fd = -1;
    std::string report;      // drained from the pipe so far
    int64_t start_ms = 0;
    int64_t deadline_ms = 0; // 0 = no timeout
    bool kill_sent = false;  // timeout SIGKILL dispatched
  };

  bool SpawnNext(int64_t now_ms);
  void DrainPipe(Child& c);
  void HandleExit(Child& c, int wait_status, int64_t now_ms);
  void SalvageForRetry(Job& job, int attempt);
  static std::vector<std::string> ListRunDirFiles(const std::string& run_dir);

  const SupervisorOptions options_;
  std::vector<Job> jobs_;
  std::vector<Child> children_;
  size_t completed_ = 0;
  bool ran_ = false;
};

// Canonical cache-key string for a sweep run: the caller's config
// fingerprint (every flag that influences the run's output) plus the seed,
// `git describe`, and the sweep.json schema version — so a rebuilt binary
// or a schema bump invalidates cached runs instead of silently reusing
// stale artifacts.
std::string SweepCacheKey(const std::string& config_fingerprint,
                          uint64_t seed);

// Writes the merged sweep manifest `<path>` (conventionally
// <sweep-dir>/sweep.json, schema v2): schema header, sweep-level config
// from `extra`, and one entry per result with its status/exit_code/signal/
// attempts/salvaged. Written even when runs failed so a degraded sweep
// still ships a queryable manifest. Returns false and sets *error on I/O
// failure.
bool WriteSweepManifest(const std::string& path, const RunManifest& extra,
                        const std::vector<SupervisedResult>& results,
                        std::string* error);

}  // namespace tfc

#endif  // SRC_SIM_SUPERVISOR_H_
