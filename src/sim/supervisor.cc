#include "src/sim/supervisor.h"

// The supervisor is the one sanctioned process-spawning site in src/: it
// forks one child per run attempt, supervises the fleet single-threaded
// (poll + waitpid, no worker threads), and does only cold-path file I/O —
// per attempt and per sweep (sweep.json), never per event. lint:allow hot-io

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "src/sim/check.h"
#include "src/sim/telemetry.h"

namespace tfc {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMs(int64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  nanosleep(&ts, nullptr);
}

std::string DescribeSignal(int sig) {
  const char* name = strsignal(sig);
  std::ostringstream oss;
  oss << "signal " << sig << " (" << (name != nullptr ? name : "?") << ")";
  return oss.str();
}

}  // namespace

const char* RunStatusName(RunStatus s) {
  switch (s) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kFailed:
      return "failed";
    case RunStatus::kTimeout:
      return "timeout";
    case RunStatus::kSkippedCached:
      return "skipped-cached";
  }
  return "?";
}

RunSupervisor::RunSupervisor(const SupervisorOptions& options)
    : options_(options) {
  TFC_CHECK_GE(options_.workers, 1);
  TFC_CHECK_GE(options_.max_retries, 0);
}

void RunSupervisor::Add(std::string name, std::string run_dir,
                        std::string cache_key, JobFn fn) {
  TFC_CHECK(fn != nullptr);
  TFC_CHECK_MSG(!ran_, "RunSupervisor is single-use: Add before Run");
  Job job;
  job.name = std::move(name);
  job.run_dir = std::move(run_dir);
  job.cache_key = std::move(cache_key);
  job.fn = std::move(fn);
  job.result.index = static_cast<int>(jobs_.size());
  job.result.name = job.name;
  jobs_.push_back(std::move(job));
}

int RunSupervisor::DefaultWorkers() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<int>(n);
}

int64_t RunSupervisor::BackoffMs(int failures, int base_ms, int cap_ms) {
  if (failures < 1) {
    failures = 1;
  }
  if (base_ms < 0) {
    base_ms = 0;
  }
  const int64_t cap = cap_ms < base_ms ? base_ms : cap_ms;
  const int shift = failures - 1 > 30 ? 30 : failures - 1;
  const int64_t ms = static_cast<int64_t>(base_ms) << shift;
  return ms > cap ? cap : ms;
}

uint64_t RunSupervisor::HashKey(const std::string& key) {
  // FNV-1a 64: stable across platforms, good enough to key a done marker
  // (the marker also embeds the full key, so a collision cannot validate
  // a mismatched config — matching compares the whole contents).
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string RunSupervisor::DoneMarkerContents(const std::string& cache_key) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(HashKey(cache_key)));
  std::string out = "tfc-run-done v1\nhash ";
  out += hex;
  out += "\nkey ";
  out += cache_key;
  out += "\n";
  return out;
}

std::string RunSupervisor::DoneMarkerPath(const std::string& run_dir) {
  return run_dir + "/done";
}

bool RunSupervisor::DoneMarkerMatches(const std::string& run_dir,
                                      const std::string& cache_key) {
  if (run_dir.empty() || cache_key.empty()) {
    return false;
  }
  std::ifstream f(DoneMarkerPath(run_dir), std::ios::binary);
  if (!f) {
    return false;
  }
  std::ostringstream got;
  got << f.rdbuf();
  return got.str() == DoneMarkerContents(cache_key);
}

bool RunSupervisor::WriteDoneMarker(const std::string& run_dir,
                                    const std::string& cache_key,
                                    std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    *error = "create_directories(" + run_dir + "): " + ec.message();
    return false;
  }
  const std::string path = DoneMarkerPath(run_dir);
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  f << DoneMarkerContents(cache_key);
  f.flush();
  if (!f) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

std::vector<std::string> RunSupervisor::ListRunDirFiles(
    const std::string& run_dir) {
  std::vector<std::string> out;
  if (run_dir.empty()) {
    return out;
  }
  std::error_code ec;
  std::filesystem::directory_iterator it(run_dir, ec);
  if (ec) {
    return out;
  }
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec) && !ec) {
      out.push_back(entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RunSupervisor::SalvageForRetry(Job& job, int attempt) {
  // A retry reruns the job into the same run directory; move what the
  // failed attempt left behind (partial telemetry, the flight.tfct
  // post-mortem) out of the blast radius first.
  const std::vector<std::string> files = ListRunDirFiles(job.run_dir);
  if (files.empty()) {
    return;
  }
  const std::filesystem::path salvage_dir =
      std::filesystem::path(job.run_dir) /
      ("salvage-attempt-" + std::to_string(attempt));
  std::error_code ec;
  std::filesystem::create_directories(salvage_dir, ec);
  if (ec) {
    job.result.report += "supervisor: salvage dir failed: " + ec.message() + "\n";
    return;
  }
  for (const std::string& f : files) {
    std::filesystem::rename(std::filesystem::path(job.run_dir) / f,
                            salvage_dir / f, ec);
    if (ec) {
      job.result.report +=
          "supervisor: salvage of " + f + " failed: " + ec.message() + "\n";
    }
  }
  job.result.report += "supervisor: salvaged " + std::to_string(files.size()) +
                       " file(s) from attempt " + std::to_string(attempt) +
                       " to " + salvage_dir.string() + "/\n";
}

bool RunSupervisor::SpawnNext(int64_t now_ms) {
  size_t pick = jobs_.size();
  for (size_t i = 0; i < jobs_.size(); ++i) {
    Job& j = jobs_[i];
    if (!j.done && !j.running && j.ready_at_ms <= now_ms) {
      pick = i;
      break;
    }
  }
  if (pick == jobs_.size()) {
    return false;
  }
  Job& job = jobs_[pick];

  int fds[2];
  if (pipe(fds) != 0) {
    job.result.report += std::string("supervisor: pipe failed: ") +
                         std::strerror(errno) + "\n";
    job.result.status = RunStatus::kFailed;
    job.result.exit_code = 71;  // EX_OSERR
    job.done = true;
    ++completed_;
    return true;
  }

  // Buffered stdio crossing fork would be flushed twice (once per process);
  // drain it on the parent side first. The child itself only write()s.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    job.result.report += std::string("supervisor: fork failed: ") +
                         std::strerror(errno) + "\n";
    job.result.status = RunStatus::kFailed;
    job.result.exit_code = 71;
    job.done = true;
    ++completed_;
    return true;
  }
  if (pid == 0) {
    // Child: run the job, ship the report over the pipe, and _Exit — no
    // atexit handlers, no static destructors, no double-flushed parent
    // buffers. An abort inside fn() (TFC_CHECK, audit, watchdog) never
    // reaches this epilogue; the post-mortem flight dump and the parent's
    // signal capture cover that path instead.
    close(fds[0]);
    std::string report;
    int code = 0;
    try {
      code = job.fn(&report);
    } catch (const std::exception& e) {
      code = 70;  // EX_SOFTWARE
      report += std::string("sweep job threw: ") + e.what() + "\n";
    } catch (...) {
      code = 70;
      report += "sweep job threw a non-std exception\n";
    }
    const char* p = report.data();
    size_t left = report.size();
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) {
        break;
      }
      p += static_cast<size_t>(n);
      left -= static_cast<size_t>(n);
    }
    close(fds[1]);
    std::_Exit(code);
  }

  // Parent.
  close(fds[1]);
  const int flags = fcntl(fds[0], F_GETFL, 0);
  fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
  job.running = true;
  ++job.attempts;
  Child c;
  c.pid = pid;
  c.job = pick;
  c.read_fd = fds[0];
  c.start_ms = now_ms;
  c.deadline_ms = options_.timeout_s > 0.0
                      ? now_ms + static_cast<int64_t>(options_.timeout_s * 1000.0)
                      : 0;
  children_.push_back(std::move(c));
  return true;
}

void RunSupervisor::DrainPipe(Child& c) {
  if (c.read_fd < 0) {
    return;
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = read(c.read_fd, buf, sizeof buf);
    if (n > 0) {
      c.report.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      close(c.read_fd);  // EOF: writer gone
      c.read_fd = -1;
    }
    return;  // EOF, EAGAIN, or error — all end this drain
  }
}

void RunSupervisor::HandleExit(Child& c, int wait_status, int64_t now_ms) {
  DrainPipe(c);
  if (c.read_fd >= 0) {
    close(c.read_fd);
    c.read_fd = -1;
  }
  Job& job = jobs_[c.job];
  job.running = false;
  job.result.attempts = job.attempts;
  job.result.wall_seconds =
      static_cast<double>(now_ms - c.start_ms) / 1000.0;
  job.result.report += c.report;

  const bool exited = WIFEXITED(wait_status);
  const int exit_status = exited ? WEXITSTATUS(wait_status) : 0;
  if (exited && exit_status == 0) {
    job.result.status = RunStatus::kOk;
    job.result.exit_code = 0;
    job.result.term_signal = 0;
    if (!job.run_dir.empty() && !job.cache_key.empty()) {
      std::string error;
      if (!WriteDoneMarker(job.run_dir, job.cache_key, &error)) {
        // A missing marker only costs a redundant re-run on resume; the
        // run itself succeeded, so warn instead of failing it.
        job.result.report +=
            "supervisor: done marker not written: " + error + "\n";
      }
    }
    job.done = true;
    ++completed_;
    return;
  }

  // Failure path: classify, then retry or finalize.
  const int term_signal = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
  const RunStatus status =
      c.kill_sent ? RunStatus::kTimeout : RunStatus::kFailed;
  const int exit_code = exited ? exit_status : 128 + term_signal;

  std::ostringstream line;
  line << "supervisor: " << job.name << " attempt " << job.attempts << "/"
       << (1 + options_.max_retries) << ": ";
  if (status == RunStatus::kTimeout) {
    line << "timed out after " << options_.timeout_s << "s (SIGKILL)";
  } else if (term_signal != 0) {
    line << "killed by " << DescribeSignal(term_signal);
  } else {
    line << "exited with code " << exit_code;
  }

  const bool identical = job.have_failure_sig && job.sig_status == status &&
                         job.sig_exit == exit_code &&
                         job.sig_signal == term_signal;
  const bool can_retry = job.attempts < 1 + options_.max_retries;
  if (can_retry && !identical) {
    const int64_t backoff = BackoffMs(job.attempts, options_.backoff_base_ms,
                                      options_.backoff_cap_ms);
    line << "; retrying in " << backoff << "ms\n";
    job.result.report += line.str();
    job.have_failure_sig = true;
    job.sig_status = status;
    job.sig_exit = exit_code;
    job.sig_signal = term_signal;
    SalvageForRetry(job, job.attempts);
    job.ready_at_ms = now_ms + backoff;
    return;  // back to pending
  }

  if (identical) {
    line << "; same failure twice — deterministic, not retrying\n";
  } else if (options_.max_retries > 0) {
    line << "; retry budget exhausted\n";
  } else {
    line << "\n";
  }
  job.result.report += line.str();
  job.result.status = status;
  job.result.exit_code = exit_code;
  job.result.term_signal = term_signal;
  // Inventory what the failed run left behind (the post-mortem flight.tfct
  // above all) so the manifest can point an operator at it.
  job.result.salvaged = ListRunDirFiles(job.run_dir);
  job.done = true;
  ++completed_;
}

std::vector<SupervisedResult> RunSupervisor::Run() {
  TFC_CHECK_MSG(!ran_, "RunSupervisor::Run is single-use");
  ran_ = true;

  // Resume: verified done markers complete without forking.
  for (Job& job : jobs_) {
    if (options_.resume && DoneMarkerMatches(job.run_dir, job.cache_key)) {
      job.result.status = RunStatus::kSkippedCached;
      job.result.attempts = 0;
      job.result.report = "supervisor: done marker verified, skipping\n";
      job.done = true;
      ++completed_;
    }
  }

  while (completed_ < jobs_.size()) {
    int64_t now = NowMs();
    bool activity = false;
    while (children_.size() < static_cast<size_t>(options_.workers) &&
           SpawnNext(now)) {
      activity = true;
    }
    for (Child& c : children_) {
      DrainPipe(c);
      if (c.deadline_ms > 0 && !c.kill_sent && NowMs() >= c.deadline_ms) {
        kill(c.pid, SIGKILL);
        c.kill_sent = true;
      }
    }
    // Reap with per-pid waitpid: a process-wide waitpid(-1) could steal
    // children that are not ours (GitDescribe's popen, a test harness).
    for (size_t i = 0; i < children_.size();) {
      int wait_status = 0;
      const pid_t p = waitpid(children_[i].pid, &wait_status, WNOHANG);
      if (p == children_[i].pid) {
        HandleExit(children_[i], wait_status, NowMs());
        children_.erase(children_.begin() + static_cast<long>(i));
        activity = true;
      } else {
        ++i;
      }
    }
    if (!activity && completed_ < jobs_.size()) {
      SleepMs(1);
    }
  }

  std::vector<SupervisedResult> out;
  out.reserve(jobs_.size());
  for (Job& job : jobs_) {
    out.push_back(std::move(job.result));
  }
  return out;
}

std::string SweepCacheKey(const std::string& config_fingerprint,
                          uint64_t seed) {
  return config_fingerprint + "|seed=" + std::to_string(seed) +
         "|git=" + GitDescribe() +
         "|sweep_schema=" + std::to_string(kSweepSchemaVersion);
}

bool WriteSweepManifest(const std::string& path, const RunManifest& extra,
                        const std::vector<SupervisedResult>& results,
                        std::string* error) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      *error = "create_directories(" + parent.string() + "): " + ec.message();
      return false;
    }
  }
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  f << "{\n  \"schema_version\": " << kSweepSchemaVersion << ",\n";
  f << "  \"git_describe\": \"" << JsonEscape(GitDescribe()) << "\",\n";
  f << "  \"sweep\": {";
  bool first = true;
  for (const auto& [key, json] : extra.entries()) {
    f << (first ? "\n" : ",\n") << "    \"" << JsonEscape(key) << "\": " << json;
    first = false;
  }
  f << (first ? "}," : "\n  },") << "\n";
  f << "  \"runs\": [";
  first = true;
  for (const SupervisedResult& r : results) {
    f << (first ? "\n" : ",\n") << "    {\"index\": " << r.index << ", \"name\": \""
      << JsonEscape(r.name) << "\", \"status\": \"" << RunStatusName(r.status)
      << "\", \"exit_code\": " << r.exit_code << ", \"signal\": " << r.term_signal
      << ", \"attempts\": " << r.attempts
      << ", \"wall_seconds\": " << JsonNumber(r.wall_seconds);
    if (!r.salvaged.empty()) {
      f << ", \"salvaged\": [";
      for (size_t i = 0; i < r.salvaged.size(); ++i) {
        f << (i == 0 ? "" : ", ") << "\"" << JsonEscape(r.salvaged[i]) << "\"";
      }
      f << "]";
    }
    f << "}";
    first = false;
  }
  f << (first ? "]" : "\n  ]") << "\n}\n";
  f.flush();
  if (!f) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace tfc
