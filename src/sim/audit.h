// Runtime invariant auditor.
//
// The paper's headline claims — zero congestion loss, near-zero queues,
// per-port token conservation — are properties a reproduction can silently
// violate through a sign error or a leaked packet while the topline numbers
// still "look right". The auditor turns them into machine-checked
// invariants: components register named callbacks that re-derive their
// internal consistency from scratch (queue byte counts vs. actual queue
// contents, pool alloc/free ledgers, heap structure, token ledgers), and
// the registry sweeps every registered component periodically during the
// run and once at teardown.
//
// An audit pass is O(live state) — it walks queues, free lists, and the
// event heap — so it is off by default and enabled in the sanitizer /
// hardened CI presets (cmake -DTFC_AUDIT=ON, or the TFC_AUDIT=1 environment
// variable; see docs/correctness.md). Failures abort with every violated
// invariant listed, the same contract as TFC_CHECK.
//
// Callbacks are InplaceFunctions, not std::functions: the registry lives in
// src/sim where heap-allocating type-erased callables are banned by
// tools/lint.py, and a registration is always a {this}-capture that fits
// inline.
//
// Confined, not shared: each Network owns its AuditRegistry and components
// register with their own Network's instance — there is deliberately no
// process-wide registry, so two simulations auditing concurrently (sweep
// workers, tests/sweep_test.cc MultiInstance*) never touch each other.

#ifndef SRC_SIM_AUDIT_H_
#define SRC_SIM_AUDIT_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/inplace_function.h"

namespace tfc {

// One violated invariant, as reported by a component callback.
struct AuditFailure {
  std::string component;  // registry name, e.g. "tfc.port:nf0.2"
  std::string invariant;  // short id, e.g. "queue_bytes==sum(frames)"
  std::string detail;     // operand values, empty if none were given
};

// Result of one full audit pass.
struct AuditReport {
  uint64_t checks = 0;  // invariants evaluated (passed + failed)
  uint64_t components = 0;
  std::vector<AuditFailure> failures;

  bool ok() const { return failures.empty(); }
  // Human-readable multi-line summary of every failure.
  std::string ToString() const;
};

// Handed to each component callback; records passed/failed invariants.
class Auditor {
 public:
  explicit Auditor(AuditReport* report) : report_(report) {}

  // Records one named invariant; a false `ok` files a failure.
  void Check(bool ok, std::string_view invariant, std::string detail = {});

  // Comparison forms that format both operands into the failure detail
  // (formatting happens only on failure).
  template <typename A, typename B>
  void CheckEq(const A& a, const B& b, std::string_view invariant) {
    const bool ok = a == b;
    Check(ok, invariant, ok ? std::string{} : Format(a, b, "=="));
  }
  template <typename A, typename B>
  void CheckLe(const A& a, const B& b, std::string_view invariant) {
    const bool ok = a <= b;
    Check(ok, invariant, ok ? std::string{} : Format(a, b, "<="));
  }
  template <typename A, typename B>
  void CheckGe(const A& a, const B& b, std::string_view invariant) {
    const bool ok = a >= b;
    Check(ok, invariant, ok ? std::string{} : Format(a, b, ">="));
  }
  // |a - b| <= tol, for floating-point ledgers.
  void CheckNear(double a, double b, double tol, std::string_view invariant);

  // Component name attributed to subsequent Check calls (set by the
  // registry before invoking each callback).
  void set_component(std::string name) { component_ = std::move(name); }
  const std::string& component() const { return component_; }

 private:
  template <typename A, typename B>
  static std::string Format(const A& a, const B& b, const char* op);

  AuditReport* report_;
  std::string component_;
};

template <typename A, typename B>
std::string Auditor::Format(const A& a, const B& b, const char* op) {
  std::ostringstream oss;  // lint:allow hot-io (called only when a check fails)
  oss << "lhs = " << a << ", rhs = " << b << " (want " << op << ")";
  return oss.str();
}

// Registry of named invariant callbacks. Not thread-safe (the simulator is
// single-threaded). Components unregister via the id (or the ScopedAudit
// RAII helper) when they can be destroyed before the registry.
class AuditRegistry {
 public:
  using AuditFn = InplaceFunction<void(Auditor&), kDefaultInplaceCapacity>;

  AuditRegistry() = default;
  AuditRegistry(const AuditRegistry&) = delete;
  AuditRegistry& operator=(const AuditRegistry&) = delete;

  // Registers `fn` under `name`; returns an id for Unregister.
  uint64_t Register(std::string name, AuditFn fn);
  void Unregister(uint64_t id);

  // Runs every registered callback and collects the results.
  AuditReport RunAll();

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t id;
    std::string name;
    AuditFn fn;
  };
  std::vector<Entry> entries_;
  uint64_t next_id_ = 1;
};

// RAII registration: unregisters on destruction, so a component destroyed
// mid-simulation (e.g. a replaced port agent) cannot leave a dangling
// callback behind.
class ScopedAudit {
 public:
  ScopedAudit() = default;
  ScopedAudit(AuditRegistry* registry, std::string name, AuditRegistry::AuditFn fn)
      : registry_(registry), id_(registry->Register(std::move(name), std::move(fn))) {}
  ScopedAudit(const ScopedAudit&) = delete;
  ScopedAudit& operator=(const ScopedAudit&) = delete;
  ~ScopedAudit() {
    if (registry_ != nullptr) {
      registry_->Unregister(id_);
    }
  }

 private:
  AuditRegistry* registry_ = nullptr;
  uint64_t id_ = 0;
};

// True when auditing should be on without an explicit EnableAudit call:
// the TFC_AUDIT environment variable ("1"/"on" enables, "0"/"off"
// disables) overrides the compile-time default (-DTFC_AUDIT=ON presets).
bool AuditEnabledByDefault();

}  // namespace tfc

#endif  // SRC_SIM_AUDIT_H_
