#include "src/sim/audit.h"

#include <cmath>
#include <cstdlib>

namespace tfc {

std::string AuditReport::ToString() const {
  std::ostringstream oss;  // lint:allow hot-io (failure report, built on a failed check)
  oss << "audit: " << checks << " checks over " << components << " components, "
      << failures.size() << " failure(s)";
  for (const AuditFailure& f : failures) {
    oss << "\n  [" << f.component << "] " << f.invariant;
    if (!f.detail.empty()) {
      oss << ": " << f.detail;
    }
  }
  return oss.str();
}

void Auditor::Check(bool ok, std::string_view invariant, std::string detail) {
  ++report_->checks;
  if (!ok) {
    report_->failures.push_back(
        AuditFailure{component_, std::string(invariant), std::move(detail)});
  }
}

void Auditor::CheckNear(double a, double b, double tol, std::string_view invariant) {
  const bool ok = std::abs(a - b) <= tol;
  std::string detail;
  if (!ok) {
    std::ostringstream oss;  // lint:allow hot-io (failure detail only)
    oss << "lhs = " << a << ", rhs = " << b << ", |diff| = " << std::abs(a - b)
        << " > tol " << tol;
    detail = oss.str();
  }
  Check(ok, invariant, std::move(detail));
}

uint64_t AuditRegistry::Register(std::string name, AuditFn fn) {
  const uint64_t id = next_id_++;
  entries_.push_back(Entry{id, std::move(name), std::move(fn)});
  return id;
}

void AuditRegistry::Unregister(uint64_t id) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id == id) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

AuditReport AuditRegistry::RunAll() {
  AuditReport report;
  report.components = entries_.size();
  Auditor auditor(&report);
  for (Entry& e : entries_) {
    auditor.set_component(e.name);
    e.fn(auditor);
  }
  return report;
}

bool AuditEnabledByDefault() {
  if (const char* env = std::getenv("TFC_AUDIT")) {
    // "0", "off", and empty disable; anything else ("1", "on", ...) enables.
    const std::string_view v(env);
    return !(v.empty() || v == "0" || v == "off");
  }
#ifdef TFC_AUDIT_DEFAULT_ON
  return true;
#else
  return false;
#endif
}

}  // namespace tfc
