#include "analysis/diagnostic.h"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace sdnprobe::analysis {

const char* check_name(CheckId id) {
  switch (id) {
    case CheckId::kShadowedEntry:
      return "shadowed-entry";
    case CheckId::kEmptyMatch:
      return "empty-match";
    case CheckId::kGotoCycle:
      return "goto-cycle";
    case CheckId::kUnreachableTable:
      return "unreachable-table";
    case CheckId::kDanglingOutput:
      return "dangling-output";
    case CheckId::kDanglingGoto:
      return "dangling-goto";
    case CheckId::kTopologyDisconnected:
      return "topology-disconnected";
    case CheckId::kTopologyAsymmetricLink:
      return "topology-asymmetric-link";
    case CheckId::kTopologyDuplicatePort:
      return "topology-duplicate-port";
    case CheckId::kRuleGraphCycle:
      return "rule-graph-cycle";
    case CheckId::kEmptyVertexSpace:
      return "empty-vertex-space";
    case CheckId::kAmbiguousPriority:
      return "ambiguous-priority";
    case CheckId::kUnreachablePair:
      return "unreachable-pair";
    case CheckId::kForbiddenPath:
      return "forbidden-path";
    case CheckId::kForwardingLoop:
      return "forwarding-loop";
    case CheckId::kBlackhole:
      return "blackhole";
    case CheckId::kWaypointBypass:
      return "waypoint-bypass";
    case CheckId::kInvalidInvariant:
      return "invalid-invariant";
    case CheckId::kVerifyTruncated:
      return "verify-truncated";
  }
  return "unknown-check";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Location::to_string() const {
  std::ostringstream os;
  os << "sw=" << switch_id << " table=" << table_id << " entry=" << entry_id;
  return os.str();
}

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << severity_name(severity) << " [" << check_name(check) << "] "
     << location.to_string() << ": " << message;
  for (const auto& [key, value] : payload) {
    os << " {" << key << "=" << value << "}";
  }
  return os.str();
}

std::size_t DiagnosticReport::count(Severity s) const {
  std::size_t n = 0;
  for (const auto& d : diagnostics_) {
    if (d.severity == s) ++n;
  }
  return n;
}

std::size_t DiagnosticReport::count(CheckId c) const {
  std::size_t n = 0;
  for (const auto& d : diagnostics_) {
    if (d.check == c) ++n;
  }
  return n;
}

std::vector<const Diagnostic*> DiagnosticReport::by_check(CheckId c) const {
  std::vector<const Diagnostic*> out;
  for (const auto& d : diagnostics_) {
    if (d.check == c) out.push_back(&d);
  }
  return out;
}

namespace {

auto sort_key(const Diagnostic& d) {
  return std::make_tuple(static_cast<int>(d.check), d.location.switch_id,
                         d.location.table_id, d.location.entry_id);
}

}  // namespace

void DiagnosticReport::sort() {
  std::stable_sort(
      diagnostics_.begin(), diagnostics_.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        return sort_key(a) < sort_key(b);
      });
}

bool DiagnosticReport::is_sorted() const {
  return std::is_sorted(
      diagnostics_.begin(), diagnostics_.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        return sort_key(a) < sort_key(b);
      });
}

std::string DiagnosticReport::to_string() const {
  std::string out;
  for (const auto& d : diagnostics_) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace sdnprobe::analysis
