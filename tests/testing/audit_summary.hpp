// Reduces the full kernel audit to what the golden audit test pins: the
// verdict counts of every leg at both tile settings (the auto tile and a
// forced 4-row tile), and one figures string per generated flavor and tile
// setting. The figures string joins, for that flavor, each profile's
// static-profile JSON and bounds/race counts plus the precision bound and
// witness divergence, so any drift in any leg's figures changes its CRC.
#pragma once

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>

#include "als/audit_kernels.hpp"

namespace alsmf::testing {

struct AuditTileSummary {
  std::size_t profiled = 0;  ///< kernel/profile static profiles
  std::size_t lint_issues = 0;
  std::size_t verified = 0;  ///< kernel/profile verify reports
  long refs = 0, safe = 0, violating = 0, unprovable = 0;
  long pairs = 0, races = 0, races_unprovable = 0;
  std::size_t errors = 0;  ///< parse/lowering failures of any leg
  std::size_t precision = 0, certified = 0, witnessed = 0, dominated = 0;
  /// Flavor name -> its figures string (see the header comment).
  std::map<std::string, std::string> figures;
};

struct AuditSummary {
  std::size_t checked = 0;  ///< checked-execution kernel/profile combos
  std::size_t launches = 0;
  std::size_t findings = 0;
  AuditTileSummary tiles[2];  ///< auto tile, then the forced 4-row tile
};

inline std::string audit_verify_counts(
    const ocl::analyze::verify::KernelVerifyReport& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "refs=%ld/%ld/%ld/%ld pairs=%ld/%ld/%ld;",
                static_cast<long>(r.refs_total),
                static_cast<long>(r.refs_proven_safe),
                static_cast<long>(r.refs_proven_violating),
                static_cast<long>(r.refs_unprovable),
                static_cast<long>(r.pairs_checked),
                static_cast<long>(r.races_proven),
                static_cast<long>(r.races_unprovable));
  return buf;
}

inline std::string audit_precision_figures(
    const ocl::analyze::precision::PrecisionReport& r, bool witness_ran,
    double observed_err) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "certified=%d err=%.17g ceiling=%.17g witness=%d/%.17g;",
                r.certified ? 1 : 0, r.output.err, r.output_ceiling,
                witness_ran ? 1 : 0, observed_err);
  return buf;
}

/// Runs the audit at its defaults (what `alsmf_cli audit-kernels` runs).
inline AuditSummary audit_summary() {
  const AuditReport report = audit_kernels();
  AuditSummary s;
  s.checked = report.check.size();
  for (const auto& e : report.check) {
    s.launches += e.report.launches;
    s.findings += e.report.total_findings;
  }
  for (std::size_t t = 0; t < 2 && t < report.tiles.size(); ++t) {
    const AuditTile& tile = report.tiles[t];
    AuditTileSummary& ts = s.tiles[t];
    // Deep lint runs once per flavor and profile; its diagnostics gate
    // both tile settings.
    ts.lint_issues = report.diagnostics.size();
    ts.errors = report.errors.size();
    ts.profiled = tile.static_profiles.size();
    for (const auto& e : tile.static_profiles) {
      ts.figures[e.kernel] += e.profile + ":" + e.json + ";";
    }
    ts.verified = tile.verify.size();
    for (const auto& e : tile.verify) {
      const auto& r = e.report;
      ts.refs += r.refs_total;
      ts.safe += r.refs_proven_safe;
      ts.violating += r.refs_proven_violating;
      ts.unprovable += r.refs_unprovable;
      ts.pairs += r.pairs_checked;
      ts.races += r.races_proven;
      ts.races_unprovable += r.races_unprovable;
      ts.figures[e.kernel] += e.profile + ":" + audit_verify_counts(r);
    }
    ts.precision = tile.precision.size();
    for (const auto& e : tile.precision) {
      ts.certified += e.report.certified ? 1 : 0;
      ts.witnessed += e.witness.ran ? 1 : 0;
      ts.dominated += e.dominated ? 1 : 0;
      ts.figures[e.kernel] += audit_precision_figures(
          e.report, e.witness.ran, e.witness.observed_err);
    }
  }
  return s;
}

}  // namespace alsmf::testing
