// The `alsmf_cli audit-kernels` pass: one sweep that certifies every ALS
// kernel and writes one report.
//
//   check   every devsim kernel (flat, the 8 batched variants and their CG
//           flavors, subspace, flat-on-SELL, the implicit device path) runs
//           under shadow-memory checking on a small synthetic dataset, per
//           device profile; the local-memory variants also at the 4-row tile.
//   static  at each tile setting every generated OpenCL flavor
//           (ocl/kernel_flavors.hpp) is parsed and lowered once. The shared
//           AST and access IR feed the deep lint and per-profile static
//           profile, the bounds & race verifier under the ALS buffer
//           contracts, and the precision certificate, cross-checked by the
//           shadow-precision witness on the fp16 / bf16 flavors.
//
// Every leg fails closed: a parse failure, a diagnostic, a checked finding,
// a bounds/race verdict short of proven, an uncertified flavor or a witness
// its static bound does not dominate all make clean() false.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "devsim/check/report.hpp"
#include "ocl/analyze/precision/precision.hpp"
#include "ocl/analyze/precision/shadow.hpp"
#include "ocl/analyze/static_profile.hpp"
#include "ocl/analyze/verify/verify.hpp"

namespace alsmf {

/// The pass's two tile settings: the auto staging tile (0) and a forced
/// 4-row tile, which exercises multi-chunk staging and its barrier pairing.
inline constexpr int kAuditTileRows[2] = {0, 4};

struct AuditOptions {
  /// Synthetic dataset shape (small: checked execution is byte-granular);
  /// the static profiles' symbolic frequencies are evaluated on it too.
  long users = 300;
  long items = 200;
  long nnz = 6000;
  int k = 10;
  std::uint64_t seed = 42;
  /// Launch shape. Kept small so groups stride over several rows each.
  std::size_t num_groups = 48;
  int group_size = 32;
  std::vector<std::string> profiles = {"cpu", "gpu", "mic"};
  /// ALS operating envelope the precision certificates hold under.
  ocl::analyze::precision::PrecisionAssumptions assumptions;
};

/// One leg's result for a kernel on a device profile.
template <class Report>
struct AuditEntry {
  std::string kernel;
  std::string profile;
  Report report;
};
using CheckEntry = AuditEntry<devsim::check::CheckReport>;
/// Verify verdicts do not depend on the profile; they are reported per
/// profile all the same.
using VerifyEntry = AuditEntry<ocl::analyze::verify::KernelVerifyReport>;

struct StaticProfileEntry : AuditEntry<ocl::analyze::StaticKernelProfile> {
  std::string json;  ///< profile_json(report, ir): figures + access table
};

/// A flavor's precision certificate and, for narrow-storage flavors, the
/// dynamic witness (profile is empty: neither depends on the device).
struct PrecisionEntry
    : AuditEntry<ocl::analyze::precision::PrecisionReport> {
  ocl::analyze::precision::ShadowWitness witness;  ///< ran=false for fp32
  bool dominated = true;  ///< static bound >= observed divergence

  bool clean() const {
    return report.certified && dominated && !witness.overflow_observed;
  }
};

/// The static legs at one tile setting.
struct AuditTile {
  int tile_rows = 0;  ///< 0 = auto
  std::vector<StaticProfileEntry> static_profiles;
  std::vector<VerifyEntry> verify;
  std::vector<PrecisionEntry> precision;
};

struct AuditReport {
  std::vector<CheckEntry> check;
  std::vector<AuditTile> tiles;  ///< one per kAuditTileRows entry
  /// Every finding, one line each: clickable "<kernel>.cl:<line>:<col>:"
  /// anchors (prefixed "<profile>/" for deep lint, "<tile>/" for
  /// precision) and "<profile>/<kernel>: ..." checked-execution findings.
  std::vector<std::string> diagnostics;
  /// Parse/lowering failures, "<kernel>: message".
  std::vector<std::string> errors;

  bool clean() const;
  /// One line per leg with its verdict counts (the CLI's closing table).
  std::string summary() const;
  std::string to_json() const;
};

/// Runs the whole pass. Throws only on setup errors; findings are returned.
AuditReport audit_kernels(const AuditOptions& options = {});

/// The ALS verification contract for one lowered kernel: CSR
/// (values/col_idx/row_ptr) or SELL (slice_ptr/perm/lane_len) shapes are
/// recognized from the argument names. Shared with the defect-corpus tests
/// so mutants are verified under the very same assumptions.
ocl::analyze::verify::KernelContract als_kernel_contract(
    const ocl::analyze::KernelIR& ir);

/// Verifies every kernel in one source string against the ALS contracts.
/// Never throws on bad input: parse/lowering failures land in `errors`
/// (fail closed — clean() is then false).
struct VerifySourceResult {
  std::vector<ocl::analyze::verify::KernelVerifyReport> reports;
  std::vector<std::string> errors;

  bool clean() const {
    if (!errors.empty() || reports.empty()) return false;
    for (const auto& r : reports) {
      if (!r.clean()) return false;
    }
    return true;
  }
};
VerifySourceResult verify_kernel_source(const std::string& source);

/// Formats one report's bounds/race findings as clickable
/// "<kernel>.cl:<line>:<col>: message" diagnostics (one per finding).
std::vector<std::string> verify_diagnostics(
    const std::string& kernel,
    const ocl::analyze::verify::KernelVerifyReport& report);

}  // namespace alsmf
