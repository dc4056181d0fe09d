// Dynamic witness leg of the precision certifier: runs a generated kernel
// twice through the checked AST interpreter (analyze/interp.hpp) on a
// deterministic seeded CSR problem that stays inside a certificate's
// assumptions — once exactly, and once in shadow-precision mode where every
// narrow-typed (storage_t / half / bfloat16) buffer element and declaration
// rounds through the bit-exact software converters (common/halfprec.hpp).
//
// The observed divergence max|X_shadow − X_exact| is then compared against
// the static analyzer's error bound: the certificate is sound only if the
// static bound dominates every observed divergence (the converse — a tight
// bound — is not claimed; the static bound is a worst-case closed form).
//
// An optional dense overflow-probe row (dense_row_nnz max-magnitude
// ratings against max-magnitude factors) drives any accumulator that a
// defect mutation narrowed to storage_t past the fp16 finite ceiling, so
// the fp16-accumulator defect is witnessed dynamically (non-finite output)
// by the same run that the static leg flags as overflow-possible.
#pragma once

#include <string>

#include "als/options.hpp"
#include "ocl/analyze/precision/precision.hpp"

namespace alsmf::ocl::analyze::precision {

/// Problem shape for the witness run. k and group_size must match the
/// KernelConfig the source was generated with (they are baked into the
/// kernel text as K / WS).
struct ShadowWitnessConfig {
  int k = 10;
  int group_size = 32;
  int rows = 12;
  int cols = 7;
  /// When > 0, appends one dense row with this many ratings at the
  /// assumption ceilings (|v| = R against |Y| = F), the overflow probe.
  int dense_row_nnz = 0;
  PrecisionAssumptions assumptions;
};

struct ShadowWitness {
  std::string kernel;
  bool ran = false;            ///< both legs launched and validated clean
  double observed_err = 0;     ///< max |X_shadow[i] - X_exact[i]|
  double max_exact = 0;        ///< max |X_exact[i]| (sanity: inside B_x)
  bool overflow_observed = false;  ///< non-finite value in the shadow X
  int rows = 0;
  long nnz = 0;
};

/// Runs `kernel_name` from `source` (flat/batched CSR signature: values,
/// col_idx, row_ptr, Y, X, rows, lambda) through both legs. `storage`
/// selects the quantizer for the shadow leg: fp16 uses the flush-to-zero
/// converter (the worst case the static min_normal charge covers), bf16
/// the round-to-nearest-even converter; fp32 runs the shadow leg exact
/// (observed_err is then pure interpreter determinism, i.e. 0).
/// Throws ParseError on unsupported source.
ShadowWitness run_shadow_witness(const std::string& source,
                                 const std::string& kernel_name,
                                 StoragePrecision storage,
                                 const ShadowWitnessConfig& config);
/// The same on an already-parsed unit (shared with the static legs).
ShadowWitness run_shadow_witness(const TranslationUnit& tu,
                                 const std::string& kernel_name,
                                 StoragePrecision storage,
                                 const ShadowWitnessConfig& config);

}  // namespace alsmf::ocl::analyze::precision
