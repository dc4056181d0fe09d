// Checked interpreter for the generated-kernel OpenCL-C subset.
//
// Executes a parsed kernel directly from its AST on the devsim device: one
// call interprets all lanes of one work-group in lock-step (statement by
// statement over a per-lane environment vector, SIMT-style divergence via
// active-lane sets), routing every global/local element access through the
// GroupCtx checked spans. Under LaunchConfig.validate the shadow-memory
// checker therefore sees the *mutated kernel text itself* — the dynamic leg
// of the defect-injection corpus (tests/ocl/defects/) that the static
// verifier (analyze/verify/) must agree with.
//
// The interpreter supports exactly the subset the generator emits plus the
// corpus mutations: for/if/while/return/continue/break, scalar and array
// declarations (__local included), pointer offset arithmetic, vloadN and
// .sN component access, ternaries, calls to in-file helper functions, and
// the builtins get_local_id / get_group_id / get_global_id /
// get_num_groups / min / max / sqrt / fabs. Anything else throws
// ParseError, mirroring the lowering's fail-closed policy.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "devsim/context.hpp"
#include "ocl/analyze/ast.hpp"

namespace alsmf::ocl::analyze {

/// One kernel argument binding. Buffers are borrowed, not owned; they must
/// outlive the launch.
struct InterpArg {
  enum class Kind { kRealBuf, kIntBuf, kIntScalar, kRealScalar };
  Kind kind = Kind::kIntScalar;
  float* real_data = nullptr;
  int* int_data = nullptr;
  std::size_t n = 0;
  long int_value = 0;
  double real_value = 0;

  static InterpArg real_buffer(std::vector<float>& b) {
    InterpArg a;
    a.kind = Kind::kRealBuf;
    a.real_data = b.data();
    a.n = b.size();
    return a;
  }
  static InterpArg int_buffer(std::vector<int>& b) {
    InterpArg a;
    a.kind = Kind::kIntBuf;
    a.int_data = b.data();
    a.n = b.size();
    return a;
  }
  static InterpArg int_scalar(long v) {
    InterpArg a;
    a.kind = Kind::kIntScalar;
    a.int_value = v;
    return a;
  }
  static InterpArg real_scalar(double v) {
    InterpArg a;
    a.kind = Kind::kRealScalar;
    a.real_value = v;
    return a;
  }
};

/// A parsed kernel ready for interpretation. Parsing happens once in the
/// constructor (throws ParseError on unsupported source or a missing
/// kernel); run_group is then called per work-group from Device::launch.
class InterpKernel {
 public:
  InterpKernel(const std::string& source, const std::string& kernel_name);
  /// Interprets an already-parsed unit, which must outlive the kernel.
  InterpKernel(const TranslationUnit& tu, const std::string& kernel_name);
  InterpKernel(TranslationUnit&&, const std::string&) = delete;

  const std::string& name() const { return fn_->name; }
  std::size_t num_args() const { return fn_->params.size(); }

  /// GroupCtx does not carry the launch grid, so the value returned by
  /// get_num_groups(0) must be declared before launching.
  void set_num_groups(long n) { num_groups_hint_ = n; }

  /// Shadow-precision mode (the dynamic witness leg of the precision
  /// certifier, analyze/precision/shadow.hpp): when set, every element of
  /// a buffer bound to a storage_t / half / bfloat16 parameter rounds
  /// through `quantize` on load and store, and every assignment into a
  /// narrow-typed declaration rounds too — so the fp32-backed spans behave
  /// like narrow storage while all real_t arithmetic stays exact. Default
  /// off: plain interpretation is unchanged.
  void set_storage_quantizer(float (*quantize)(float)) {
    quantizer_ = quantize;
  }

  /// Interprets one work-group (every lane of ctx.group_size()) in
  /// lock-step. `args` must match the kernel signature positionally.
  void run_group(devsim::GroupCtx& ctx,
                 const std::vector<InterpArg>& args) const;

 private:
  std::optional<TranslationUnit> owned_;  // set when built from source
  const TranslationUnit* tu_ = nullptr;
  const FunctionDecl* fn_ = nullptr;
  long num_groups_hint_ = 0;
  float (*quantizer_)(float) = nullptr;
};

}  // namespace alsmf::ocl::analyze
