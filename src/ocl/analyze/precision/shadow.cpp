#include "ocl/analyze/precision/shadow.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/halfprec.hpp"
#include "devsim/device.hpp"
#include "devsim/profile.hpp"
#include "ocl/analyze/interp.hpp"
#include "ocl/analyze/parser.hpp"

namespace alsmf::ocl::analyze::precision {
namespace {

struct Problem {
  std::vector<int> row_ptr, col_idx;
  std::vector<float> values, y;
  int rows = 0, cols = 0;
};

// Deterministic ragged CSR inside the assumption envelope: signed ratings
// up to ~0.9·R, factors up to ~0.9·F, one empty row (the omega == 0
// early-out), and optionally one dense probe row at the exact ceilings.
Problem make_problem(const ShadowWitnessConfig& c) {
  Problem p;
  p.rows = c.rows + (c.dense_row_nnz > 0 ? 1 : 0);
  p.cols = c.cols;
  const auto r = static_cast<float>(c.assumptions.rating_bound);
  const auto f = static_cast<float>(c.assumptions.factor_bound);
  p.row_ptr.push_back(0);
  for (int u = 0; u < c.rows; ++u) {
    const int nnz = u == 2 ? 0 : 1 + (u * 3) % 5;
    for (int z = 0; z < nnz; ++z) {
      p.col_idx.push_back((u + 2 * z) % p.cols);
      const float mag = 0.1f + 0.8f * static_cast<float>((u + z) % 7) / 7.0f;
      p.values.push_back((z % 2 ? -r : r) * mag);
    }
    p.row_ptr.push_back(static_cast<int>(p.col_idx.size()));
  }
  if (c.dense_row_nnz > 0) {
    // All probe ratings hit column 0 with the same sign, so a narrow-typed
    // rsum accumulator must climb monotonically to nnz·R·Y[f][0].
    for (int z = 0; z < c.dense_row_nnz; ++z) {
      p.col_idx.push_back(0);
      p.values.push_back(r);
    }
    p.row_ptr.push_back(static_cast<int>(p.col_idx.size()));
  }
  p.y.resize(static_cast<std::size_t>(c.k) * p.cols);
  for (std::size_t i = 0; i < p.y.size(); ++i) {
    const std::size_t col = i % static_cast<std::size_t>(p.cols);
    p.y[i] = col == 0 ? f
                      : f * (0.9f * static_cast<float>(i % 13) / 13.0f - 0.4f);
  }
  return p;
}

std::vector<float> run_leg(const TranslationUnit& tu,
                           const std::string& kernel_name, Problem p,
                           const ShadowWitnessConfig& c,
                           float (*quantizer)(float), bool* clean) {
  std::vector<float> x(static_cast<std::size_t>(c.k) * p.rows, 0.0f);
  InterpKernel ik(tu, kernel_name);
  if (quantizer != nullptr) {
    ik.set_storage_quantizer(quantizer);
  }
  const auto num_groups = static_cast<std::size_t>(p.rows);
  ik.set_num_groups(static_cast<long>(num_groups));
  const std::vector<InterpArg> args = {
      InterpArg::real_buffer(p.values), InterpArg::int_buffer(p.col_idx),
      InterpArg::int_buffer(p.row_ptr), InterpArg::real_buffer(p.y),
      InterpArg::real_buffer(x),        InterpArg::int_scalar(p.rows),
      InterpArg::real_scalar(c.assumptions.lambda_min)};
  devsim::Device device(devsim::k20c());
  devsim::LaunchConfig lc;
  lc.num_groups = num_groups;
  lc.group_size = static_cast<std::size_t>(c.group_size);
  lc.validate = true;
  const auto result = device.launch(
      kernel_name, lc, [&](devsim::GroupCtx& ctx) { ik.run_group(ctx, args); });
  *clean = *clean && result.check.clean();
  return x;
}

}  // namespace

ShadowWitness run_shadow_witness(const std::string& source,
                                 const std::string& kernel_name,
                                 StoragePrecision storage,
                                 const ShadowWitnessConfig& config) {
  return run_shadow_witness(parse_translation_unit(source), kernel_name,
                            storage, config);
}

ShadowWitness run_shadow_witness(const TranslationUnit& tu,
                                 const std::string& kernel_name,
                                 StoragePrecision storage,
                                 const ShadowWitnessConfig& config) {
  float (*quantizer)(float) = nullptr;
  switch (storage) {
    case StoragePrecision::kFp32:
      break;
    case StoragePrecision::kFp16:
      quantizer = fp16_round_ftz;
      break;
    case StoragePrecision::kBf16:
      quantizer = bf16_round;
      break;
  }
  const Problem p = make_problem(config);
  ShadowWitness w;
  w.kernel = kernel_name;
  w.rows = p.rows;
  w.nnz = static_cast<long>(p.values.size());
  bool clean = true;
  const std::vector<float> exact =
      run_leg(tu, kernel_name, p, config, nullptr, &clean);
  const std::vector<float> shadow =
      run_leg(tu, kernel_name, p, config, quantizer, &clean);
  w.ran = clean && exact.size() == shadow.size();
  for (std::size_t i = 0; i < exact.size() && i < shadow.size(); ++i) {
    if (!std::isfinite(shadow[i])) {
      w.overflow_observed = true;
      continue;
    }
    const double d = std::fabs(static_cast<double>(shadow[i]) -
                               static_cast<double>(exact[i]));
    if (d > w.observed_err) {
      w.observed_err = d;
    }
    const double m = std::fabs(static_cast<double>(exact[i]));
    if (m > w.max_exact) {
      w.max_exact = m;
    }
  }
  return w;
}

}  // namespace alsmf::ocl::analyze::precision
