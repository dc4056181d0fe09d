// The clean-pass gate for the static bounds & race verifier: every
// generated kernel, on every device profile, must verify with zero
// unprovable references and zero race findings. "Unprovable" failing the
// gate is the point — the ALS contracts plus the interval/stride domain are
// supposed to discharge every obligation the generator can emit, so any
// unprovable ref is either a generator regression or a verifier coverage
// hole, and both should be loud.
#include <gtest/gtest.h>

#include <string>

#include "als/audit_kernels.hpp"
#include "ocl/analyze/parser.hpp"
#include "ocl/kernel_source.hpp"

namespace alsmf {
namespace {

TEST(Verify, AllGeneratedKernelsFullyProvenOnAllProfiles) {
  const AuditReport result = audit_kernels();
  EXPECT_TRUE(result.clean());
  for (const auto& err : result.errors) ADD_FAILURE() << err;
  for (const auto& d : result.diagnostics) ADD_FAILURE() << d;
  // flat + 8 batched variants (cholesky + cg flavors) + SELL + the
  // fp16/bf16 storage flavors of the cholesky variants, x3 profiles.
  const auto& entries = result.tiles.at(0).verify;
  ASSERT_EQ(entries.size(), 34u * 3u);
  for (const auto& e : entries) {
    SCOPED_TRACE(e.profile + "/" + e.kernel);
    EXPECT_GT(e.report.refs_total, 0);
    EXPECT_EQ(e.report.refs_proven_safe, e.report.refs_total);
    EXPECT_EQ(e.report.refs_proven_violating, 0);
    EXPECT_EQ(e.report.refs_unprovable, 0);
    EXPECT_EQ(e.report.races_proven, 0);
    EXPECT_EQ(e.report.races_unprovable, 0);
    EXPECT_TRUE(e.report.clean());
  }
}

TEST(Verify, ForcedSmallTileStaysProven) {
  // TILE_ROWS=4 shrinks the staging tile well below the chunk loop's
  // natural size; extents and barrier intervals must still check out.
  AuditOptions options;
  options.profiles = {"gpu"};
  const AuditReport result = audit_kernels(options);
  EXPECT_TRUE(result.clean());
  for (const auto& d : result.diagnostics) ADD_FAILURE() << d;
  ASSERT_EQ(result.tiles.at(1).tile_rows, 4);
  ASSERT_EQ(result.tiles.at(1).verify.size(), 34u);
}

TEST(Verify, ContractSelectionFollowsStorageFormat) {
  namespace az = ocl::analyze;
  const ocl::KernelConfig kc;
  {
    const auto irs = az::lower_kernels(
        az::parse_translation_unit(ocl::sell_kernel_source(kc)));
    ASSERT_EQ(irs.size(), 1u);
    const auto ct = als_kernel_contract(irs[0]);
    EXPECT_TRUE(ct.buffers.count("slice_ptr"));
    EXPECT_TRUE(ct.buffers.at("perm").injective);
    EXPECT_TRUE(ct.has_group_upper);
  }
  {
    const auto irs = az::lower_kernels(
        az::parse_translation_unit(ocl::flat_kernel_source(kc)));
    ASSERT_EQ(irs.size(), 1u);
    const auto ct = als_kernel_contract(irs[0]);
    EXPECT_TRUE(ct.buffers.count("row_ptr"));
    EXPECT_TRUE(ct.buffers.at("row_ptr").offsets);
    EXPECT_FALSE(ct.buffers.count("slice_ptr"));
  }
}

TEST(Verify, WidthPassRecordsElementWidths) {
  const AuditReport result = audit_kernels();
  const auto& entries = result.tiles.at(0).verify;
  ASSERT_FALSE(entries.empty());
  const auto narrow = [](const std::string& kernel) {
    return kernel.find("_f16") != std::string::npos ||
           kernel.find("_bf16") != std::string::npos;
  };
  for (const auto& e : entries) {
    SCOPED_TRACE(e.profile + "/" + e.kernel);
    EXPECT_FALSE(e.report.widths.empty());
    bool saw_half = false;
    for (const auto& w : e.report.widths) {
      EXPECT_FALSE(w.mixed) << w.buffer;
      ASSERT_EQ(w.widths.size(), 1u) << w.buffer;
      if (narrow(e.kernel) && w.widths[0] == 2) {
        saw_half = true;  // storage_t factor buffers in fp16/bf16 flavors
      } else {
        EXPECT_EQ(w.widths[0], 4) << w.buffer;  // float / int buffers
      }
    }
    // Every narrow flavor must actually surface a 2-byte buffer.
    EXPECT_EQ(saw_half, narrow(e.kernel));
  }
}

}  // namespace
}  // namespace alsmf
