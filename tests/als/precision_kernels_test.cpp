// The audit's precision leg (what the CLI and the CI gate run): every
// flavor certifies at both tile settings, every narrow flavor is witnessed
// and dominated, and the JSON artifact carries the fields CI parses.
#include "als/audit_kernels.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "ocl/kernel_flavors.hpp"

namespace alsmf {
namespace {

// The precision leg does not depend on the dataset or the device profile;
// a small shape and one profile keep the other legs cheap.
AuditOptions small_options() {
  AuditOptions opt;
  opt.users = 120;
  opt.items = 80;
  opt.nnz = 1500;
  opt.profiles = {"gpu"};
  return opt;
}

TEST(PrecisionKernels, FullSweepIsClean) {
  const AuditReport result = audit_kernels(small_options());
  EXPECT_TRUE(result.errors.empty());
  const auto& entries = result.tiles.at(0).precision;
  ASSERT_EQ(entries.size(), 4 * AlsVariant::kVariantCount + 2);
  int witnessed = 0;
  for (const auto& e : entries) {
    EXPECT_TRUE(e.report.certified) << e.kernel;
    EXPECT_TRUE(e.dominated) << e.kernel;
    EXPECT_FALSE(e.witness.overflow_observed) << e.kernel;
    if (e.witness.ran) {
      ++witnessed;
      EXPECT_GT(e.witness.observed_err, 0.0) << e.kernel;
    }
  }
  // Every narrow flavor (8 fp16 + 8 bf16) gets the dynamic leg.
  EXPECT_EQ(witnessed, 2 * static_cast<int>(AlsVariant::kVariantCount));
  EXPECT_TRUE(result.clean());
}

TEST(PrecisionKernels, StaticOnlySweepAtForcedTileRows) {
  // The pass also certifies at TILE_ROWS=4 (multiple staging chunks per
  // row). The fp32 flavors are certified statically only: no witness runs
  // and dominance is vacuous; the narrow ones are witnessed here as well.
  const AuditReport result = audit_kernels(small_options());
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.tiles.at(1).tile_rows, 4);
  for (const auto& e : result.tiles.at(1).precision) {
    const bool narrow = e.report.storage != "fp32";
    EXPECT_EQ(e.witness.ran, narrow) << e.kernel;
    EXPECT_TRUE(e.dominated) << e.kernel;
  }
}

TEST(PrecisionKernels, JsonArtifactParsesAndCarriesGateFields) {
  const AuditReport result = audit_kernels(small_options());
  const std::string text = result.to_json();
  const json::Value root = json::parse(text);
  EXPECT_TRUE(root.at("clean").as_bool());
  const auto& kernels = root.at("tiles").array().at(0).at("precision");
  ASSERT_EQ(kernels.array().size(), result.tiles.at(0).precision.size());
  const auto& first = kernels.array().front();
  EXPECT_FALSE(first.at("certificate").at("kernel").as_string().empty());
  EXPECT_NE(first.find("witness"), nullptr);
}

TEST(PrecisionKernels, TighterAssumptionsStillCertify) {
  // A smaller operating envelope can only shrink the bounds: sanity that
  // the certificate is monotone in the assumptions.
  AuditOptions opt = small_options();
  opt.assumptions.omega_max = 256;
  const AuditReport result = audit_kernels(opt);
  EXPECT_TRUE(result.clean());
}

}  // namespace
}  // namespace alsmf
