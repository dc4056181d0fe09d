// The audit's deep-lint + static-profile leg: every generated kernel on
// every built-in profile must deep-lint clean and produce a well-formed
// StaticKernelProfile at both tile settings, and the JSON must parse.
#include "als/audit_kernels.hpp"

#include <gtest/gtest.h>

#include <set>

#include "als/options.hpp"
#include "common/json.hpp"

namespace alsmf {
namespace {

AuditOptions small_options() {
  AuditOptions o;
  o.users = 120;
  o.items = 80;
  o.nnz = 1500;
  o.profiles = {"cpu", "gpu"};
  return o;
}

TEST(AnalyzeKernels, SweepIsCleanAndCoversEveryKernel) {
  const auto result = audit_kernels(small_options());
  EXPECT_TRUE(result.clean()) << result.summary();
  const auto& entries = result.tiles.at(0).static_profiles;
  // 8 batched x {cholesky, cg, fp16, bf16} + flat + SELL, per profile.
  EXPECT_EQ(entries.size(), 2 * (4 * AlsVariant::kVariantCount + 2));
  std::set<std::string> kernels;
  for (const auto& e : entries) {
    kernels.insert(e.kernel);
    EXPECT_GT(e.report.counters.useful_flops, 0.0) << e.kernel;
    EXPECT_GT(e.report.register_estimate, 0) << e.kernel;
    EXPECT_GT(e.report.groups, 0u) << e.kernel;
    EXPECT_FALSE(e.json.empty()) << e.kernel;
  }
  EXPECT_EQ(kernels.size(), 4 * AlsVariant::kVariantCount + 2);
  EXPECT_TRUE(kernels.count("als_update_flat"));
  EXPECT_TRUE(kernels.count("als_update_flat_sell"));
  EXPECT_TRUE(kernels.count("als_update_batch_local_reg"));
}

TEST(AnalyzeKernels, LocalVariantsReportStagingOthersDoNot) {
  const auto result = audit_kernels(small_options());
  for (const auto& e : result.tiles.at(0).static_profiles) {
    const bool is_local = e.kernel.find("_local") != std::string::npos;
    if (is_local) {
      EXPECT_GT(e.report.tile_rows, 0u) << e.kernel;
      EXPECT_GT(e.report.declared_local_bytes, 0) << e.kernel;
    } else {
      EXPECT_EQ(e.report.tile_rows, 0u) << e.kernel;
    }
  }
}

TEST(AnalyzeKernels, EmittedJsonParses) {
  const auto result = audit_kernels(small_options());
  const json::Value root = json::parse(result.to_json());
  const json::Value* clean = root.find("clean");
  ASSERT_NE(clean, nullptr);
  const json::Value& tiles = root.at("tiles");
  ASSERT_EQ(tiles.array().size(), 2u);
  EXPECT_EQ(tiles.array()[1].at("tile_rows").as_double(), 4.0);
  const json::Value* entries = tiles.array()[0].find("static_profiles");
  ASSERT_NE(entries, nullptr);
  ASSERT_FALSE(entries->array().empty());
  // Spot-check one embedded static profile.
  const json::Value& first = entries->array().front();
  ASSERT_NE(first.find("kernel"), nullptr);
  const json::Value* sp = first.find("static_profile");
  ASSERT_NE(sp, nullptr);
  EXPECT_NE(sp->find("counters"), nullptr);
  EXPECT_NE(sp->find("accesses"), nullptr);
  EXPECT_NE(sp->find("resources"), nullptr);
}

TEST(AnalyzeKernels, ForcedTinyTileShowsMultiChunkStaging) {
  const auto result = audit_kernels(small_options());
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.tiles.at(1).tile_rows, 4);
  bool saw_chunked = false;
  for (const auto& e : result.tiles.at(1).static_profiles) {
    if (e.kernel.find("_local") == std::string::npos) continue;
    EXPECT_EQ(e.report.tile_rows, 4u) << e.kernel;
    saw_chunked |= e.report.chunks > 1;
  }
  EXPECT_TRUE(saw_chunked);
}

}  // namespace
}  // namespace alsmf
