// Golden summary of the kernel audit: the verdict counts of every leg at
// both tile settings, and a CRC of each generated flavor's figures
// (static-profile JSON, bounds/race counts, precision bound and witness
// divergence per tile setting). Consolidating or re-plumbing the audit
// must leave every count and every CRC unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "testing/audit_summary.hpp"
#include "testing/golden.hpp"

namespace alsmf {
namespace {

constexpr const char* kRegenHint =
    "re-run the kernel audit (alsmf_cli audit-kernels --json audit.json) and "
    "diff the entry figures; tests/testing/audit_summary.hpp builds the "
    "hashed strings";

TEST(AuditGolden, VerdictCountsArePinned) {
  const testing::AuditSummary s = testing::audit_summary();
  EXPECT_EQ(s.checked, 75u);
  EXPECT_EQ(s.launches, 78u);
  EXPECT_EQ(s.findings, 0u);
  for (const testing::AuditTileSummary& t : s.tiles) {
    EXPECT_EQ(t.profiled, 102u);
    EXPECT_EQ(t.lint_issues, 0u);
    EXPECT_EQ(t.verified, 102u);
    EXPECT_EQ(t.refs, 2988);
    EXPECT_EQ(t.safe, 2988);
    EXPECT_EQ(t.violating, 0);
    EXPECT_EQ(t.unprovable, 0);
    EXPECT_EQ(t.pairs, 4068);
    EXPECT_EQ(t.races, 0);
    EXPECT_EQ(t.races_unprovable, 0);
    EXPECT_EQ(t.errors, 0u);
    EXPECT_EQ(t.precision, 34u);
    EXPECT_EQ(t.certified, 34u);
    EXPECT_EQ(t.witnessed, 16u);
    EXPECT_EQ(t.dominated, 34u);
    EXPECT_EQ(t.figures.size(), 34u);
  }
}

TEST(AuditGolden, PerFlavorFiguresArePinned) {
  // "<tile>/<flavor>" -> CRC-32 of its figures string.
  const std::map<std::string, std::uint32_t> golden = {
    {"auto/als_update_batch", 0x2eb67a69u},
    {"auto/als_update_batch_bf16", 0x6a70cc13u},
    {"auto/als_update_batch_cg", 0x37b83f4bu},
    {"auto/als_update_batch_f16", 0x5e2da75au},
    {"auto/als_update_batch_local", 0x07566e7bu},
    {"auto/als_update_batch_local_bf16", 0x4dc4fe34u},
    {"auto/als_update_batch_local_cg", 0x29f934f8u},
    {"auto/als_update_batch_local_f16", 0x1a87ff45u},
    {"auto/als_update_batch_local_reg", 0xe4662c93u},
    {"auto/als_update_batch_local_reg_bf16", 0xf408e8fdu},
    {"auto/als_update_batch_local_reg_cg", 0xc301f954u},
    {"auto/als_update_batch_local_reg_f16", 0x442889ecu},
    {"auto/als_update_batch_local_reg_vec", 0x537b96e6u},
    {"auto/als_update_batch_local_reg_vec_bf16", 0xa9e0513au},
    {"auto/als_update_batch_local_reg_vec_cg", 0x1b481936u},
    {"auto/als_update_batch_local_reg_vec_f16", 0xd7d219ceu},
    {"auto/als_update_batch_local_vec", 0xc0670563u},
    {"auto/als_update_batch_local_vec_bf16", 0x5e0fe558u},
    {"auto/als_update_batch_local_vec_cg", 0x6e4f29f6u},
    {"auto/als_update_batch_local_vec_f16", 0x110d2730u},
    {"auto/als_update_batch_reg", 0xf78db187u},
    {"auto/als_update_batch_reg_bf16", 0x67cf1926u},
    {"auto/als_update_batch_reg_cg", 0xfb7567cau},
    {"auto/als_update_batch_reg_f16", 0x4bac95d9u},
    {"auto/als_update_batch_reg_vec", 0x0a76167cu},
    {"auto/als_update_batch_reg_vec_bf16", 0x04c47549u},
    {"auto/als_update_batch_reg_vec_cg", 0xb0da5c36u},
    {"auto/als_update_batch_reg_vec_f16", 0xc33f1e59u},
    {"auto/als_update_batch_vec", 0x38aa5cbfu},
    {"auto/als_update_batch_vec_bf16", 0x2544d8e9u},
    {"auto/als_update_batch_vec_cg", 0xdeba8bd1u},
    {"auto/als_update_batch_vec_f16", 0x75d6117cu},
    {"auto/als_update_flat", 0x6884eb52u},
    {"auto/als_update_flat_sell", 0x7b8afe6bu},
    {"tile4/als_update_batch", 0x2eb67a69u},
    {"tile4/als_update_batch_bf16", 0x6a70cc13u},
    {"tile4/als_update_batch_cg", 0x37b83f4bu},
    {"tile4/als_update_batch_f16", 0x5e2da75au},
    {"tile4/als_update_batch_local", 0x26b011a5u},
    {"tile4/als_update_batch_local_bf16", 0xfeaa7ffbu},
    {"tile4/als_update_batch_local_cg", 0x0abf7b88u},
    {"tile4/als_update_batch_local_f16", 0x12cb0274u},
    {"tile4/als_update_batch_local_reg", 0x14077c82u},
    {"tile4/als_update_batch_local_reg_bf16", 0xc5818d13u},
    {"tile4/als_update_batch_local_reg_cg", 0xc4d56415u},
    {"tile4/als_update_batch_local_reg_f16", 0x22a99219u},
    {"tile4/als_update_batch_local_reg_vec", 0x9ec017fcu},
    {"tile4/als_update_batch_local_reg_vec_bf16", 0xb336e963u},
    {"tile4/als_update_batch_local_reg_vec_cg", 0x9ba7767eu},
    {"tile4/als_update_batch_local_reg_vec_f16", 0x71b697bcu},
    {"tile4/als_update_batch_local_vec", 0x7623cd85u},
    {"tile4/als_update_batch_local_vec_bf16", 0xd3b6a5f7u},
    {"tile4/als_update_batch_local_vec_cg", 0x4047aff4u},
    {"tile4/als_update_batch_local_vec_f16", 0xa74e81cdu},
    {"tile4/als_update_batch_reg", 0xf78db187u},
    {"tile4/als_update_batch_reg_bf16", 0x67cf1926u},
    {"tile4/als_update_batch_reg_cg", 0xfb7567cau},
    {"tile4/als_update_batch_reg_f16", 0x4bac95d9u},
    {"tile4/als_update_batch_reg_vec", 0x0a76167cu},
    {"tile4/als_update_batch_reg_vec_bf16", 0x04c47549u},
    {"tile4/als_update_batch_reg_vec_cg", 0xb0da5c36u},
    {"tile4/als_update_batch_reg_vec_f16", 0xc33f1e59u},
    {"tile4/als_update_batch_vec", 0x38aa5cbfu},
    {"tile4/als_update_batch_vec_bf16", 0x2544d8e9u},
    {"tile4/als_update_batch_vec_cg", 0xdeba8bd1u},
    {"tile4/als_update_batch_vec_f16", 0x75d6117cu},
    {"tile4/als_update_flat", 0x6884eb52u},
    {"tile4/als_update_flat_sell", 0x7b8afe6bu},
  };
  const testing::AuditSummary s = testing::audit_summary();
  const char* tile_names[2] = {"auto", "tile4"};
  std::size_t checked = 0;
  for (int t = 0; t < 2; ++t) {
    for (const auto& [kernel, figures] : s.tiles[t].figures) {
      const std::string name = std::string(tile_names[t]) + "/" + kernel;
      const auto it = golden.find(name);
      testing::expect_golden_crc(name, figures,
                                 it == golden.end() ? 0u : it->second,
                                 kRegenHint);
      ++checked;
    }
  }
  EXPECT_EQ(checked, golden.size());
}

}  // namespace
}  // namespace alsmf
