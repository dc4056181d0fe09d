#include "data/split.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>

#include "testing/golden.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

TEST(Split, HoldoutPartitionsAllEntries) {
  const Coo all = testing::random_coo(50, 40, 0.2, 3);
  auto [train, test] = split_holdout(all, 0.25, 7);
  EXPECT_EQ(train.nnz() + test.nnz(), all.nnz());
  EXPECT_EQ(train.rows(), all.rows());
  EXPECT_EQ(test.cols(), all.cols());
}

TEST(Split, HoldoutDisjoint) {
  const Coo all = testing::random_coo(30, 30, 0.3, 4);
  auto [train, test] = split_holdout(all, 0.3, 9);
  std::set<std::pair<index_t, index_t>> train_keys;
  for (const auto& t : train.entries()) train_keys.insert({t.row, t.col});
  for (const auto& t : test.entries()) {
    EXPECT_EQ(train_keys.count({t.row, t.col}), 0u);
  }
}

TEST(Split, HoldoutFractionApproximate) {
  const Coo all = testing::random_coo(100, 100, 0.3, 5);
  auto [train, test] = split_holdout(all, 0.2, 11);
  const double frac =
      static_cast<double>(test.nnz()) / static_cast<double>(all.nnz());
  EXPECT_NEAR(frac, 0.2, 0.05);
}

TEST(Split, HoldoutDeterministic) {
  const Coo all = testing::random_coo(40, 40, 0.2, 6);
  auto [t1, s1] = split_holdout(all, 0.5, 13);
  auto [t2, s2] = split_holdout(all, 0.5, 13);
  EXPECT_EQ(t1.entries(), t2.entries());
  EXPECT_EQ(s1.entries(), s2.entries());
}

TEST(Split, HoldoutZeroFraction) {
  const Coo all = testing::random_coo(20, 20, 0.2, 7);
  auto [train, test] = split_holdout(all, 0.0, 1);
  EXPECT_EQ(train.nnz(), all.nnz());
  EXPECT_EQ(test.nnz(), 0);
}

/// Packed `row col value-bits` bytes of every entry, in order.
std::string entry_bytes(const Coo& coo) {
  std::string out;
  for (const auto& t : coo.entries()) {
    char buf[sizeof(t.row) + sizeof(t.col) + sizeof(t.value)];
    std::memcpy(buf, &t.row, sizeof(t.row));
    std::memcpy(buf + sizeof(t.row), &t.col, sizeof(t.col));
    std::memcpy(buf + sizeof(t.row) + sizeof(t.col), &t.value, sizeof(t.value));
    out.append(buf, sizeof(buf));
  }
  return out;
}

TEST(Split, HoldoutGolden) {
  // Pins which side every entry lands on, and the order within each side,
  // at a fixed seed: one uniform draw per entry, in entry order.
  const Coo all = testing::random_coo(120, 90, 0.2, 31);
  auto [train, test] = split_holdout(all, 0.2, 77);
  EXPECT_EQ(all.nnz(), 2105);
  EXPECT_EQ(train.nnz(), 1675);
  EXPECT_EQ(test.nnz(), 430);
  const char* regen = "./build/tests/test_data --gtest_filter=Split.HoldoutGolden";
  testing::expect_golden_crc("split_holdout.train", entry_bytes(train), 0xafc335d0u, regen);
  testing::expect_golden_crc("split_holdout.test", entry_bytes(test), 0x90bd987au, regen);
}

TEST(Split, LeaveOneOutOnePerMultiRow) {
  const Coo all = testing::random_coo(60, 60, 0.15, 8);
  auto [train, test] = split_leave_one_out(all, 21);
  EXPECT_EQ(train.nnz() + test.nnz(), all.nnz());

  // Count per-row entries in the original and the test set.
  std::map<index_t, int> orig_count, test_count;
  for (const auto& t : all.entries()) ++orig_count[t.row];
  for (const auto& t : test.entries()) ++test_count[t.row];
  for (const auto& [row, n] : orig_count) {
    if (n >= 2) {
      EXPECT_EQ(test_count[row], 1) << "row " << row;
    } else {
      EXPECT_EQ(test_count.count(row), 0u) << "row " << row;
    }
  }
}

TEST(Split, LeaveOneOutDeterministic) {
  const Coo all = testing::random_coo(25, 25, 0.3, 9);
  auto [t1, s1] = split_leave_one_out(all, 5);
  auto [t2, s2] = split_leave_one_out(all, 5);
  EXPECT_EQ(s1.entries(), s2.entries());
  EXPECT_EQ(t1.entries(), t2.entries());
}

}  // namespace
}  // namespace alsmf
