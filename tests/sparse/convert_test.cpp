#include "sparse/convert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.hpp"

#include "testing/util.hpp"

namespace alsmf {
namespace {

using Shape = std::tuple<index_t, index_t, double, std::uint64_t>;

class ConvertRoundTrip : public ::testing::TestWithParam<Shape> {
 protected:
  Coo input() const {
    auto [rows, cols, density, seed] = GetParam();
    return testing::random_coo(rows, cols, density, seed);
  }
};

TEST_P(ConvertRoundTrip, CooToCsrToCoo) {
  const Coo coo = input();
  const Coo back = csr_to_coo(coo_to_csr(coo));
  EXPECT_EQ(coo.entries(), back.entries());
  EXPECT_EQ(coo.rows(), back.rows());
  EXPECT_EQ(coo.cols(), back.cols());
}

TEST_P(ConvertRoundTrip, CsrToCscToCsr) {
  const Csr csr = coo_to_csr(input());
  const Csr back = csc_to_csr(csr_to_csc(csr));
  EXPECT_EQ(csr, back);
}

TEST_P(ConvertRoundTrip, DoubleTransposeIsIdentity) {
  const Csr csr = coo_to_csr(input());
  EXPECT_EQ(csr, transpose(transpose(csr)));
}

TEST_P(ConvertRoundTrip, TransposeSwapsEntryCoordinates) {
  const Csr csr = coo_to_csr(input());
  const Csr t = transpose(csr);
  EXPECT_EQ(t.rows(), csr.cols());
  EXPECT_EQ(t.cols(), csr.rows());
  EXPECT_EQ(t.nnz(), csr.nnz());
  const Coo coo = csr_to_coo(csr);
  for (const auto& e : coo.entries()) {
    EXPECT_FLOAT_EQ(t.at(e.col, e.row), e.value);
  }
}

TEST_P(ConvertRoundTrip, CscMatchesDirectConstruction) {
  const Coo coo = input();
  const Csc via_coo = coo_to_csc(coo);
  const Csc via_csr = csr_to_csc(coo_to_csr(coo));
  EXPECT_EQ(via_coo, via_csr);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvertRoundTrip,
    ::testing::Values(Shape{1, 1, 1.0, 1}, Shape{5, 5, 0.0, 2},
                      Shape{10, 3, 0.4, 3}, Shape{3, 10, 0.4, 4},
                      Shape{40, 40, 0.05, 5}, Shape{17, 23, 0.8, 6},
                      Shape{64, 1, 0.5, 7}, Shape{1, 64, 0.5, 8}));

TEST(Convert, UnsortedCooStillYieldsCanonicalCsr) {
  Coo coo(3, 3);
  coo.add(2, 2, 1.0f);
  coo.add(0, 2, 2.0f);
  coo.add(0, 0, 3.0f);
  coo.add(1, 1, 4.0f);  // deliberately unsorted
  const Csr csr = coo_to_csr(coo);
  EXPECT_TRUE(csr.check_invariants());
  EXPECT_FLOAT_EQ(csr.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(csr.at(0, 2), 2.0f);
}

/// Expected CSR of `coo`: entries sorted row-major, then compressed by hand.
Csr canonical_csr(Coo coo) {
  coo.sort_row_major();
  aligned_vector<nnz_t> ptr(static_cast<std::size_t>(coo.rows()) + 1, 0);
  aligned_vector<index_t> idx;
  aligned_vector<real> vals;
  for (const auto& t : coo.entries()) {
    ++ptr[static_cast<std::size_t>(t.row) + 1];
    idx.push_back(t.col);
    vals.push_back(t.value);
  }
  for (std::size_t u = 1; u < ptr.size(); ++u) ptr[u] += ptr[u - 1];
  return Csr(coo.rows(), coo.cols(), std::move(ptr), std::move(idx), std::move(vals));
}

TEST(Convert, AlreadySortedRows) {
  const Coo coo = testing::random_coo(30, 25, 0.3, 41);  // canonical order
  EXPECT_EQ(coo_to_csr(coo), canonical_csr(coo));
}

TEST(Convert, ReversedRows) {
  Coo coo = testing::random_coo(30, 25, 0.3, 42);
  std::reverse(coo.entries().begin(), coo.entries().end());
  const Csr csr = coo_to_csr(coo);
  EXPECT_TRUE(csr.check_invariants());
  EXPECT_EQ(csr, canonical_csr(coo));
}

TEST(Convert, ShuffledRowsWithEmptyRows) {
  Coo coo(12, 40);
  Rng rng(43);
  for (index_t u = 0; u < 12; u += 3) {  // rows 1, 2, 4, 5, ... stay empty
    for (index_t c = 39; c >= 0; c -= 1 + static_cast<index_t>(rng.bounded(4))) {
      coo.add(u, c, static_cast<real>(c) + 0.5f);
    }
  }
  for (std::size_t e = coo.entries().size(); e > 1; --e) {
    std::swap(coo.entries()[e - 1], coo.entries()[rng.bounded(e)]);
  }
  const Csr csr = coo_to_csr(coo);
  EXPECT_EQ(csr, canonical_csr(coo));
  EXPECT_EQ(csr.row_nnz(1), 0);
  EXPECT_EQ(csr.row_nnz(11), 0);
}

TEST(Convert, DuplicateEntryIsRejected) {
  Coo coo(3, 3);
  coo.add(1, 2, 1.0f);
  coo.add(0, 0, 2.0f);
  coo.add(1, 2, 3.0f);
  EXPECT_THROW(coo_to_csr(coo), Error);
  EXPECT_THROW(coo_to_csc(coo), Error);
}

TEST(Convert, TransposeEqualsCscArrays) {
  for (std::uint64_t seed = 50; seed < 54; ++seed) {
    const Csr csr = testing::random_csr(37, 19, 0.2, seed);
    const Csc csc = csr_to_csc(csr);
    const Csr t = transpose(csr);
    EXPECT_EQ(t.rows(), csr.cols());
    EXPECT_EQ(t.cols(), csr.rows());
    EXPECT_EQ(t.row_ptr(), csc.col_ptr());
    EXPECT_EQ(t.col_idx(), csc.row_idx());
    EXPECT_EQ(t.values(), csc.values());
  }
}

TEST(Convert, EmptyMatrix) {
  Coo coo(4, 6);
  const Csr csr = coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_TRUE(csr.check_invariants());
  const Csc csc = csr_to_csc(csr);
  EXPECT_EQ(csc.nnz(), 0);
  EXPECT_TRUE(csc.check_invariants());
}

}  // namespace
}  // namespace alsmf
