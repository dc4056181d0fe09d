// The benchmark's own arithmetic for its correctness checks, in double
// precision and independent of the library's kernels: row solves of the ALS
// normal equations, the training objective, dot products and exact top-N.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "linalg/dense.hpp"
#include "sparse/csr.hpp"

namespace perfbench::ref {

using alsmf::index_t;
using alsmf::real;

/// Solution of (sum_i y_i y_i^T + lambda I) x = sum_i r_i y_i by a double
/// Cholesky factorization, with the 2-norm condition number of the system.
struct RowSolve {
  std::vector<double> x;
  double cond = 0;
  bool ok = false;  ///< false when the system is not positive definite
};

RowSolve solve_row(const alsmf::Matrix& y, std::span<const index_t> items,
                   std::span<const real> ratings, double lambda);

/// Whether a single-precision factor agrees with the reference solve: its
/// relative forward error may not exceed what single-precision rounding of a
/// backward-stable solve allows at the system's condition number. Sets
/// `why` on a mismatch.
bool factor_matches(const RowSolve& ref, std::span<const real> got,
                    std::string* why);

/// The ALS objective: squared error over the stored ratings plus
/// lambda (sum_u |x_u|^2 + sum_i |y_i|^2).
double objective(const alsmf::Csr& train, const alsmf::Matrix& x,
                 const alsmf::Matrix& y, double lambda);

double dot(std::span<const real> a, std::span<const real> b);

/// Reference scores of every item for one factor, in double.
std::vector<double> all_scores(std::span<const real> factor,
                               const alsmf::Matrix& y);

/// The n best items by reference score (ties by lower id).
std::vector<index_t> top_items(const std::vector<double>& scores, int n);

/// Absolute tolerance of a single-precision score of this factor.
double score_tolerance(std::span<const real> factor, const alsmf::Matrix& y);

/// The users and ratings of each item column in `items` (sorted), gathered
/// in one pass over the rows of `train`.
struct Column {
  std::vector<index_t> users;
  std::vector<real> ratings;
};
std::vector<Column> gather_columns(const alsmf::Csr& train,
                                   const std::vector<index_t>& items);

}  // namespace perfbench::ref
