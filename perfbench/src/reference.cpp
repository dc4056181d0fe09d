#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench::ref {

namespace {

/// In-place lower Cholesky of the k x k row-major matrix; false if not PD.
bool cholesky(std::vector<double>& a, int k) {
  for (int j = 0; j < k; ++j) {
    double d = a[static_cast<std::size_t>(j * k + j)];
    for (int p = 0; p < j; ++p) {
      const double l = a[static_cast<std::size_t>(j * k + p)];
      d -= l * l;
    }
    if (!(d > 0)) return false;
    const double ljj = std::sqrt(d);
    a[static_cast<std::size_t>(j * k + j)] = ljj;
    for (int i = j + 1; i < k; ++i) {
      double s = a[static_cast<std::size_t>(i * k + j)];
      for (int p = 0; p < j; ++p) {
        s -= a[static_cast<std::size_t>(i * k + p)] *
             a[static_cast<std::size_t>(j * k + p)];
      }
      a[static_cast<std::size_t>(i * k + j)] = s / ljj;
    }
  }
  return true;
}

/// Solves L L^T x = b in place with the factor from cholesky().
void cholesky_solve(const std::vector<double>& l, int k, std::vector<double>& b) {
  for (int i = 0; i < k; ++i) {
    double s = b[static_cast<std::size_t>(i)];
    for (int p = 0; p < i; ++p) {
      s -= l[static_cast<std::size_t>(i * k + p)] * b[static_cast<std::size_t>(p)];
    }
    b[static_cast<std::size_t>(i)] = s / l[static_cast<std::size_t>(i * k + i)];
  }
  for (int i = k - 1; i >= 0; --i) {
    double s = b[static_cast<std::size_t>(i)];
    for (int p = i + 1; p < k; ++p) {
      s -= l[static_cast<std::size_t>(p * k + i)] * b[static_cast<std::size_t>(p)];
    }
    b[static_cast<std::size_t>(i)] = s / l[static_cast<std::size_t>(i * k + i)];
  }
}

double norm2(const std::vector<double>& v) {
  double s = 0;
  for (double e : v) s += e * e;
  return std::sqrt(s);
}

/// 2-norm condition number of the SPD matrix `a` (factor `l`) by power
/// iteration on a and on its inverse.
double condition(const std::vector<double>& a, const std::vector<double>& l,
                 int k) {
  const auto n = static_cast<std::size_t>(k);
  std::vector<double> v(n), w(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 + 0.01 * static_cast<double>(i);
  double big = 0;
  for (int it = 0; it < 60; ++it) {
    const double nv = norm2(v);
    for (auto& e : v) e /= nv;
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0;
      for (std::size_t j = 0; j < n; ++j) s += a[i * n + j] * v[j];
      w[i] = s;
    }
    big = norm2(w);
    v.swap(w);
  }
  for (std::size_t i = 0; i < n; ++i) v[i] = 1.0 - 0.01 * static_cast<double>(i);
  double small_inv = 0;
  for (int it = 0; it < 60; ++it) {
    const double nv = norm2(v);
    for (auto& e : v) e /= nv;
    cholesky_solve(l, k, v);
    small_inv = norm2(v);
  }
  return big * small_inv;
}

}  // namespace

RowSolve solve_row(const alsmf::Matrix& y, std::span<const index_t> items,
                   std::span<const real> ratings, double lambda) {
  const int k = static_cast<int>(y.cols());
  const auto n = static_cast<std::size_t>(k);
  std::vector<double> a(n * n, 0.0);
  RowSolve out;
  out.x.assign(n, 0.0);
  for (std::size_t p = 0; p < items.size(); ++p) {
    const auto row = y.row(items[p]);
    for (std::size_t i = 0; i < n; ++i) {
      const double yi = row[i];
      out.x[i] += static_cast<double>(ratings[p]) * yi;
      for (std::size_t j = 0; j < n; ++j) a[i * n + j] += yi * row[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += lambda;
  std::vector<double> l = a;
  if (!cholesky(l, k)) return out;
  cholesky_solve(l, k, out.x);
  out.cond = condition(a, l, k);
  out.ok = true;
  return out;
}

bool factor_matches(const RowSolve& ref, std::span<const real> got,
                    std::string* why) {
  if (!ref.ok || got.size() != ref.x.size()) {
    if (why) *why = "reference system not positive definite or size mismatch";
    return false;
  }
  double diff = 0, base = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double d = static_cast<double>(got[i]) - ref.x[i];
    diff += d * d;
    base += ref.x[i] * ref.x[i];
  }
  const double rel = std::sqrt(diff) / std::max(std::sqrt(base), 1e-30);
  // A backward-stable single-precision solve has a relative backward error
  // of a modest multiple of k * 2^-24; the forward error is at most that
  // times the condition number. 8 k u cond leaves headroom for the
  // accumulation order of the normal equations.
  const double u = 0x1.0p-24;
  const double tol =
      8.0 * static_cast<double>(got.size()) * u * std::max(ref.cond, 1.0);
  if (rel <= tol) return true;
  if (why) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "relative error %.3g > %.3g (cond %.3g)", rel,
                  tol, ref.cond);
    *why = buf;
  }
  return false;
}

double objective(const alsmf::Csr& train, const alsmf::Matrix& x,
                 const alsmf::Matrix& y, double lambda) {
  double err = 0;
  for (index_t u = 0; u < train.rows(); ++u) {
    const auto cols = train.row_cols(u);
    const auto vals = train.row_values(u);
    const auto xu = x.row(u);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const double e = static_cast<double>(vals[p]) - dot(xu, y.row(cols[p]));
      err += e * e;
    }
  }
  double reg = 0;
  for (const real v : std::span<const real>(x.data(), x.size())) reg += double{v} * v;
  for (const real v : std::span<const real>(y.data(), y.size())) reg += double{v} * v;
  return err + lambda * reg;
}

double dot(std::span<const real> a, std::span<const real> b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += double{a[i]} * b[i];
  return s;
}

std::vector<double> all_scores(std::span<const real> factor,
                               const alsmf::Matrix& y) {
  std::vector<double> s(static_cast<std::size_t>(y.rows()));
  for (index_t i = 0; i < y.rows(); ++i) {
    s[static_cast<std::size_t>(i)] = dot(factor, y.row(i));
  }
  return s;
}

std::vector<index_t> top_items(const std::vector<double>& scores, int n) {
  std::vector<index_t> ids(scores.size());
  std::iota(ids.begin(), ids.end(), index_t{0});
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(n), ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(take),
                    ids.end(), [&](index_t a, index_t b) {
                      const double sa = scores[static_cast<std::size_t>(a)];
                      const double sb = scores[static_cast<std::size_t>(b)];
                      return sa != sb ? sa > sb : a < b;
                    });
  ids.resize(take);
  return ids;
}

double score_tolerance(std::span<const real> factor, const alsmf::Matrix& y) {
  double fn = 0, ymax = 0;
  for (const real v : factor) fn += double{v} * v;
  for (index_t i = 0; i < y.rows(); ++i) {
    double r = 0;
    for (const real v : y.row(i)) r += double{v} * v;
    ymax = std::max(ymax, r);
  }
  // |fl(x . y) - x . y| <= k u |x| |y| for a length-k single-precision dot.
  return 2.0 * static_cast<double>(factor.size()) * 0x1.0p-24 *
             std::sqrt(fn * ymax) + 1e-12;
}

std::vector<Column> gather_columns(const alsmf::Csr& train,
                                   const std::vector<index_t>& items) {
  std::vector<Column> out(items.size());
  for (index_t u = 0; u < train.rows(); ++u) {
    const auto cols = train.row_cols(u);
    const auto vals = train.row_values(u);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const auto it = std::lower_bound(items.begin(), items.end(), cols[p]);
      if (it == items.end() || *it != cols[p]) continue;
      Column& c = out[static_cast<std::size_t>(it - items.begin())];
      c.users.push_back(u);
      c.ratings.push_back(vals[p]);
    }
  }
  return out;
}

}  // namespace perfbench::ref
