#include "sparse/convert.hpp"

#include <algorithm>
#include <numeric>

namespace alsmf {

namespace {

/// Arrays of one compressed axis: `ptr` over the major dimension, and the
/// minor index and value of every entry, sorted by minor index within each
/// major slice.
struct Compressed {
  aligned_vector<nnz_t> ptr;
  aligned_vector<index_t> idx;
  aligned_vector<real> values;
};

/// Counting-sort compression of triplets along rows (`row_major`) or
/// columns. The counting pass keeps input order within a slice; a slice that
/// is not already sorted by minor index is sorted through one reused
/// scratch buffer of (index, value) pairs.
Compressed compress(index_t major, const std::vector<Triplet>& entries,
                    bool row_major) {
  Compressed out;
  out.ptr.assign(static_cast<std::size_t>(major) + 1, 0);
  out.idx.resize(entries.size());
  out.values.resize(entries.size());

  for (const auto& t : entries) {
    auto key = static_cast<std::size_t>(row_major ? t.row : t.col);
    ++out.ptr[key + 1];
  }
  std::partial_sum(out.ptr.begin(), out.ptr.end(), out.ptr.begin());

  aligned_vector<nnz_t> cursor(out.ptr.begin(), out.ptr.end() - 1);
  for (const auto& t : entries) {
    auto key = static_cast<std::size_t>(row_major ? t.row : t.col);
    auto pos = static_cast<std::size_t>(cursor[key]++);
    out.idx[pos] = row_major ? t.col : t.row;
    out.values[pos] = t.value;
  }

  struct Entry {
    index_t idx;
    real value;
  };
  std::vector<Entry> scratch;
  index_t* idx = out.idx.data();
  for (std::size_t u = 0; u < static_cast<std::size_t>(major); ++u) {
    const auto b = static_cast<std::size_t>(out.ptr[u]);
    const auto e = static_cast<std::size_t>(out.ptr[u + 1]);
    if (std::is_sorted(idx + b, idx + e)) continue;
    scratch.clear();
    for (std::size_t p = b; p < e; ++p) scratch.push_back({idx[p], out.values[p]});
    std::sort(scratch.begin(), scratch.end(),
              [](const Entry& x, const Entry& y) { return x.idx < y.idx; });
    for (std::size_t p = b; p < e; ++p) {
      idx[p] = scratch[p - b].idx;
      out.values[p] = scratch[p - b].value;
    }
  }
  return out;
}

/// Counting transpose of one compressed axis into the other: slices of the
/// result come out sorted because the input is scanned in major order.
Compressed transpose_arrays(index_t major, index_t minor,
                            const aligned_vector<nnz_t>& ptr,
                            const aligned_vector<index_t>& idx,
                            const aligned_vector<real>& values) {
  Compressed out;
  out.ptr.assign(static_cast<std::size_t>(minor) + 1, 0);
  out.idx.resize(idx.size());
  out.values.resize(values.size());

  for (const auto j : idx) ++out.ptr[static_cast<std::size_t>(j) + 1];
  std::partial_sum(out.ptr.begin(), out.ptr.end(), out.ptr.begin());

  aligned_vector<nnz_t> cursor(out.ptr.begin(), out.ptr.end() - 1);
  for (index_t u = 0; u < major; ++u) {
    const auto b = static_cast<std::size_t>(ptr[static_cast<std::size_t>(u)]);
    const auto e = static_cast<std::size_t>(ptr[static_cast<std::size_t>(u) + 1]);
    for (std::size_t p = b; p < e; ++p) {
      const auto pos = static_cast<std::size_t>(cursor[static_cast<std::size_t>(idx[p])]++);
      out.idx[pos] = u;
      out.values[pos] = values[p];
    }
  }
  return out;
}

}  // namespace

Csr coo_to_csr(const Coo& coo) {
  auto c = compress(coo.rows(), coo.entries(), /*row_major=*/true);
  return Csr(coo.rows(), coo.cols(), std::move(c.ptr), std::move(c.idx),
             std::move(c.values));
}

Csc coo_to_csc(const Coo& coo) {
  auto c = compress(coo.cols(), coo.entries(), /*row_major=*/false);
  return Csc(coo.rows(), coo.cols(), std::move(c.ptr), std::move(c.idx),
             std::move(c.values));
}

Coo csr_to_coo(const Csr& csr) {
  Coo coo(csr.rows(), csr.cols());
  coo.reserve(csr.nnz());
  for (index_t u = 0; u < csr.rows(); ++u) {
    auto cols = csr.row_cols(u);
    auto vals = csr.row_values(u);
    for (std::size_t p = 0; p < cols.size(); ++p) coo.add(u, cols[p], vals[p]);
  }
  return coo;
}

Csc csr_to_csc(const Csr& csr) {
  auto t = transpose_arrays(csr.rows(), csr.cols(), csr.row_ptr(), csr.col_idx(),
                            csr.values());
  return Csc(csr.rows(), csr.cols(), std::move(t.ptr), std::move(t.idx),
             std::move(t.values));
}

Csr csc_to_csr(const Csc& csc) {
  auto t = transpose_arrays(csc.cols(), csc.rows(), csc.col_ptr(), csc.row_idx(),
                            csc.values());
  return Csr(csc.rows(), csc.cols(), std::move(t.ptr), std::move(t.idx),
             std::move(t.values));
}

Csr transpose(const Csr& csr) {
  // The CSC arrays of R are exactly the CSR arrays of Rᵀ.
  auto t = transpose_arrays(csr.rows(), csr.cols(), csr.row_ptr(), csr.col_idx(),
                            csr.values());
  return Csr(csr.cols(), csr.rows(), std::move(t.ptr), std::move(t.idx),
             std::move(t.values));
}

}  // namespace alsmf
