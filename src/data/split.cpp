#include "data/split.hpp"

#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace alsmf {

std::pair<Coo, Coo> split_holdout(const Coo& all, double test_fraction,
                                  std::uint64_t seed) {
  // One uniform draw per entry, in entry order; the sides are counted first
  // so that each is allocated once at its exact size.
  Rng rng(seed);
  const auto& entries = all.entries();
  std::vector<bool> held_out(entries.size());
  std::size_t tests = 0;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    held_out[e] = rng.uniform() < test_fraction;
    tests += held_out[e] ? 1 : 0;
  }
  Coo train(all.rows(), all.cols());
  Coo test(all.rows(), all.cols());
  train.reserve(static_cast<nnz_t>(entries.size() - tests));
  test.reserve(static_cast<nnz_t>(tests));
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const Triplet& t = entries[e];
    (held_out[e] ? test : train).add(t.row, t.col, t.value);
  }
  return {std::move(train), std::move(test)};
}

std::pair<Coo, Coo> split_leave_one_out(const Coo& all, std::uint64_t seed) {
  Rng rng(seed);
  // Count entries per row, then choose one held-out ordinal per row.
  std::unordered_map<index_t, nnz_t> row_count;
  for (const auto& t : all.entries()) ++row_count[t.row];

  std::unordered_map<index_t, nnz_t> holdout_ordinal;
  holdout_ordinal.reserve(row_count.size());
  for (const auto& [row, count] : row_count) {
    if (count >= 2) {
      holdout_ordinal[row] =
          static_cast<nnz_t>(rng.bounded(static_cast<std::uint64_t>(count)));
    }
  }

  std::unordered_map<index_t, nnz_t> seen;
  Coo train(all.rows(), all.cols());
  Coo test(all.rows(), all.cols());
  for (const auto& t : all.entries()) {
    const nnz_t ordinal = seen[t.row]++;
    auto it = holdout_ordinal.find(t.row);
    if (it != holdout_ordinal.end() && it->second == ordinal) {
      test.add(t.row, t.col, t.value);
    } else {
      train.add(t.row, t.col, t.value);
    }
  }
  return {std::move(train), std::move(test)};
}

}  // namespace alsmf
