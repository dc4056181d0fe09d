// Failure-injection robustness: corrupted inputs must throw alsmf::Error
// (or parse as valid data), never crash or silently produce wrong
// structures. A deterministic mutation fuzz over the binary and text
// deserializers.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "sparse/io.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

std::string valid_csr_bytes() {
  const Csr csr = testing::random_csr(20, 15, 0.25, 250);
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_binary(s, csr);
  return s.str();
}

TEST(FuzzRobustness, BinaryCsrByteFlipsThrowOrValidate) {
  const std::string original = valid_csr_bytes();
  Rng rng(251);
  int threw = 0, parsed = 0;
  for (int round = 0; round < 300; ++round) {
    std::string mutated = original;
    const std::size_t at = rng.bounded(mutated.size());
    mutated[at] = static_cast<char>(rng.bounded(256));
    std::stringstream in(mutated, std::ios::in | std::ios::binary);
    try {
      const Csr csr = read_csr_binary(in);
      // If it parsed, the invariants must hold (the constructor checks).
      EXPECT_TRUE(csr.check_invariants());
      ++parsed;
    } catch (const Error&) {
      ++threw;
    }
    // Anything else (segfault, std::bad_alloc from absurd sizes is allowed
    // to surface as Error only because sizes are validated first).
  }
  EXPECT_EQ(threw + parsed, 300);
  EXPECT_GT(threw, 0);  // mutations do get caught
}

TEST(FuzzRobustness, BinaryCsrTruncationsAlwaysThrow) {
  const std::string original = valid_csr_bytes();
  for (std::size_t len = 0; len < original.size();
       len += std::max<std::size_t>(1, original.size() / 40)) {
    std::stringstream in(original.substr(0, len),
                         std::ios::in | std::ios::binary);
    EXPECT_THROW(read_csr_binary(in), Error) << "length " << len;
  }
}

TEST(FuzzRobustness, TextParserSurvivesGarbageLines) {
  Rng rng(252);
  const std::string charset =
      "0123456789 .:-abcdefXYZ%#\t";
  for (int round = 0; round < 100; ++round) {
    std::string blob;
    for (int line = 0; line < 20; ++line) {
      const std::size_t len = rng.bounded(30);
      for (std::size_t i = 0; i < len; ++i) {
        blob.push_back(charset[rng.bounded(charset.size())]);
      }
      blob.push_back('\n');
    }
    std::istringstream in(blob);
    try {
      const Coo coo = read_ratings_text(in);
      EXPECT_GE(coo.rows(), 0);
    } catch (const Error&) {
      // fine: explicit rejection
    }
  }
}

TEST(FuzzRobustness, MatrixMarketHeaderMutations) {
  const std::string base =
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 2.0\n";
  Rng rng(253);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = base;
    const std::size_t at = rng.bounded(mutated.size());
    mutated[at] = static_cast<char>('!' + rng.bounded(90));
    std::istringstream in(mutated);
    try {
      const Coo coo = read_matrix_market(in);
      EXPECT_LE(coo.nnz(), 2);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace alsmf
