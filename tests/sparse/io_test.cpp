#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sparse/convert.hpp"
#include "testing/util.hpp"

namespace alsmf {
namespace {

/// Reference semantics for well-formed ratings text: `std::getline` lines,
/// comment and blank lines skipped, fields split on runs of separators,
/// lines with fewer than three fields skipped, ids through `std::stoll` and
/// values through `std::stod` rounded to float.
Coo reference_parse(const std::string& text, const TextFormat& fmt = {}) {
  std::istringstream in(text);
  std::string line;
  std::vector<Triplet> raw;
  index_t max_row = -1, max_col = -1;
  const index_t base = fmt.one_based_ids ? 1 : 0;
  while (std::getline(in, line)) {
    if (line.empty() || fmt.comment_chars.find(line[0]) != std::string::npos) {
      continue;
    }
    std::vector<std::string> fields;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && fmt.separators.find(line[i]) != std::string::npos) ++i;
      std::size_t j = i;
      while (j < line.size() && fmt.separators.find(line[j]) == std::string::npos) ++j;
      if (j > i) fields.push_back(line.substr(i, j - i));
      i = j;
    }
    if (fields.size() < 3) continue;
    const index_t u = static_cast<index_t>(std::stoll(fields[0])) - base;
    const index_t c = static_cast<index_t>(std::stoll(fields[1])) - base;
    raw.push_back({u, c, static_cast<real>(std::stod(fields[2]))});
    max_row = std::max(max_row, u);
    max_col = std::max(max_col, c);
  }
  Coo coo(max_row + 1, max_col + 1);
  for (const auto& t : raw) coo.add(t.row, t.col, t.value);
  return coo;
}

void expect_same_coo(const Coo& got, const Coo& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.nnz(), want.nnz());
  for (std::size_t e = 0; e < want.entries().size(); ++e) {
    ASSERT_EQ(got.entries()[e], want.entries()[e]) << "entry " << e;
  }
}

/// One well-formed line in a random dialect: mixed separators (`::` too),
/// optional leading separators, `+` signs, extra trailing fields and CRLF.
std::string random_rating_line(Rng& rng) {
  static const char* const kSeps[] = {" ", "\t", ",", ":", "::", ", ", " \t "};
  static const char* const kValues[] = {"3.5", "0.1", "1e0", "+4", "2.999999999",
                                        "5", "1", "4.25", "3.14159265358979",
                                        "2.5E-1", "0.30000000000000004"};
  auto sep = [&] { return std::string(kSeps[rng.bounded(std::size(kSeps))]); };
  std::string line;
  if (rng.bounded(8) == 0) line += sep();
  if (rng.bounded(10) == 0) line += '+';
  line += std::to_string(1 + rng.bounded(300)) + sep();
  if (rng.bounded(10) == 0) line += '+';
  line += std::to_string(1 + rng.bounded(200)) + sep();
  line += kValues[rng.bounded(std::size(kValues))];
  if (rng.bounded(5) == 0) line += sep() + std::to_string(978300760 + rng.bounded(1000));
  if (rng.bounded(10) == 0) line += sep() + "note";
  if (rng.bounded(8) == 0) line += sep();
  if (rng.bounded(4) == 0) line += '\r';
  return line;
}

std::string random_corpus(std::uint64_t seed, int lines) {
  Rng rng(seed);
  std::string text;
  for (int l = 0; l < lines; ++l) {
    switch (rng.bounded(12)) {
      case 0: text += "# comment 1 2 3"; break;
      case 1: text += "% 4 5 6"; break;
      case 2: break;  // blank
      case 3: text += "\r"; break;
      case 4: text += std::to_string(1 + rng.bounded(300)); break;  // ragged
      case 5: text += "7 8"; break;
      default: text += random_rating_line(rng);
    }
    if (l + 1 < lines || rng.bounded(2) == 0) text += '\n';
  }
  return text;
}

TEST(IoText, ParsesSpaceSeparated) {
  std::istringstream in("1 2 4.5\n2 1 3\n");
  const Coo coo = read_ratings_text(in);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 4.5f}));  // 1-based shifted
  EXPECT_EQ(coo.rows(), 2);
  EXPECT_EQ(coo.cols(), 2);
}

TEST(IoText, ParsesMovieLensDoubleColon) {
  std::istringstream in("1::31::2.5\n1::1029::3.0\n");
  const Coo coo = read_ratings_text(in);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[1].col, 1028);
  EXPECT_FLOAT_EQ(coo.entries()[1].value, 3.0f);
}

TEST(IoText, ParsesCommaSeparated) {
  std::istringstream in("3,4,5\n");
  const Coo coo = read_ratings_text(in);
  EXPECT_EQ(coo.entries()[0], (Triplet{2, 3, 5.0f}));
}

TEST(IoText, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\n% other comment\n1 1 1\n");
  const Coo coo = read_ratings_text(in);
  EXPECT_EQ(coo.nnz(), 1);
}

TEST(IoText, ZeroBasedOption) {
  TextFormat fmt;
  fmt.one_based_ids = false;
  std::istringstream in("0 0 2\n");
  const Coo coo = read_ratings_text(in, fmt);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0f}));
}

TEST(IoText, DimensionHintsEnforced) {
  std::istringstream in("5 5 1\n");
  EXPECT_THROW(read_ratings_text(in, {}, 3, 3), Error);
}

TEST(IoText, ExtraFieldsIgnoredAfterThree) {
  std::istringstream in("1 1 4 978300760\n");  // MovieLens timestamp
  const Coo coo = read_ratings_text(in);
  EXPECT_EQ(coo.nnz(), 1);
  EXPECT_FLOAT_EQ(coo.entries()[0].value, 4.0f);
}

TEST(IoText, WriteReadRoundTrip) {
  const Coo coo = testing::random_coo(12, 9, 0.3, 5);
  std::stringstream s;
  write_ratings_text(s, coo);
  const Coo back = read_ratings_text(s, {}, coo.rows(), coo.cols());
  ASSERT_EQ(back.nnz(), coo.nnz());
  for (std::size_t i = 0; i < coo.entries().size(); ++i) {
    EXPECT_EQ(coo.entries()[i].row, back.entries()[i].row);
    EXPECT_EQ(coo.entries()[i].col, back.entries()[i].col);
    EXPECT_NEAR(coo.entries()[i].value, back.entries()[i].value, 1e-4);
  }
}

TEST(IoText, MatchesReferenceOnSeededCorpus) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string text = random_corpus(seed, 3000);
    const Coo want = reference_parse(text);
    EXPECT_GT(want.nnz(), 1000);
    std::istringstream in(text);
    expect_same_coo(read_ratings_text(in), want);
  }
}

TEST(IoText, ZeroBasedCorpusMatchesReference) {
  TextFormat fmt;
  fmt.one_based_ids = false;
  const std::string text = random_corpus(99, 2000);
  std::istringstream in(text);
  expect_same_coo(read_ratings_text(in, fmt), reference_parse(text, fmt));
}

TEST(IoText, LinesStraddlingBlockBoundaries) {
  // About 3 MiB of lines of varied length, so every plausible read-block
  // boundary falls inside a line, plus a comment line and a data line each
  // longer than a block.
  Rng rng(17);
  std::string text;
  while (text.size() < (std::size_t{3} << 20)) {
    text += random_rating_line(rng);
    text += '\n';
    if (text.size() > (std::size_t{1} << 20) && text.size() < (std::size_t{1} << 20) + 64) {
      text += "#" + std::string((std::size_t{3} << 19), 'c') + "\n";
      text += "4 5 2.5" + std::string((std::size_t{3} << 19), ' ') + "\n";
    }
  }
  std::istringstream in(text);
  expect_same_coo(read_ratings_text(in), reference_parse(text));
}

TEST(IoText, AcceptsCrlf) {
  std::istringstream in("1 2 4.5\r\n2 1 3\r\n3,3,1 978300760\r\n");
  const Coo coo = read_ratings_text(in);
  ASSERT_EQ(coo.nnz(), 3);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 4.5f}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 0, 3.0f}));
  EXPECT_EQ(coo.entries()[2], (Triplet{2, 2, 1.0f}));
}

/// Message of the Error `read_ratings_text` throws on `text`, or "" if none.
std::string ratings_error(const std::string& text, const TextFormat& fmt = {}) {
  std::istringstream in(text);
  try {
    read_ratings_text(in, fmt);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(IoText, RejectsTrailingGarbage) {
  for (const char* bad : {"12abc 1 4", "1 2x 4", "1 1 4.5x", "1 1 4.5\r\r",
                          "1\r 1 4", "1 1 0x10", "1.5 1 4", "+-1 1 4", "1 1 ++4"}) {
    const std::string msg = ratings_error(std::string("1 1 1\n") + bad + "\n");
    EXPECT_NE(msg.find("line 2"), std::string::npos) << bad << ": " << msg;
  }
}

TEST(IoText, RejectsHugeIds) {
  TextFormat zero_based;
  zero_based.one_based_ids = false;
  for (const char* bad : {"9223372036854775807 0 1", "0 1099511627776 1",
                          "99999999999999999999 0 1", "-9223372036854775808 0 1"}) {
    const std::string msg = ratings_error(std::string("# ids\n") + bad + "\n", zero_based);
    EXPECT_NE(msg.find("line 2"), std::string::npos) << bad << ": " << msg;
  }
  std::istringstream in("1099511627775 1 2\n");  // 2^40 - 1 still parses
  const Coo coo = read_ratings_text(in, zero_based);
  EXPECT_EQ(coo.rows(), index_t{1} << 40);
}

TEST(IoText, RejectsNegativeAndOutOfRangeIdsWithLineNumber) {
  EXPECT_NE(ratings_error("1 1 1\n\n0 1 3\n").find("line 3"), std::string::npos);
  EXPECT_NE(ratings_error("1 1 1\n1 -4 3\n").find("line 2"), std::string::npos);
  EXPECT_NE(ratings_error("1 1 nan\n").find("line 1"), std::string::npos);
  std::istringstream in("1 1 1\n2 5 1\n");
  EXPECT_THROW(read_ratings_text(in, {}, 3, 3), Error);
}

TEST(IoBinary, RoundTripExact) {
  const Csr csr = testing::random_csr(30, 20, 0.15, 9);
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_binary(s, csr);
  const Csr back = read_csr_binary(s);
  EXPECT_EQ(csr, back);
}

TEST(IoBinary, RejectsBadMagic) {
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  s << "NOTACSR1 garbage";
  EXPECT_THROW(read_csr_binary(s), Error);
}

TEST(IoBinary, RejectsTruncatedStream) {
  const Csr csr = testing::random_csr(10, 10, 0.3, 2);
  std::stringstream s(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_binary(s, csr);
  std::string data = s.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_csr_binary(cut), Error);
}

TEST(IoBinary, FileRoundTrip) {
  const Csr csr = testing::random_csr(8, 8, 0.4, 3);
  const std::string path = ::testing::TempDir() + "/alsmf_io_test.bin";
  write_csr_binary_file(path, csr);
  EXPECT_EQ(read_csr_binary_file(path), csr);
}

TEST(IoBinary, MissingFileThrows) {
  EXPECT_THROW(read_csr_binary_file("/nonexistent/alsmf.bin"), Error);
  EXPECT_THROW(read_ratings_file("/nonexistent/alsmf.txt"), Error);
}

}  // namespace
}  // namespace alsmf
