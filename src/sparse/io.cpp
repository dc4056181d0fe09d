#include "sparse/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace alsmf {

namespace {

/// Ids at or above 2^40 are rejected: the dimension cap of the binary CSR
/// format, and far below where `id + 1` could overflow.
constexpr long long kMaxId = 1LL << 40;

/// 256-entry membership table for one set of separator bytes.
class ByteSet {
 public:
  explicit ByteSet(std::string_view chars) {
    for (const char c : chars) member_[static_cast<unsigned char>(c)] = true;
  }
  bool operator()(char c) const { return member_[static_cast<unsigned char>(c)]; }

 private:
  std::array<bool, 256> member_{};
};

/// Hands out the lines of a stream in place. The stream is read in blocks of
/// about 1 MiB and the partial last line of a block is carried to the front
/// of the buffer; the buffer grows only for a line longer than itself.
class LineReader {
 public:
  explicit LineReader(std::istream& in)
      : in_(in), size_(std::size_t{1} << 20), buf_(new char[size_]) {}

  /// Next line without its `\n` and with one trailing `\r` removed; false
  /// at end of stream. The view is valid until the next call.
  bool next(std::string_view& line) {
    for (;;) {
      const char* b = buf_.get() + begin_;
      const auto* nl = static_cast<const char*>(std::memchr(b, '\n', end_ - begin_));
      if (nl != nullptr || (eof_ && begin_ < end_)) {
        const char* e = nl != nullptr ? nl : buf_.get() + end_;
        begin_ = static_cast<std::size_t>(e - buf_.get()) + (nl != nullptr ? 1 : 0);
        if (e > b && e[-1] == '\r') --e;
        line = {b, static_cast<std::size_t>(e - b)};
        ++line_number_;
        return true;
      }
      if (eof_) return false;
      fill();
    }
  }

  /// Estimate of the lines left in a seekable stream, from its length and
  /// the line density of the first block (0 when it cannot seek). Used to
  /// size the output once instead of growing it by doubling.
  std::size_t estimate_lines() {
    const auto here = in_.tellg();
    if (here < 0) return 0;
    const auto end = in_.seekg(0, std::ios::end).tellg();
    in_.clear();
    in_.seekg(here);
    if (end <= here) return 0;
    if (begin_ == end_ && !eof_) fill();
    const char* b = buf_.get() + begin_;
    const auto block = static_cast<double>(end_ - begin_);
    const auto lines = static_cast<double>(std::count(b, b + (end_ - begin_), '\n') + 1);
    const auto bytes = static_cast<double>(end - here);
    // 1/16 headroom for lines that grow longer further on, and never more
    // entries than the shortest rating line ("1 1 1\n") allows.
    return static_cast<std::size_t>(std::min(bytes / block * lines * 1.0625, bytes / 6 + 1));
  }

  /// 1-based number of the line last returned.
  std::size_t line_number() const { return line_number_; }

 private:
  /// Moves the partial line to the front and reads the next block after it.
  void fill() {
    const std::size_t carry = end_ - begin_;
    if (carry == size_) {
      std::unique_ptr<char[]> bigger(new char[2 * size_]);
      std::memcpy(bigger.get(), buf_.get(), carry);
      buf_ = std::move(bigger);
      size_ *= 2;
    } else {
      std::memmove(buf_.get(), buf_.get() + begin_, carry);
    }
    in_.read(buf_.get() + carry, static_cast<std::streamsize>(size_ - carry));
    begin_ = 0;
    end_ = carry + static_cast<std::size_t>(in_.gcount());
    eof_ = !in_;
  }

  std::istream& in_;
  std::size_t size_;
  std::unique_ptr<char[]> buf_;  // uninitialised: a short stream touches little of it
  std::size_t begin_ = 0, end_ = 0;
  std::size_t line_number_ = 0;
  bool eof_ = false;
};

/// Walks the fields of one line in place: runs of bytes that are not
/// separators.
class Fields {
 public:
  Fields(std::string_view line, const ByteSet& is_sep)
      : p_(line.data()), end_(line.data() + line.size()), is_sep_(is_sep) {}

  /// Moves to the start of the next field; false when none is left.
  bool next() {
    while (p_ < end_ && is_sep_(*p_)) ++p_;
    return p_ < end_;
  }

  /// Consumes the current field as text.
  std::string_view text() {
    const char* f = p_;
    while (p_ < end_ && !is_sep_(*p_)) ++p_;
    return {f, static_cast<std::size_t>(p_ - f)};
  }

  /// Consumes the current field as a number: an optional leading `+`, then
  /// `std::from_chars`, which must stop at a separator or the line's end.
  /// False when the field is anything else (it is consumed all the same).
  template <class T>
  bool number(T& v) {
    const char* f = p_;
    if (*f == '+' && f + 1 < end_ && f[1] != '-') ++f;
    const auto [ptr, ec] = std::from_chars(f, end_, v);
    if (ec == std::errc() && (ptr == end_ || is_sep_(*ptr))) {
      p_ = ptr;
      return true;
    }
    text();
    return false;
  }

 private:
  const char* p_;
  const char* end_;
  const ByteSet& is_sep_;
};

[[noreturn]] void fail_at(const char* what, std::size_t line,
                          const std::string& msg) {
  throw Error(std::string(what) + " line " + std::to_string(line) + ": " + msg);
}

constexpr char kMagic[8] = {'A', 'L', 'S', 'C', 'S', 'R', '0', '1'};

template <class T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
void read_pod(std::istream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  ALSMF_CHECK_MSG(in.good(), "truncated binary CSR stream");
}

template <class T>
void write_array(std::ostream& out, const aligned_vector<T>& v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <class T>
aligned_vector<T> read_array(std::istream& in, std::uint64_t expected) {
  std::uint64_t n = 0;
  read_pod(in, n);
  // Validate the stored length before allocating: a corrupted length field
  // must throw, not attempt a multi-terabyte allocation.
  ALSMF_CHECK_MSG(n == expected, "binary CSR array length mismatch");
  aligned_vector<T> v(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  ALSMF_CHECK_MSG(in.good(), "truncated binary CSR stream");
  return v;
}

}  // namespace

Coo read_ratings_text(std::istream& in, const TextFormat& fmt,
                      index_t rows_hint, index_t cols_hint) {
  const ByteSet is_sep(fmt.separators);
  const ByteSet is_comment(fmt.comment_chars);
  const long long base = fmt.one_based_ids ? 1 : 0;
  std::vector<Triplet> entries;
  index_t max_row = -1, max_col = -1;
  LineReader lines(in);
  entries.reserve(lines.estimate_lines());
  std::string_view line;
  while (lines.next(line)) {
    if (line.empty() || is_comment(line.front())) continue;
    // A line with fewer than three fields is skipped (ragged trailer
    // lines); one with three that do not all parse is an error.
    Fields f(line, is_sep);
    long long u = 0, i = 0;
    double v = 0;
    if (!f.next()) continue;
    bool ids_ok = f.number(u);
    if (!f.next()) continue;
    ids_ok = f.number(i) && ids_ok;
    if (!f.next()) continue;
    const bool value_ok = f.number(v);
    const std::size_t at = lines.line_number();
    if (!ids_ok) fail_at("ratings text", at, "malformed id");
    if (!value_ok) fail_at("ratings text", at, "malformed rating");
    if (u < base || i < base) fail_at("ratings text", at, "negative id after base adjustment");
    if (u >= kMaxId || i >= kMaxId) fail_at("ratings text", at, "id >= 2^40");
    u -= base;
    i -= base;
    if ((rows_hint > 0 && u >= rows_hint) || (cols_hint > 0 && i >= cols_hint)) {
      fail_at("ratings text", at, "id outside the given dimensions");
    }
    const real value = static_cast<real>(v);
    if (!std::isfinite(value)) fail_at("ratings text", at, "non-finite rating");
    entries.push_back({u, i, value});
    max_row = std::max<index_t>(max_row, u);
    max_col = std::max<index_t>(max_col, i);
  }
  Coo coo(rows_hint > 0 ? rows_hint : max_row + 1,
          cols_hint > 0 ? cols_hint : max_col + 1);
  coo.entries() = std::move(entries);
  return coo;
}

Coo read_ratings_file(const std::string& path, const TextFormat& fmt) {
  std::ifstream in(path);
  ALSMF_CHECK_MSG(in.good(), "cannot open ratings file: " + path);
  return read_ratings_text(in, fmt);
}

void write_ratings_text(std::ostream& out, const Coo& coo,
                        const TextFormat& fmt) {
  const index_t base = fmt.one_based_ids ? 1 : 0;
  for (const auto& t : coo.entries()) {
    out << (t.row + base) << ' ' << (t.col + base) << ' ' << t.value << '\n';
  }
}

Coo read_matrix_market(std::istream& in) {
  const ByteSet is_sep(" \t");
  LineReader lines(in);
  std::string_view line;
  ALSMF_CHECK_MSG(lines.next(line), "empty MatrixMarket stream");
  std::string_view w[5];
  std::size_t words = 0;
  for (Fields h(line, is_sep); words < 5 && h.next();) w[words++] = h.text();
  ALSMF_CHECK_MSG(words >= 4 && w[0] == "%%MatrixMarket" && w[1] == "matrix" &&
                      w[2] == "coordinate",
                  "not a MatrixMarket coordinate header");
  const std::string value_type(w[3]);
  ALSMF_CHECK_MSG(value_type == "real" || value_type == "integer" ||
                      value_type == "pattern",
                  "unsupported MatrixMarket value type: " + value_type);
  const bool pattern = value_type == "pattern";
  bool symmetric = false;
  if (words >= 5) {
    if (w[4] == "symmetric") {
      symmetric = true;
    } else {
      ALSMF_CHECK_MSG(w[4] == "general", "unsupported MatrixMarket symmetry: " +
                                             std::string(w[4]));
    }
  }

  // Skip comments, read the size line.
  long long rows = 0, cols = 0, nnz = 0;
  while (lines.next(line)) {
    if (line.empty() || line.front() == '%') continue;
    Fields f(line, is_sep);
    if (!(f.next() && f.number(rows) && f.next() && f.number(cols) && f.next() &&
          f.number(nnz))) {
      fail_at("MatrixMarket", lines.line_number(), "bad size line");
    }
    break;
  }
  ALSMF_CHECK_MSG(rows > 0 && cols > 0, "missing MatrixMarket size line");
  ALSMF_CHECK_MSG(rows < kMaxId && cols < kMaxId && nnz >= 0 && nnz < kMaxId &&
                      static_cast<long double>(nnz) <=
                          static_cast<long double>(rows) * static_cast<long double>(cols),
                  "implausible MatrixMarket size line");

  Coo coo(rows, cols);
  coo.reserve(symmetric ? 2 * nnz : nnz);
  nnz_t read = 0;
  while (read < nnz && lines.next(line)) {
    if (line.empty() || line.front() == '%') continue;
    long long r = 0, c = 0;
    double v = 1;
    Fields f(line, is_sep);
    if (!(f.next() && f.number(r) && f.next() && f.number(c) &&
          (pattern || (f.next() && f.number(v))))) {
      fail_at("MatrixMarket", lines.line_number(), "bad entry line");
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      fail_at("MatrixMarket", lines.line_number(), "entry outside the matrix");
    }
    const auto value = static_cast<real>(v);
    coo.add(r - 1, c - 1, value);
    if (symmetric && r != c) coo.add(c - 1, r - 1, value);
    ++read;
  }
  ALSMF_CHECK_MSG(read == nnz, "truncated MatrixMarket stream");
  coo.sort_row_major();
  return coo;
}

Coo read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  ALSMF_CHECK_MSG(in.good(), "cannot open MatrixMarket file: " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Coo& coo) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by alsmf\n";
  out << coo.rows() << " " << coo.cols() << " " << coo.nnz() << "\n";
  for (const auto& t : coo.entries()) {
    out << (t.row + 1) << " " << (t.col + 1) << " " << t.value << "\n";
  }
}

void write_matrix_market_file(const std::string& path, const Coo& coo) {
  std::ofstream out(path);
  ALSMF_CHECK_MSG(out.good(), "cannot open for write: " + path);
  write_matrix_market(out, coo);
}

void write_csr_binary(std::ostream& out, const Csr& csr) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, static_cast<std::int64_t>(csr.rows()));
  write_pod(out, static_cast<std::int64_t>(csr.cols()));
  write_array(out, csr.row_ptr());
  write_array(out, csr.col_idx());
  write_array(out, csr.values());
}

Csr read_csr_binary(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  ALSMF_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 8) == 0,
                  "bad CSR binary magic");
  std::int64_t rows = 0, cols = 0;
  read_pod(in, rows);
  read_pod(in, cols);
  // Sanity-bound the header before sizing any allocation from it.
  constexpr std::int64_t kMaxDim = std::int64_t{1} << 40;
  ALSMF_CHECK_MSG(rows >= 0 && cols >= 0 && rows < kMaxDim && cols < kMaxDim,
                  "implausible binary CSR dimensions");
  auto row_ptr = read_array<nnz_t>(in, static_cast<std::uint64_t>(rows) + 1);
  const nnz_t nnz = row_ptr.empty() ? 0 : row_ptr.back();
  // Dense bound checked in floating point to avoid int64 overflow.
  const long double dense_cells =
      static_cast<long double>(rows) * static_cast<long double>(std::max<std::int64_t>(cols, 1));
  ALSMF_CHECK_MSG(nnz >= 0 && (rows == 0 ||
                               static_cast<long double>(nnz) <= dense_cells),
                  "implausible binary CSR nonzero count");
  auto col_idx = read_array<index_t>(in, static_cast<std::uint64_t>(nnz));
  auto values = read_array<real>(in, static_cast<std::uint64_t>(nnz));
  return Csr(rows, cols, std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

void write_csr_binary_file(const std::string& path, const Csr& csr) {
  std::ofstream out(path, std::ios::binary);
  ALSMF_CHECK_MSG(out.good(), "cannot open for write: " + path);
  write_csr_binary(out, csr);
}

Csr read_csr_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ALSMF_CHECK_MSG(in.good(), "cannot open for read: " + path);
  return read_csr_binary(in);
}

}  // namespace alsmf
