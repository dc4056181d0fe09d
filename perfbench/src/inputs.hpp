// Workload definitions and their seeded inputs: the ratings text file the
// library ingests, the cold users whose ratings arrive as fold-in requests,
// and the request stream of the serving phases. Everything here is computed
// by the benchmark from the workload seed; the library only ever sees the
// generated file and the requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/types.hpp"

namespace perfbench {

using alsmf::index_t;
using alsmf::real;

/// Shared by both workloads: the paper's lambda, top-10 answers, the closed
/// loop's requests in flight, and the ratings of each cold user.
inline constexpr float kLambda = 0.1f;
inline constexpr int kTopN = 10;
inline constexpr int kWindow = 32;
inline constexpr int kColdMinRatings = 5, kColdMaxRatings = 40;

struct Workload {
  std::string name;
  // Ratings matrix: Table I shape, Zipf row and column popularity, values
  // from a planted rank-4 model plus noise, rounded to 1..5 stars.
  index_t users = 0, items = 0;
  long nnz = 0;
  double user_alpha = 0.9, item_alpha = 0.9;
  // Training.
  int k = 10;
  std::string profile;       ///< devsim profile priced for modeled_s
  int budget = 0;            ///< fixed iteration budget
  double rmse_target = 0;    ///< held-out RMSE target
  int ttt_repeats = 1;       ///< training runs timed to the target
  int setup_repeats = 1;     ///< repetitions of the set-up phase
  int check_rows = 16;       ///< sampled users and items per training check
  // Serving.
  double stream_alpha = 0;   ///< Zipf exponent of the user stream; 0 = flat
  double foldin_share = 0;   ///< share of requests that are cold fold-ins
  int cold_users = 0;        ///< pool of cold users the fold-ins draw from
  double open_rate = 0;      ///< requests per second of the open-loop phases
  int nprobe = 8;            ///< IVF partitions scanned per query
  int recall_users = 0;      ///< users sampled for recall and layer probes
};

/// The named workload; `reduced` gives the seconds-fast variant used by the
/// benchmark's own test. Throws std::invalid_argument on an unknown name.
Workload workload_by_name(const std::string& name, bool reduced);
std::vector<std::string> workload_names();

struct ColdUser {
  std::vector<index_t> items;  ///< distinct, in generation order
  std::vector<real> ratings;
};

struct Inputs {
  index_t users = 0, items = 0;
  struct Rating {
    std::int32_t user, item;
    float value;
  };
  std::vector<Rating> ratings;
  std::vector<ColdUser> cold;
};

Inputs generate_inputs(const Workload& w, std::uint64_t seed);

/// Writes `user item rating` lines with 1-based ids (the library's default
/// text format). Throws std::runtime_error on I/O failure.
void write_ratings_text(const std::string& path, const Inputs& inputs);

/// Discrete Zipf(alpha) over ranks 0..n-1 by inverse CDF.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double alpha);
  std::size_t sample(Random& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Seeded serving stream: known-user top-N requests (Zipf or flat over the
/// users) mixed with cold-user fold-ins, with Poisson arrival gaps.
class RequestStream {
 public:
  struct Request {
    bool fold_in = false;
    index_t id = 0;  ///< user id, or index into the cold-user pool
  };

  RequestStream(const Workload& w, index_t users, std::size_t cold,
                std::uint64_t seed);

  Request next();
  double next_gap_s() { return rng_.exponential(1.0 / rate_); }

 private:
  Random rng_;
  double foldin_share_;
  double rate_;
  std::size_t cold_;
  index_t users_;
  bool flat_;
  ZipfTable zipf_;
  std::vector<index_t> user_of_rank_;
};

}  // namespace perfbench
