// Shared plumbing of the end-to-end benchmark: clocks and statistics, the
// ledger of attempted and failed operations, the metric report, and a small
// seeded generator that keeps the benchmark's inputs independent of the
// library's own random streams.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Median of the samples (0 for none).
double median(std::vector<double> v);
/// Linear-interpolated percentile p in [0, 100] (0 for none).
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// CPU seconds used by every thread of this process so far.
double process_cpu_seconds();

/// Host CPU time split read from /proc/stat: the steal share of a window is
/// (steal delta) / (all-states delta). Reads as zero where the file is
/// missing.
struct HostCpu {
  std::uint64_t steal = 0, total = 0;
  static HostCpu read();
  static double steal_share(const HostCpu& from, const HostCpu& to);
};

/// Counts operations and failed operations. A failed correctness check
/// counts as a failed operation; the first few failures are kept for the
/// run's diagnostics on stderr.
class Ledger {
 public:
  /// Records one operation; `ok` false makes it a failed one.
  void record(bool ok, const std::string& what);
  /// Records `n` operations that all succeeded.
  void record_ok(long n) { attempted_ += n; }

  long attempted() const { return attempted_.load(); }
  long failed() const { return failed_.load(); }
  std::vector<std::string> failures() const;

 private:
  std::atomic<long> attempted_{0};
  std::atomic<long> failed_{0};
  mutable std::mutex m_;
  std::vector<std::string> failures_;  // guarded by m_
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Every metric a run measured, keyed by its BENCHMARK.json name.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void per_layer(const std::string& name, double value,
                 const std::string& unit) {
    layer[name] = {value, unit};
  }
};

/// splitmix64-seeded xoshiro256**, as in the reference implementation.
class Random {
 public:
  explicit Random(std::uint64_t seed);
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double normal();
  double exponential(double mean);

 private:
  std::uint64_t s_[4];
};

/// Derives an independent stream seed for `purpose` from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

}  // namespace perfbench
