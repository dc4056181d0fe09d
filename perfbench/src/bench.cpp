#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

HostCpu HostCpu::read() {
  HostCpu out;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return out;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user and nice, so it is not added again).
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (fields >> v); ++i) {
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

double HostCpu::steal_share(const HostCpu& from, const HostCpu& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void Ledger::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::scoped_lock lk(m_);
  if (failures_.size() < 20) failures_.push_back(what);
}

std::vector<std::string> Ledger::failures() const {
  std::scoped_lock lk(m_);
  return failures_;
}

namespace {
std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Random::Random(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix(seed);
}

std::uint64_t Random::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Random::normal() {
  // Box–Muller; 1 - u keeps the logarithm's argument in (0, 1].
  const double u = 1.0 - uniform();
  const double v = uniform();
  return std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * M_PI * v);
}

double Random::exponential(double mean_value) {
  return -mean_value * std::log(1.0 - uniform());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + purpose;
  splitmix(x);
  return splitmix(x);
}

}  // namespace perfbench
