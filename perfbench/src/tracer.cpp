#include "tracer.hpp"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

thread_local std::vector<int> open_spans;

unsigned thread_tag() {
  return static_cast<unsigned>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

int Tracer::current() { return open_spans.empty() ? -1 : open_spans.back(); }

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  const double now = us(Clock::now());
  int id = 0;
  {
    std::scoped_lock lk(m_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, now, now, current(), thread_tag(), -1});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double now = us(Clock::now());
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::scoped_lock lk(m_);
  spans_[static_cast<std::size_t>(id)].end_us = now;
}

int Tracer::add(const char* name, Clock::time_point start,
                Clock::time_point stop, int parent, long arg) {
  if (!enabled_) return -1;
  std::scoped_lock lk(m_);
  spans_.push_back({name, us(start), us(stop), parent, thread_tag(), arg});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::count(const char* name, double value) {
  if (!enabled_) return;
  const double now = us(Clock::now());
  std::scoped_lock lk(m_);
  counters_.push_back({name, now, value});
}

std::size_t Tracer::span_count() const {
  std::scoped_lock lk(m_);
  return spans_.size();
}

std::size_t Tracer::spans_with_prefix(const std::string& prefix) const {
  std::scoped_lock lk(m_);
  std::size_t n = 0;
  for (const auto& s : spans_) {
    if (std::string_view(s.name).starts_with(prefix)) ++n;
  }
  return n;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::scoped_lock lk(m_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d",
                 first ? "" : ",\n", s.name, s.tid, s.start_us,
                 s.end_us - s.start_us, i, s.parent);
    if (s.arg >= 0) std::fprintf(f, ",\"arg\":%ld", s.arg);
    std::fputs("}}", f);
    first = false;
  }
  for (const Counter& c : counters_) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                 "\"args\":{\"value\":%.9g}}",
                 first ? "" : ",\n", c.name, c.ts_us, c.value);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
