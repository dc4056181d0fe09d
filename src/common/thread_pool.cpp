#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace alsmf {

namespace {
// The pool whose chunk this thread is running, if any (nested-call check).
thread_local const ThreadPool* tl_running = nullptr;
}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : size_(std::max(1u, threads ? threads
                                 : std::thread::hardware_concurrency())) {
  workers_.reserve(size_ - 1);
  for (unsigned i = 1; i < size_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  workers_.clear();  // join while the state they wait on is still alive
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const Fn& fn) {
  if (begin >= end) return;  // empty/reversed ranges: documented no-op
  const std::size_t n = end - begin;
  // Small ranges, single-participant pools and nested calls run inline.
  if (n == 1 || size_ == 1 || tl_running == this) {
    fn(begin, end, 0);
    return;
  }

  Job job;
  job.fn = &fn;
  job.next = begin;
  job.end = end;
  job.chunk = std::max<std::size_t>(1, n / (std::size_t{size_} * 8));
  {
    std::scoped_lock lk(m_);
    open_.push_back(&job);
  }
  cv_work_.notify_all();
  run_chunks(job, 0);

  std::unique_lock lk(m_);
  cv_done_.wait(lk, [&] { return job.active == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::run_chunks(Job& job, unsigned slot) {
  const ThreadPool* outer = std::exchange(tl_running, this);
  while (true) {
    std::size_t b, e;
    {
      std::scoped_lock lk(m_);
      if (job.next >= job.end) break;
      b = job.next;
      e = std::min(job.end, b + job.chunk);
      job.next = e;
      // Fully claimed: no new participant may join. The caller is still
      // active here, so the job outlives every joined worker.
      if (e == job.end) std::erase(open_, &job);
    }
    try {
      (*job.fn)(b, e, slot);
    } catch (...) {
      std::scoped_lock lk(m_);
      if (!job.error) job.error = std::current_exception();
    }
  }
  tl_running = outer;
  bool last = false;
  {
    std::scoped_lock lk(m_);
    last = --job.active == 0;
  }
  if (last) cv_done_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock lk(m_);
  while (true) {
    cv_work_.wait(lk, [&] { return stop_ || !open_.empty(); });
    if (stop_) return;
    // Join the open job with the fewest participants, so concurrent callers
    // share the workers instead of queueing behind one another. A worker
    // joins a job at most once (it leaves only when the job is fully
    // claimed), so slots never exceed size() - 1.
    Job* job = *std::min_element(
        open_.begin(), open_.end(),
        [](const Job* a, const Job* b) { return a->slots < b->slots; });
    const unsigned slot = job->slots++;
    ++job->active;
    lk.unlock();
    run_chunks(*job, slot);
    lk.lock();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace alsmf
