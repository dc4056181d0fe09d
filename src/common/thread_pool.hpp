// A small fixed-size thread pool with a blocking parallel_for.
//
// Follows CP.4 (think in tasks), CP.41 (minimize thread creation): one pool
// of std::jthread workers lives for the lifetime of the pool object; loops
// are divided into contiguous chunks so each worker touches a dense index
// range (Per.19: access memory predictably).
//
// Concurrent callers are part of the contract. Any number of threads may
// call parallel_for on one pool at once: each call is its own job, the
// calling thread runs chunks of its own job, and idle workers join whichever
// open job has the fewest participants. A caller therefore always makes
// progress on its own, even when every worker is busy elsewhere. A call made
// from inside a running chunk of the same pool (a nested call) runs inline.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alsmf {

class ThreadPool {
 public:
  using Fn = std::function<void(std::size_t, std::size_t, unsigned)>;

  /// Creates a pool of `threads` participants (0 means
  /// hardware_concurrency()): threads - 1 background workers plus the
  /// thread that calls parallel_for.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants per job. Every worker index handed to fn is < size(), and
  /// no two chunks of one job run concurrently with the same index, so
  /// per-worker scratch can be sized by size().
  unsigned size() const { return size_; }

  /// Runs fn(begin..end) partitioned into contiguous chunks and blocks until
  /// every chunk completes. fn receives (chunk_begin, chunk_end,
  /// worker_index). Exceptions from any chunk are rethrown on the caller.
  ///
  /// Degenerate ranges are safe by contract, not caller discipline: an
  /// empty range (begin == end) and a reversed one (end < begin) are both
  /// no-ops — fn is never invoked and no worker synchronization happens.
  /// Callers that batch variable-size work (e.g. the serve micro-batcher
  /// draining zero fold-ins) rely on this.
  void parallel_for(std::size_t begin, std::size_t end, const Fn& fn);

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  struct Job {
    const Fn* fn = nullptr;
    std::size_t next = 0, end = 0;  // unclaimed range (guarded by m_)
    std::size_t chunk = 0;          // chunk size per claim
    unsigned slots = 1;             // worker indices handed out; caller has 0
    unsigned active = 1;            // participants still running chunks
    std::exception_ptr error;
  };

  /// Claims and runs chunks of `job` as worker `slot` until none are left.
  void run_chunks(Job& job, unsigned slot);
  void worker_loop();

  unsigned size_;
  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Job*> open_;  // jobs with unclaimed chunks
  bool stop_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace alsmf
