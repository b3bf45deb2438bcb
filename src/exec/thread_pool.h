// Fixed pool of worker threads distributing half-open index ranges through a
// shared atomic cursor — the scheduling substrate of the parallel statistical
// runtime (src/exec). Workers pull dynamically-sized chunks (guided
// self-scheduling: each claim takes remaining/(4*workers), never less than
// min_chunk), so late stragglers get small chunks and the pool load-balances
// without a work-stealing deque. The caller participates as worker 0, which
// makes a 1-worker pool run entirely inline on the calling thread: the
// sequential path of every engine is just a 1-worker executor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace quanta::exec {

/// Worker count picked by the QUANTA_JOBS environment variable when it holds
/// a whole positive decimal number (clamped to 1024); anything else — unset,
/// empty, non-numeric, zero/negative, trailing garbage like "4x", or
/// out-of-range — falls back to std::thread::hardware_concurrency() (>= 1).
unsigned default_worker_count();

class ThreadPool {
 public:
  /// body(chunk_begin, chunk_end, worker_id): processes one claimed chunk.
  /// Returning false stops the job: no worker claims another chunk.
  using ChunkFn = std::function<bool(std::uint64_t, std::uint64_t, unsigned)>;

  /// 0 workers means default_worker_count(). A pool of n workers owns n-1
  /// background threads; the caller of parallel_chunks is worker 0.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const { return workers_; }

  /// Runs `body` over [begin, end) split into dynamically-sized chunks.
  /// Blocks until every claimed chunk finished. If a body throws, the first
  /// exception is rethrown here and the remaining chunks are abandoned; if a
  /// body returns false, the remaining chunks are abandoned silently.
  /// Concurrent callers are serialized (the pool runs one job at a time).
  void parallel_chunks(std::uint64_t begin, std::uint64_t end,
                       const ChunkFn& body, std::uint64_t min_chunk = 1);

 private:
  void worker_loop(unsigned id);
  /// One worker draining the current job's cursor.
  void drain(unsigned id);
  bool claim(std::uint64_t* b, std::uint64_t* e);

  unsigned workers_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  ///< bumped per job; workers wait on it
  unsigned active_ = 0;           ///< background workers still in the job
  bool shutdown_ = false;
  std::exception_ptr error_;      ///< first exception of the current job

  // Current job; written under mu_ before the generation bump.
  const ChunkFn* body_ = nullptr;
  std::uint64_t end_ = 0;
  std::uint64_t min_chunk_ = 1;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<bool> abort_{false};  ///< set on exception or stop; stops all

  std::mutex job_mu_;  ///< serializes parallel_chunks callers
};

}  // namespace quanta::exec
