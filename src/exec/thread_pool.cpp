#include "exec/thread_pool.h"

#include <algorithm>

#include "common/env.h"
#include "common/fault.h"

namespace quanta::exec {

unsigned default_worker_count() {
  // The whole value must be a positive decimal number (common::env_u64):
  // trailing garbage ("4x"), empty strings, zero/negative counts and
  // out-of-range values all fall back to hardware_concurrency rather than
  // half-parsing.
  if (const auto v = common::env_u64("QUANTA_JOBS", 1024)) {
    return static_cast<unsigned>(*v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned workers)
    : workers_(workers > 0 ? workers : default_worker_count()) {
  threads_.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(unsigned id) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    drain(id);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

bool ThreadPool::claim(std::uint64_t* b, std::uint64_t* e) {
  std::uint64_t cur = cursor_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= end_) return false;
    const std::uint64_t remaining = end_ - cur;
    std::uint64_t n = std::max<std::uint64_t>(
        min_chunk_, remaining / (std::uint64_t{4} * workers_));
    n = std::min(n, remaining);
    if (cursor_.compare_exchange_weak(cur, cur + n,
                                      std::memory_order_relaxed)) {
      *b = cur;
      *e = cur + n;
      return true;
    }
  }
}

void ThreadPool::drain(unsigned id) {
  const ChunkFn& body = *body_;
  for (;;) {
    if (abort_.load(std::memory_order_relaxed)) return;
    std::uint64_t b, e;
    if (!claim(&b, &e)) return;
    try {
      common::FaultInjector::site("exec.thread_pool.chunk");
      if (!body(b, e, id)) {
        abort_.store(true, std::memory_order_relaxed);
        return;
      }
    } catch (...) {
      abort_.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
      return;
    }
  }
}

void ThreadPool::parallel_chunks(std::uint64_t begin, std::uint64_t end,
                                 const ChunkFn& body,
                                 std::uint64_t min_chunk) {
  if (begin >= end) return;
  std::lock_guard<std::mutex> job_lock(job_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    end_ = end;
    min_chunk_ = std::max<std::uint64_t>(1, min_chunk);
    cursor_.store(begin, std::memory_order_relaxed);
    abort_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    active_ = workers_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  drain(0);  // the caller is worker 0
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return active_ == 0; });
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace quanta::exec
