#include "exec/executor.h"

#include <atomic>
#include <chrono>

namespace quanta::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

common::StopReason Executor::for_each(std::uint64_t begin, std::uint64_t end,
                                      const RunFn& body,
                                      const common::Budget& budget,
                                      RunTelemetry* telemetry) {
  if (begin >= end) return common::StopReason::kCompleted;
  // One cache-line-padded slot per worker: the hot path increments plain
  // integers, and the slots are only read after the pool quiesced.
  struct Slot {
    alignas(64) WorkerTelemetry t;
  };
  std::vector<Slot> slots(pool_.worker_count());
  const bool governed = budget.active();
  // The first tripped reason wins; kCompleted doubles as "not stopped".
  std::atomic<common::StopReason> stop{common::StopReason::kCompleted};
  // Polled before every run: false once this or any other worker saw the
  // budget trip, so all workers stop at their next run boundary.
  auto may_run = [&] {
    constexpr common::StopReason kGo = common::StopReason::kCompleted;
    if (stop.load(std::memory_order_relaxed) != kGo) return false;
    const common::StopReason r = budget.poll(0);
    if (r == kGo) return true;
    common::StopReason expected = kGo;
    stop.compare_exchange_strong(expected, r, std::memory_order_relaxed);
    return false;
  };
  const Clock::time_point wall0 = Clock::now();

  ThreadPool::ChunkFn chunk = [&](std::uint64_t b, std::uint64_t e,
                                  unsigned worker) {
    WorkerTelemetry& t = slots[worker].t;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = thread_cpu_seconds();
    WorkerContext ctx{worker, &t};
    bool go = true;
    for (std::uint64_t i = b; i < e; ++i) {
      if (governed && !may_run()) {
        go = false;
        break;
      }
      ++t.runs_started;
      body(i, ctx);
      ++t.runs_completed;
    }
    t.cpu_seconds += thread_cpu_seconds() - cpu0;
    t.busy_seconds += seconds_since(t0);
    return go;
  };
  pool_.parallel_chunks(begin, end, chunk);

  if (telemetry) {
    std::vector<WorkerTelemetry> out;
    out.reserve(slots.size());
    for (Slot& s : slots) out.push_back(s.t);
    telemetry->accumulate(out, seconds_since(wall0));
  }
  return stop.load(std::memory_order_relaxed);
}

Executor& global_executor() {
  static Executor ex;
  return ex;
}

}  // namespace quanta::exec
