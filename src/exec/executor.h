// Executor: the engine-facing layer of the parallel statistical runtime. It
// owns a ThreadPool, hands each run index of [begin, end) to a body exactly
// once, fills per-worker telemetry slots, and polls the caller's
// common::Budget between runs. Engines pair it with common::RngStream so run
// i draws the same random stream regardless of chunking, worker count or
// execution order — parallel and sequential results are bit-identical by
// construction.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "exec/telemetry.h"
#include "exec/thread_pool.h"

namespace quanta::exec {

class Executor {
 public:
  /// What a run body sees besides its index: the worker it landed on and
  /// that worker's private telemetry slot.
  struct WorkerContext {
    unsigned worker_id = 0;
    WorkerTelemetry* telemetry = nullptr;
  };

  using RunFn = std::function<void(std::uint64_t, WorkerContext&)>;

  /// 0 workers means default_worker_count() (QUANTA_JOBS env override). A
  /// 1-worker executor runs everything inline on the calling thread.
  explicit Executor(unsigned workers = 0) : pool_(workers) {}

  unsigned workers() const { return pool_.worker_count(); }

  /// Runs body(i, ctx) for each i in [begin, end). Every worker polls
  /// `budget` before each run (an inactive budget is never polled); once a
  /// poll trips, every worker stops at its next run boundary and the runs
  /// not yet started are skipped. Returns the first StopReason that tripped,
  /// or kCompleted when every run ran. Telemetry (when non-null) is
  /// *accumulated*, so one RunTelemetry can span several jobs (e.g. all
  /// batches of an SPRT test). Exceptions from the body propagate to the
  /// caller.
  common::StopReason for_each(std::uint64_t begin, std::uint64_t end,
                              const RunFn& body,
                              const common::Budget& budget = {},
                              RunTelemetry* telemetry = nullptr);

 private:
  ThreadPool pool_;
};

/// Process-wide executor shared by engine entry points that were not handed
/// an explicit one; sized by QUANTA_JOBS / hardware_concurrency.
Executor& global_executor();

/// Map-reduce over run indices: each worker folds its runs into a private
/// accumulator (seeded with a copy of `init`), and the per-worker
/// accumulators are merged in worker-id order after the job. The merged
/// result is bit-stable for a fixed worker count; it is independent of the
/// worker count only when `merge` is commutative and associative (integer
/// tallies are — prefer index-keyed output when it is not). `*stop` (when
/// non-null) receives for_each's StopReason.
template <typename Acc, typename Body, typename Merge>
Acc parallel_reduce(Executor& ex, std::uint64_t begin, std::uint64_t end,
                    Acc init, Body&& body, Merge&& merge,
                    const common::Budget& budget = {},
                    RunTelemetry* telemetry = nullptr,
                    common::StopReason* stop = nullptr) {
  struct Slot {
    alignas(64) Acc acc;
  };
  std::vector<Slot> slots(ex.workers(), Slot{init});
  const common::StopReason reason = ex.for_each(
      begin, end,
      [&](std::uint64_t i, Executor::WorkerContext& ctx) {
        body(slots[ctx.worker_id].acc, i, ctx);
      },
      budget, telemetry);
  if (stop != nullptr) *stop = reason;
  Acc out = std::move(init);
  for (Slot& s : slots) merge(out, std::move(s.acc));
  return out;
}

}  // namespace quanta::exec
