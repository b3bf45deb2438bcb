// ExplorationObserver: instrumentation hook of the exploration core. Engines
// report stored/explored states through it and hand over the final stats and
// store occupancy, so tracing, progress reporting and (later) parallel-worker
// telemetry can be bolted on without touching any engine again.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "core/search.h"
#include "core/state_store.h"

namespace quanta::core {

class ExplorationObserver {
 public:
  virtual ~ExplorationObserver() = default;

  /// A new state was interned (id is its dense store id).
  virtual void on_state_stored(std::int32_t /*id*/, std::size_t /*total_stored*/) {}
  /// A waiting state was popped and visited.
  virtual void on_state_explored(std::int32_t /*id*/) {}
  /// The search finished (goal found, exhausted, or truncated).
  virtual void on_search_done(const SearchStats& /*stats*/,
                              const StoreMetrics& /*metrics*/) {}
};

/// Debug pacing: sleeps `us` microseconds per explored state, stretching a
/// search to human / CI timescales so a deadline, a SIGKILL or a checkpoint
/// lands mid-run. Used by the daemon's throttle_us knob and ckpt_smoke.
class PacingObserver final : public ExplorationObserver {
 public:
  explicit PacingObserver(std::uint64_t us) : us_(us) {}

  void on_state_explored(std::int32_t id) override;

  /// The observer to hand an engine: nullptr when no pacing was asked for,
  /// so an unpaced run pays no per-state call.
  ExplorationObserver* or_null() { return us_ != 0 ? this : nullptr; }

 private:
  std::uint64_t us_;
};

/// Ready-made observer collecting throughput and occupancy figures:
/// states/second, peak stored states, and the store's bucket metrics.
class StatsObserver final : public ExplorationObserver {
 public:
  StatsObserver() : start_(Clock::now()) {}

  void on_state_stored(std::int32_t id, std::size_t total_stored) override;
  void on_state_explored(std::int32_t id) override;
  void on_search_done(const SearchStats& stats,
                      const StoreMetrics& metrics) override;

  std::size_t peak_stored() const { return peak_stored_; }
  std::size_t explored() const { return explored_; }
  double elapsed_seconds() const { return elapsed_; }
  /// Explored states per second over the whole search (0 until done).
  double states_per_second() const;
  const SearchStats& stats() const { return stats_; }
  const StoreMetrics& store_metrics() const { return metrics_; }

  /// One-line human-readable summary for logs and benches.
  std::string summary() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
  std::size_t peak_stored_ = 0;
  std::size_t explored_ = 0;
  double elapsed_ = 0.0;
  SearchStats stats_;
  StoreMetrics metrics_;
};

}  // namespace quanta::core
