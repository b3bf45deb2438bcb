#include "smc/cdf.h"

#include <algorithm>
#include <stdexcept>

#include "smc/validate.h"
#include "smc/worker_sim.h"

namespace quanta::smc {

HitTimesResult sample_hit_times(const ta::System& sys,
                                const TimeBoundedReach& prop,
                                std::size_t runs, std::uint64_t seed,
                                exec::Executor& ex,
                                const common::Budget& budget,
                                exec::RunTelemetry* telemetry) {
  internal::require_positive("smc.sample_hit_times", "runs", runs);
  return common::governed(
      [&] {
        const common::RngStream streams(seed);
        internal::WorkerSims sims(sys, ex.workers());

        // Keyed by run index (each slot written by exactly one worker), then
        // compacted in index order: the series is identical for every worker
        // count. kSkipped marks runs the executor never reached after a
        // budget stop — distinct from kMiss, a completed unsatisfied run.
        constexpr double kMiss = -1.0;
        constexpr double kSkipped = -2.0;
        std::vector<double> per_run(runs, kSkipped);
        const common::StopReason stop = ex.for_each(
            0, runs,
            [&](std::uint64_t i, exec::Executor::WorkerContext& ctx) {
              Simulator& sim = sims.at(ctx.worker_id);
              sim.reseed(streams.seed_for(i));
              RunResult r = sim.run(prop);
              ctx.telemetry->sim_steps += r.steps;
              if (r.satisfied) {
                ++ctx.telemetry->hits;
                per_run[static_cast<std::size_t>(i)] = r.hit_time;
              } else {
                per_run[static_cast<std::size_t>(i)] = kMiss;
              }
            },
            budget, telemetry);

        HitTimesResult result;
        result.runs = runs;
        result.times.reserve(runs);
        for (double t : per_run) {
          if (t == kSkipped) continue;
          ++result.completed;
          if (t != kMiss) result.times.push_back(t);
        }
        result.stop = stop;
        if (stop == common::StopReason::kCompleted) {
          result.verdict = common::Verdict::kHolds;
        }
        return result;
      },
      [runs](common::StopReason r) {
        HitTimesResult result;
        result.runs = runs;
        result.stop = r;
        return result;
      });
}

std::vector<double> first_hit_times(const ta::System& sys,
                                    const TimeBoundedReach& prop,
                                    std::size_t runs, std::uint64_t seed,
                                    exec::Executor& ex,
                                    exec::RunTelemetry* telemetry) {
  return sample_hit_times(sys, prop, runs, seed, ex, common::Budget{},
                          telemetry)
      .times;
}

std::vector<double> first_hit_times(const ta::System& sys,
                                    const TimeBoundedReach& prop,
                                    std::size_t runs, std::uint64_t seed) {
  return first_hit_times(sys, prop, runs, seed, exec::global_executor());
}

CdfSeries empirical_cdf(const std::vector<double>& hit_times,
                        std::size_t total_runs, double horizon, int points) {
  if (points < 2) {
    throw std::invalid_argument(quanta::context(
        "smc.empirical_cdf", "points must be at least 2, got ", points));
  }
  if (!(horizon > 0.0)) {
    throw std::invalid_argument(quanta::context(
        "smc.empirical_cdf", "horizon must be positive, got ", horizon));
  }
  if (total_runs == 0) {
    throw std::invalid_argument(
        quanta::context("smc.empirical_cdf", "total_runs must be positive"));
  }
  std::vector<double> sorted = hit_times;
  std::sort(sorted.begin(), sorted.end());
  CdfSeries series;
  series.grid.reserve(static_cast<std::size_t>(points));
  series.prob.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    double t = horizon * static_cast<double>(i) / static_cast<double>(points - 1);
    auto it = std::upper_bound(sorted.begin(), sorted.end(), t);
    series.grid.push_back(t);
    series.prob.push_back(static_cast<double>(it - sorted.begin()) /
                          static_cast<double>(total_runs));
  }
  return series;
}

}  // namespace quanta::smc
