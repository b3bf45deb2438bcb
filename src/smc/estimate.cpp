#include "smc/estimate.h"

#include <algorithm>

#include "ckpt/io.h"
#include "ckpt/snapshot_ta.h"
#include "common/fault.h"
#include "common/stats.h"
#include "smc/validate.h"
#include "smc/worker_sim.h"

namespace quanta::smc {

namespace {

/// Section of a Provider::kStatistical checkpoint: the prefix-contiguous
/// tally (requested runs, completed runs, hits).
constexpr std::uint32_t kSecSmcTally = 1;

/// Batch granularity of the sampling loop. A batch is the unit a checkpoint
/// records and the unit a budget stop discards, so it bounds how much work a
/// crash or a stop can lose.
constexpr std::size_t kBatch = 1024;

std::uint64_t estimate_fingerprint(const ta::System& sys,
                                   const TimeBoundedReach& prop,
                                   std::size_t runs, double alpha,
                                   std::uint64_t seed) {
  ckpt::Fingerprint fp;
  fp.mix(0x534D4300u)
      .mix(ckpt::fingerprint(sys))
      .mix_f64(prop.time_bound)
      .mix(runs)
      .mix_f64(alpha)
      .mix(seed)
      .mix_str(prop.goal.canonical());
  return fp.digest();
}

void finish_estimate(Estimate* est, double alpha) {
  if (est->completed == est->runs) {
    est->verdict = common::Verdict::kHolds;
    est->stop = common::StopReason::kCompleted;
  }
  if (est->completed > 0) {
    est->p_hat = static_cast<double>(est->hits) /
                 static_cast<double>(est->completed);
    auto [lo, hi] = common::clopper_pearson(est->hits, est->completed, alpha);
    est->ci_low = lo;
    est->ci_high = hi;
  }
}

/// The one sampling loop: simulate in fixed batches of consecutive run
/// indices so that any stop leaves a prefix-contiguous tally. A batch the
/// budget stopped mid-air is discarded (re-simulated on resume) — partial
/// batches would record "which runs finished", which depends on scheduling
/// and would break bit-reproducibility. With checkpointing off nothing is
/// loaded or saved.
Estimate estimate_batched(const ta::System& sys, const TimeBoundedReach& prop,
                          std::size_t runs, double alpha, std::uint64_t seed,
                          exec::Executor& ex, exec::RunTelemetry* telemetry,
                          const common::Budget& budget,
                          const ckpt::Options& checkpoint) {
  const common::RngStream streams(seed);
  internal::WorkerSims sims(sys, ex.workers());

  Estimate est;
  est.runs = runs;
  est.resume.path = checkpoint.path;
  const std::uint64_t fp =
      checkpoint.enabled()
          ? estimate_fingerprint(sys, prop, runs, alpha, seed)
          : 0;

  std::uint64_t done = 0;
  std::uint64_t hits = 0;
  if (checkpoint.enabled() && checkpoint.resume) {
    ckpt::Snapshot snap;
    est.resume.load = ckpt::load(checkpoint.path, fp,
                                 ckpt::Provider::kStatistical, &snap);
    if (est.resume.load == ckpt::LoadStatus::kOk) {
      const ckpt::Section* sec = snap.find(kSecSmcTally);
      bool ok = false;
      if (sec != nullptr) {
        ckpt::io::Reader r(sec->payload);
        const std::uint64_t saved_runs = r.u64();
        const std::uint64_t saved_done = r.u64();
        const std::uint64_t saved_hits = r.u64();
        if (r.ok() && saved_runs == runs && saved_done <= runs &&
            saved_hits <= saved_done) {
          done = saved_done;
          hits = saved_hits;
          est.resume.resumed = true;
          ok = true;
        }
      }
      if (!ok) est.resume.load = ckpt::LoadStatus::kCorrupt;
    }
  }

  auto save_ckpt = [&]() {
    ckpt::Snapshot snap;
    snap.provider = ckpt::Provider::kStatistical;
    snap.fingerprint = fp;
    ckpt::io::Writer w;
    w.u64(runs);
    w.u64(done);
    w.u64(hits);
    snap.add_section(kSecSmcTally, std::move(w));
    if (ckpt::save(checkpoint.path, snap)) est.resume.saved = true;
  };

  const std::uint64_t interval =
      checkpoint.enabled() ? checkpoint.effective_interval() : 0;
  std::uint64_t runs_since_save = 0;
  while (done < runs) {
    // A kDeadline fault here trips the executor's first budget poll.
    common::FaultInjector::site("smc.estimate.batch");
    const std::uint64_t batch = std::min<std::uint64_t>(kBatch, runs - done);
    common::StopReason stop = common::StopReason::kCompleted;
    const std::uint64_t batch_hits = exec::parallel_reduce(
        ex, done, done + batch, std::uint64_t{0},
        [&](std::uint64_t& acc, std::uint64_t i,
            exec::Executor::WorkerContext& ctx) {
          Simulator& sim = sims.at(ctx.worker_id);
          sim.reseed(streams.seed_for(i));
          RunResult r = sim.run(prop);
          ctx.telemetry->sim_steps += r.steps;
          if (r.satisfied) {
            ++acc;
            ++ctx.telemetry->hits;
          }
        },
        [](std::uint64_t& out, std::uint64_t&& in) { out += in; },
        budget, telemetry, &stop);
    if (stop != common::StopReason::kCompleted) {
      // Stopped mid-batch: drop the partial tally, keep the prefix.
      est.stop = stop;
      break;
    }
    done += batch;
    hits += batch_hits;
    if (interval > 0) {
      runs_since_save += batch;
      if (runs_since_save >= interval) {
        runs_since_save = 0;
        save_ckpt();
      }
    }
  }

  est.completed = done;
  est.hits = hits;
  if (done < runs && checkpoint.enabled() && checkpoint.save_on_stop) {
    save_ckpt();
  }
  finish_estimate(&est, alpha);
  return est;
}

}  // namespace

Estimate estimate_probability_runs(const ta::System& sys,
                                   const TimeBoundedReach& prop,
                                   std::size_t runs, double alpha,
                                   std::uint64_t seed, exec::Executor& ex,
                                   exec::RunTelemetry* telemetry,
                                   const common::Budget& budget,
                                   const ckpt::Options& checkpoint) {
  internal::require_unit_open("smc.estimate_probability_runs", "alpha", alpha);
  internal::require_positive("smc.estimate_probability_runs", "runs", runs);
  return common::governed(
      [&] {
        return estimate_batched(sys, prop, runs, alpha, seed, ex, telemetry,
                                budget, checkpoint);
      },
      [runs, &checkpoint](common::StopReason r) {
        Estimate est;
        est.runs = runs;
        est.stop = r;
        est.resume.path = checkpoint.path;
        return est;
      });
}

Estimate estimate_probability_runs(const ta::System& sys,
                                   const TimeBoundedReach& prop,
                                   std::size_t runs, double alpha,
                                   std::uint64_t seed,
                                   const common::Budget& budget,
                                   const ckpt::Options& checkpoint) {
  return estimate_probability_runs(sys, prop, runs, alpha, seed,
                                   exec::global_executor(), nullptr, budget,
                                   checkpoint);
}

Estimate estimate_probability(const ta::System& sys,
                              const TimeBoundedReach& prop, double epsilon,
                              double delta, std::uint64_t seed,
                              exec::Executor& ex,
                              exec::RunTelemetry* telemetry,
                              const common::Budget& budget) {
  internal::require_unit_open("smc.estimate_probability", "epsilon", epsilon);
  internal::require_unit_open("smc.estimate_probability", "delta", delta);
  std::size_t runs = common::chernoff_sample_count(epsilon, delta);
  return estimate_probability_runs(sys, prop, runs, delta, seed, ex, telemetry,
                                   budget);
}

Estimate estimate_probability(const ta::System& sys,
                              const TimeBoundedReach& prop, double epsilon,
                              double delta, std::uint64_t seed,
                              const common::Budget& budget) {
  return estimate_probability(sys, prop, epsilon, delta, seed,
                              exec::global_executor(), nullptr, budget);
}

}  // namespace quanta::smc
