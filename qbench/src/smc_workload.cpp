// smc-estimate: a closed loop on one exec::Executor(4) over train-gate N=6,
// Pr[<=30](<> Train(0).Cross). Each cycle makes one long call (50,000 runs)
// and six short calls (2,000 runs, the daemon's default). Every call carries
// a far-deadline common::Budget, as governed daemon jobs do. Seeds cycle
// through a small set derived from the workload seed, and every answer must
// be bit-identical to the warm-up answer for the same (seed, runs).
//
// This workload never touches core, store or dbm: a symbolic change should
// not move it. Long calls expose parallel efficiency; short calls expose
// the fixed cost per call (the budget watchdog and the pool fan-out).
//
// The traced run repeats a few cycles, alternating untraced ones with ones
// that pass an exec::RunTelemetry into each call and put a span around it.
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/pred.h"
#include "exec/executor.h"
#include "exec/telemetry.h"
#include "models/train_gate.h"
#include "smc/estimate.h"
#include "smc/simulator.h"
#include "trace.h"
#include "workloads.h"

namespace qbench {

namespace {

using namespace quanta;

struct Answer {
  common::Verdict verdict = common::Verdict::kUnknown;
  std::size_t completed = 0;
  std::size_t hits = 0;
  double p_hat = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;

  bool operator==(const Answer& o) const {
    // Bit-identity: the doubles are compared as bytes, not numerically.
    return verdict == o.verdict && completed == o.completed && hits == o.hits &&
           std::memcmp(&p_hat, &o.p_hat, sizeof p_hat) == 0 &&
           std::memcmp(&ci_low, &o.ci_low, sizeof ci_low) == 0 &&
           std::memcmp(&ci_high, &o.ci_high, sizeof ci_high) == 0;
  }
};

struct Model {
  explicit Model(int n) : tg(models::make_train_gate(n)) {
    prop.time_bound = 30.0;
    prop.goal = common::loc_index_pred<ta::ConcreteState>(
        tg.trains[0], tg.system.process(tg.trains[0]).location_index("Cross"));
  }
  models::TrainGate tg;
  smc::TimeBoundedReach prop;
};

struct Call {
  std::size_t runs = 0;
  std::uint64_t seed = 0;
  bool operator<(const Call& o) const {
    return runs != o.runs ? runs < o.runs : seed < o.seed;
  }
};

class Session {
 public:
  Session(const Options& opt, Result& out) : opt_(opt), out_(out) {
    const std::size_t long_runs = opt.smoke ? 2'000 : 50'000;
    const std::size_t short_runs = opt.smoke ? 200 : 2'000;
    for (std::uint64_t i = 0; i < 2; ++i) {
      long_calls_.push_back({long_runs, mix_seed(opt.seed, i)});
    }
    for (std::uint64_t i = 0; i < 4; ++i) {
      short_calls_.push_back({short_runs, mix_seed(opt.seed, 100 + i)});
    }
  }

  /// Builds the executor and the model and makes every call of the seed set
  /// once. The first set-up records the reference answers; later ones must
  /// reproduce them.
  double setup() {
    const auto t0 = Clock::now();
    ex_ = std::make_unique<exec::Executor>(4);
    model_ = std::make_unique<Model>(opt_.smoke ? 3 : 6);
    for (const Call& c : long_calls_) call(c, *ex_);
    for (int pass = 0; pass < 2; ++pass) {
      for (const Call& c : short_calls_) call(c, *ex_);
    }
    return seconds_since(t0);
  }

  /// One cycle: a long call, then six short ones.
  template <typename Fn>
  void cycle(std::size_t i, Fn&& fn) {
    fn(long_calls_[i % long_calls_.size()], true);
    for (std::size_t k = 0; k < 6; ++k) {
      fn(short_calls_[(6 * i + k) % short_calls_.size()], false);
    }
  }

  /// One public call, checked against the reference. Returns wall seconds.
  double call(const Call& c, exec::Executor& ex,
              exec::RunTelemetry* telemetry = nullptr) {
    const common::Budget budget =
        common::Budget::deadline_after(std::chrono::hours(1));
    const auto t0 = Clock::now();
    const smc::Estimate est = smc::estimate_probability_runs(
        model_->tg.system, model_->prop, c.runs, /*alpha=*/0.05, c.seed, ex,
        telemetry, budget);
    const double s = seconds_since(t0);
    Answer a{est.verdict, est.completed, est.hits, est.p_hat, est.ci_low,
             est.ci_high};
    out_.attempt();
    auto [it, fresh] = reference_.emplace(c, a);
    if (fresh && opt_.corrupt_expected) ++it->second.hits;
    if (a.verdict != common::Verdict::kHolds || a.completed != c.runs ||
        !(a == it->second)) {
      out_.fail("smc runs=" + std::to_string(c.runs) + " seed=" +
                std::to_string(c.seed) + ": hits=" + std::to_string(a.hits) +
                " expected " + std::to_string(it->second.hits));
    }
    return s;
  }

  exec::Executor& executor() { return *ex_; }
  const Call& first_short() const { return short_calls_.front(); }

 private:
  const Options& opt_;
  Result& out_;
  std::vector<Call> long_calls_;
  std::vector<Call> short_calls_;
  std::map<Call, Answer> reference_;
  std::unique_ptr<exec::Executor> ex_;
  std::unique_ptr<Model> model_;
};

void traced(const Options& opt, Session& sess, Result& out) {
  const std::size_t cycles = opt.smoke ? 1 : 4;
  Tracer tr;
  const std::uint32_t n_cycle = tr.name("smc.cycle");
  const std::uint32_t n_long = tr.name("smc.estimate.long");
  const std::uint32_t n_short = tr.name("smc.estimate.short");
  exec::RunTelemetry long_tel;
  std::vector<double> fixed_ms;
  std::size_t long_calls = 0, long_runs = 0;
  const unsigned workers = sess.executor().workers();
  // Untraced and traced cycles over the same calls alternate, so a slow
  // spell of the machine lands on both sides of trace.overhead_ratio.
  double plain_s = 0.0, traced_s = 0.0;
  for (std::size_t i = 0; i < cycles; ++i) {
    const auto t0 = Clock::now();
    sess.cycle(i, [&](const Call& c, bool) { sess.call(c, sess.executor()); });
    plain_s += seconds_since(t0);

    const std::int32_t root = tr.open(n_cycle);
    sess.cycle(i, [&](const Call& c, bool is_long) {
      if (is_long) {
        Tracer::Scope s(tr, n_long);
        sess.call(c, sess.executor(), &long_tel);
        ++long_calls;
        long_runs += c.runs;
        return;
      }
      exec::RunTelemetry tel;
      const std::int32_t id = tr.open(n_short);
      sess.call(c, sess.executor(), &tel);
      tr.close(id);
      fixed_ms.push_back(1000.0 * (tr.seconds(id) - tel.busy_seconds() / workers));
    });
    tr.close(root);
    traced_s += tr.seconds(root);
  }
  tr.write(opt.run_dir + "/spans-smc-estimate.tsv");

  const double calls = static_cast<double>(long_calls);
  const double busy = long_tel.busy_seconds();
  const double steps = static_cast<double>(long_tel.sim_steps());
  out.metric("exec.parallelism", long_tel.parallelism(), "ratio");
  out.metric("exec.idle_share",
             1.0 - busy / (long_tel.wall_seconds * workers), "ratio");
  out.metric("exec.busy_s", busy / calls, "s");
  out.metric("exec.cpu_s", long_tel.cpu_seconds() / calls, "s");
  out.metric("smc.sim_steps", steps / calls, "count");
  out.metric("smc.steps_per_run", steps / static_cast<double>(long_runs),
             "steps/run");
  out.metric("smc.steps_per_busy_s", steps / busy, "1/s");
  out.metric("smc.call_fixed_ms", median(fixed_ms), "ms");
  out.metric("trace.overhead_ratio", traced_s / plain_s, "ratio");
  Result::detail("smc long calls: %s", long_tel.summary().c_str());
}

}  // namespace

void run_smc_estimate(const Options& opt, Result& out) {
  Session sess(opt, out);
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) setup_s.push_back(sess.setup());

  // Worker-count independence: a 1-worker executor must give the 4-worker
  // answer bit for bit.
  {
    exec::Executor one(1);
    const std::uint64_t failed = out.failed();
    sess.call(sess.first_short(), one);
    Result::detail("smc 1-worker answer (seed %llu, %zu runs): %s",
                   static_cast<unsigned long long>(sess.first_short().seed),
                   sess.first_short().runs,
                   out.failed() == failed ? "identical to 4 workers"
                                          : "differs from 4 workers");
  }

  if (opt.trace) {
    traced(opt, sess, out);
    return;
  }

  // A percentile needs 10 samples beyond it: p95 of the short calls needs
  // 200, p50 of the long ones 20.
  const std::size_t min_short = opt.smoke ? 1 : 200;
  const std::size_t min_long = opt.smoke ? 1 : 20;
  std::vector<double> long_ms, short_ms;
  double long_s = 0.0;
  std::size_t long_runs = 0;
  const auto t0 = Clock::now();
  const double cap = 3.0 * opt.seconds;
  for (std::size_t i = 0;
       seconds_since(t0) < opt.seconds ||
       ((short_ms.size() < min_short || long_ms.size() < min_long) &&
        seconds_since(t0) < cap);
       ++i) {
    sess.cycle(i, [&](const Call& c, bool is_long) {
      const double s = sess.call(c, sess.executor());
      if (is_long) {
        long_ms.push_back(1000.0 * s);
        long_s += s;
        long_runs += c.runs;
      } else {
        short_ms.push_back(1000.0 * s);
      }
    });
  }

  out.metric("setup_s", median(setup_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("throughput_per_s", static_cast<double>(long_runs) / long_s, "1/s");
  out.metric("light_ms_tmean", trimmed_mean(short_ms), "ms");
  out.metric("light_ms_p95", quantile(short_ms, 0.95), "ms");
  out.metric("heavy_ms_tmean", trimmed_mean(long_ms), "ms");
  Result::detail("smc.runs_per_s %.0f (long calls, n=%zu, p50 %.1f ms); "
                 "smc.short_call_ms_p50 %.3f ms, smc.short_call_ms_p95 %.3f ms "
                 "(n=%zu)",
                 static_cast<double>(long_runs) / long_s, long_ms.size(),
                 median(long_ms), median(short_ms), quantile(short_ms, 0.95),
                 short_ms.size());
}

}  // namespace qbench
