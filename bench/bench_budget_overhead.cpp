// Overhead of the resource-governance layer on the symbolic hot path:
// train-gate reachability with (a) no budget (the amortized poll is skipped
// entirely), (b) an active but generous budget (deadline + memory ceiling
// polled every core::kBudgetPollStride expansions), and (c) a cancel-token
// budget (the token observed by the same amortized poll).
// Acceptance: the governed run stays within ~2% of the ungoverned one.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/budget.h"
#include "core/explore.h"
#include "mc/reachability.h"
#include "models/train_gate.h"

using namespace quanta;

namespace {

mc::StatePredicate all_crossing(const models::TrainGate& tg) {
  std::vector<int> cross;
  for (int t : tg.trains) {
    cross.push_back(tg.system.process(t).location_index("Cross"));
  }
  auto trains = tg.trains;
  return [trains, cross](const ta::SymState& s) {
    for (std::size_t i = 0; i < trains.size(); ++i) {
      if (s.locs[static_cast<std::size_t>(trains[i])] != cross[i]) return false;
    }
    return true;  // unreachable for N >= 2: forces a full exploration
  };
}

double run_once(const models::TrainGate& tg, const mc::StatePredicate& pred,
                const common::Budget& budget, std::size_t* states) {
  mc::ReachOptions opts;
  opts.record_trace = false;
  opts.limits.budget = budget;
  bench::Stopwatch sw;
  auto r = mc::reachable(tg.system, pred, opts);
  *states = r.stats.states_stored;
  if (r.verdict != common::Verdict::kViolated) {
    std::fprintf(stderr, "unexpected verdict under a generous budget\n");
  }
  return sw.seconds();
}

double best_of(int reps, const models::TrainGate& tg,
               const mc::StatePredicate& pred, const common::Budget& budget,
               std::size_t* states) {
  double best = 1e9;
  for (int i = 0; i < reps; ++i) {
    double t = run_once(tg, pred, budget, states);
    if (t < best) best = t;
  }
  return best;
}

}  // namespace

int main() {
  bench::section("budget overhead: governed vs ungoverned train-gate search");

  bench::Table table(
      {"N", "budget", "states", "time [s]", "overhead"});
  constexpr int kReps = 5;
  for (int n = 4; n <= 5; ++n) {
    auto tg = models::make_train_gate(n);
    auto pred = all_crossing(tg);

    std::size_t states = 0;
    const double base = best_of(kReps, tg, pred, common::Budget{}, &states);
    table.row({std::to_string(n), "none", std::to_string(states),
               bench::fmt(base, "%.3f"), "1.00x (baseline)"});

    // Generous deadline + memory ceiling: both polled on the hot path.
    common::Budget governed = common::Budget::deadline_after(
        std::chrono::hours(1));
    governed.with_memory_limit(std::size_t{8} << 30);
    const double gov = best_of(kReps, tg, pred, governed, &states);
    table.row({std::to_string(n), "deadline+mem", std::to_string(states),
               bench::fmt(gov, "%.3f"), bench::fmt(gov / base, "%.2f") + "x"});

    common::CancelToken token;  // never fired
    common::Budget cancelable = common::Budget{}.with_cancel(&token);
    const double can = best_of(kReps, tg, pred, cancelable, &states);
    table.row({std::to_string(n), "cancel token", std::to_string(states),
               bench::fmt(can, "%.3f"), bench::fmt(can / base, "%.2f") + "x"});
  }
  table.print();
  std::printf(
      "\n  acceptance: governed runs within ~2%% of baseline (the poll is\n"
      "  amortized over %zu expansions; an inactive budget skips it).\n",
      static_cast<std::size_t>(core::kBudgetPollStride));
  return 0;
}
