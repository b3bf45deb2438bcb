// mc-exhaustive: one caller runs a closed loop of exhaustive
// mc::check_invariant "mutex" queries on train-gate. The heavy query is
// N=5, the scan-bound regime (67,486 stored states, 125,420 interns, chains
// up to 1,246); its states stored per second of query time are the
// throughput. After each heavy query ten light N=4 queries (3,545 states)
// run, where per-query fixed costs weigh more; they feed only the light
// latency metrics. Models are built in set-up.
//
// The traced run times mc::check_invariant untraced, and a replica of its
// search loop built from the public pieces (core::explore,
// ta::SymbolicSemantics::successors, StateStore::intern, StateStore::state)
// without and with a span around each call. The replica must reproduce the
// engine's stored / explored / transition counts exactly.
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/pred.h"
#include "core/explore.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "mc/reachability.h"
#include "models/train_gate.h"
#include "ta/symbolic.h"
#include "ta/traits.h"
#include "trace.h"
#include "workloads.h"

namespace qbench {

namespace {

using namespace quanta;
using SymStore = core::StateStore<ta::SymState>;

/// Verdict and search counts of one "mutex" query; the engine is
/// deterministic, so these are exact.
struct Expected {
  bool holds = true;
  std::size_t stored = 0;
  std::size_t explored = 0;
  std::size_t transitions = 0;
};

Expected expected_counts(int n) {
  switch (n) {
    case 3: return {true, 253, 250, 390};
    case 4: return {true, 3545, 3529, 6136};
    case 5: return {true, 67486, 67396, 125420};
  }
  return {};
}

/// At most one train in Cross: the property the service registry answers
/// for "mutex", under the same checkpoint label.
mc::StatePredicate mutual_exclusion(const models::TrainGate& tg) {
  std::vector<int> cross_loc;
  for (int t : tg.trains) {
    cross_loc.push_back(tg.system.process(t).location_index("Cross"));
  }
  auto trains = tg.trains;
  return common::labeled_pred<ta::SymState>(
      "train-gate-mutex", [trains, cross_loc](const ta::SymState& s) {
        int crossing = 0;
        for (std::size_t i = 0; i < trains.size(); ++i) {
          if (s.locs[static_cast<std::size_t>(trains[i])] == cross_loc[i]) {
            ++crossing;
          }
        }
        return crossing <= 1;
      });
}

struct Instance {
  explicit Instance(int size, bool corrupt)
      : n(size),
        tg(models::make_train_gate(size)),
        safe(mutual_exclusion(tg)),
        expect(expected_counts(size)) {
    if (corrupt) ++expect.stored;
  }
  int n;
  models::TrainGate tg;
  mc::StatePredicate safe;
  Expected expect;
};

void check(const Instance& in, bool holds, const core::SearchStats& s,
           const char* who, Result& out) {
  out.attempt();
  const Expected& e = in.expect;
  if (holds != e.holds || s.stop != common::StopReason::kCompleted ||
      s.states_stored != e.stored || s.states_explored != e.explored ||
      s.transitions != e.transitions) {
    out.fail(std::string(who) + " train-gate-" + std::to_string(in.n) +
             ": holds=" + std::to_string(holds) +
             " stored=" + std::to_string(s.states_stored) +
             " explored=" + std::to_string(s.states_explored) +
             " transitions=" + std::to_string(s.transitions));
  }
}

/// One exhaustive query, the way the service runs it (no trace recording).
/// Returns its wall time in seconds; the answer is checked untimed.
double query(const Instance& in, Result& out, std::size_t* stored = nullptr) {
  mc::ReachOptions opts;
  opts.record_trace = false;
  const auto t0 = Clock::now();
  const mc::InvariantResult res = mc::check_invariant(in.tg.system, in.safe, opts);
  const double s = seconds_since(t0);
  check(in, res.holds(), res.stats, "mc::check_invariant", out);
  if (stored != nullptr) *stored += res.stats.states_stored;
  return s;
}

struct Replica {
  double total_s = 0.0;
  std::map<std::string, Tracer::Totals> totals;
  core::StoreMetrics store;
  std::size_t interns = 0;
  std::size_t inserted = 0;
};

/// mc::check_invariant's search, rebuilt from public calls with a span
/// around each (none when `tr` is null): same store options, BFS order,
/// goal test on every visited state, successors interned in generation
/// order.
Replica replica(const Instance& in, Tracer* tr, Result& out) {
  std::uint32_t n_loop = 0, n_fetch = 0, n_succ = 0, n_intern = 0;
  if (tr != nullptr) {
    n_loop = tr->name("core.explore");
    n_fetch = tr->name("store.fetch");
    n_succ = tr->name("ta.successors");
    n_intern = tr->name("core.intern");
  }
  Replica r;
  const auto t0 = Clock::now();
  ta::SymbolicSemantics sem(in.tg.system, ta::SymbolicSemantics::Options{true});
  SymStore store(SymStore::Options{/*inclusion=*/true,
                                   /*tombstone_covered=*/true});
  core::Worklist work(core::SearchOrder::kBfs);
  work.push(store.intern(sem.initial()).id);
  bool violated = false;
  const core::SearchStats stats = in_span(tr, n_loop, [&] {
    return core::explore(
        store, work, core::SearchLimits{},
        [&](const core::Worklist::Entry& e) {
          const ta::SymState s =
              in_span(tr, n_fetch, [&] { return store.state(e.id); });
          if (!in.safe(s)) {
            violated = true;
            return core::Visit::kStop;
          }
          return core::Visit::kContinue;
        },
        [&](const core::Worklist::Entry& e) -> std::size_t {
          const ta::SymState s =
              in_span(tr, n_fetch, [&] { return store.state(e.id); });
          std::vector<ta::SymTransition> succ =
              in_span(tr, n_succ, [&] { return sem.successors(s); });
          for (ta::SymTransition& t : succ) {
            const SymStore::Interned got = in_span(
                tr, n_intern, [&] { return store.intern(std::move(t.state)); });
            ++r.interns;
            if (got.inserted) {
              ++r.inserted;
              work.push(got.id);
            }
          }
          return succ.size();
        });
  });
  r.total_s = seconds_since(t0);
  r.store = store.metrics();
  if (tr != nullptr) r.totals = tr->totals();
  check(in, !violated, stats, "replica", out);
  return r;
}

void traced(const Options& opt, const Instance& heavy, Result& out) {
  // Engine, plain replica and traced replica alternate, so a slow spell of
  // the machine lands on every side of the comparison.
  const int reps = 3;
  std::vector<double> engine_s, plain_s;
  std::vector<Replica> runs;
  for (int i = 0; i < reps; ++i) {
    engine_s.push_back(query(heavy, out));
    plain_s.push_back(replica(heavy, nullptr, out).total_s);
    Tracer tr;
    runs.push_back(replica(heavy, &tr, out));
    if (i == 0) tr.write(opt.run_dir + "/spans-mc-exhaustive.tsv");
  }
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const Replica& r : runs) v.push_back(field(r));
    return median(v);
  };
  auto total = [](const char* name) {
    return [name](const Replica& r) { return r.totals.at(name).total_s; };
  };
  const Replica& first = runs.front();
  out.metric("mc.check_invariant_s", median(engine_s), "s");
  out.metric("ta.successors_s", med(total("ta.successors")), "s");
  out.metric("ta.successors_calls",
             static_cast<double>(first.totals.at("ta.successors").count), "count");
  out.metric("core.intern_s", med(total("core.intern")), "s");
  out.metric("core.intern_calls", static_cast<double>(first.interns), "count");
  out.metric("core.intern_insert_ratio",
             static_cast<double>(first.inserted) /
                 static_cast<double>(first.interns),
             "ratio");
  out.metric("core.covered", static_cast<double>(first.store.covered), "count");
  out.metric("core.max_chain", static_cast<double>(first.store.max_chain), "count");
  out.metric("core.loop_other_s",
             med([](const Replica& r) { return r.totals.at("core.explore").self_s; }),
             "s");
  out.metric("store.fetch_s", med(total("store.fetch")), "s");
  out.metric("store.pool_hit_rate", first.store.pool.hit_rate(), "ratio");
  out.metric("store.bytes_per_state",
             static_cast<double>(first.store.memory_bytes) /
                 static_cast<double>(first.store.stored),
             "B");
  const double traced_s = med([](const Replica& r) { return r.total_s; });
  out.metric("trace.overhead_ratio", traced_s / median(plain_s), "ratio");
  Result::detail("mc replica: %zu interns, %zu inserted, %zu covered, "
                 "max chain %zu; engine %.3f s, replica %.3f s plain, "
                 "%.3f s traced",
                 first.interns, first.inserted, first.store.covered,
                 first.store.max_chain, median(engine_s), median(plain_s),
                 traced_s);
}

}  // namespace

void run_mc_exhaustive(const Options& opt, Result& out) {
  const int heavy_n = opt.smoke ? 4 : 5;
  const int light_n = opt.smoke ? 3 : 4;
  const int light_per_heavy = 10;
  // A percentile needs 10 samples beyond it: p50 of the heavy queries needs
  // 20, p95 of the light ones 200.
  const std::size_t min_heavy = opt.smoke ? 1 : 20;
  const std::size_t min_light = opt.smoke ? 1 : 200;

  std::vector<double> setup_s;
  std::unique_ptr<Instance> heavy, light;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    heavy = std::make_unique<Instance>(heavy_n, opt.corrupt_expected);
    light = std::make_unique<Instance>(light_n, opt.corrupt_expected);
    query(*heavy, out);
    for (int i = 0; i < light_per_heavy; ++i) query(*light, out);
    setup_s.push_back(seconds_since(t0));
  }
  if (opt.trace) {
    traced(opt, *heavy, out);
    return;
  }

  // throughput_per_s counts the heavy queries alone, so the light-to-heavy
  // ratio only sets how many light samples the window collects.
  std::vector<double> heavy_s, light_s;
  std::size_t heavy_stored = 0;
  double heavy_busy = 0.0;
  const auto t0 = Clock::now();
  const double cap = 3.0 * opt.seconds;
  while (seconds_since(t0) < opt.seconds ||
         ((heavy_s.size() < min_heavy || light_s.size() < min_light) &&
          seconds_since(t0) < cap)) {
    heavy_s.push_back(query(*heavy, out, &heavy_stored));
    heavy_busy += heavy_s.back();
    for (int i = 0; i < light_per_heavy; ++i) {
      light_s.push_back(query(*light, out));
    }
  }
  const double states_per_s = static_cast<double>(heavy_stored) / heavy_busy;
  for (double& s : heavy_s) s *= 1000.0;
  for (double& s : light_s) s *= 1000.0;

  out.metric("setup_s", median(setup_s), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("throughput_per_s", states_per_s, "1/s");
  out.metric("light_ms_tmean", trimmed_mean(light_s), "ms");
  out.metric("light_ms_p95", quantile(light_s, 0.95), "ms");
  out.metric("heavy_ms_tmean", trimmed_mean(heavy_s), "ms");
  Result::detail("mc.query_s_p50 %.4f s (train-gate-%d, n=%zu); "
                 "train-gate-%d query p50 %.3f ms p95 %.3f ms (n=%zu); "
                 "%.0f train-gate-%d states stored/s",
                 median(heavy_s) / 1000.0, heavy_n, heavy_s.size(), light_n,
                 median(light_s), quantile(light_s, 0.95), light_s.size(),
                 states_per_s, heavy_n);
}

}  // namespace qbench
