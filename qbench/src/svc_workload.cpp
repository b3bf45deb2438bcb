// svc-mix: the shipped quantad with its production defaults (isolated
// workers, --jobs 4, journaling and cache persistence in a --state-dir of
// its own) serves four client sessions, each on its own connection, each a
// closed loop over a seeded request stream.
//
//   * Half the requests are hits on keys warmed during set-up; they only
//     read the cache.
//   * The other half are misses, which write. mc train-gate-3/4 mutex, cora
//     train-gate-3 mincost-cross and game train-game-2 reach-cross bypass
//     the cache (cache "0"); smc train-gate-3 pr-cross carries a fresh seed,
//     so each one inserts a new cache entry and appends to the cache
//     segment. Every miss also writes three journal records.
//
// Engine work per miss is small (0.5-40 ms), so the service layers carry
// most of the time, and hits and misses use the cache and the record log
// in opposite ways.
//
// Every answer must be byte-identical, except `cached`/`ticket`, to a direct
// prepare_job + response_from_result answer. Those of the fixed keys are
// computed in set-up; the fresh-seed smc ones after the timed window.
//
// The traced run replays a prefix of the same request streams in process
// through each service layer's public function, with a span around each
// call, and reads the daemon's counters from its svc/stats builtin.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/budget.h"
#include "svc/client.h"
#include "svc/config.h"
#include "svc/journal.h"
#include "svc/registry.h"
#include "svc/request.h"
#include "svc/result_cache.h"
#include "svc/wire.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace qbench {

namespace {

using namespace quanta;

constexpr int kClasses = 5;
constexpr int kSmc = 4;
constexpr std::array<const char*, kClasses> kClassName = {
    "mc-tg3", "mc-tg4", "cora-tg3", "game-tg2", "smc-tg3"};
constexpr std::size_t kHitSeeds = 4;
constexpr int kSessions = 4;

/// One request of a session's stream: a pure function of (seed, session,
/// index), so the traced replay regenerates exactly what the daemon saw.
struct Spec {
  int cls = 0;
  bool hit = false;
  std::uint64_t seed = 1;  ///< smc only
  std::size_t hit_seed = 0;
};

std::uint64_t hit_seed(std::uint64_t seed, std::size_t j) {
  return mix_seed(seed, 500 + j);
}

/// Streams are built from blocks of ten requests, one hit and one miss of
/// every class, in an order shuffled per block: the seed moves the order
/// and the smc seeds, never the mix, so the load is the same for every seed.
Spec spec_at(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  constexpr std::uint64_t kBlock = 2 * kClasses;
  const std::uint64_t block_seed = mix_seed(mix_seed(seed, 7000 + stream), i / kBlock);
  std::array<int, kBlock> order;
  for (std::size_t k = 0; k < kBlock; ++k) order[k] = static_cast<int>(k);
  for (std::size_t k = kBlock - 1; k > 0; --k) {
    std::swap(order[k], order[mix_seed(block_seed, k) % (k + 1)]);
  }
  const int e = order[i % kBlock];
  Spec s;
  s.hit = e < kClasses;
  s.cls = e % kClasses;
  if (s.cls == kSmc) {
    s.hit_seed = static_cast<std::size_t>(mix_seed(block_seed, 99) % kHitSeeds);
    s.seed = s.hit ? hit_seed(seed, s.hit_seed)
                   : mix_seed(seed, ((stream + 1) << 40) + i);
  }
  return s;
}

svc::Request make_request(const Spec& s) {
  static constexpr std::array<std::array<const char*, 3>, kClasses> kQuery = {{
      {"mc", "train-gate-3", "mutex"},
      {"mc", "train-gate-4", "mutex"},
      {"cora", "train-gate-3", "mincost-cross"},
      {"game", "train-game-2", "reach-cross"},
      {"smc", "train-gate-3", "pr-cross"},
  }};
  svc::Request r;
  r.engine = kQuery[static_cast<std::size_t>(s.cls)][0];
  r.model = kQuery[static_cast<std::size_t>(s.cls)][1];
  r.query = kQuery[static_cast<std::size_t>(s.cls)][2];
  if (s.cls == kSmc) r.seed = s.seed;
  // Misses of the fixed keys bypass the cache; fresh-seed smc misses use
  // it (lookup miss, then insert).
  r.use_cache = s.hit || s.cls == kSmc;
  return r;
}

/// Every key the hits read: the four fixed queries and the smc hit seeds.
std::vector<Spec> hit_keys(std::uint64_t seed) {
  std::vector<Spec> keys;
  for (int c = 0; c < kSmc; ++c) keys.push_back(Spec{c, true, 1, 0});
  for (std::size_t j = 0; j < kHitSeeds; ++j) {
    keys.push_back(Spec{kSmc, true, hit_seed(seed, j), j});
  }
  return keys;
}

/// The response bytes with the two fields allowed to differ removed.
std::string canonical(const svc::WireMap& m) {
  svc::WireMap c;
  for (const auto& [k, v] : m.fields()) {
    if (k != "cached" && k != "ticket") c.set(k, v);
  }
  return c.to_json();
}

/// The answer a direct library call gives: what the daemon must serve.
std::string direct_answer(const svc::Request& r) {
  std::string error;
  const auto job = svc::prepare_job(r, &error);
  if (!job) return "bad request: " + error;
  common::CancelToken cancel;
  common::Budget budget;
  budget.with_cancel(&cancel);
  const svc::JobResult jr = job->run(budget, ckpt::Options{}, nullptr);
  return canonical(svc::to_wire(
      svc::response_from_result(jr, svc::fingerprint_token(job->fingerprint))));
}

/// Expected canonical answers of every key that is not a fresh smc seed.
struct Expected {
  std::array<std::string, kClasses> fixed;  ///< cls 0..3
  std::array<std::string, kHitSeeds> smc_hit;

  const std::string* find(const Spec& s) const {
    if (s.cls != kSmc) return &fixed[static_cast<std::size_t>(s.cls)];
    return s.hit ? &smc_hit[s.hit_seed] : nullptr;
  }
};

// ---------------------------------------------------------------- daemon --

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const std::string& bin, const std::string& socket,
             const std::string& state_dir, const std::string& log) {
    // Production defaults: no QUANTA*/QUANTAD* overrides reach the daemon.
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "QUANTA", 6) != 0) env.emplace_back(*e);
    }
    std::vector<std::string> args = {bin, "--socket", socket, "--jobs", "4",
                                     "--state-dir", state_dir};
    std::vector<char*> argv, envp;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    const int log_fd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log_fd < 0) return false;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(log_fd);
    return pid_ > 0;
  }

  /// SIGTERM (graceful: the daemon stops its workers), then SIGKILL after
  /// 10 s; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

  int pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

struct Counters {
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t jobs_executed = 0, journal_appends = 0, worker_crashes = 0;
  std::uint64_t rejected = 0, workers_spawned = 0;
};

std::optional<Counters> read_counters(const std::string& socket) {
  svc::Client c;
  std::string error;
  svc::WireMap req, resp;
  req.set("engine", "svc");
  req.set("query", "stats");
  if (!c.connect_unix(socket, &error) || !c.call(req, &resp, &error)) {
    return std::nullopt;
  }
  auto u = [&](const char* k) { return resp.get_u64(k).value_or(0); };
  Counters n;
  n.cache_hits = u("cache_hits");
  n.cache_misses = u("cache_misses");
  n.cache_evictions = u("cache_evictions");
  n.jobs_executed = u("jobs_executed");
  n.journal_appends = u("journal_appends");
  n.worker_crashes = u("worker_crashes");
  n.rejected = u("rejected_queue") + u("rejected_memory");
  n.workers_spawned = u("workers_spawned");
  return n;
}

// --------------------------------------------------------------- sessions --

struct Sample {
  int cls = 0;
  bool hit = false;
  double ms = 0.0;
};

struct SessionLog {
  std::vector<Sample> samples;
  std::vector<std::pair<std::uint64_t, std::string>> fresh_smc;  ///< seed, answer
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
};

/// One session: a closed loop over its stream until `deadline` (or for
/// `count` requests when count > 0), checking every answer it can.
void session(const std::string& socket, std::uint64_t seed, std::uint64_t stream,
             const Expected& expect, Clock::time_point deadline,
             std::uint64_t count, SessionLog& log) {
  svc::Client client;
  std::string error;
  if (!client.connect_unix(socket, &error)) {
    ++log.attempted;
    log.failures.push_back("connect: " + error);
    return;
  }
  for (std::uint64_t i = 0; count > 0 ? i < count : Clock::now() < deadline; ++i) {
    const Spec s = spec_at(seed, stream, i);
    const svc::WireMap req = svc::to_wire(make_request(s));
    svc::WireMap resp;
    ++log.attempted;
    const auto t0 = Clock::now();
    if (!client.call(req, &resp, &error)) {
      log.failures.push_back("transport: " + error);
      return;
    }
    const double ms = 1000.0 * seconds_since(t0);
    const std::string* status = resp.get("status");
    const std::string* cached = resp.get("cached");
    const std::string answer = canonical(resp);
    const std::string* want = expect.find(s);
    if (status == nullptr || *status != "ok" || cached == nullptr ||
        *cached != (s.hit ? "1" : "0") || (want != nullptr && answer != *want)) {
      log.failures.push_back(std::string(kClassName[s.cls]) +
                             (s.hit ? " hit: " : " miss: ") + resp.to_json());
      continue;
    }
    if (want == nullptr) log.fresh_smc.emplace_back(s.seed, answer);
    log.samples.push_back({s.cls, s.hit, ms});
  }
}

/// Runs `kSessions` sessions, this thread being session 0. Returns the wall
/// time until the last one finished.
double run_sessions(const std::string& socket, std::uint64_t seed,
                    std::uint64_t stream_base, const Expected& expect,
                    double seconds, std::uint64_t count,
                    std::array<SessionLog, kSessions>& logs) {
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int s = 1; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      session(socket, seed, stream_base + s, expect, deadline, count, logs[s]);
    });
  }
  session(socket, seed, stream_base, expect, deadline, count, logs[0]);
  for (auto& t : threads) t.join();
  return seconds_since(t0);
}

/// Puts every hit key into the daemon's cache, one cached request each.
bool warm_hit_keys(const std::string& socket, std::uint64_t seed, Result& out) {
  svc::Client c;
  std::string error;
  if (!c.connect_unix(socket, &error)) {
    out.attempt();
    out.fail("connect: " + error);
    return false;
  }
  for (const Spec& s : hit_keys(seed)) {
    svc::Response resp;
    out.attempt();
    if (!c.analyze(make_request(s), &resp, &error) ||
        resp.status != svc::Status::kOk) {
      out.fail(std::string("warming ") + kClassName[s.cls] + ": " + error);
    }
  }
  return true;
}

void absorb(const SessionLog& log, Result& out) {
  out.attempt(log.attempted);
  for (const std::string& f : log.failures) out.fail(f);
}

// ---------------------------------------------------------------- replay --

/// The service layers the replay times, in the order the daemon calls them.
enum Layer {
  kParse, kPrepare, kLookup, kInsert, kJournal, kEngine, kSerialize, kLayers
};

struct LayerSums {
  std::array<double, kLayers> s{};  ///< seconds per layer
  std::array<std::uint64_t, kLayers> n{};  ///< calls per layer
  double avg_us(int layer) const {
    return n[layer] == 0 ? 0.0 : 1e6 * s[layer] / static_cast<double>(n[layer]);
  }
};

/// In-process replay of the request stream through the service layers'
/// public functions, in the order the daemon calls them.
class Replay {
 public:
  Replay(const std::string& dir, Tracer* tracer)
      : tracer_(tracer), cache_(svc::kDefaultCacheBytes) {
    ::mkdir(dir.c_str(), 0755);
    std::string error;
    ::unlink((dir + "/cache.qcseg").c_str());
    ::unlink((dir + "/journal.qjrnl").c_str());
    cache_.enable_persistence(dir + "/cache.qcseg", &error);
    journal_.open(dir + "/journal.qjrnl", svc::JournalReplay{}, &error);
    if (tracer_ != nullptr) {
      const char* names[kLayers] = {"svc.wire.parse", "svc.registry.prepare",
                                   "svc.cache.lookup", "svc.cache.insert",
                                   "svc.journal.append", "svc.engine",
                                   "svc.serialize"};
      for (int i = 0; i < kLayers; ++i) ids_[i] = tracer_->name(names[i]);
      request_id_ = tracer_->name("svc.request");
    }
  }

  /// Handles one request; returns its canonical answer ("" on any error).
  /// Unrecorded requests leave no spans and no sums.
  std::string handle(const Spec& spec, bool record = true) {
    const std::string payload = svc::to_wire(make_request(spec)).to_json();
    Tracer* tracer = record ? tracer_ : nullptr;
    const std::int32_t root = tracer != nullptr ? tracer->open(request_id_) : -1;
    LayerSums scratch;
    LayerSums& sums = !record ? scratch : spec.hit ? hit_ : miss_[spec.cls];
    // `calls` is 0 for the first half of the journal triple, so the triple
    // counts as one call.
    auto timed = [&](Layer layer, auto&& f, int calls = 1) {
      const auto t0 = Clock::now();
      auto r = in_span(tracer, ids_[layer], f);
      sums.s[layer] += seconds_since(t0);
      sums.n[layer] += calls;
      return r;
    };
    std::string error;
    const auto req = timed(kParse, [&] {
      const auto map = svc::WireMap::parse_json(payload, &error);
      return map ? svc::parse_request(*map, &error) : std::nullopt;
    });
    if (!req) return finish(tracer, root, "");
    const auto job = timed(kPrepare, [&] { return svc::prepare_job(*req, &error); });
    if (!job) return finish(tracer, root, "");
    svc::Response resp;
    bool hit = false;
    if (req->use_cache) {
      hit = timed(kLookup, [&] {
        return cache_.lookup(job->fingerprint, job->cache_key, &resp);
      });
    }
    if (hit) {
      resp.cached = true;
    } else {
      const std::uint64_t ticket = next_ticket_++;
      timed(
          kJournal,
          [&] {
            journal_.admit(ticket, job->fingerprint, svc::to_wire(*req).to_json());
            journal_.start(ticket, job->fingerprint);
            return 0;
          },
          0);
      common::CancelToken cancel;
      common::Budget budget;
      budget.with_cancel(&cancel);
      const svc::JobResult jr = timed(kEngine, [&] {
        return job->run(budget, ckpt::Options{}, nullptr);
      });
      resp = svc::response_from_result(jr, svc::fingerprint_token(job->fingerprint));
      if (req->use_cache && resp.stop == common::StopReason::kCompleted) {
        timed(kInsert, [&] {
          cache_.insert(job->fingerprint, job->cache_key, resp);
          return 0;
        });
      }
      timed(kJournal, [&] {
        journal_.complete(ticket, job->fingerprint, svc::to_wire(resp).to_json());
        return 0;
      });
    }
    const std::string bytes =
        timed(kSerialize, [&] { return svc::to_wire(resp).to_json(); });
    const auto parsed = svc::WireMap::parse_json(bytes, &error);
    return finish(tracer, root, parsed ? canonical(*parsed) : "");
  }

  const LayerSums& hits() const { return hit_; }
  const LayerSums& misses(int cls) const { return miss_[cls]; }
  std::uint64_t persist_appends() const { return cache_.stats().persist_appends; }

 private:
  static std::string finish(Tracer* tracer, std::int32_t root, std::string answer) {
    if (tracer != nullptr) tracer->close(root);
    return answer;
  }

  Tracer* tracer_;
  std::array<std::uint32_t, kLayers> ids_{};
  std::uint32_t request_id_ = 0;
  svc::ResultCache cache_;
  svc::Journal journal_;
  std::uint64_t next_ticket_ = 1;
  LayerSums hit_;
  std::array<LayerSums, kClasses> miss_;
};

/// Replays the first `per_session` requests of each session's stream, in
/// the order the sessions issued them, through two fresh service stacks:
/// one untraced, one traced, alternating which handles a request first so
/// neither gets the warmer caches. Every answer must match the daemon's
/// (fresh smc seeds: the daemon's answer for that seed in the window).
/// Returns the plain and the traced seconds.
std::pair<double, double> replay(
    const Options& opt, std::uint64_t per_session, const Expected& expect,
    const std::map<std::uint64_t, std::string>& daemon_smc, Replay& plain,
    Replay& traced, Result& out) {
  // The hit keys enter the cache the way the daemon's set-up put them
  // there: one cached request each, outside the measurement.
  for (const Spec& s : hit_keys(opt.seed)) {
    plain.handle(s, /*record=*/false);
    traced.handle(s, /*record=*/false);
  }
  double plain_s = 0.0, traced_s = 0.0;
  std::uint64_t n = 0;
  for (std::uint64_t i = 0; i < per_session; ++i) {
    for (int session = 0; session < kSessions; ++session, ++n) {
      const Spec spec = spec_at(opt.seed, static_cast<std::uint64_t>(session), i);
      const std::string* want = expect.find(spec);
      if (want == nullptr) {
        const auto it = daemon_smc.find(spec.seed);
        if (it != daemon_smc.end()) want = &it->second;
      }
      std::string first;
      for (int k = 0; k < 2; ++k) {
        const bool use_traced = (k == 0) == (n % 2 == 0);
        const auto t0 = Clock::now();
        const std::string got = (use_traced ? traced : plain).handle(spec);
        (use_traced ? traced_s : plain_s) += seconds_since(t0);
        if (k == 0) first = got;
        out.attempt();
        if (got.empty() || got != (want != nullptr ? *want : first)) {
          out.fail(std::string("replay ") + kClassName[spec.cls] + ": " + got);
        }
      }
    }
  }
  return {plain_s, traced_s};
}

}  // namespace

void run_svc_mix(const Options& opt, Result& out) {
  const std::string quantad = opt.bin_dir + "/quantad";
  // Expected answers of the fixed keys, straight from the library.
  Expected expect;
  for (const Spec& s : hit_keys(opt.seed)) {
    std::string& slot = s.cls == kSmc ? expect.smc_hit[s.hit_seed]
                                      : expect.fixed[static_cast<std::size_t>(s.cls)];
    slot = direct_answer(make_request(s));
  }
  if (opt.corrupt_expected) {
    for (auto& e : expect.fixed) e[e.size() / 2] ^= 1;
    for (auto& e : expect.smc_hit) e[e.size() / 2] ^= 1;
  }

  // Daemon state and replay stacks are scratch: removed when the run ends,
  // after the daemon (declared below, so destroyed first) has stopped.
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      for (int k = 0; k < kSetups; ++k) {
        std::filesystem::remove_all(dir + "/state" + std::to_string(k), ec);
      }
      for (const char* sub : {"replay-plain", "replay-traced"}) {
        std::filesystem::remove_all(dir + "/" + sub, ec);
      }
    }
  } cleanup{opt.run_dir};

  // Set-up, kSetups times: boot, wait until ready, warm the hit keys, then
  // run a short warm-up stream from all sessions (which also spawns the
  // four workers). The last daemon serves the timed window.
  std::vector<double> setup_s;
  Daemon daemon;
  std::string socket;
  const std::uint64_t warm_requests = opt.smoke ? 5 : 40;
  for (int k = 0; k < kSetups; ++k) {
    daemon.stop();
    socket = opt.run_dir + "/d" + std::to_string(k) + ".sock";
    const std::string state = opt.run_dir + "/state" + std::to_string(k);
    const auto t0 = Clock::now();
    if (!daemon.start(quantad, socket, state, opt.run_dir + "/quantad.log")) {
      out.attempt();
      out.fail("cannot start " + quantad);
      return;
    }
    svc::Endpoint ep;
    ep.socket_path = socket;
    std::string error;
    if (!svc::wait_ready(ep, 20000, &error)) {
      out.attempt();
      out.fail("quantad not ready: " + error);
      return;
    }
    if (!warm_hit_keys(socket, opt.seed, out)) return;
    std::array<SessionLog, kSessions> warm;
    run_sessions(socket, opt.seed, 100 * (k + 1), expect, 0.0, warm_requests, warm);
    for (const SessionLog& log : warm) absorb(log, out);
    setup_s.push_back(seconds_since(t0));
  }

  const auto before = read_counters(socket);
  std::array<SessionLog, kSessions> logs;
  const double wall =
      run_sessions(socket, opt.seed, 0, expect, opt.seconds, 0, logs);
  const auto after = read_counters(socket);
  const double rss = peak_rss_mb(daemon.pid());
  daemon.stop();
  for (const SessionLog& log : logs) absorb(log, out);

  // Fresh-seed smc answers, checked against the library after the window.
  std::uint64_t n_hit = 0, n_miss = 0, n_smc_miss = 0;
  std::vector<double> hit_ms, miss_ms;
  std::array<double, kClasses> miss_sum{};
  std::array<std::uint64_t, kClasses> miss_n{};
  for (const SessionLog& log : logs) {
    for (const auto& [seed, answer] : log.fresh_smc) {
      Spec s{kSmc, false, seed, 0};
      std::string want = direct_answer(make_request(s));
      if (opt.corrupt_expected) want[want.size() / 2] ^= 1;
      if (answer != want) out.fail("smc seed " + std::to_string(seed) + ": " + answer);
    }
    for (const Sample& s : log.samples) {
      if (s.hit) {
        ++n_hit;
        hit_ms.push_back(s.ms);
      } else {
        ++n_miss;
        if (s.cls == kSmc) ++n_smc_miss;
        miss_ms.push_back(s.ms);
        miss_sum[s.cls] += s.ms;
        ++miss_n[s.cls];
      }
    }
  }

  // The daemon's own counters must match the designed mix exactly.
  out.attempt();
  if (!before || !after) {
    out.fail("svc/stats builtin unavailable");
    return;
  }
  const std::uint64_t d_hits = after->cache_hits - before->cache_hits;
  const std::uint64_t d_lookup_misses = after->cache_misses - before->cache_misses;
  const std::uint64_t d_jobs = after->jobs_executed - before->jobs_executed;
  const std::uint64_t d_appends = after->journal_appends - before->journal_appends;
  if (out.failed() == 0 &&
      (d_hits != n_hit || d_lookup_misses != n_smc_miss || d_jobs != n_miss ||
       d_appends != 3 * n_miss || after->worker_crashes != 0 || after->rejected != 0)) {
    out.fail("daemon counters: hits " + std::to_string(d_hits) + "/" +
             std::to_string(n_hit) + ", lookup misses " +
             std::to_string(d_lookup_misses) + "/" + std::to_string(n_smc_miss) +
             ", jobs " + std::to_string(d_jobs) + "/" + std::to_string(n_miss) +
             ", journal appends " + std::to_string(d_appends));
  }

  if (!opt.trace) {
    const double correct = static_cast<double>(n_hit + n_miss);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("throughput_per_s", correct / wall, "1/s");
    out.metric("light_ms_tmean", trimmed_mean(hit_ms), "ms");
    out.metric("light_ms_p95", quantile(hit_ms, 0.95), "ms");
    out.metric("heavy_ms_tmean", trimmed_mean(miss_ms), "ms");
    Result::detail("svc.qps %.1f (4 sessions, %.1f s); svc.hit_ms_p50 %.4f "
                   "svc.hit_ms_p99 %.4f (n=%llu); svc.miss_ms_p50 %.4f "
                   "svc.miss_ms_p99 %.4f (n=%llu); svc.failed_ratio %.4g",
                   correct / wall, wall, median(hit_ms), quantile(hit_ms, 0.99),
                   static_cast<unsigned long long>(n_hit), median(miss_ms),
                   quantile(miss_ms, 0.99),
                   static_cast<unsigned long long>(n_miss),
                   static_cast<double>(out.failed()) /
                       static_cast<double>(out.attempted()));
    return;
  }

  // Traced: the same streams, replayed in process through each layer.
  std::map<std::uint64_t, std::string> daemon_smc;
  for (const SessionLog& log : logs) {
    for (const auto& [seed, answer] : log.fresh_smc) daemon_smc.emplace(seed, answer);
  }
  const std::uint64_t per_session = opt.smoke ? 5 : 100;
  Tracer tr;
  Replay plain_replay(opt.run_dir + "/replay-plain", nullptr);
  Replay traced_replay(opt.run_dir + "/replay-traced", &tr);
  const auto [plain_s, traced_s] = replay(opt, per_session, expect, daemon_smc,
                                          plain_replay, traced_replay, out);
  tr.write(opt.run_dir + "/spans-svc-mix.tsv");

  const LayerSums& h = traced_replay.hits();
  LayerSums m;
  for (int c = 0; c < kClasses; ++c) {
    const LayerSums& mc = traced_replay.misses(c);
    for (int l = 0; l < kLayers; ++l) {
      m.s[l] += mc.s[l];
      m.n[l] += mc.n[l];
    }
  }
  auto both = [&](int l) {
    const double n = static_cast<double>(h.n[l] + m.n[l]);
    return n == 0 ? 0.0 : 1e6 * (h.s[l] + m.s[l]) / n;
  };
  out.metric("svc.wire.parse_us", both(kParse), "us");
  out.metric("svc.registry.prepare_us", both(kPrepare), "us");
  out.metric("svc.cache.lookup_us", both(kLookup), "us");
  out.metric("svc.cache.insert_us", m.avg_us(kInsert), "us");
  out.metric("svc.journal.append_us", m.avg_us(kJournal), "us");
  out.metric("svc.serialize_us", both(kSerialize), "us");
  // Miss round trip minus every layer the replay timed, per class, weighted
  // by the window's class mix: queue wait, worker hop and framing.
  double overhead_ms = 0.0;
  for (int c = 0; c < kClasses; ++c) {
    const LayerSums& mc = traced_replay.misses(c);
    const double engine_ms = mc.avg_us(kEngine) / 1000.0;
    out.metric(std::string("svc.engine_ms.") + kClassName[c], engine_ms, "ms");
    if (miss_n[c] == 0) continue;
    double layers_ms = engine_ms;
    for (int l : {kParse, kPrepare, kLookup,
                  kInsert, kJournal, kSerialize}) {
      layers_ms += mc.avg_us(l) / 1000.0;
    }
    overhead_ms += (miss_sum[c] / static_cast<double>(miss_n[c]) - layers_ms) *
                   static_cast<double>(miss_n[c]) / static_cast<double>(n_miss);
  }
  out.metric("svc.miss_overhead_ms", overhead_ms, "ms");
  out.metric("svc.hit_overhead_us",
             1000.0 * mean(hit_ms) -
                 (h.avg_us(kParse) + h.avg_us(kPrepare) +
                  h.avg_us(kLookup) + h.avg_us(kSerialize)),
             "us");
  out.metric("svc.cache.hit_ratio",
             static_cast<double>(d_hits) /
                 static_cast<double>(d_hits + d_lookup_misses),
             "ratio");
  out.metric("svc.jobs_executed", static_cast<double>(d_jobs), "count");
  out.metric("svc.queue.rejected", static_cast<double>(after->rejected), "count");
  out.metric("svc.supervisor.crashes", static_cast<double>(after->worker_crashes),
             "count");
  out.metric("svc.journal.appends", static_cast<double>(d_appends), "count");
  out.metric("svc.cache.persist_appends",
             static_cast<double>(traced_replay.persist_appends()), "count");
  out.metric("svc.cache.evictions",
             static_cast<double>(after->cache_evictions - before->cache_evictions),
             "count");
  out.metric("trace.overhead_ratio", traced_s / plain_s, "ratio");
  Result::detail("svc replay: %llu requests per session, %.3f s plain, %.3f s "
                 "traced; daemon spawned %llu workers",
                 static_cast<unsigned long long>(per_session), plain_s, traced_s,
                 static_cast<unsigned long long>(after->workers_spawned));
}

}  // namespace qbench
