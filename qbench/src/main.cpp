// qbench — the quanta benchmark. One process generates the load of
// one named workload, checks every answer, and prints the metrics.
//
//   qbench --workload mc-exhaustive|smc-estimate|svc-mix --seed N
//          --seconds S --trace 0|1 [--smoke] [--corrupt-expected]
//          [--run-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// the workload measures (see README.md); run.py matches them against the
// catalogue in BENCHMARK.json. The exit code is 0 only when every answer
// was right.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace qbench;

int usage() {
  std::fprintf(stderr,
               "usage: qbench --workload mc-exhaustive|smc-estimate|svc-mix "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--corrupt-expected] [--run-dir DIR]\n");
  return 2;
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.run_dir = ".bench_run";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--workload") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.workload = v;
    } else if (a == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      const char* v = value();
      if (v == nullptr || std::atof(v) <= 0.0) return usage();
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)) {
        return usage();
      }
      opt.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--corrupt-expected") {
      opt.corrupt_expected = true;
    } else if (a == "--run-dir") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.run_dir = v;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_trace) return usage();
  opt.bin_dir = exe_dir();
  ::mkdir(opt.run_dir.c_str(), 0755);
  opt.run_dir += "/" + opt.workload + "-" + std::to_string(::getpid());
  if (::mkdir(opt.run_dir.c_str(), 0755) != 0) {
    std::perror(opt.run_dir.c_str());
    return 2;
  }

  const double load_start = load_average();
  const Burn burn = measure_burn();
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " smoke" : "");
  std::fflush(stdout);

  Result out;
  if (opt.workload == "mc-exhaustive") {
    run_mc_exhaustive(opt, out);
  } else if (opt.workload == "smc-estimate") {
    run_smc_estimate(opt, out);
  } else if (opt.workload == "svc-mix") {
    run_svc_mix(opt, out);
  } else {
    return usage();
  }

  print_calibration(burn, load_start, load_average());
  out.print();
  return out.correct() ? 0 : 1;
}
