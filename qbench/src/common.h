// Shared plumbing of qbench: options, the result record every
// workload fills, percentiles, memory probes and the output format.
//
// Output (stdout): human-readable `calibration` and `detail` lines, then, as
// the very last line, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the metrics the workload measured. run.py checks them against
// BENCHMARK.json and prints the final result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and short windows: checks plumbing, not performance.
  bool smoke = false;
  /// Perturbs every expected answer, so a correct program must be reported
  /// as failing (the gate's own test).
  bool corrupt_expected = false;
  /// Scratch directory for sockets, daemon state and span dumps.
  std::string run_dir;
  /// Directory holding the qbench and quantad binaries.
  std::string bin_dir;
};

/// How many times each workload sets up; setup_s is the median.
constexpr int kSetups = 5;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. A failed operation is any wrong, refused
/// or missing answer; one failure makes the whole run incorrect.
class Result {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records one failed operation; the first few reasons go to stderr.
  void fail(const std::string& why);
  void metric(std::string name, double value, std::string unit);
  /// An informational line (per-workload metric names, sample counts).
  static void detail(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Prints the JSON line.
  void print() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
/// Mean of the samples between the 10th and 90th percentile. When the host
/// switches between speed states, per-op times are bimodal: the median jumps
/// between the modes as their mix shifts, the trimmed mean follows the mix
/// smoothly, and trimming keeps rare stalls out.
double trimmed_mean(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Peak resident set (VmHWM) of process `pid` (0 = this process), in MB.
double peak_rss_mb(int pid = 0);

/// 1-minute load average from /proc/loadavg.
double load_average();

/// A short CPU burn: the same per-thread work on 1 and on
/// hardware_concurrency threads. usable cores = threads * t1 / tN, rounded;
/// t1 itself tracks the machine's single-core speed.
struct Burn {
  unsigned usable_cores = 1;
  double one_thread_s = 0.0;
};
Burn measure_burn();

/// Prints the calibration header line.
void print_calibration(const Burn& burn, double load_start, double load_end);

}  // namespace qbench
