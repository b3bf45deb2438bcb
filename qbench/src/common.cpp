#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace qbench {

namespace {

/// Shortest decimal that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::fail(const std::string& why) {
  if (failed_ < 5) std::fprintf(stderr, "qbench: wrong answer: %s\n", why.c_str());
  ++failed_;
}

void Result::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Result::detail(const char* fmt, ...) {
  std::fputs("detail ", stdout);
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
}

void Result::print() const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  return mean(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(cut),
                                  v.end() - static_cast<std::ptrdiff_t>(cut)));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

Burn measure_burn() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  // ~0.25 s of integer work per thread: shorter bursts finish before the
  // scheduler spreads fresh threads over idle cores and read as 1 core.
  auto burn = [] {
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 100'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  auto timed = [&](unsigned n) {
    std::atomic<std::uint64_t> sink{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < n; ++i) {
      pool.emplace_back([&] { sink.fetch_xor(burn()); });
    }
    for (auto& t : pool) t.join();
    return seconds_since(t0);
  };
  Burn b;
  b.one_thread_s = timed(1);
  const double tn = timed(threads);
  const double cores = std::round(threads * b.one_thread_s / tn);
  b.usable_cores = static_cast<unsigned>(std::clamp(cores, 1.0, double(threads)));
  return b;
}

void print_calibration(const Burn& burn, double load_start, double load_end) {
  const char* rev = std::getenv("QBENCH_GIT_REV");
  std::printf(
      "calibration {\"usable_cores\": %u, \"hardware_threads\": %u, "
      "\"burn_1_thread_s\": %.4f, \"load_start\": %.2f, "
      "\"load_end\": %.2f, \"loaded\": %s, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_rev\": \"%s\"}\n",
      burn.usable_cores, std::thread::hardware_concurrency(), burn.one_thread_s,
      load_start, load_end, load_start > burn.usable_cores ? "true" : "false",
      QBENCH_BUILD_TYPE, QBENCH_COMPILER,
      rev != nullptr && *rev != '\0' ? rev : "unknown");
}

}  // namespace qbench
