// The three workloads. Each fills a Result with every end-to-end metric
// (untraced run) or with the per-layer metrics of the layers it calls
// (traced run); main() adds the per-layer metrics of layers a workload never
// calls as 0, so every run reports the same metric set.
#pragma once

#include "common.h"

namespace qbench {

void run_mc_exhaustive(const Options& opt, Result& out);
void run_smc_estimate(const Options& opt, Result& out);
void run_svc_mix(const Options& opt, Result& out);

/// SplitMix64 step: derives independent seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace qbench
