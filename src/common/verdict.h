// Three-valued analysis verdicts and the uniform stop-reason vocabulary of
// the resource-governance layer. Every engine entry point reports one
// Verdict plus the StopReason that ended its computation; the contract
// (DESIGN.md "Verdict semantics") is:
//
//   * a definite verdict (kHolds / kViolated) is reported ONLY when
//     StopReason is kCompleted — a truncated, timed-out, cancelled or
//     faulted analysis is never a definite no (nor a definite yes);
//   * kUnknown always carries the StopReason saying which budget ran out,
//     together with whatever partial statistics were soundly established.
#pragma once

namespace quanta::common {

/// Why an analysis stopped. kCompleted is the only reason that supports a
/// definite verdict; every other value means graceful degradation.
enum class StopReason {
  kCompleted,    ///< ran to its natural end (goal found / space exhausted)
  kStateLimit,   ///< SearchLimits::max_states (or run/iteration cap) reached
  kTimeLimit,    ///< Budget wall-clock deadline passed
  kMemoryLimit,  ///< Budget memory ceiling exceeded (or allocation failed)
  kCancelled,    ///< the CancelToken fired (user or daemon cancellation)
  kFault,        ///< an injected or internal fault was absorbed (QUANTA_FAULT)
};

/// Three-valued outcome of a qualitative analysis.
enum class Verdict {
  kHolds,     ///< the property definitely holds
  kViolated,  ///< the property is definitely violated (witness found)
  kUnknown,   ///< a resource budget was hit before a sound answer existed
};

constexpr const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kStateLimit: return "state-limit";
    case StopReason::kTimeLimit: return "time-limit";
    case StopReason::kMemoryLimit: return "memory-limit";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kFault: return "fault";
  }
  return "?";
}

constexpr const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return "holds";
    case Verdict::kViolated: return "violated";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

/// The negation used when a property is checked through its dual (A[] safe
/// via E<> !safe, E[] psi via A<> !psi): definite answers flip, unknown
/// stays unknown.
constexpr Verdict negate(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return Verdict::kViolated;
    case Verdict::kViolated: return Verdict::kHolds;
    case Verdict::kUnknown: return Verdict::kUnknown;
  }
  return Verdict::kUnknown;
}

}  // namespace quanta::common
