// Pure helpers of the test-cell benchmark: order statistics, the seeded
// Poisson arrival schedule, the verdict of one offered-rate step, and the
// stage-budget arithmetic. Header-only so the
// driver and its self-test share one definition (selftest.cpp checks each
// against hand-computed samples).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: a seed-to-stream mixer with no library dependence, so the
/// benchmark's inputs are the same for a seed on every platform.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Child seed `stream` of `seed` (distinct streams never share values).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix64(mix64(seed) ^ mix64(stream + 0x632BE59BD9B4E019ULL));
}

/// Percentile p in [0, 100] with linear interpolation between closest
/// ranks (numpy's default). 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Quartiles of per-window figures, taken on the better side: the lower
/// quartile of times and the upper quartile of rates. A window spoiled by
/// CPU time the host gives to other tenants lands on the worse side, so
/// the figure holds while fewer than three quarters of the windows are
/// spoiled; a change that slows every window still moves it in full.
inline double lower_quartile(std::vector<double> v) {
  return percentile(std::move(v), 25.0);
}
inline double upper_quartile(std::vector<double> v) {
  return percentile(std::move(v), 75.0);
}

/// Arrival offsets (seconds from the step start, ascending, all < duration)
/// of a Poisson process of `rate` per second. The same (seed, rate,
/// duration) always yields the same schedule.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double duration_s) {
  std::vector<double> out;
  if (rate <= 0.0 || duration_s <= 0.0) return out;
  std::uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    state = mix64(state);
    // 53 random bits -> u in (0, 1]; -ln(u) is a unit exponential.
    const double u =
        (static_cast<double>(state >> 11) + 1.0) * (1.0 / 9007199254740992.0);
    t += -std::log(u) / rate;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

/// What one offered-rate step of an open loop produced.
struct StepOutcome {
  std::size_t scheduled = 0;  ///< Arrivals in the schedule.
  std::size_t sent = 0;       ///< Requests the generator sent.
  std::size_t failed = 0;     ///< Rejected, lost, or diverged.
  std::size_t backlog = 0;    ///< Due but unsent when the step closed.
  double p90_ms = 0.0;        ///< Latency from due time.
  double gen_lag_p90_ms = 0.0;  ///< Generator's own lateness.
};

/// The service-level objective a step is judged against.
struct Slo {
  double p90_limit_ms = 10.0;
  /// Backlog tolerated at step close before it counts as growing: a few
  /// requests due in the last instant are always still queued.
  std::size_t backlog_slack = 4;
  double backlog_fraction = 0.01;
  /// Generator lateness beyond this means the load generator, not the
  /// server, fell behind, and the step says nothing about the server.
  double gen_lag_limit_ms = 2.0;
};

enum class StepVerdict {
  kPass,
  kLatency,    ///< p90 over the limit.
  kFailures,   ///< Some lot failed.
  kBacklog,    ///< Arrivals outran completions.
  kGenerator,  ///< The generator fell behind: no verdict on the server.
};

inline const char* verdict_name(StepVerdict v) {
  switch (v) {
    case StepVerdict::kPass: return "pass";
    case StepVerdict::kLatency: return "p90>limit";
    case StepVerdict::kFailures: return "failures";
    case StepVerdict::kBacklog: return "backlog";
    case StepVerdict::kGenerator: return "generator-bound";
  }
  return "?";
}

inline StepVerdict judge_step(const StepOutcome& s, const Slo& slo) {
  if (s.gen_lag_p90_ms > slo.gen_lag_limit_ms) return StepVerdict::kGenerator;
  if (s.failed != 0) return StepVerdict::kFailures;
  const double allowed = static_cast<double>(slo.backlog_slack) +
                         slo.backlog_fraction * static_cast<double>(s.scheduled);
  if (static_cast<double>(s.backlog) > allowed) return StepVerdict::kBacklog;
  if (s.p90_ms > slo.p90_limit_ms) return StepVerdict::kLatency;
  return StepVerdict::kPass;
}

/// Index of the highest passing step of a ladder ordered by offered rate,
/// or -1 when none passes.
inline int highest_passing_step(const std::vector<StepVerdict>& verdicts) {
  for (int i = static_cast<int>(verdicts.size()) - 1; i >= 0; --i)
    if (verdicts[static_cast<std::size_t>(i)] == StepVerdict::kPass) return i;
  return -1;
}

/// One stage of a lot's blocking path, in ms per lot.
struct BudgetRow {
  std::string stage;
  double ms = 0.0;
};

/// The stage budget of one lot: what the stages account for and what is
/// left over. `unattributed_share` is negative when the stages add up to
/// more than the end-to-end time (overlap the stage model does not see).
struct StageBudget {
  std::vector<BudgetRow> rows;
  double total_ms = 0.0;
  double attributed_ms = 0.0;
  double unattributed_ms = 0.0;
  double unattributed_share = 0.0;
};

inline StageBudget stage_budget(std::vector<BudgetRow> rows, double total_ms) {
  StageBudget b;
  b.rows = std::move(rows);
  b.total_ms = total_ms;
  for (const BudgetRow& r : b.rows) b.attributed_ms += r.ms;
  b.unattributed_ms = total_ms - b.attributed_ms;
  b.unattributed_share = total_ms > 0.0 ? b.unattributed_ms / total_ms : 0.0;
  return b;
}

}  // namespace perfbench
