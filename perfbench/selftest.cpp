// Self-test of the benchmark's own arithmetic (stats.hpp) against
// hand-computed samples. Exits non-zero on the first wrong answer; run.py
// builds and runs it before every benchmark run, so a broken helper can
// never produce a result.
//
//     python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++g_failures;
  }
}

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++g_failures;
  }
}

void test_percentile() {
  expect_near(perfbench::percentile({4, 1, 3, 2}, 50), 2.5, "p50 of 1..4");
  expect_near(perfbench::percentile({1, 2, 3, 4}, 90), 3.7, "p90 of 1..4");
  expect_near(perfbench::percentile({1, 2, 3, 4}, 0), 1.0, "p0 of 1..4");
  expect_near(perfbench::percentile({1, 2, 3, 4}, 100), 4.0, "p100 of 1..4");
  expect_near(perfbench::percentile({5}, 90), 5.0, "p90 of one sample");
  expect_near(perfbench::percentile({}, 50), 0.0, "p50 of nothing");
  expect_near(perfbench::median({10, 30, 20}), 20.0, "median of 3");
  expect_near(perfbench::lower_quartile({5, 1, 4, 2, 3}), 2.0,
              "lower quartile of 1..5");
  expect_near(perfbench::upper_quartile({5, 1, 4, 2, 3}), 4.0,
              "upper quartile of 1..5");
  expect_near(perfbench::lower_quartile({1, 2, 3, 100}), 1.75,
              "lower quartile ignores a spoiled window");
}

void test_poisson() {
  const auto a = perfbench::poisson_schedule(42, 1000.0, 10.0);
  const auto b = perfbench::poisson_schedule(42, 1000.0, 10.0);
  const auto c = perfbench::poisson_schedule(43, 1000.0, 10.0);
  expect(a == b, "same seed, same schedule");
  expect(a != c, "other seed, other schedule");
  bool ordered = !a.empty() && a.front() > 0.0 && a.back() < 10.0;
  for (std::size_t i = 1; i < a.size(); ++i) ordered = ordered && a[i] > a[i - 1];
  expect(ordered, "arrivals ascending inside the step");
  // 10000 expected arrivals, sd 100: five sd either side.
  expect(a.size() > 9500 && a.size() < 10500, "arrival count ~ rate x time");
  expect(perfbench::poisson_schedule(1, 0.0, 1.0).empty(), "zero rate");
  expect(perfbench::derive_seed(7, 1) != perfbench::derive_seed(7, 2) &&
             perfbench::derive_seed(7, 1) == perfbench::derive_seed(7, 1),
         "derived seeds distinct and stable");
}

void test_step_verdict() {
  using perfbench::StepVerdict;
  const perfbench::Slo slo;
  perfbench::StepOutcome s;
  s.scheduled = 1000;
  s.sent = 1000;
  s.p90_ms = 9.9;
  s.gen_lag_p90_ms = 0.1;
  expect(perfbench::judge_step(s, slo) == StepVerdict::kPass, "clean step");
  s.p90_ms = 10.1;
  expect(perfbench::judge_step(s, slo) == StepVerdict::kLatency, "slow step");
  s.p90_ms = 1.0;
  s.backlog = 14;  // slack 4 + 1% of 1000
  expect(perfbench::judge_step(s, slo) == StepVerdict::kPass,
         "backlog at the slack");
  s.backlog = 15;
  expect(perfbench::judge_step(s, slo) == StepVerdict::kBacklog,
         "backlog past the slack");
  s.backlog = 0;
  s.failed = 1;
  expect(perfbench::judge_step(s, slo) == StepVerdict::kFailures,
         "one failed lot");
  s.gen_lag_p90_ms = 2.5;
  expect(perfbench::judge_step(s, slo) == StepVerdict::kGenerator,
         "generator-bound step has no server verdict");
  expect(perfbench::highest_passing_step({StepVerdict::kPass,
                                          StepVerdict::kPass,
                                          StepVerdict::kLatency,
                                          StepVerdict::kBacklog}) == 1,
         "highest passing step");
  expect(perfbench::highest_passing_step({StepVerdict::kGenerator}) == -1,
         "no passing step");
}

void test_budget() {
  const auto b = perfbench::stage_budget({{"a", 1.0}, {"b", 2.5}}, 5.0);
  expect_near(b.attributed_ms, 3.5, "attributed");
  expect_near(b.unattributed_ms, 1.5, "unattributed");
  expect_near(b.unattributed_share, 0.3, "unattributed share");
  const auto over = perfbench::stage_budget({{"a", 6.0}}, 5.0);
  expect_near(over.unattributed_share, -0.2, "over-attributed budget");
}

}  // namespace

int main() {
  test_percentile();
  test_poisson();
  test_step_verdict();
  test_budget();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
