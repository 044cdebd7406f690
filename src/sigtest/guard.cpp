#include "sigtest/guard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace stf::sigtest {

namespace {

/// Time-domain validation: finiteness + railing. Returns kNone if clean.
CaptureFlaw inspect_capture(std::span<const double> capture,
                            double rail_fraction_limit) {
  double peak = 0.0;
  for (double v : capture) {
    if (!std::isfinite(v)) return CaptureFlaw::kNonFinite;
    peak = std::max(peak, std::abs(v));
  }
  // All-zero captures carry no railing evidence; the outlier screen decides.
  if (peak <= 0.0) return CaptureFlaw::kNone;
  // Railing: a clipped front-end pins samples to the same extreme code, so
  // the capture's maximum is attained many times *exactly*. A clean noisy
  // capture attains its maximum essentially once (additive noise breaks
  // ties), so exact-equality counting separates the two without knowing the
  // rail voltage.
  const double rail = peak * (1.0 - 1e-9);
  std::size_t at_rail = 0;
  for (double v : capture)
    if (std::abs(v) >= rail) ++at_rail;
  if (static_cast<double>(at_rail) >
      rail_fraction_limit * static_cast<double>(capture.size()))
    return CaptureFlaw::kRailed;
  return CaptureFlaw::kNone;
}

}  // namespace

GuardedRuntime::GuardedRuntime(const SignatureTestConfig& config,
                               stf::dsp::PwlWaveform stimulus,
                               std::vector<std::string> spec_names,
                               GuardPolicy policy,
                               CalibrationOptions cal_options,
                               std::size_t max_signature_bins)
    : runtime_(config, std::move(stimulus), std::move(spec_names),
               cal_options, max_signature_bins),
      policy_(policy) {
  STF_REQUIRE(policy_.max_attempts >= 1, "GuardedRuntime: max_attempts < 1");
  STF_REQUIRE(policy_.escalation_averages >= 1,
              "GuardedRuntime: escalation_averages < 1");
  STF_REQUIRE(policy_.outlier_threshold > 0.0,
              "GuardedRuntime: outlier_threshold <= 0");
  STF_REQUIRE(policy_.rail_fraction_limit > 0.0,
              "GuardedRuntime: rail_fraction_limit <= 0");
  STF_REQUIRE(policy_.drift_ewma_alpha > 0.0 && policy_.drift_ewma_alpha <= 1.0,
              "GuardedRuntime: drift_ewma_alpha outside (0, 1]");
}

// stf-analyze: allow(api-contract) -- copying an already-validated object
GuardedRuntime::GuardedRuntime(const GuardedRuntime& other)
    : runtime_(other.runtime_), policy_(other.policy_) {
  const stf::core::LockGuard lock(other.drift_mutex_);
  drift_ewma_ = other.drift_ewma_;
  drift_seeded_ = other.drift_seeded_;
  drift_alarm_ = other.drift_alarm_;
  drift_checks_ = other.drift_checks_;
}

void GuardedRuntime::calibrate(
    const std::vector<stf::rf::DeviceRecord>& training, stf::stats::Rng& rng,
    int n_avg) {
  const CalibrationVersion fitted = runtime_.fit(training, rng, n_avg);
  const stf::core::LockGuard lock(drift_mutex_);
  runtime_.publish(fitted.model, fitted.screen);
  reset_drift_monitor_locked();
}

std::uint64_t GuardedRuntime::swap_calibration(
    std::shared_ptr<const CalibrationModel> model,
    std::shared_ptr<const OutlierScreen> screen) {
  STF_TRACE_SPAN("guard.swap_calibration");
  const stf::core::LockGuard lock(drift_mutex_);
  // publish validates the pair and throws before anything is published.
  const std::uint64_t version =
      runtime_.publish(std::move(model), std::move(screen));
  // A freshly swapped-in model must not inherit the drifted model's latched
  // alarm, smoothed EWMA, or sample count: the whole point of the swap is
  // that the path is considered recalibrated.
  reset_drift_monitor_locked();
  STF_COUNT("guard.calibration_swaps");
  return version;
}

TestDisposition GuardedRuntime::test_device(
    const stf::rf::RfDut& dut, stf::stats::Rng& rng,
    const stf::rf::FaultInjector* faults, std::uint64_t sequence) const {
  STF_TRACE_SPAN("guard.test_device");
  // Pin this device's calibration version once at entry: a concurrent
  // hot-swap must never mix versions inside one device's screen + predict.
  const CalibrationVersion cal = calibration();
  STF_REQUIRE(cal.model != nullptr && cal.screen != nullptr,
              "GuardedRuntime::test_device: not calibrated");
  Signature signature(runtime_.acquirer().signature_length());
  TestDisposition d = test_device(dut, rng, cal, signature, faults, sequence);
  if (d.has_prediction()) d.predicted = cal.model->predict(signature);
  return d;
}

TestDisposition GuardedRuntime::test_device(
    const stf::rf::RfDut& dut, stf::stats::Rng& rng,
    const CalibrationVersion& cal, std::span<double> signature,
    const stf::rf::FaultInjector* faults, std::uint64_t sequence) const {
  const SignatureAcquirer& acq = runtime_.acquirer();
  const std::size_t m = acq.signature_length();
  STF_REQUIRE(cal.screen != nullptr,
              "GuardedRuntime::test_device: not calibrated");
  STF_REQUIRE(signature.size() == m,
              "GuardedRuntime::test_device: signature row length mismatch");
  STF_COUNT("guard.devices");
  const double fs = acq.config().digitizer.fs_hz;

  // The capture and the per-capture signature live in the per-thread arena,
  // so in steady state a device touches the heap only for its disposition.
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<double> capture(
      acq.capture_length(), 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> sig(
      m, 0.0, stf::core::ArenaAllocator<double>(&arena));
  const std::span<double> cap(capture.data(), capture.size());

  TestDisposition d;
  int n_avg = 1;
  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (attempt > 1) {
      STF_COUNT("guard.retries");
      n_avg *= policy_.escalation_averages;
      if (n_avg > 1) STF_COUNT("guard.escalations");
    }
    d.attempts = attempt;

    // Acquire and average this attempt's captures, validating each one in
    // the time domain before it contributes. A flawed capture aborts the
    // attempt before the division: its partial sum is never screened.
    CaptureFlaw flaw = CaptureFlaw::kNone;
    std::fill(signature.begin(), signature.end(), 0.0);
    for (int c = 0; c < n_avg; ++c) {
      acq.raw_capture_into(dut, runtime_.stimulus(), &rng, cap);
      ++d.captures;
      if (faults != nullptr) faults->apply(cap, fs, sequence, rng);
      flaw = inspect_capture(cap, policy_.rail_fraction_limit);
      if (flaw != CaptureFlaw::kNone) break;
      acq.signature_into(cap, {sig.data(), sig.size()});
      for (std::size_t j = 0; j < m; ++j) signature[j] += sig[j];
    }
    if (flaw == CaptureFlaw::kNone) {
      for (double& v : signature) v /= static_cast<double>(n_avg);
      // Signature-space validation against the pinned envelope. score()
      // maps non-finite bins to +inf, so finiteness is checked first only
      // to label the flaw.
      d.outlier_score = cal.screen->score(std::span<const double>(signature));
      if (!std::isfinite(d.outlier_score))
        flaw = CaptureFlaw::kNonFinite;
      else if (d.outlier_score > policy_.outlier_threshold)
        flaw = CaptureFlaw::kOutlier;
    }
    d.last_flaw = flaw;
    if (flaw != CaptureFlaw::kNone) continue;  // retry, escalated

    d.kind = attempt == 1 ? DispositionKind::kPredicted
                          : DispositionKind::kPredictedAfterRetry;
    return d;
  }

  // Every attempt failed validation: do not predict. The production flow
  // routes this part to conventional per-spec test.
  d.kind = DispositionKind::kRoutedToConventional;
  STF_COUNT("guard.routed");
  return d;
}

DriftStatus GuardedRuntime::monitor_golden(const stf::rf::RfDut& golden,
                                           stf::stats::Rng& rng,
                                           const stf::rf::FaultInjector* faults,
                                           std::uint64_t sequence,
                                           Signature* out_signature) {
  STF_TRACE_SPAN("guard.monitor_golden");
  STF_COUNT("guard.drift_checks");
  STF_REQUIRE(runtime_.calibrated(),
              "GuardedRuntime::monitor_golden: not calibrated");
  const SignatureAcquirer& acq = runtime_.acquirer();
  Signature signature(acq.signature_length());
  {
    stf::core::Arena& arena = stf::core::capture_arena();
    const stf::core::ArenaScope scope(arena);
    stf::core::ArenaVector<double> capture(
        acq.capture_length(), 0.0, stf::core::ArenaAllocator<double>(&arena));
    const std::span<double> cap(capture.data(), capture.size());
    acq.raw_capture_into(golden, runtime_.stimulus(), &rng, cap);
    if (faults != nullptr)
      faults->apply(cap, acq.config().digitizer.fs_hz, sequence, rng);
    acq.signature_into(cap, signature);
  }

  DriftStatus status;
  {
    // Pin, score and fold in ONE drift-lock critical section: a concurrent
    // swap either happens before this check (scored by the new screen,
    // folded into the reset monitor) or after it (old screen, old monitor)
    // -- never a torn mix.
    const stf::core::LockGuard lock(drift_mutex_);
    const CalibrationVersion cal = runtime_.calibration();
    STF_REQUIRE(cal.screen != nullptr,
                "GuardedRuntime::monitor_golden: not calibrated");
    status.score = cal.screen->score(signature);
    // A single wild golden capture should not trigger recalibration of the
    // whole line; the EWMA demands a *sustained* wander. Non-finite scores
    // saturate the EWMA to the alarm level instead of poisoning it with NaN.
    const double score_for_ewma =
        std::isfinite(status.score)
            ? status.score
            : policy_.drift_alarm_score / policy_.drift_ewma_alpha;
    if (!drift_seeded_) {
      drift_ewma_ = score_for_ewma;
      drift_seeded_ = true;
    } else {
      drift_ewma_ = (1.0 - policy_.drift_ewma_alpha) * drift_ewma_ +
                    policy_.drift_ewma_alpha * score_for_ewma;
    }
    ++drift_checks_;
    status.ewma = drift_ewma_;
    if (drift_ewma_ > policy_.drift_alarm_score && !drift_alarm_) {
      drift_alarm_ = true;
      STF_COUNT("guard.drift_alarms");
    }
    status.alarm = drift_alarm_;
  }
  if (out_signature != nullptr) *out_signature = std::move(signature);
  return status;
}

bool GuardedRuntime::recalibration_needed() const {
  const stf::core::LockGuard lock(drift_mutex_);
  return drift_alarm_;
}

std::uint64_t GuardedRuntime::drift_checks() const {
  const stf::core::LockGuard lock(drift_mutex_);
  return drift_checks_;
}

void GuardedRuntime::reset_drift_monitor() {
  const stf::core::LockGuard lock(drift_mutex_);
  reset_drift_monitor_locked();
}

void GuardedRuntime::reset_drift_monitor_locked() {
  drift_ewma_ = 0.0;
  drift_seeded_ = false;
  drift_alarm_ = false;
  drift_checks_ = 0;
}

}  // namespace stf::sigtest
