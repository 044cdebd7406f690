// Guarded production runtime: capture validation, bounded retest with
// escalating averaging, outlier routing, and golden-device drift monitoring
// layered on FastestRuntime.
//
// FastestRuntime assumes every capture is clean; on a real tester the
// measurement chain degrades (LO drift, digitizer railing, dropped samples,
// intermittent contact -- see rf/faults.hpp) and a corrupted signature
// would be regressed into a confidently wrong spec prediction. The
// GuardedRuntime interposes a validation pipeline in front of the
// regression:
//
//   capture -> finiteness firewall -> railing detector -> signature
//           -> OutlierScreen envelope check -> predict
//
// A suspect capture is retried up to GuardPolicy::max_attempts times with
// escalating capture averaging (transient faults average out; persistent
// ones do not), and a device whose captures never validate is routed to
// conventional per-spec test instead of being predicted -- the disposition
// a production flow can act on. Every outcome is a typed TestDisposition;
// the hot path never throws on bad data. Telemetry counters (guard.retries,
// guard.escalations, guard.routed, guard.drift_alarms) expose the guard's
// activity to the observability layer. This is the only copy of the retest
// state machine: BatchRuntime runs it once per device, on a pinned
// calibration, and batches only the predict step.
//
// The clean path is bit-compatible with the unguarded runtime: with no
// faults and a capture that validates first try, test_device() consumes
// exactly the same rng draws and produces exactly the same prediction as
// FastestRuntime::test_device.
//
// Calibration versions and hot-swap: the model + outlier screen pair is an
// immutable, versioned CalibrationVersion that the wrapped FastestRuntime
// alone holds and publishes RCU-style behind shared_ptr<const>.
// test_device() snapshots the current version once at entry and finishes
// on it, so a concurrent swap_calibration() (the online recalibration
// path, src/store/recalibrate.hpp) never stops or tears an in-flight test
// -- (seed, lot, model-version) stays bit-reproducible. Swapping resets
// the drift monitor: a fresh model must not inherit the drifted model's
// latched alarm, smoothed EWMA, or sample count. The guard's own mutex
// guards only that drift monitor; it is always taken before the runtime's
// snapshot lock, never after.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "dsp/pwl.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/outlier.hpp"
#include "sigtest/runtime.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// Knobs of the capture-validation and retest policy.
struct GuardPolicy {
  /// Total capture attempts per device (first try + retries).
  int max_attempts = 3;
  /// Captures averaged per retry attempt: attempt k >= 2 averages
  /// escalation_averages^(k-1) captures, so escalation is geometric.
  int escalation_averages = 4;
  /// OutlierScreen score above which a signature is suspect.
  double outlier_threshold = 4.0;
  /// A capture is "railed" when more than this fraction of samples sit at
  /// the capture's own extreme value (exact-equality railing; a clean noisy
  /// capture attains its maximum essentially once). Note: a coarse
  /// quantizer (Digitizer::bits small) can legitimately repeat the top
  /// code; raise this limit for such configurations.
  double rail_fraction_limit = 0.02;
  /// EWMA smoothing factor of the golden-device drift monitor.
  double drift_ewma_alpha = 0.25;
  /// EWMA outlier-score level that raises the recalibration flag.
  double drift_alarm_score = 2.0;
};

/// What the guard concluded about a device.
enum class DispositionKind {
  kPredicted,             ///< Clean first-attempt capture, prediction valid.
  kPredictedAfterRetry,   ///< Validated only after retry/escalation.
  kRoutedToConventional,  ///< Never validated: send to per-spec ATE test.
};

/// Why the most recent capture attempt was rejected.
enum class CaptureFlaw {
  kNone,       ///< Capture validated.
  kNonFinite,  ///< NaN/Inf sample or signature bin.
  kRailed,     ///< Clipping/railing detected in the time-domain capture.
  kOutlier,    ///< Signature outside the calibration envelope.
};

/// Typed result of one guarded device test. No exceptions on the hot path:
/// every outcome, including "do not trust a prediction for this part", is
/// representable.
struct TestDisposition {
  DispositionKind kind = DispositionKind::kRoutedToConventional;
  std::vector<double> predicted;  ///< Empty iff routed to conventional.
  int attempts = 0;               ///< Capture attempts consumed.
  int captures = 0;               ///< Individual captures consumed.
  double outlier_score = 0.0;     ///< Screen score of the last signature.
  CaptureFlaw last_flaw = CaptureFlaw::kNone;  ///< Last rejection reason.

  bool has_prediction() const {
    return kind != DispositionKind::kRoutedToConventional;
  }
};

/// One golden-device drift check.
struct DriftStatus {
  double score = 0.0;  ///< This check's outlier score.
  double ewma = 0.0;   ///< Smoothed score.
  bool alarm = false;  ///< Recalibration flag (latched).
};

/// FastestRuntime plus the validation/retest/escalation/drift machinery.
class GuardedRuntime {
 public:
  GuardedRuntime(const SignatureTestConfig& config,
                 stf::dsp::PwlWaveform stimulus,
                 std::vector<std::string> spec_names, GuardPolicy policy = {},
                 CalibrationOptions cal_options = {},
                 std::size_t max_signature_bins = 16);

  // Copying snapshots the published calibration under the source's
  // snapshot lock and the drift state under its drift lock; model and
  // screen stay shared (they are immutable).
  GuardedRuntime(const GuardedRuntime& other);
  GuardedRuntime& operator=(const GuardedRuntime&) = delete;

  /// Fit and publish the regression and the outlier screen
  /// (FastestRuntime::fit), then reset the drift monitor.
  void calibrate(const std::vector<stf::rf::DeviceRecord>& training,
                 stf::stats::Rng& rng, int n_avg = 8);

  /// Guarded production test of one device. `faults` (optional) simulates a
  /// degraded measurement chain; `sequence` is the device's lot position
  /// (drives slow-drift faults). Deterministic: same seed, same scenario,
  /// same disposition, at any STF_THREADS. Pins the current calibration
  /// version, runs the overload below, then predicts.
  TestDisposition test_device(const stf::rf::RfDut& dut, stf::stats::Rng& rng,
                              const stf::rf::FaultInjector* faults = nullptr,
                              std::uint64_t sequence = 0) const;

  /// The guard state machine itself, on a caller-pinned calibration and up
  /// to (not including) predict: capture, validate, retest with escalating
  /// averaging, screen against `cal.screen`. The validated signature is
  /// written to `signature` (length acquirer().signature_length()), whose
  /// contents are meaningful only when the returned disposition
  /// has_prediction(); `predicted` is left empty for the caller to fill.
  /// Capture scratch lives in the calling thread's arena, so BatchRuntime
  /// runs one call per device concurrently with no per-device heap use.
  TestDisposition test_device(const stf::rf::RfDut& dut, stf::stats::Rng& rng,
                              const CalibrationVersion& cal,
                              std::span<double> signature,
                              const stf::rf::FaultInjector* faults,
                              std::uint64_t sequence) const;

  /// Measure a golden (known-good, stable) device and update the EWMA drift
  /// monitor. When the smoothed outlier score crosses
  /// GuardPolicy::drift_alarm_score the recalibration flag latches: the
  /// signature path itself -- not the device -- has wandered.
  /// `out_signature` (optional) receives the golden capture's signature, so
  /// a recalibration loop can harvest its rolling refit window from the
  /// very captures the monitor already paid for.
  DriftStatus monitor_golden(const stf::rf::RfDut& golden,
                             stf::stats::Rng& rng,
                             const stf::rf::FaultInjector* faults = nullptr,
                             std::uint64_t sequence = 0,
                             Signature* out_signature = nullptr);

  /// Latched drift alarm: predictions are suspect until recalibration.
  bool recalibration_needed() const;
  /// Golden checks folded into the EWMA since the last reset/swap.
  std::uint64_t drift_checks() const;
  /// Clear the drift monitor (after recalibrating the physical path):
  /// latched alarm, smoothed EWMA, and sample count all reset together.
  void reset_drift_monitor();

  /// Snapshot the current calibration version (RCU read side): the
  /// wrapped runtime's FastestRuntime::calibration().
  CalibrationVersion calibration() const { return runtime_.calibration(); }

  /// Hot-swap in a new (model, screen) pair under live traffic and return
  /// the new version number. FastestRuntime::publish validates it and
  /// throws without swapping on a mismatch. Resets the drift monitor in
  /// the same drift-lock critical section as the publish -- the new model
  /// must not be re-alarmed by the old model's history. Callable on a
  /// never-calibrated runtime (the store cold-start path).
  std::uint64_t swap_calibration(
      std::shared_ptr<const CalibrationModel> model,
      std::shared_ptr<const OutlierScreen> screen);

  bool calibrated() const { return runtime_.calibrated(); }
  const FastestRuntime& runtime() const { return runtime_; }
  const GuardPolicy& policy() const { return policy_; }

 private:
  /// Reset drift state with drift_mutex_ already held (swap path).
  void reset_drift_monitor_locked() STF_REQUIRES(drift_mutex_);

  FastestRuntime runtime_;
  GuardPolicy policy_;
  // The drift monitor. A swap publishes the new calibration AND clears the
  // drift history under this lock, and a golden check pins the snapshot,
  // scores and folds under it, so no check folds a pre-swap score into a
  // post-swap EWMA. Lock order: drift_mutex_, then the snapshot lock.
  mutable stf::core::Mutex drift_mutex_
      STF_ACQUIRED_BEFORE(runtime_.snapshot_mutex_);
  double drift_ewma_ STF_GUARDED_BY(drift_mutex_) = 0.0;
  bool drift_seeded_ STF_GUARDED_BY(drift_mutex_) = false;
  bool drift_alarm_ STF_GUARDED_BY(drift_mutex_) = false;
  std::uint64_t drift_checks_ STF_GUARDED_BY(drift_mutex_) = 0;
};

}  // namespace stf::sigtest
