// FASTest-style runtime system (paper Fig. 5): the production-test engine.
//
// Calibration phase: each training device is measured for its reference
// specs (RF ATE / direct simulation) and its signature on the low-cost
// path; a CalibrationModel is fitted. Production phase: one signature
// acquisition per device and a regression evaluation yield every
// specification -- no RF ATE involved.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "dsp/pwl.hpp"
#include "rf/population.hpp"
#include "sigtest/acquisition.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/outlier.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// Per-spec scatter data and error metrics (what Figs. 8-10/12-13 plot).
struct SpecScatter {
  std::string name;
  std::vector<double> truth;      ///< Direct-simulation / measured spec.
  std::vector<double> predicted;  ///< Signature-test prediction.
  double rms_error = 0.0;
  double std_error = 0.0;  ///< The paper's "std(err)".
  double max_abs_error = 0.0;
  double r_squared = 0.0;
};

struct ValidationReport {
  std::vector<SpecScatter> specs;
};

/// One immutable published calibration: the regression model and the
/// outlier screen fitted on the same training signatures, plus the
/// monotonically increasing version number. Snapshotting this struct pins
/// a consistent (model, screen) pair for the duration of a lot.
struct CalibrationVersion {
  std::shared_ptr<const CalibrationModel> model;
  std::shared_ptr<const OutlierScreen> screen;
  std::uint64_t version = 0;  ///< 0 = never published.
};

/// The runtime: a configured signature path + optimized stimulus + the one
/// published calibration. Its single mutex guards the CalibrationVersion;
/// every other member is immutable after construction.
class FastestRuntime {
 public:
  FastestRuntime(const SignatureTestConfig& config,
                 stf::dsp::PwlWaveform stimulus,
                 std::vector<std::string> spec_names,
                 CalibrationOptions cal_options = {},
                 std::size_t max_signature_bins = 16);

  // Copying snapshots the published calibration under the source's lock
  // (model and screen are immutable and shared, never deep-copied).
  FastestRuntime(const FastestRuntime& other);
  FastestRuntime& operator=(const FastestRuntime&) = delete;

  /// Fit a calibration on the training devices without publishing it.
  /// Signatures are acquired with noise from rng (the real tester is noisy
  /// during calibration too); n_avg captures per device are averaged --
  /// calibration is a one-time effort, so spending extra captures there is
  /// standard practice and removes the errors-in-variables bias a noisy
  /// regressor suffers. The regression and the outlier screen see the same
  /// averaged signatures; the screen's per-bin variance is inflated by the
  /// single-capture noise floor, exactly as the model normalizes, so
  /// production (single-capture) scores are not biased outward. The
  /// returned version number is 0.
  CalibrationVersion fit(const std::vector<stf::rf::DeviceRecord>& training,
                         stf::stats::Rng& rng, int n_avg = 8) const;

  /// Publish a (model, screen) pair under live traffic and return its new
  /// version number. Both must be fitted and dimensionally compatible
  /// (signature_length == acquirer().signature_length(), n_specs ==
  /// spec_names().size()); anything else throws without publishing.
  /// Readers mid-test keep their snapshot; new tests see the new pair.
  std::uint64_t publish(std::shared_ptr<const CalibrationModel> model,
                        std::shared_ptr<const OutlierScreen> screen);

  /// One-time calibration: publish(fit(training, rng, n_avg)).
  void calibrate(const std::vector<stf::rf::DeviceRecord>& training,
                 stf::stats::Rng& rng, int n_avg = 8);

  /// RCU-style snapshot of the published calibration (null model and
  /// screen, version 0, before the first publish). The returned pair is
  /// immutable and stays valid for as long as the caller holds it, no
  /// matter how many publishes happen meanwhile -- this is what lets
  /// in-flight lots finish on the version they started with.
  CalibrationVersion calibration() const;

  /// Production-test one device: acquire its signature and map to specs.
  std::vector<double> test_device(const stf::rf::RfDut& dut,
                                  stf::stats::Rng& rng) const;

  /// Production-test one device through a degraded measurement chain: the
  /// fault injector corrupts the digitized capture before the signature
  /// stage (device `sequence` in the lot drives the slow-drift faults).
  /// This is the *unguarded* baseline the escape-rate benches compare
  /// GuardedRuntime against: a corrupted signature is regressed into spec
  /// predictions without any validation.
  std::vector<double> test_device(const stf::rf::RfDut& dut,
                                  stf::stats::Rng& rng,
                                  const stf::rf::FaultInjector& faults,
                                  std::uint64_t sequence) const;

  /// Test every validation device and compare predictions against their
  /// reference specs.
  ValidationReport validate(const std::vector<stf::rf::DeviceRecord>& devices,
                            stf::stats::Rng& rng) const;

  const SignatureAcquirer& acquirer() const { return acquirer_; }
  const stf::dsp::PwlWaveform& stimulus() const { return stimulus_; }
  const std::vector<std::string>& spec_names() const { return spec_names_; }
  bool calibrated() const { return calibration().model != nullptr; }

 private:
  // GuardedRuntime names snapshot_mutex_ in its lock-order annotation.
  friend class GuardedRuntime;

  SignatureAcquirer acquirer_;
  stf::dsp::PwlWaveform stimulus_;
  std::vector<std::string> spec_names_;
  CalibrationOptions cal_options_;
  mutable stf::core::Mutex snapshot_mutex_;
  CalibrationVersion published_ STF_GUARDED_BY(snapshot_mutex_);
};

}  // namespace stf::sigtest
