#include "sigtest/runtime.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"
#include "stats/metrics.hpp"

namespace stf::sigtest {

FastestRuntime::FastestRuntime(const SignatureTestConfig& config,
                               stf::dsp::PwlWaveform stimulus,
                               std::vector<std::string> spec_names,
                               CalibrationOptions cal_options,
                               std::size_t max_signature_bins)
    : acquirer_(config, max_signature_bins),
      stimulus_(std::move(stimulus)),
      spec_names_(std::move(spec_names)),
      cal_options_(cal_options) {
  STF_REQUIRE(!spec_names_.empty(), "FastestRuntime: no spec names");
}

// stf-analyze: allow(api-contract) -- copying an already-validated object
FastestRuntime::FastestRuntime(const FastestRuntime& other)
    : acquirer_(other.acquirer_),
      stimulus_(other.stimulus_),
      spec_names_(other.spec_names_),
      cal_options_(other.cal_options_),
      published_(other.calibration()) {}

CalibrationVersion FastestRuntime::calibration() const {
  const stf::core::LockGuard lock(snapshot_mutex_);
  return published_;
}

std::uint64_t FastestRuntime::publish(
    std::shared_ptr<const CalibrationModel> model,
    std::shared_ptr<const OutlierScreen> screen) {
  STF_REQUIRE(model != nullptr, "FastestRuntime::publish: null model");
  STF_REQUIRE(model->fitted(), "FastestRuntime::publish: unfitted model");
  STF_REQUIRE(model->signature_length() == acquirer_.signature_length(),
              "FastestRuntime::publish: signature length mismatch");
  STF_REQUIRE(model->n_specs() == spec_names_.size(),
              "FastestRuntime::publish: spec count mismatch");
  STF_REQUIRE(screen != nullptr, "FastestRuntime::publish: null screen");
  STF_REQUIRE(screen->fitted(), "FastestRuntime::publish: unfitted screen");
  STF_REQUIRE(screen->signature_length() == acquirer_.signature_length(),
              "FastestRuntime::publish: screen length mismatch");
  const stf::core::LockGuard lock(snapshot_mutex_);
  published_.model = std::move(model);
  published_.screen = std::move(screen);
  return ++published_.version;
}

CalibrationVersion FastestRuntime::fit(
    const std::vector<stf::rf::DeviceRecord>& training,
    stf::stats::Rng& rng, int n_avg) const {
  STF_TRACE_SPAN("runtime.calibrate");
  STF_REQUIRE(training.size() >= 2,
              "FastestRuntime::fit: need >= 2 devices");
  STF_REQUIRE(n_avg >= 1, "FastestRuntime::fit: n_avg < 1");
  const std::size_t m = acquirer_.signature_length();
  const std::size_t n_specs = spec_names_.size();

  auto model = std::make_shared<CalibrationModel>(cal_options_);
  CaptureFitData data;
  fit_from_captures(
      *model, training.size(),
      [&](std::size_t i) {
        const Signature s =
            acquirer_.acquire(*training[i].dut, stimulus_, &rng);
        STF_REQUIRE(s.size() == m, "FastestRuntime: signature length mismatch");
        return s;
      },
      [&](std::size_t i) {
        const std::vector<double> p = training[i].specs.to_vector();
        STF_REQUIRE(p.size() == n_specs,
                    "FastestRuntime: spec vector mismatch");
        return p;
      },
      n_avg, &data);
  auto screen = std::make_shared<OutlierScreen>();
  screen->fit(data.signatures, data.noise_var);
  return CalibrationVersion{std::move(model), std::move(screen), 0};
}

void FastestRuntime::calibrate(
    const std::vector<stf::rf::DeviceRecord>& training,
    stf::stats::Rng& rng, int n_avg) {
  const CalibrationVersion fitted = fit(training, rng, n_avg);
  publish(fitted.model, fitted.screen);
}

std::vector<double> FastestRuntime::test_device(const stf::rf::RfDut& dut,
                                                stf::stats::Rng& rng) const {
  STF_TRACE_SPAN("runtime.test_device");
  STF_COUNT("runtime.devices_tested");
  const auto model = calibration().model;
  STF_REQUIRE(model != nullptr, "FastestRuntime::test_device: not calibrated");
  return model->predict(acquirer_.acquire(dut, stimulus_, &rng));
}

std::vector<double> FastestRuntime::test_device(
    const stf::rf::RfDut& dut, stf::stats::Rng& rng,
    const stf::rf::FaultInjector& faults, std::uint64_t sequence) const {
  STF_TRACE_SPAN("runtime.test_device");
  STF_COUNT("runtime.devices_tested");
  const auto model = calibration().model;
  STF_REQUIRE(model != nullptr, "FastestRuntime::test_device: not calibrated");
  return model->predict(acquirer_.acquire(dut, stimulus_, &rng, faults,
                                          sequence));
}

ValidationReport FastestRuntime::validate(
    const std::vector<stf::rf::DeviceRecord>& devices,
    stf::stats::Rng& rng) const {
  STF_TRACE_SPAN("runtime.validate");
  STF_REQUIRE(!devices.empty(), "FastestRuntime::validate: no devices");
  const std::size_t n_specs = spec_names_.size();

  ValidationReport report;
  report.specs.resize(n_specs);
  for (std::size_t s = 0; s < n_specs; ++s)
    report.specs[s].name = spec_names_[s];

  for (const auto& device : devices) {
    const std::vector<double> predicted = test_device(*device.dut, rng);
    const std::vector<double> truth = device.specs.to_vector();
    for (std::size_t s = 0; s < n_specs; ++s) {
      report.specs[s].truth.push_back(truth[s]);
      report.specs[s].predicted.push_back(predicted[s]);
    }
  }
  for (auto& spec : report.specs) {
    spec.rms_error = stf::stats::rms_error(spec.truth, spec.predicted);
    spec.std_error = stf::stats::std_error(spec.truth, spec.predicted);
    spec.max_abs_error = stf::stats::max_abs_error(spec.truth, spec.predicted);
    spec.r_squared = stf::stats::r_squared(spec.truth, spec.predicted);
  }
  return report;
}

}  // namespace stf::sigtest
