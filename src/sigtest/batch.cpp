#include "sigtest/batch.hpp"

#include <algorithm>
#include <utility>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "linalg/matrix.hpp"

namespace stf::sigtest {

BatchRuntime::BatchRuntime(const SignatureTestConfig& config,
                           stf::dsp::PwlWaveform stimulus,
                           std::vector<std::string> spec_names,
                           GuardPolicy policy, BatchOptions batch,
                           CalibrationOptions cal_options,
                           std::size_t max_signature_bins)
    : guarded_(config, std::move(stimulus), std::move(spec_names), policy,
               cal_options, max_signature_bins),
      batch_(batch) {
  STF_REQUIRE(batch_.batch_size >= 1, "BatchRuntime: batch_size < 1");
}

void BatchRuntime::calibrate(
    const std::vector<stf::rf::DeviceRecord>& training, stf::stats::Rng& rng,
    int n_avg) {
  guarded_.calibrate(training, rng, n_avg);
}

LotResult BatchRuntime::test_lot(const std::vector<const stf::rf::RfDut*>& lot,
                                 const stf::stats::Rng& rng,
                                 const stf::rf::FaultInjector* faults,
                                 std::uint64_t first_sequence) const {
  return test_lot(lot, rng, faults, first_sequence, batch_);
}

LotResult BatchRuntime::test_lot(const std::vector<const stf::rf::RfDut*>& lot,
                                 const stf::stats::Rng& rng,
                                 const stf::rf::FaultInjector* faults,
                                 std::uint64_t first_sequence,
                                 const BatchOptions& batch) const {
  STF_TRACE_SPAN("batch.test_lot");
  STF_REQUIRE(batch.batch_size >= 1, "BatchRuntime::test_lot: batch_size < 1");
  // Pin the calibration version ONCE for the whole lot: every device in it
  // screens and predicts on this snapshot, so a concurrent hot-swap never
  // mixes model versions inside a lot and the result stays bit-identical
  // to the serial reference run on the same version.
  const CalibrationVersion cal = guarded_.calibration();
  STF_REQUIRE(cal.model != nullptr && cal.screen != nullptr,
              "BatchRuntime::test_lot: not calibrated");
  const std::size_t n = lot.size();
  LotResult result;
  result.model_version = cal.version;
  result.dispositions.resize(n);
  if (n == 0) return result;
  for (const stf::rf::RfDut* dut : lot)
    STF_REQUIRE(dut != nullptr, "BatchRuntime::test_lot: null device");
  STF_COUNT("batch.lots");
  STF_COUNT("batch.devices", n);

  // Every device is independent: it owns the derived child stream
  // rng.derive(first_sequence + i), its fault sequence number, row i of the
  // lot's signature matrix and disposition slot i, and runs the guard's one
  // state machine on the pinned snapshot. No draw or write crosses a device
  // boundary, so any schedule gives the serial reference's dispositions,
  // and a retested device holds one worker, not the whole lot.
  const std::size_t m = guarded_.runtime().acquirer().signature_length();
  stf::la::Matrix signatures(n, m);
  stf::core::parallel_for(
      0, n,
      [&](std::size_t i) {
        stf::stats::Rng child = rng.derive(first_sequence + i);
        result.dispositions[i] = guarded_.test_device(
            *lot[i], child, cal, {signatures.row_ptr(i), m}, faults,
            first_sequence + i);
      },
      /*grain=*/1);

  // One predict_batch GEMV per batch_size chunk over the validated rows.
  // predict_batch preserves predict()'s accumulation order, so the batched
  // numbers are the serial numbers.
  std::vector<std::size_t> idx;
  for (std::size_t lo = 0; lo < n; lo += batch.batch_size) {
    const std::size_t hi = std::min(lo + batch.batch_size, n);
    idx.clear();
    for (std::size_t i = lo; i < hi; ++i)
      if (result.dispositions[i].has_prediction()) idx.push_back(i);
    if (idx.empty()) continue;
    stf::la::Matrix rows(idx.size(), m);
    for (std::size_t r = 0; r < idx.size(); ++r)
      std::copy_n(signatures.row_ptr(idx[r]), m, rows.row_ptr(r));
    const stf::la::Matrix pred = cal.model->predict_batch(rows);
    for (std::size_t r = 0; r < idx.size(); ++r)
      result.dispositions[idx[r]].predicted = pred.row(r);
  }

  for (const TestDisposition& d : result.dispositions) {
    switch (d.kind) {
      case DispositionKind::kPredicted: ++result.predicted; break;
      case DispositionKind::kPredictedAfterRetry: ++result.retried; break;
      case DispositionKind::kRoutedToConventional: ++result.routed; break;
    }
  }
  return result;
}

LotResult BatchRuntime::test_lot(const std::vector<stf::rf::DeviceRecord>& lot,
                                 const stf::stats::Rng& rng,
                                 const stf::rf::FaultInjector* faults,
                                 std::uint64_t first_sequence) const {
  std::vector<const stf::rf::RfDut*> duts;
  duts.reserve(lot.size());
  for (const stf::rf::DeviceRecord& rec : lot) duts.push_back(rec.dut.get());
  return test_lot(duts, rng, faults, first_sequence);
}

}  // namespace stf::sigtest
