// Unit tests for the batched test-cell runtime (sigtest/batch.hpp): the
// determinism contract (batched dispositions bit-identical to the serial
// guarded reference at 1 and 4 threads, clean and faulted), batch-size
// invariance at both thread counts, concurrent lots on the shared pool,
// first_sequence offsets, the ate flow overload that consumes
// lot dispositions, and empty-lot/degenerate handling.
#include "sigtest/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "ate/flow.hpp"
#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "dsp/pwl.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

/// Pin the pool width for one test and restore the environment-resolved
/// default afterwards, so tests compose in any order.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

/// Shared calibrated runtime + lot; building one per TEST is the dominant
/// cost, so the fixture reuses a lazily-built static.
class BatchRuntimeTest : public ::testing::Test {
 protected:
  struct World {
    sigtest::BatchRuntime runtime;
    std::vector<rf::DeviceRecord> lot;

    explicit World(std::size_t batch_size)
        : runtime(sigtest::SignatureTestConfig::simulation_study(),
                  stimulus(), circuit::LnaSpecs::names(), policy(),
                  sigtest::BatchOptions{batch_size}),
          lot(rf::make_lna_population(24, 0.2, 77)) {
      const auto cal = rf::make_lna_population(40, 0.2, 21);
      stats::Rng cal_rng(7);
      runtime.calibrate(cal, cal_rng);
    }

    static dsp::PwlWaveform stimulus() {
      const auto cfg = sigtest::SignatureTestConfig::simulation_study();
      return dsp::PwlWaveform::uniform(
          cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.05, 0.2, 0.0, -0.2, 0.1});
    }

    static sigtest::GuardPolicy policy() {
      sigtest::GuardPolicy p;
      p.outlier_threshold = 2.5;
      return p;
    }
  };

  static World& world() {
    static World w(5);
    return w;
  }

  /// The serial reference from the BatchRuntime determinism contract.
  static std::vector<sigtest::TestDisposition> serial_reference(
      const World& w, std::uint64_t seed, const rf::FaultInjector* faults,
      std::uint64_t first_sequence = 0) {
    const stats::Rng base(seed);
    std::vector<sigtest::TestDisposition> out(w.lot.size());
    for (std::size_t i = 0; i < w.lot.size(); ++i) {
      stats::Rng child = base.derive(first_sequence + i);
      out[i] = w.runtime.guarded().test_device(*w.lot[i].dut, child, faults,
                                               first_sequence + i);
    }
    return out;
  }

  static void expect_identical(const std::vector<sigtest::TestDisposition>& a,
                               const std::vector<sigtest::TestDisposition>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind) << "device " << i;
      EXPECT_EQ(a[i].attempts, b[i].attempts) << "device " << i;
      EXPECT_EQ(a[i].captures, b[i].captures) << "device " << i;
      EXPECT_EQ(a[i].last_flaw, b[i].last_flaw) << "device " << i;
      // Bitwise, not approximate: the contract is bit-identity.
      EXPECT_EQ(a[i].outlier_score, b[i].outlier_score) << "device " << i;
      ASSERT_EQ(a[i].predicted.size(), b[i].predicted.size()) << "device " << i;
      for (std::size_t s = 0; s < a[i].predicted.size(); ++s)
        EXPECT_EQ(a[i].predicted[s], b[i].predicted[s])
            << "device " << i << " spec " << s;
    }
  }
};

TEST_F(BatchRuntimeTest, CleanLotMatchesSerialReferenceAtEveryThreadCount) {
  World& w = world();
  const auto reference = serial_reference(w, 9001, nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    const auto batched = w.runtime.test_lot(w.lot, stats::Rng(9001));
    expect_identical(reference, batched.dispositions);
    EXPECT_EQ(batched.predicted + batched.retried + batched.routed,
              w.lot.size());
  }
}

TEST_F(BatchRuntimeTest, FaultedLotMatchesSerialReferenceAtEveryThreadCount) {
  World& w = world();
  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.05:0.05");
  const auto reference = serial_reference(w, 9001, &faults);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    const auto batched = w.runtime.test_lot(w.lot, stats::Rng(9001), &faults);
    expect_identical(reference, batched.dispositions);
  }
  // The scenario must actually exercise the guard, or the equivalence above
  // proves nothing about the retest path.
  int guarded_activity = 0;
  for (const auto& d : reference)
    if (d.attempts > 1 || d.kind == sigtest::DispositionKind::kRoutedToConventional)
      ++guarded_activity;
  EXPECT_GT(guarded_activity, 0);
}

TEST_F(BatchRuntimeTest, BatchSizeDoesNotChangeDispositions) {
  World& w = world();
  const auto faults = rf::FaultInjector::parse("drop:0.01");
  const auto reference = serial_reference(w, 9001, &faults);
  // The lot must hold all three dispositions, so predict chunks carry
  // routed gaps between validated rows and retested devices hold workers.
  std::size_t kinds[3] = {0, 0, 0};
  for (const auto& d : reference) ++kinds[static_cast<int>(d.kind)];
  const std::size_t routed =
      kinds[static_cast<int>(sigtest::DispositionKind::kRoutedToConventional)];
  ASSERT_GT(kinds[static_cast<int>(sigtest::DispositionKind::kPredicted)], 0u);
  ASSERT_GT(
      kinds[static_cast<int>(sigtest::DispositionKind::kPredictedAfterRetry)],
      0u);
  ASSERT_GT(routed, 0u);
  std::vector<const rf::RfDut*> duts;
  for (const auto& rec : w.lot) duts.push_back(rec.dut.get());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{5}, std::size_t{16}, w.lot.size()}) {
      const auto batched =
          w.runtime.test_lot(duts, stats::Rng(9001), &faults, 0,
                             sigtest::BatchOptions{batch_size});
      SCOPED_TRACE(testing::Message() << "threads " << threads
                                      << " batch_size " << batch_size);
      expect_identical(reference, batched.dispositions);
      EXPECT_EQ(batched.routed, routed);
    }
  }
}

TEST_F(BatchRuntimeTest, ConcurrentLotsShareThePoolAndStayBitIdentical) {
  ThreadCountGuard guard(4);
  World& w = world();
  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.05:0.05");
  const auto clean_reference = serial_reference(w, 9001, nullptr);
  const auto faulted_reference = serial_reference(w, 4242, &faults);
  // Two callers dispatch onto the one persistent pool at once; the pool
  // serializes them, and each lot must still complete bit-identically.
  sigtest::LotResult clean, faulted;
  std::thread other([&] {
    faulted = w.runtime.test_lot(w.lot, stats::Rng(4242), &faults);
  });
  clean = w.runtime.test_lot(w.lot, stats::Rng(9001));
  other.join();
  expect_identical(clean_reference, clean.dispositions);
  expect_identical(faulted_reference, faulted.dispositions);
}

TEST_F(BatchRuntimeTest, FirstSequenceOffsetsTheDerivedStreams) {
  ThreadCountGuard guard(4);
  World& w = world();
  constexpr std::uint64_t kOffset = 1000;
  // Gain drift scales each capture by its fault sequence number, so the
  // offset must reach the faults as well as the rng streams.
  const auto drift = rf::FaultInjector::parse("gain:1e-5");
  const auto reference = serial_reference(w, 9001, &drift, kOffset);
  const auto batched =
      w.runtime.test_lot(w.lot, stats::Rng(9001), &drift, kOffset);
  expect_identical(reference, batched.dispositions);
  const auto no_drift =
      w.runtime.test_lot(w.lot, stats::Rng(9001), nullptr, kOffset);
  std::size_t drifted = 0;
  for (std::size_t i = 0; i < no_drift.dispositions.size(); ++i)
    if (no_drift.dispositions[i].predicted != batched.dispositions[i].predicted)
      ++drifted;
  EXPECT_GT(drifted, 0u) << "the drift fault never changed a prediction";
  // And the offset lot must differ from the unoffset one somewhere, or the
  // parameter is dead.
  const auto base = w.runtime.test_lot(w.lot, stats::Rng(9001));
  bool any_diff = false;
  for (std::size_t i = 0; i < base.dispositions.size() && !any_diff; ++i)
    any_diff = base.dispositions[i].predicted != batched.dispositions[i].predicted;
  EXPECT_TRUE(any_diff);
}

TEST_F(BatchRuntimeTest, TalliesMatchDispositionKinds) {
  ThreadCountGuard guard(1);
  World& w = world();
  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.05:0.05");
  const auto r = w.runtime.test_lot(w.lot, stats::Rng(9001), &faults);
  std::size_t predicted = 0, retried = 0, routed = 0;
  for (const auto& d : r.dispositions) {
    switch (d.kind) {
      case sigtest::DispositionKind::kPredicted: ++predicted; break;
      case sigtest::DispositionKind::kPredictedAfterRetry: ++retried; break;
      case sigtest::DispositionKind::kRoutedToConventional: ++routed; break;
    }
  }
  EXPECT_EQ(r.predicted, predicted);
  EXPECT_EQ(r.retried, retried);
  EXPECT_EQ(r.routed, routed);
  EXPECT_EQ(r.devices(), w.lot.size());
}

TEST_F(BatchRuntimeTest, EmptyLotReturnsEmptyResult) {
  World& w = world();
  const std::vector<const rf::RfDut*> empty;
  const auto r = w.runtime.test_lot(empty, stats::Rng(9001));
  EXPECT_EQ(r.devices(), 0u);
  EXPECT_EQ(r.predicted + r.retried + r.routed, 0u);
}

TEST_F(BatchRuntimeTest, RejectsInvalidOptionsAndUncalibratedUse) {
  EXPECT_THROW(sigtest::BatchRuntime(
                   sigtest::SignatureTestConfig::simulation_study(),
                   World::stimulus(), circuit::LnaSpecs::names(),
                   World::policy(), sigtest::BatchOptions{0}),
               std::invalid_argument);
  sigtest::BatchRuntime uncalibrated(
      sigtest::SignatureTestConfig::simulation_study(), World::stimulus(),
      circuit::LnaSpecs::names(), World::policy());
  EXPECT_THROW(uncalibrated.test_lot(world().lot, stats::Rng(1)),
               std::invalid_argument);
}

TEST_F(BatchRuntimeTest, AteFlowConsumesLotDispositions) {
  ThreadCountGuard guard(1);
  World& w = world();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<ate::SpecLimit> limits = {
      {"gain_db", 14.2, kInf},
      {"nf_db", -kInf, 2.6},
      {"iip3_dbm", -12.0, kInf},
  };
  std::vector<std::vector<double>> truth;
  for (const auto& dev : w.lot) truth.push_back(dev.specs.to_vector());

  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.05:0.05");
  const auto lot = w.runtime.test_lot(w.lot, stats::Rng(9001), &faults);
  const auto flow =
      ate::run_production_flow(truth, lot.dispositions, limits, 0.1);

  // The sigtest-native overload must agree with the manual mapping onto the
  // disposition-aware overload.
  std::vector<std::vector<double>> predicted;
  std::vector<ate::Disposition> mapped;
  for (const auto& d : lot.dispositions) {
    predicted.push_back(d.predicted);
    switch (d.kind) {
      case sigtest::DispositionKind::kPredicted:
        mapped.push_back(ate::Disposition::kPredicted);
        break;
      case sigtest::DispositionKind::kPredictedAfterRetry:
        mapped.push_back(ate::Disposition::kRetested);
        break;
      case sigtest::DispositionKind::kRoutedToConventional:
        mapped.push_back(ate::Disposition::kRoutedToConventional);
        break;
    }
  }
  const auto manual =
      ate::run_production_flow(truth, predicted, mapped, limits, 0.1);
  EXPECT_EQ(flow.true_pass, manual.true_pass);
  EXPECT_EQ(flow.true_fail, manual.true_fail);
  EXPECT_EQ(flow.test_escape, manual.test_escape);
  EXPECT_EQ(flow.yield_loss, manual.yield_loss);
  EXPECT_EQ(flow.retested, manual.retested);
  EXPECT_EQ(flow.routed_conventional, manual.routed_conventional);
  EXPECT_EQ(flow.total(), static_cast<int>(w.lot.size()));
  EXPECT_EQ(flow.retested, static_cast<int>(lot.retried));
  EXPECT_EQ(flow.routed_conventional, static_cast<int>(lot.routed));
}

}  // namespace
