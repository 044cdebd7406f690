// Thread-count determinism suite: every parallelized hot path must produce
// bit-identical results under STF_THREADS=1 and STF_THREADS=4. Exact
// (operator==) comparisons throughout -- "close enough" would hide
// scheduling-dependent reduction orders, which are precisely the bug class
// this suite exists to catch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/acquisition.hpp"
#include "sigtest/batch.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/optimizer.hpp"
#include "sigtest/sensitivity.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

/// Pin the pool width for one run and restore the environment default after.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

std::vector<double> flatten_matrix(const la::Matrix& m) {
  return {m.data(), m.data() + m.size()};
}

TEST(ThreadDeterminism, LnaPopulationIsBitIdentical) {
  const auto run = [](std::size_t threads) {
    ThreadCountGuard guard(threads);
    return rf::make_lna_population(10, 0.2, 77);
  };
  const auto a = run(1);
  const auto b = run(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].process, b[i].process) << "device " << i;
    EXPECT_EQ(a[i].specs.to_vector(), b[i].specs.to_vector())
        << "device " << i;
  }
}

TEST(ThreadDeterminism, SensitivityMatricesAreBitIdentical) {
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);
  const auto stimulus = dsp::PwlWaveform::uniform(
      config.capture_s, {0.0, 0.3, -0.3, 0.15, -0.15, 0.25, -0.25, 0.0});

  const auto run = [&](std::size_t threads) {
    ThreadCountGuard guard(threads);
    const sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                           circuit::Lna900::nominal(), 0.05);
    return std::pair{flatten_matrix(perturb.spec_sensitivity()),
                     flatten_matrix(
                         perturb.signature_sensitivity(acquirer, stimulus))};
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_EQ(a.first, b.first);    // A_p
  EXPECT_EQ(a.second, b.second);  // A_s
}

TEST(ThreadDeterminism, StimulusOptimizerIsBitIdentical) {
  // The full LNA900 GA study end-to-end, scaled down: signatures, GA
  // history, best genome and the final objective must not depend on the
  // worker count.
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);

  const auto run = [&](std::size_t threads) {
    ThreadCountGuard guard(threads);
    const sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                           circuit::Lna900::nominal(), 0.05);
    sigtest::StimulusOptimizerConfig oc;
    oc.encoding.n_breakpoints = 8;
    oc.encoding.duration_s = config.capture_s;
    oc.encoding.v_min = -0.45;
    oc.encoding.v_max = 0.45;
    oc.ga.population = 6;
    oc.ga.generations = 3;
    oc.ga.seed = 5;
    return sigtest::optimize_stimulus(perturb, acquirer, oc);
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.waveform.to_csv(), b.waveform.to_csv());
}

TEST(ThreadDeterminism, CalibrationCoefficientsAreBitIdentical) {
  // Serialized model text is an exact fingerprint of every fitted
  // coefficient (17 significant digits), so string equality is bit equality.
  const auto run = [](std::size_t threads) {
    ThreadCountGuard guard(threads);
    stats::Rng rng(11);
    const std::size_t n = 40, m = 12, n_specs = 3;
    la::Matrix sig(n, m), specs(n, n_specs);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
      for (std::size_t s = 0; s < n_specs; ++s) specs(i, s) = rng.normal();
    }
    sigtest::CalibrationOptions opts;
    opts.poly_degree = 2;
    const auto tuned = sigtest::select_ridge_by_cv(
        sig, specs, opts, {1e-6, 1e-4, 1e-2, 1.0}, 4);
    sigtest::CalibrationModel model(tuned);
    model.fit(sig, specs);
    return model.serialize();
  };
  const std::string a = run(1);
  const std::string b = run(4);
  EXPECT_EQ(a, b);
}

TEST(ThreadDeterminism, DerivedRngStreamsAreScheduleIndependent) {
  // derive(i) depends only on (seed, i): consuming the parent in a
  // different order, or deriving from a partially-consumed parent, must not
  // change any child stream -- that is what makes per-item streams safe to
  // hand out from a parallel loop.
  stats::Rng fresh(123);
  stats::Rng consumed(123);
  for (int i = 0; i < 100; ++i) consumed.normal();

  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    stats::Rng a = fresh.derive(stream);
    stats::Rng b = consumed.derive(stream);
    for (int draw = 0; draw < 16; ++draw)
      ASSERT_EQ(a.engine()(), b.engine()()) << "stream " << stream;
  }

  // Distinct streams must actually differ.
  stats::Rng s0 = fresh.derive(0);
  stats::Rng s1 = fresh.derive(1);
  EXPECT_NE(s0.engine()(), s1.engine()());
}

TEST(ThreadDeterminism, ParallelNoisyAcquisitionWithDerivedStreams) {
  // The sanctioned pattern for parallel noisy Monte-Carlo: item i draws
  // from rng.derive(i). Any schedule (serial loop or parallel_for at any
  // width) then yields identical captures.
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);
  const auto dut = rf::extract_lna_dut(circuit::Lna900::nominal()).dut;
  const auto stimulus = dsp::PwlWaveform::uniform(
      config.capture_s, {0.0, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0});
  const stats::Rng base(99);

  const auto run = [&](std::size_t threads) {
    ThreadCountGuard guard(threads);
    std::vector<sigtest::Signature> sigs(16);
    core::parallel_for(0, sigs.size(), [&](std::size_t i) {
      stats::Rng item = base.derive(i);
      sigs[i] = acquirer.acquire(*dut, stimulus, &item);
    });
    return sigs;
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------
// Golden streams: the repo's MT19937-64 against std::mt19937_64, and FNV-1a
// fingerprints recorded before the engine, the inline ziggurat, the cached
// upconvert and the one-pass LPF replaced their predecessors. A changed
// hash means a changed sample stream or disposition, not a tolerance miss.
// ---------------------------------------------------------------------------

/// FNV-1a 64 over raw bytes.
class Fnv1a {
 public:
  void mix(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ULL;
  }
  template <class T>
  void add(const T& v) {
    mix(&v, sizeof v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Every disposition field, doubles by their bit patterns.
std::uint64_t hash_dispositions(
    const std::vector<sigtest::TestDisposition>& d) {
  Fnv1a h;
  h.add(d.size());
  for (const auto& x : d) {
    const int fields[4] = {static_cast<int>(x.kind), x.attempts, x.captures,
                           static_cast<int>(x.last_flaw)};
    h.mix(fields, sizeof fields);
    h.add(x.outlier_score);
    h.add(x.predicted.size());
    if (!x.predicted.empty())
      h.mix(x.predicted.data(), x.predicted.size() * sizeof(double));
  }
  return h.value();
}

/// Words a call consumed from `after`'s stream, given a copy taken before.
std::size_t words_consumed(stats::Mt19937_64 before,
                           const stats::Mt19937_64& after) {
  std::size_t n = 0;
  for (; !(before == after); ++n) {
    if (n > 64) return n;  // a single draw never takes this many words
    before();
  }
  return n;
}

TEST(RngGoldenStream, EngineMatchesStdMt19937WordForWord) {
  // Five 312-word refill blocks per seed, plus derived children.
  constexpr std::size_t kWords = 5 * stats::Mt19937_64::kStateWords + 7;
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    stats::Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t k = 0; k < kWords; ++k)
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " word " << k;
    const stats::Rng parent(seed);
    for (std::uint64_t stream = 0; stream < 8; ++stream) {
      stats::Rng child = parent.derive(stream);
      std::mt19937_64 child_ref(child.seed());
      for (std::size_t k = 0; k < kWords; ++k)
        ASSERT_EQ(child.engine()(), child_ref())
            << "seed " << seed << " stream " << stream << " word " << k;
    }
  }
}

TEST(RngGoldenStream, DistributionsInterleavedMatchStdEngine) {
  // uniform / uniform_int / bernoulli are the std distributions over the
  // engine, so a mirror std::mt19937_64 running the same distributions
  // must agree value for value. normal() is the repo's ziggurat: the mirror
  // skips exactly the words it consumed, which keeps both streams aligned
  // across the block refills the ~3000 draws per stream pass through.
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    const stats::Rng parent(seed);
    for (std::uint64_t stream = 0; stream < 9; ++stream) {
      // stream 8 stands for the parent itself.
      stats::Rng rng = stream < 8 ? parent.derive(stream) : parent;
      std::mt19937_64 ref(rng.seed());
      for (int k = 0; k < 750; ++k) {
        ASSERT_EQ(rng.uniform(-1.0, 2.0),
                  std::uniform_real_distribution<double>(-1.0, 2.0)(ref));
        ASSERT_EQ(rng.uniform_int(-5, 9),
                  std::uniform_int_distribution<int>(-5, 9)(ref));
        ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
        const stats::Mt19937_64 before = rng.engine();
        const double z = rng.normal(1.0, 2.0);
        ASSERT_TRUE(std::isfinite(z));
        const std::size_t used = words_consumed(before, rng.engine());
        ASSERT_GE(used, 1U);
        ASSERT_LE(used, 64U) << "seed " << seed << " stream " << stream;
        ref.discard(used);
      }
      ASSERT_EQ(rng.engine()(), ref()) << "seed " << seed << " stream "
                                       << stream;
    }
  }
}

TEST(RngGoldenStream, NormalDrawsMatchRecordedHashAndTakeEveryPath) {
  // 200k draws from one seed, hashed. The first word of each draw decides
  // its path: inside the layer above (common), else the base strip's tail
  // (layer 0) or a wedge; both rare paths must occur for the hash to pin
  // them.
  const stats::detail::ZigTables& t = stats::detail::zig_tables();
  stats::Rng rng(2002);
  Fnv1a h;
  int wedge = 0;
  int tail = 0;
  for (int k = 0; k < 200000; ++k) {
    stats::Mt19937_64 probe = rng.engine();
    const std::uint64_t bits = probe();
    const std::size_t layer = bits & 0xFF;
    const double x =
        static_cast<double>(bits >> 11) * 0x1p-53 * t.x[layer];
    if (!(x < t.x[layer + 1])) ++(layer == 0 ? tail : wedge);
    h.add(rng.normal());
  }
  EXPECT_GT(wedge, 0);
  EXPECT_GT(tail, 0);
  EXPECT_EQ(h.value(), 0x12c4e7a3695a2c6fULL);
}

TEST(RngGoldenStream, MixedDistributionsMatchRecordedHash) {
  Fnv1a h;
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    stats::Rng r(seed);
    for (int k = 0; k < 2000; ++k) {
      h.add(r.uniform(-1.0, 2.0));
      h.add(r.uniform_int(-5, 9));
      h.add(r.bernoulli(0.3));
      h.add(r.normal(1.0, 2.0));
    }
    const std::vector<std::size_t> p = r.permutation(50);
    h.mix(p.data(), p.size() * sizeof(std::size_t));
  }
  EXPECT_EQ(h.value(), 0x76130b952cdfdd3bULL);
}

TEST(RngGoldenStream, LotDispositionsMatchRecordedHash) {
  // One 240-device lot through the batched test cell, clean and with
  // contact faults (about a fifth of the devices retested), at one and four
  // threads.
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto stimulus = dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.05, 0.2, 0.0, -0.2, 0.1});
  sigtest::GuardPolicy policy;
  policy.outlier_threshold = 2.5;
  sigtest::BatchRuntime runtime(cfg, stimulus, circuit::LnaSpecs::names(),
                                policy, sigtest::BatchOptions{16});
  stats::Rng cal_rng(7);
  runtime.calibrate(rf::make_lna_population(40, 0.2, 21), cal_rng);
  const auto lot = rf::make_lna_population(240, 0.2, 77);
  const auto contact = rf::FaultInjector::parse("contact:0.002:0.05");

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    const auto clean = runtime.test_lot(lot, stats::Rng(2002));
    EXPECT_EQ(hash_dispositions(clean.dispositions), 0x8623fecf0282b066ULL)
        << threads << " threads";
    const auto faulted = runtime.test_lot(lot, stats::Rng(2002), &contact);
    EXPECT_GT(faulted.retried, 0U);
    EXPECT_EQ(hash_dispositions(faulted.dispositions), 0xfd77c15ab2d22260ULL)
        << threads << " threads";
  }
}

}  // namespace
