// Deterministic random number generation for Monte Carlo device populations
// and measurement-noise injection.
//
// All stochastic behavior in the framework flows through this one class so
// that experiments (paper Figs. 8-10, 12-13) are exactly reproducible from a
// seed.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace stf::stats {

/// 64-bit Mersenne Twister, MT19937-64 (Matsumoto & Nishimura 2000), owned
/// by this repo. Seeding, twist and tempering follow the published
/// algorithm, so the output stream equals std::mt19937_64 word for word for
/// every seed (tests/determinism_test.cpp pins that). Unlike the library
/// engine it selects the twist matrix constant with a mask instead of a
/// branch that mispredicts on half the words, and a draw (tempering
/// included) is inline. Satisfies UniformRandomBitGenerator for the std
/// distributions.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed = 5489u);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kStateWords) refill();
    std::uint64_t y = state_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    return y ^ (y >> 43);
  }

  /// Equal iff both engines produce the same stream from here on.
  friend bool operator==(const Mt19937_64& a, const Mt19937_64& b) {
    for (std::size_t i = 0; i < kStateWords; ++i)
      if (a.state_[i] != b.state_[i]) return false;
    return a.next_ == b.next_;
  }

 private:
  /// Twist the state one 312-word block forward.
  void refill();

  std::uint64_t state_[kStateWords];
  std::size_t next_ = kStateWords;
};

namespace detail {

/// 256-layer ziggurat tables for the standard normal (built in rng.cpp).
constexpr int kZigLayers = 256;
struct ZigTables {
  double x[kZigLayers + 1];  // x[0]=base-strip virtual width, x[1]=R, x[256]=0
  double f[kZigLayers + 1];  // f[i] = exp(-x[i]^2 / 2)
};
ZigTables build_zig_tables();

inline const ZigTables& zig_tables() {
  static const ZigTables t = build_zig_tables();
  return t;
}

/// x >= 0 carrying bit 8 of the draw as its sign: the bit is XOR-ed into
/// the sign bit, so the sign costs no branch.
inline double signed_by(double x, std::uint64_t bits) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                               ((bits & 0x100) << 55));
}

/// The ziggurat's rejection paths (wedge and tail), entered with the draw
/// that missed the common case; out of line in rng.cpp.
double ziggurat_slow(Mt19937_64& engine, std::uint64_t bits);

/// Standard normal deviate from the 256-layer ziggurat: one engine draw
/// supplies the layer (low 8 bits), the sign (bit 8) and a 53-bit uniform.
/// The common case (~99% of draws) is inline and branch-free apart from
/// the acceptance test.
inline double ziggurat_normal(Mt19937_64& engine) {
  const ZigTables& t = zig_tables();
  const std::uint64_t bits = engine();
  const std::size_t i = bits & 0xFF;
  const double u = static_cast<double>(bits >> 11) * 0x1p-53;
  const double x = u * t.x[i];
  if (x < t.x[i + 1]) [[likely]]
    return signed_by(x, bits);
  return ziggurat_slow(engine, bits);
}

}  // namespace detail

/// Seedable random source over the repo's MT19937-64 engine.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5161746573ULL)
      : seed_(seed), engine_(seed) {}

  /// Deterministic child stream: an Rng seeded from (seed, stream) through a
  /// splitmix64-style mix. Independent of how much this Rng has been
  /// consumed, so parallel loops can hand item i the stream derive(i) and
  /// produce results bit-identical to any serial or parallel schedule.
  /// Distinct stream indices give statistically independent sequences.
  Rng derive(std::uint64_t stream) const {
    // Two splitmix64 rounds over seed ^ f(stream): full avalanche, so
    // neighboring streams share no low-bit structure.
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// The seed this Rng was constructed with (derive() keys off it).
  std::uint64_t seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform relative spread: nominal * (1 + U(-frac, +frac)).
  /// The paper draws process parameters uniformly within +/-20% (frac=0.2).
  double uniform_spread(double nominal, double frac) {
    return nominal * (1.0 + uniform(-frac, frac));
  }

  /// Standard normal sample scaled to the given sigma and mean.
  ///
  /// Implemented with a ziggurat rather than std::normal_distribution: the
  /// polar method the library uses costs ~50 ns/draw and dominates the
  /// signature hot path (~900 noise draws per device), while the ziggurat's
  /// common case is one engine word plus a table lookup, inline here.
  /// Measured on a 4-vCPU Xeon VM, RelWithDebInfo build: 7-10 ns per draw
  /// with the stream's seeding and refills included (BM_RngNormalPerDevice,
  /// derive(i) then 903 draws: 6-9.5 us). The algorithm is fixed by this
  /// repo (not the standard library), so the sample stream is identical
  /// across platforms, build types, and the SIGTEST_SIMD setting for a
  /// given engine state.
  double normal(double mean = 0.0, double sigma = 1.0) {
    return mean + sigma * detail::ziggurat_normal(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Vector of n iid normal samples.
  std::vector<double> normal_vector(std::size_t n, double mean = 0.0,
                                    double sigma = 1.0) {
    std::vector<double> v(n);
    for (auto& x : v) x = normal(mean, sigma);
    return v;
  }

  /// Vector of n iid uniform samples in [lo, hi).
  std::vector<double> uniform_vector(std::size_t n, double lo, double hi) {
    std::vector<double> v(n);
    for (auto& x : v) x = uniform(lo, hi);
    return v;
  }

  /// Fisher-Yates shuffle of indices 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    for (std::size_t i = n; i-- > 1;) {
      const std::size_t j =
          std::uniform_int_distribution<std::size_t>(0, i)(engine_);
      std::swap(p[i], p[j]);
    }
    return p;
  }

  /// Underlying engine, for std distributions not wrapped here.
  Mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Mt19937_64 engine_;
};

}  // namespace stf::stats
