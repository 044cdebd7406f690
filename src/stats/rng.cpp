#include "stats/rng.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>

#include "core/contracts.hpp"

namespace stf::stats {

// MT19937-64 parameters (Matsumoto & Nishimura 2000; the same constants
// std::mt19937_64 is specified with).
namespace {
constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;  // top 33 bits
constexpr std::uint64_t kLowerMask = 0x000000007FFFFFFFULL;  // low 31 bits

// One twist step: the matrix constant is selected by the low bit of y
// through an all-ones/all-zeros mask, not a data-dependent branch.
inline std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                           std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}
}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i)
    state_[i] = 6364136223846793005ULL *
                    (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                i;
}

void Mt19937_64::refill() {
  std::size_t i = 0;
  for (; i < kN - kM; ++i)
    state_[i] = twist(state_[i], state_[i + 1], state_[i + kM]);
  for (; i < kN - 1; ++i)
    state_[i] = twist(state_[i], state_[i + 1], state_[i + kM - kN]);
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
  next_ = 0;
}

namespace detail {

// 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000).
//
// The right half-density f(x) = exp(-x^2/2) is covered by 256 equal-area
// regions: 255 horizontal strips plus a base strip that also carries the
// tail beyond kR. One 64-bit engine draw supplies the layer index (low 8
// bits), the sign (bit 8) and a 53-bit uniform magnitude; the draw is
// accepted immediately whenever it lands strictly inside the layer above's
// width, which happens ~99% of the time (inline in rng.hpp). Wedge and tail
// corrections run here, out of line, with fresh uniforms, so the result is
// an *exact* normal sample, not an approximation -- only the speed differs
// from the polar method.
//
// Determinism: the number of engine draws per sample is a deterministic
// function of the engine stream, and the arithmetic below is plain IEEE
// double math with no library-dependent distribution state, so a given
// seed yields the same sample sequence on every platform and build.
namespace {

// Rightmost strip edge for 256 layers (standard tabulated constant).
constexpr double kR = 3.6541528853610088;
constexpr double kTwoPow53Inv =
    1.0 / 9007199254740992.0;  // 2^-53: maps a 53-bit draw onto [0, 1)

double uniform53(Mt19937_64& engine) {
  return static_cast<double>(engine() >> 11) * kTwoPow53Inv;
}

}  // namespace

ZigTables build_zig_tables() {
  ZigTables t{};
  const double f_r = std::exp(-0.5 * kR * kR);
  // Common region area: base rectangle plus the analytic Gaussian tail,
  // integral_r^inf exp(-x^2/2) dx = sqrt(pi/2) * erfc(r / sqrt(2)).
  const double v = kR * f_r + std::sqrt(std::numbers::pi / 2.0) *
                                  std::erfc(kR / std::numbers::sqrt2);
  t.x[0] = v / f_r;  // base strip is wider than kR; overflow routes to tail
  t.x[1] = kR;
  for (int i = 2; i < kZigLayers; ++i) {
    // Each strip has area v: x[i] = f^-1(v / x[i-1] + f(x[i-1])).
    const double y =
        v / t.x[i - 1] + std::exp(-0.5 * t.x[i - 1] * t.x[i - 1]);
    t.x[i] = std::sqrt(-2.0 * std::log(y));
  }
  t.x[kZigLayers] = 0.0;
  for (int i = 0; i <= kZigLayers; ++i)
    t.f[i] = std::exp(-0.5 * t.x[i] * t.x[i]);
  // The topmost strip must close the ziggurat at the density peak; if kR
  // and the recurrence are consistent this lands on 1 to ~1e-9.
  const double closure =
      v / t.x[kZigLayers - 1] +
      std::exp(-0.5 * t.x[kZigLayers - 1] * t.x[kZigLayers - 1]);
  STF_ASSERT(std::fabs(closure - 1.0) < 1e-6,
             "ziggurat tables: layer recurrence did not close at f(0)=1");
  return t;
}

// Total over its domain: any engine state and any first draw yield a valid
// standard-normal draw, so there is no input contract to state.
// stf-analyze: allow(api-contract)
double ziggurat_slow(Mt19937_64& engine, std::uint64_t bits) {
  const ZigTables& t = zig_tables();
  for (;; bits = engine()) {
    const std::size_t i = bits & 0xFF;
    const double u = static_cast<double>(bits >> 11) * kTwoPow53Inv;
    const double x = u * t.x[i];
    if (x < t.x[i + 1]) return signed_by(x, bits);  // inside the layer above
    if (i == 0) {
      // Base strip overflow: exact sample from the tail beyond kR via
      // Marsaglia's exponential rejection. 1-u keeps the logs finite.
      double xx;
      double yy;
      do {
        xx = -std::log(1.0 - uniform53(engine)) / kR;
        yy = -std::log(1.0 - uniform53(engine));
      } while (yy + yy < xx * xx);
      return signed_by(kR + xx, bits);
    }
    // Wedge: accept x in [x[i+1], x[i]) iff a uniform height between the
    // strip's floor and ceiling falls under the density.
    const double y = t.f[i] + uniform53(engine) * (t.f[i + 1] - t.f[i]);
    if (y < std::exp(-0.5 * x * x)) return signed_by(x, bits);
  }
}

}  // namespace detail
}  // namespace stf::stats
