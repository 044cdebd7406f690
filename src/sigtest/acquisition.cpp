#include "sigtest/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/telemetry.hpp"
#include "dsp/fft.hpp"
#include "rf/loadboard.hpp"

namespace stf::sigtest {

SignatureTestConfig SignatureTestConfig::simulation_study() {
  SignatureTestConfig c;
  c.board.carrier_hz = 900e6;
  c.board.lo_offset_hz = 100e3;
  c.board.lpf_order = 5;
  c.board.lpf_cutoff_hz = 10e6;
  c.digitizer.fs_hz = 20e6;
  c.digitizer.noise_rms_v = 1e-3;  // paper: 1 mV gaussian noise
  c.fs_sim_hz = 80e6;
  c.capture_s = 5e-6;
  c.signature_band_hz = 10e6;
  return c;
}

SignatureTestConfig SignatureTestConfig::hardware_study() {
  SignatureTestConfig c;
  c.board.carrier_hz = 900e6;
  c.board.lo_offset_hz = 100e3;  // LOs at 900 MHz and 900.1 MHz
  c.board.lpf_order = 5;
  c.board.lpf_cutoff_hz = 400e3;
  c.digitizer.fs_hz = 1e6;       // 1 MHz digitizing rate
  c.digitizer.noise_rms_v = 1e-3;
  c.fs_sim_hz = 4e6;
  c.capture_s = 5e-3;            // 5 ms of data capture
  c.signature_band_hz = 400e3;
  return c;
}

SignatureAcquirer::SignatureAcquirer(const SignatureTestConfig& config,
                                     std::size_t max_bins)
    : config_(config),
      max_bins_(max_bins),
      // The board (and its Butterworth LPF design) is fixed by the config,
      // so it is built once here instead of once per acquisition -- the
      // optimizer acquires thousands of signatures through one acquirer.
      board_(config.board, config.fs_sim_hz) {
  STF_REQUIRE(max_bins_ != 0, "SignatureAcquirer: max_bins must be > 0");
  STF_REQUIRE(config_.capture_s > 0.0,
              "SignatureAcquirer: capture_s must be > 0");
}

SignatureAcquirer::SignatureAcquirer(const SignatureAcquirer& other)
    : config_(other.config_),
      max_bins_(other.max_bins_),
      board_(other.board_) {
  const stf::core::LockGuard lock(other.render_mutex_);
  render_key_ = other.render_key_;
  render_cache_ = other.render_cache_;
}

SignatureAcquirer& SignatureAcquirer::operator=(
    const SignatureAcquirer& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  max_bins_ = other.max_bins_;
  board_ = other.board_;
  std::vector<stf::dsp::PwlPoint> key;
  std::shared_ptr<const std::vector<stf::rf::Cplx>> cache;
  {
    const stf::core::LockGuard lock(other.render_mutex_);
    key = other.render_key_;
    cache = other.render_cache_;
  }
  const stf::core::LockGuard lock(render_mutex_);
  render_key_ = std::move(key);
  render_cache_ = std::move(cache);
  return *this;
}

std::size_t SignatureAcquirer::capture_length() const {
  const auto n_sim = static_cast<std::size_t>(
                         std::floor(config_.capture_s * config_.fs_sim_hz)) +
                     1;
  return config_.digitizer.capture_length(n_sim, config_.fs_sim_hz);
}

std::shared_ptr<const std::vector<stf::rf::Cplx>>
SignatureAcquirer::upconverted_stimulus(const stf::dsp::PwlWaveform& stimulus,
                                        std::size_t n_sim) const {
  STF_REQUIRE(n_sim != 0, "SignatureAcquirer: n_sim must be > 0");
  const std::vector<stf::dsp::PwlPoint>& pts = stimulus.points();
  const stf::core::LockGuard lock(render_mutex_);
  bool hit = render_cache_ != nullptr && render_cache_->size() == n_sim &&
             render_key_.size() == pts.size();
  for (std::size_t i = 0; hit && i < pts.size(); ++i)
    hit = render_key_[i].t == pts[i].t && render_key_[i].v == pts[i].v;
  if (!hit) {
    const std::vector<double> rendered =
        stimulus.render(config_.fs_sim_hz, n_sim);
    auto env = std::make_shared<std::vector<stf::rf::Cplx>>(n_sim);
    board_.upconvert_into(rendered, *env);
    render_key_ = pts;
    render_cache_ = std::move(env);
  }
  return render_cache_;
}

void SignatureAcquirer::raw_capture_into(const stf::rf::RfDut& dut,
                                         const stf::dsp::PwlWaveform& stimulus,
                                         stf::stats::Rng* rng,
                                         std::span<double> out) const {
  STF_TRACE_SPAN("acq.capture");
  STF_REQUIRE(out.size() == capture_length(),
              "SignatureAcquirer::raw_capture_into: out length must be "
              "capture_length()");
  const auto n_sim = static_cast<std::size_t>(
                         std::floor(config_.capture_s * config_.fs_sim_hz)) +
                     1;
  std::shared_ptr<const std::vector<stf::rf::Cplx>> upconverted;
  {
    STF_TRACE_SPAN("acq.render");
    upconverted = upconverted_stimulus(stimulus, n_sim);
  }
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<double> analog(
      n_sim, 0.0, stf::core::ArenaAllocator<double>(&arena));
  board_.run_upconverted_into(*upconverted, config_.fs_sim_hz, dut, rng,
                              {analog.data(), analog.size()});
  STF_TRACE_SPAN("acq.digitize");
  config_.digitizer.capture_into({analog.data(), analog.size()},
                                 config_.fs_sim_hz, rng, out);
}

namespace {

// Size of the groups pool_bins_into averages n bins in (ceil division, the
// historical pool_bins semantics); 1 when no pooling is needed.
std::size_t pool_group(std::size_t n, std::size_t max_bins) {
  return n <= max_bins ? 1 : (n + max_bins - 1) / max_bins;
}

// Output count pool_bins_into produces for n input bins.
std::size_t pooled_count(std::size_t n, std::size_t max_bins) {
  const std::size_t group = pool_group(n, max_bins);
  return (n + group - 1) / group;
}

// Group-average `bins` down to out.size() == pooled_count(bins.size(),
// max_bins) entries.
void pool_bins_into(std::span<const double> bins, std::size_t max_bins,
                    std::span<double> out) {
  STF_ASSERT(out.size() == pooled_count(bins.size(), max_bins),
             "pool_bins_into: length mismatch");
  const std::size_t group = pool_group(bins.size(), max_bins);
  if (group == 1) {
    std::copy(bins.begin(), bins.end(), out.begin());
    return;
  }
  std::size_t o = 0;
  for (std::size_t i = 0; i < bins.size(); i += group) {
    const std::size_t end = std::min(i + group, bins.size());
    double acc = 0.0;
    for (std::size_t j = i; j < end; ++j) acc += bins[j];
    out[o++] = acc / static_cast<double>(end - i);
  }
}

}  // namespace

// Pure arithmetic on a config the ctor validated; any n_fft maps to a
// well-defined count. stf-analyze: allow(api-contract)
std::size_t SignatureAcquirer::kept_fft_bins(std::size_t n_fft) const {
  const double band = config_.signature_band_hz > 0.0
                          ? config_.signature_band_hz
                          : config_.digitizer.fs_hz / 2.0;
  const auto n_keep = static_cast<std::size_t>(
      band / config_.digitizer.fs_hz * static_cast<double>(n_fft));
  return std::min(std::max<std::size_t>(n_keep, 2), n_fft / 2);
}

// Pure length arithmetic: any n_capture (including 0, which yields 0 bins)
// maps to a well-defined count. stf-analyze: allow(api-contract)
std::size_t SignatureAcquirer::signature_length_for(
    std::size_t n_capture) const {
  if (!config_.use_fft_magnitude) return pooled_count(n_capture, max_bins_);
  return pooled_count(kept_fft_bins(stf::dsp::next_pow2(n_capture)),
                      max_bins_);
}

Signature SignatureAcquirer::acquire(const stf::rf::RfDut& dut,
                                     const stf::dsp::PwlWaveform& stimulus,
                                     stf::stats::Rng* rng,
                                     const stf::rf::FaultInjector& faults,
                                     std::uint64_t sequence) const {
  STF_TRACE_SPAN("acq.acquire");
  STF_COUNT("acq.signatures");
  STF_COUNT("acq.faulted_signatures");
  STF_REQUIRE(rng != nullptr,
              "SignatureAcquirer::acquire: fault injection draws from rng");
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<double> capture(
      capture_length(), 0.0, stf::core::ArenaAllocator<double>(&arena));
  const std::span<double> cap_span(capture.data(), capture.size());
  raw_capture_into(dut, stimulus, rng, cap_span);
  faults.apply(cap_span, config_.digitizer.fs_hz, sequence, *rng);
  Signature s(signature_length_for(capture.size()));
  signature_into(cap_span, s);
  return s;
}

void SignatureAcquirer::signature_into(std::span<const double> capture,
                                       std::span<double> out) const {
  STF_REQUIRE(!capture.empty(),
              "SignatureAcquirer::signature_into: empty capture");
  STF_REQUIRE(out.size() == signature_length_for(capture.size()),
              "SignatureAcquirer::signature_into: out length must be "
              "signature_length_for(capture.size())");
  if (!config_.use_fft_magnitude) {
    pool_bins_into(capture, max_bins_, out);
    return;
  }

  // Zero-pad to a power of two, take the normalized magnitude spectrum and
  // keep the in-band bins: the magnitude step is what removes the Eq. 5
  // phase term from the signature. The pad buffer and the kept bins come
  // from the per-thread capture arena and the transform runs in place, so
  // the production signature stage allocates nothing on the heap.
  STF_TRACE_SPAN("acq.fft");
  const std::size_t n_fft = stf::dsp::next_pow2(capture.size());
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<stf::dsp::cplx> padded(
      n_fft, stf::dsp::cplx{}, stf::core::ArenaAllocator<stf::dsp::cplx>(&arena));
  for (std::size_t i = 0; i < capture.size(); ++i)
    padded[i] = stf::dsp::cplx(capture[i], 0.0);
  stf::dsp::fft_pow2_inplace({padded.data(), padded.size()});

  const std::size_t n_keep = kept_fft_bins(n_fft);
  if (n_keep == out.size()) {
    // No pooling: write the normalized magnitudes straight into out.
    for (std::size_t k = 0; k < n_keep; ++k)
      out[k] = std::abs(padded[k]) / static_cast<double>(capture.size());
    return;
  }
  stf::core::ArenaVector<double> bins(
      n_keep, 0.0, stf::core::ArenaAllocator<double>(&arena));
  for (std::size_t k = 0; k < n_keep; ++k)
    bins[k] = std::abs(padded[k]) / static_cast<double>(capture.size());
  pool_bins_into({bins.data(), bins.size()}, max_bins_, out);
}

Signature SignatureAcquirer::acquire(const stf::rf::RfDut& dut,
                                     const stf::dsp::PwlWaveform& stimulus,
                                     stf::stats::Rng* rng) const {
  STF_TRACE_SPAN("acq.acquire");
  STF_COUNT("acq.signatures");
  // Per-acquisition wall time feeds the test-economics story: the histogram
  // is the distribution of simulated capture-plus-FFT cost per device.
  const std::uint64_t t0 =
      stf::core::telemetry::enabled() ? stf::core::telemetry::now_ns() : 0;
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<double> capture(
      capture_length(), 0.0, stf::core::ArenaAllocator<double>(&arena));
  const std::span<double> cap_span(capture.data(), capture.size());
  raw_capture_into(dut, stimulus, rng, cap_span);
  Signature s(signature_length_for(capture.size()));
  signature_into(cap_span, s);
  STF_RECORD("acq.capture_us",
             static_cast<double>(stf::core::telemetry::now_ns() - t0) / 1e3);
  STF_ENSURE(stf::contracts::finite(s),
             "SignatureAcquirer::acquire: non-finite signature bin (NaN/Inf "
             "leaked through the stimulus/envelope/FFT chain)");
  return s;
}

std::size_t SignatureAcquirer::signature_length() const {
  return signature_length_for(capture_length());
}

double SignatureAcquirer::expected_bin_noise_sigma() const {
  const std::size_t n_cap = capture_length();
  const double sigma_t = config_.digitizer.noise_rms_v;
  if (!config_.use_fft_magnitude) return sigma_t;
  // White time-domain noise of std sigma_t spreads across the FFT: each
  // normalized complex bin has std sigma_t / sqrt(n); group-averaging g
  // bins reduces it by sqrt(g) more.
  const std::size_t n_keep = kept_fft_bins(stf::dsp::next_pow2(n_cap));
  const auto group = static_cast<double>(pool_group(n_keep, max_bins_));
  return sigma_t / std::sqrt(static_cast<double>(n_cap) * group);
}

}  // namespace stf::sigtest
