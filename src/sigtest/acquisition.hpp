// Signature acquisition: stimulus -> load board -> DUT -> digitizer -> FFT
// magnitude (paper Fig. 3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "dsp/pwl.hpp"
#include "rf/dut.hpp"
#include "rf/faults.hpp"
#include "rf/loadboard.hpp"
#include "sigtest/config.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// A signature is a real feature vector extracted from one acquisition
/// (FFT-magnitude bins in the production configuration).
using Signature = std::vector<double>;

/// Runs the full signature pipeline for one DUT and one stimulus.
///
/// Immutable after construction: acquire() is const and thread-safe, so a
/// single acquirer is shared by the parallel sensitivity/optimizer loops.
/// The load board and its LPF design are hoisted into the constructor and
/// reused across every acquisition.
class SignatureAcquirer {
 public:
  /// max_bins caps the signature dimension; longer captures are
  /// group-averaged down (spectral smoothing) so the regression stays
  /// well-posed for small calibration sets.
  explicit SignatureAcquirer(const SignatureTestConfig& config,
                             std::size_t max_bins = 64);

  /// Copyable (the guarded runtimes are copied in tests): the render-cache
  /// mutex is per-instance and never copied; the cached up-mixed stimulus
  /// is immutable and shared with the source.
  SignatureAcquirer(const SignatureAcquirer& other);
  SignatureAcquirer& operator=(const SignatureAcquirer& other);

  /// Acquire a signature. rng enables DUT + digitizer noise; nullptr gives
  /// the noiseless response used for sensitivity estimation.
  Signature acquire(const stf::rf::RfDut& dut,
                    const stf::dsp::PwlWaveform& stimulus,
                    stf::stats::Rng* rng) const;

  /// Acquire through a degraded measurement chain: the injector corrupts
  /// the digitized capture (at `sequence` in the lot) before the signature
  /// stage. Unlike the clean acquire(), no finiteness firewall runs -- a
  /// corrupted signature is exactly what the guarded runtime must see and
  /// classify, not an internal contract violation.
  Signature acquire(const stf::rf::RfDut& dut,
                    const stf::dsp::PwlWaveform& stimulus,
                    stf::stats::Rng* rng, const stf::rf::FaultInjector& faults,
                    std::uint64_t sequence) const;

  /// The digitized time-domain capture (before the FFT stage), written
  /// into caller storage (out.size() must be capture_length()). The
  /// up-mixed stimulus is cached across calls and all intermediate buffers
  /// come from the per-thread capture arena, so steady-state acquisitions
  /// allocate nothing on the heap.
  void raw_capture_into(const stf::rf::RfDut& dut,
                        const stf::dsp::PwlWaveform& stimulus,
                        stf::stats::Rng* rng, std::span<double> out) const;

  /// Number of samples in one digitized capture.
  std::size_t capture_length() const;

  /// The signature stage alone: FFT-magnitude (or pooled time-domain) bins
  /// of an already-digitized capture, written into caller storage
  /// (out.size() must equal the signature length for this capture size --
  /// signature_length() for production captures). Lets callers that need
  /// to inspect or corrupt the capture (the guarded runtime, the fault
  /// benches) reuse the exact production signature definition.
  void signature_into(std::span<const double> capture,
                      std::span<double> out) const;

  /// Signature length produced by acquire() for this configuration:
  /// signature_length_for(capture_length()).
  std::size_t signature_length() const;

  /// Approximate standard deviation of the digitizer noise as seen on one
  /// signature bin -- the sigma_m of the Eq. 10 objective.
  double expected_bin_noise_sigma() const;

  const SignatureTestConfig& config() const { return config_; }

 private:
  /// Signature length signature_into() produces for an n_capture-sample
  /// capture (pool_bins ceil-division semantics).
  std::size_t signature_length_for(std::size_t n_capture) const;
  /// In-band bins kept from an n_fft-point magnitude spectrum: DC up to
  /// signature_band_hz (the Nyquist band when 0), at least 2 and at most
  /// n_fft / 2.
  std::size_t kept_fft_bins(std::size_t n_fft) const;
  /// The rendered stimulus after the board's up mixer, cached: production
  /// tests replay one waveform across the whole lot, and neither rendering
  /// nor upconversion depends on the device, so both are hoisted out of the
  /// per-device path. Thread-safe; the returned buffer is immutable and
  /// shared.
  std::shared_ptr<const std::vector<stf::rf::Cplx>> upconverted_stimulus(
      const stf::dsp::PwlWaveform& stimulus, std::size_t n_sim) const;

  SignatureTestConfig config_;
  std::size_t max_bins_;
  stf::rf::LoadBoard board_;
  mutable stf::core::Mutex render_mutex_;
  mutable std::vector<stf::dsp::PwlPoint> render_key_
      STF_GUARDED_BY(render_mutex_);
  mutable std::shared_ptr<const std::vector<stf::rf::Cplx>> render_cache_
      STF_GUARDED_BY(render_mutex_);
};

}  // namespace stf::sigtest
