// The test-cell benchmark: one process runs one named workload against the
// library, checks every disposition against the serial reference, and
// prints every metric by name with its unit and sample count. The last
// line of standard output is the machine-readable result:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also records the benchmark's own spans around calls into each
// layer's public functions and reports the per-layer metrics, the stage
// budget of one lot and the tracing overhead. See NOTES.md beside this file.
//
//     perfbench_driver --workload lot_clean --seed 1 --seconds 10 --trace 0
//                      [--out-dir DIR]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "core/telemetry.hpp"
#include "dsp/fft.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "rf/faults.hpp"
#include "rf/loadboard.hpp"
#include "rf/population.hpp"
#include "service/registry.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "sigtest/batch.hpp"
#include "sigtest/guard.hpp"
#include "stats.hpp"
#include "stats/rng.hpp"
#include "store/calibration_store.hpp"
#include "store/recalibrate.hpp"
#include "trace.hpp"

const char* perfbench_kernel_simd_backend();  // simd_probe.cpp

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace stf;
using perfbench::now_ns;
using perfbench::Span;
using Disps = std::vector<sigtest::TestDisposition>;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  bool service;          ///< Lots go over loopback to a SigtestServer.
  bool recal;            ///< Registry mode + store + recalibration traffic.
  std::size_t lot_size;  ///< Devices per lot.
  const char* faults;    ///< rf::FaultInjector::parse spec ("" = clean).
  std::size_t lot_seeds; ///< Distinct lots (rng seeds) cycled through.
};

constexpr WorkloadDef kWorkloads[] = {
    {"lot_clean", false, false, 240, "", 32},
    {"lot_faulted", false, false, 240, "contact:0.002:0.05", 32},
    {"service_steady", true, false, 24, "", 16},
    {"service_recal", true, true, 24, "", 16},
};

/// Offered rates (lots/s) of the open loop and each step's share of the
/// ladder's time. The ladder brackets the 1.6k-1.75k lots/s of 24 devices
/// that the server sustains under this open loop on a 4-core host, and its
/// top step is well above that. The second step is the nominal one, where
/// lot latency and fail_ratio are read: about a quarter of capacity, not
/// more, because on a shared host the CPU time other tenants take comes in
/// bursts, and near saturation a burst turns into a queue that outlasts
/// it.
struct LadderStep {
  double rate;
  double weight;
};
constexpr LadderStep kLadder[] = {{150, 1.0},  {400, 3.5},  {700, 1.0},
                                  {1000, 1.0}, {1500, 1.0}, {3000, 2.0}};
constexpr std::size_t kNominalStep = 1;
constexpr std::size_t kTopStep = std::size(kLadder) - 1;

/// Threads each served lot runs on (core::set_thread_count while the ladder
/// runs); the server's two workers serve two lots at once. On 24-device
/// lots, spreading one lot over four threads gains little (0.86 against
/// 1.05 ms in-process) and ties each lot's latency to four vCPUs being
/// scheduled at once, which on a shared host made the nominal p90 follow
/// the neighbours' load.
constexpr std::size_t kServiceLotThreads = 1;

/// The device population every workload tests, and the golden devices of
/// the recalibration traffic, are fixed (the scenario grammar's default
/// population): with 24-device lots, one out-of-envelope device that is
/// routed after 21 captures nearly doubles a lot's cost, so a population
/// drawn from the workload seed would make the figures depend on which
/// population the seed drew. The seed draws everything else -- each lot's
/// noise and fault streams, the arrival schedule and the request mix.
constexpr std::uint64_t kPopulationSeed = 77;
constexpr std::uint64_t kGoldenSeed = 99;

constexpr int kSetupReps = 5;
constexpr double kRecalCadenceS = 0.2;
constexpr std::size_t kGoldens = 32;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
};

struct Context {
  const WorkloadDef* def = nullptr;
  Args args;
  std::size_t threads = 1;
  service::ScenarioSpec spec;
  std::string scenario;
  std::vector<std::uint64_t> lot_seeds;
  rf::FaultInjector faults;
  std::string run_dir;

  const rf::FaultInjector* fault_ptr() const {
    return faults.empty() ? nullptr : &faults;
  }
};

/// Progress on stderr, with the time since the run started.
void progress(const char* what) {
  static const std::uint64_t t0 = now_ns();
  std::fprintf(stderr, "[perfbench %8.3f s] %s\n",
               static_cast<double>(now_ns() - t0) / 1e9, what);
}

// ---------------------------------------------------------------------------
// Correctness: dispositions against the serial reference
// ---------------------------------------------------------------------------

/// Bit-identical dispositions: every field, doubles compared by bits.
bool identical(const Disps& a, const Disps& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].kind != b[i].kind || a[i].attempts != b[i].attempts ||
        a[i].captures != b[i].captures || a[i].last_flaw != b[i].last_flaw ||
        a[i].predicted.size() != b[i].predicted.size() ||
        (!a[i].predicted.empty() &&
         std::memcmp(a[i].predicted.data(), b[i].predicted.data(),
                     a[i].predicted.size() * sizeof(double)) != 0) ||
        std::memcmp(&a[i].outlier_score, &b[i].outlier_score,
                    sizeof(double)) != 0)
      return false;
  return true;
}

/// FNV-1a over the bit patterns of every disposition field: equal hashes
/// stand for bit-identical lots where the lot itself is not kept.
std::uint64_t hash_dispositions(const Disps& d) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001B3ULL;
  };
  const std::size_t n = d.size();
  mix(&n, sizeof n);
  for (const auto& x : d) {
    const int fields[4] = {static_cast<int>(x.kind), x.attempts, x.captures,
                           static_cast<int>(x.last_flaw)};
    mix(fields, sizeof fields);
    mix(&x.outlier_score, sizeof(double));
    const std::size_t m = x.predicted.size();
    mix(&m, sizeof m);
    if (m != 0) mix(x.predicted.data(), m * sizeof(double));
  }
  return h;
}

/// The serial reference of one lot: GuardedRuntime::test_device per device
/// with the derived stream rng.derive(i), exactly as BatchRuntime and the
/// server document themselves against.
Disps serial_reference(const sigtest::GuardedRuntime& guard,
                       const std::vector<const rf::RfDut*>& lot,
                       std::uint64_t lot_seed,
                       const rf::FaultInjector* faults) {
  Disps out(lot.size());
  const stats::Rng base(lot_seed);
  for (std::size_t i = 0; i < lot.size(); ++i) {
    stats::Rng child = base.derive(i);
    out[i] = guard.test_device(*lot[i], child, faults, i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: registry (calibrate or cold start), population, server
// ---------------------------------------------------------------------------

struct Cell {
  std::shared_ptr<store::CalibrationStore> store;
  std::shared_ptr<service::RuntimeRegistry> registry;
  std::shared_ptr<sigtest::BatchRuntime> runtime;
  std::vector<rf::DeviceRecord> population;
  std::vector<const rf::RfDut*> lot;
  // Declared last so it stops before the runtime it serves is released.
  std::unique_ptr<service::SigtestServer> server;
};

std::string store_dir(const Context& ctx) { return ctx.run_dir + "/store"; }

net::LotRequest lot_request(const Context& ctx, std::uint64_t request_id,
                            std::uint64_t lot_seed) {
  net::LotRequest r;
  r.request_id = request_id;
  r.seed = lot_seed;
  r.lot_size = static_cast<std::uint32_t>(ctx.def->lot_size);
  r.scenario = ctx.scenario;
  r.fault_spec = ctx.def->faults;
  return r;
}

void start_server(Cell& cell, const Context& ctx, bool registry_mode,
                  std::uint64_t warm_id) {
  // The product's defaults on an ephemeral port, with the session cap
  // sized as examples/signature_service.cpp sizes it: each lot is a new
  // connection, which overlaps the previous one until the server's reader
  // drains its EOF, so the cap is twice the generator's connections plus
  // slack.
  service::ServerConfig config;
  config.admission.max_clients = 2 * ctx.threads + 8;
  if (registry_mode)
    cell.server =
        std::make_unique<service::SigtestServer>(cell.registry, config);
  else
    cell.server = std::make_unique<service::SigtestServer>(
        std::shared_ptr<const sigtest::BatchRuntime>(cell.runtime), config);
  cell.server->start();
  // The first lot of a scenario builds the server's population: set-up.
  const net::SigtestClient client(cell.server->port());
  const auto warm = client.run_lot(lot_request(ctx, warm_id, ctx.lot_seeds[0]));
  if (warm.status != net::ClientStatus::kOk)
    throw std::runtime_error("warm-up lot failed: " + warm.message);
}

struct SetupResult {
  Cell cell;
  std::vector<double> setup_s;
  std::vector<double> registry_ms;
};

SetupResult set_up(const Context& ctx) {
  const auto options = service::RegistryOptions::lna_defaults();
  if (ctx.def->recal) {
    // The store already holds the scenario's version 1 when the cell comes
    // up, so every timed set-up is a cold start from disk.
    std::filesystem::remove_all(store_dir(ctx));
    auto seed_store = std::make_shared<store::CalibrationStore>(store_dir(ctx));
    service::RuntimeRegistry(options, seed_store).get(ctx.spec);
  }
  SetupResult out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    { const Cell retired = std::move(out.cell); }  // its server stops first
    const std::uint64_t t0 = now_ns();
    Cell cell;
    if (ctx.def->recal)
      cell.store = std::make_shared<store::CalibrationStore>(store_dir(ctx));
    cell.registry =
        std::make_shared<service::RuntimeRegistry>(options, cell.store);
    const std::uint64_t g0 = now_ns();
    cell.runtime = cell.registry->get(ctx.spec);
    out.registry_ms.push_back(static_cast<double>(now_ns() - g0) / 1e6);
    cell.population = service::build_population(ctx.spec, ctx.def->lot_size);
    for (const auto& d : cell.population) cell.lot.push_back(d.dut.get());
    if (ctx.def->service)
      start_server(cell, ctx, ctx.def->recal,
                   (std::uint64_t{1} << 40) + static_cast<std::uint64_t>(rep));
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    out.cell = std::move(cell);
  }
  return out;
}

// ---------------------------------------------------------------------------
// In-process lots
// ---------------------------------------------------------------------------

/// Serial references of the workload's lots for the runtime's current
/// calibration version (recomputed when a recalibration swapped it).
struct References {
  std::uint64_t version = ~std::uint64_t{0};
  std::vector<Disps> lots;
};

void ensure_references(const Cell& cell, const Context& ctx,
                       References& refs) {
  const std::uint64_t v = cell.runtime->guarded().calibration().version;
  if (v == refs.version) return;
  refs.version = v;
  refs.lots.clear();
  for (std::uint64_t seed : ctx.lot_seeds)
    refs.lots.push_back(serial_reference(cell.runtime->guarded(), cell.lot,
                                         seed, ctx.fault_ptr()));
}

struct Tally {
  std::size_t devices = 0, predicted = 0, retried = 0, routed = 0;
  std::size_t captures = 0, attempts = 0;

  void add(const Disps& d) {
    for (const auto& x : d) {
      ++devices;
      captures += static_cast<std::size_t>(x.captures);
      attempts += static_cast<std::size_t>(x.attempts);
      switch (x.kind) {
        case sigtest::DispositionKind::kPredicted: ++predicted; break;
        case sigtest::DispositionKind::kPredictedAfterRetry: ++retried; break;
        case sigtest::DispositionKind::kRoutedToConventional: ++routed; break;
      }
    }
  }
};

/// Lots tested in-process at one thread count. The phase runs as short
/// blocks interleaved with the other thread count's, and its figures are
/// quartiles over blocks on the better side (stats.hpp): a burst of
/// contention from outside the process then spoils a few blocks instead
/// of the whole figure.
struct LotPhase {
  std::size_t threads = 0;
  std::vector<double> lot_ms;
  double busy_s = 0.0;
  std::size_t diverged = 0;
  Tally tally;
  std::vector<double> block_dps, block_p50, block_p90;

  double devices_per_s() const {
    return perfbench::upper_quartile(block_dps);
  }
  double lot_p50() const { return perfbench::lower_quartile(block_p50); }
  double lot_p90() const { return perfbench::lower_quartile(block_p90); }
};

void run_lot_block(const Cell& cell, const Context& ctx,
                   const References& refs, double seconds, LotPhase& phase) {
  core::set_thread_count(phase.threads);
  // Warm-up: the worker pool is rebuilt when the thread count changes.
  (void)cell.runtime->test_lot(cell.lot, stats::Rng(ctx.lot_seeds[0]),
                               ctx.fault_ptr());
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<double> block_ms;
  std::size_t devices = 0;
  double busy = 0.0;
  // Whole cycles over the workload's lots: lots differ in cost (retests
  // follow each lot's fault draws), so every block tests the same mix. A
  // cycle starts only if it is expected to end by half a cycle past the
  // deadline at most.
  const std::uint64_t start = now_ns();
  std::size_t k = 0;
  auto more = [&] {
    if (k % ctx.lot_seeds.size() != 0) return true;
    const std::uint64_t now = now_ns();
    const std::uint64_t half_cycle =
        (now - start) / (k / ctx.lot_seeds.size()) / 2;
    return now + half_cycle < deadline;
  };
  do {
    const std::size_t idx = k++ % ctx.lot_seeds.size();
    sigtest::LotResult r;
    const std::uint64_t t0 = now_ns();
    {
      const Span span("cell.test_lot", idx);
      r = cell.runtime->test_lot(cell.lot, stats::Rng(ctx.lot_seeds[idx]),
                                 ctx.fault_ptr());
    }
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    busy += s;
    devices += r.dispositions.size();
    block_ms.push_back(s * 1e3);
    phase.lot_ms.push_back(s * 1e3);
    if (!identical(r.dispositions, refs.lots[idx])) ++phase.diverged;
    phase.tally.add(r.dispositions);
  } while (more());
  phase.busy_s += busy;
  phase.block_dps.push_back(static_cast<double>(devices) / busy);
  phase.block_p50.push_back(perfbench::percentile(block_ms, 50));
  phase.block_p90.push_back(perfbench::percentile(block_ms, 90));
}

/// The in-process phases: pairs of blocks, one at one thread and one at
/// all threads, the first taking `share_one` of each pair's time.
struct LotPhases {
  LotPhase one_thread, all_threads;
  double share_one = 0.4;

  LotPhases(const Context& ctx, double share) : share_one(share) {
    one_thread.threads = 1;
    all_threads.threads = ctx.threads;
  }

  void run_pair(const Cell& cell, const Context& ctx, References& refs,
                double seconds) {
    ensure_references(cell, ctx, refs);
    if (share_one > 0.0)
      run_lot_block(cell, ctx, refs, share_one * seconds, one_thread);
    run_lot_block(cell, ctx, refs, (1.0 - share_one) * seconds, all_threads);
  }
};

// ---------------------------------------------------------------------------
// Open-loop service load
// ---------------------------------------------------------------------------

/// A published calibration version, for matching recalibration-era lots.
struct Published {
  std::uint64_t at_ns = 0;
  sigtest::CalibrationVersion version;
};

struct LotSample {
  std::size_t seed_idx = 0;
  bool sent = false;
  std::uint64_t send_ns = 0, done_ns = 0;
  double latency_ms = 0.0;  ///< From the due time.
  double lag_ms = 0.0;      ///< Generator's own lateness.
  int attempts = 0;
  net::ClientStatus status = net::ClientStatus::kTransportFailure;
  bool matched = false;  ///< Equal to a serial reference.
  std::uint64_t hash = 0;
};

struct StepRun {
  std::size_t step = 0;  ///< Index into kLadder.
  double duration_s = 0.0;
  std::vector<LotSample> lots;
  std::size_t rejected = 0, lost = 0, diverged = 0;
  perfbench::StepOutcome outcome;
  perfbench::StepVerdict verdict = perfbench::StepVerdict::kPass;

  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const auto& s : lots)
      if (s.sent) v.push_back(s.latency_ms);
    return v;
  }
  std::size_t sent() const { return outcome.sent; }
  double attempts() const {
    double a = 0.0;
    for (const auto& s : lots)
      if (s.sent) a += s.attempts;
    return a;
  }
};

/// One window of an offered-rate step; `window` keys its schedule seed
/// and request ids.
StepRun run_step(const Cell& cell, const Context& ctx,
                 const References& refs, std::size_t window, std::size_t step,
                 double rate, double duration_s) {
  StepRun run;
  run.step = step;
  run.duration_s = duration_s;
  const std::uint64_t step_seed =
      perfbench::derive_seed(ctx.args.seed, 100 + window);
  const std::vector<double> schedule =
      perfbench::poisson_schedule(step_seed, rate, duration_s);
  run.lots.resize(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i)
    run.lots[i].seed_idx = static_cast<std::size_t>(
        perfbench::derive_seed(step_seed, i) % ctx.lot_seeds.size());

  const std::uint16_t port = cell.server->port();
  const std::uint64_t start = now_ns() + 2'000'000;
  const std::uint64_t close =
      start + static_cast<std::uint64_t>(duration_s * 1e9) + 20'000'000;
  std::atomic<std::size_t> next{0};
  auto generator = [&] {
    const net::SigtestClient client(port);
    std::uint64_t free_at = start;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(schedule[i] * 1e9);
      const std::uint64_t now = now_ns();
      if (now > close) return;  // the rest is backlog at step close
      if (now < due)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      LotSample& s = run.lots[i];
      s.send_ns = now_ns();
      const auto request = lot_request(
          ctx, ((window + 1) << 32) | i, ctx.lot_seeds[s.seed_idx]);
      net::ClientLotResult r;
      {
        const Span span("svc.client_lot", request.request_id);
        r = client.run_lot(request);
      }
      s.done_ns = now_ns();
      s.sent = true;
      s.latency_ms = static_cast<double>(s.done_ns - due) / 1e6;
      s.lag_ms =
          static_cast<double>(s.send_ns - std::max(due, free_at)) / 1e6;
      s.attempts = r.attempts;
      s.status = r.status;
      if (r.status == net::ClientStatus::kOk) {
        if (ctx.def->recal)
          s.hash = hash_dispositions(r.dispositions);
        else
          s.matched = identical(r.dispositions, refs.lots[s.seed_idx]);
      }
      free_at = s.done_ns;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < ctx.threads; ++t) pool.emplace_back(generator);
  for (auto& t : pool) t.join();

  run.outcome.scheduled = schedule.size();
  std::vector<double> lags;
  for (const auto& s : run.lots) {
    if (!s.sent) continue;
    ++run.outcome.sent;
    lags.push_back(s.lag_ms);
    if (s.status == net::ClientStatus::kRejected) ++run.rejected;
    if (s.status == net::ClientStatus::kTransportFailure) ++run.lost;
  }
  run.outcome.backlog = run.outcome.scheduled - run.outcome.sent;
  run.outcome.p90_ms = perfbench::percentile(run.latencies(), 90);
  run.outcome.gen_lag_p90_ms = perfbench::percentile(lags, 90);
  return run;
}

/// Judge a step once its lots are matched against the references.
void finish_step(StepRun& run) {
  run.diverged = 0;
  for (const auto& s : run.lots)
    if (s.sent && s.status == net::ClientStatus::kOk && !s.matched)
      ++run.diverged;
  run.outcome.failed = run.rejected + run.lost + run.diverged;
  run.verdict = perfbench::judge_step(run.outcome, perfbench::Slo{});
}

/// Match every recalibration-era lot against the serial reference of one
/// of the versions published during the run, trying first the version
/// live when the lot was sent, then later ones, then all.
void match_recal_lots(std::vector<StepRun>& steps, const Cell& cell,
                      const Context& ctx,
                      const std::vector<Published>& versions) {
  sigtest::GuardedRuntime ref_guard(cell.runtime->guarded());
  std::size_t loaded = versions.size();
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> memo;
  auto ref_hash = [&](std::size_t seed_idx, std::size_t v) {
    const auto key = std::make_pair(seed_idx, v);
    const auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    if (loaded != v) {
      ref_guard.swap_calibration(versions[v].version.model,
                                 versions[v].version.screen);
      loaded = v;
    }
    const std::uint64_t h = hash_dispositions(serial_reference(
        ref_guard, cell.lot, ctx.lot_seeds[seed_idx], ctx.fault_ptr()));
    memo.emplace(key, h);
    return h;
  };
  for (StepRun& step : steps) {
    for (LotSample& s : step.lots) {
      if (!s.sent || s.status != net::ClientStatus::kOk) continue;
      std::size_t live = 0;
      for (std::size_t v = 0; v < versions.size(); ++v)
        if (versions[v].at_ns <= s.send_ns) live = v;
      std::vector<std::size_t> order;
      for (std::size_t v = live; v < versions.size(); ++v) order.push_back(v);
      for (std::size_t v = 0; v < live; ++v) order.push_back(v);
      for (std::size_t v : order)
        if (ref_hash(s.seed_idx, v) == s.hash) {
          s.matched = true;
          break;
        }
    }
  }
}

/// The maintenance plane of service_recal: golden checks feed the
/// recalibrator's window and recalibrate_now runs at a fixed cadence, so
/// store writes and hot-swaps run beside the lot traffic.
class Maintenance {
 public:
  Maintenance(const Cell& cell, const Context& ctx)
      : recal_(cell.runtime, cell.store,
               cell.registry->store_key(ctx.spec), policy()),
        runtime_(cell.runtime),
        goldens_(rf::make_lna_population(
            kGoldens, ctx.spec.spread, kGoldenSeed)),
        rng_(perfbench::derive_seed(ctx.args.seed, 8)) {
    published_.push_back({0, runtime_->guarded().calibration()});
  }

  static store::RecalPolicy policy() {
    store::RecalPolicy p;
    p.window_capacity = 96;
    p.min_refit_rows = 24;
    return p;
  }

  void start() {
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  ~Maintenance() { stop(); }
  Maintenance(const Maintenance&) = delete;
  Maintenance& operator=(const Maintenance&) = delete;

  std::vector<Published> published() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return published_;
  }
  std::vector<double> recal_ms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return recal_ms_;
  }
  std::uint64_t swaps() const { return recal_.swaps(); }
  std::uint64_t rollbacks() const { return recal_.rollbacks(); }

  /// Hold the maintenance plane between ticks (returns once no tick is
  /// running), so in-process lots can run on a fixed calibration version.
  void pause() {
    std::unique_lock<std::mutex> lock(mutex_);
    paused_ = true;
    wake_.wait(lock, [this] { return !busy_; });
  }
  void resume() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      paused_ = false;
    }
    wake_.notify_all();
  }

 private:
  void loop() {
    std::uint64_t sequence = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (paused_) {
        wake_.wait(lock, [this] { return stop_ || !paused_; });
        continue;
      }
      busy_ = true;
      lock.unlock();
      const std::uint64_t tick = now_ns();
      for (const auto& g : goldens_)
        recal_.observe_golden(*g.dut, g.specs.to_vector(), rng_, nullptr,
                              sequence++);
      store::RecalReport report;
      const std::uint64_t t0 = now_ns();
      {
        const Span span("store.recalibrate_now", sequence);
        report = recal_.recalibrate_now();
      }
      const std::uint64_t t1 = now_ns();
      lock.lock();
      busy_ = false;
      wake_.notify_all();
      recal_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
      if (report.swapped)
        published_.push_back({t0, runtime_->guarded().calibration()});
      wake_.wait_until(lock,
                       std::chrono::steady_clock::time_point(
                           std::chrono::nanoseconds(
                               tick + static_cast<std::uint64_t>(
                                          kRecalCadenceS * 1e9))),
                       [this] { return stop_ || paused_; });
    }
  }

  store::Recalibrator recal_;
  std::shared_ptr<sigtest::BatchRuntime> runtime_;
  std::vector<rf::DeviceRecord> goldens_;
  stats::Rng rng_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  bool paused_ = false;
  bool busy_ = false;
  std::vector<Published> published_;
  std::vector<double> recal_ms_;
  std::thread thread_;  // last: joins before the members it uses go
};

struct LadderRun {
  std::vector<StepRun> windows;  ///< In the order they ran.
  std::vector<double> recal_ms;
  std::size_t versions = 1;
  std::uint64_t swaps = 0, rollbacks = 0;

  std::vector<const StepRun*> of(std::size_t step) const {
    std::vector<const StepRun*> out;
    for (const StepRun& w : windows)
      if (w.step == step) out.push_back(&w);
    return out;
  }
};

/// The full ladder. The nominal step's time is split into 20 short
/// windows and the top step's into 5, spread before, between and after
/// the other steps, so a burst of outside contention spoils a few windows
/// instead of either measurement.
std::vector<std::size_t> full_ladder() {
  std::vector<std::size_t> order;
  const std::vector<std::size_t> nominal_run(4, kNominalStep);
  for (std::size_t i = 0; i < kTopStep; ++i) {
    if (i == kNominalStep) continue;
    order.insert(order.end(), nominal_run.begin(), nominal_run.end());
    order.push_back(i);
    order.push_back(kTopStep);
  }
  order.insert(order.end(), nominal_run.begin(), nominal_run.end());
  order.push_back(kTopStep);
  return order;
}

/// Run the ladder windows named by `order` (steps may repeat and share
/// their step's time), `seconds` in total, with recalibration traffic
/// beside them on service_recal. `between(w)`, if given, runs before
/// window w with the recalibration traffic paused.
LadderRun run_ladder(const Cell& cell, const Context& ctx,
                     References& refs, const std::vector<std::size_t>& order,
                     double seconds,
                     const std::function<void(std::size_t)>& between = {}) {
  ensure_references(cell, ctx, refs);
  core::set_thread_count(kServiceLotThreads);
  std::vector<double> repeats(std::size(kLadder), 0.0);
  for (std::size_t i : order) repeats[i] += 1.0;
  double weight = 0.0;
  for (std::size_t i = 0; i < std::size(kLadder); ++i)
    if (repeats[i] > 0.0) weight += kLadder[i].weight;
  LadderRun out;
  std::unique_ptr<Maintenance> maintenance;
  if (ctx.def->recal) {
    maintenance = std::make_unique<Maintenance>(cell, ctx);
    maintenance->start();
  }
  for (std::size_t w = 0; w < order.size(); ++w) {
    if (between) {
      if (maintenance) maintenance->pause();
      between(w);
      if (maintenance) maintenance->resume();
      ensure_references(cell, ctx, refs);
      core::set_thread_count(kServiceLotThreads);
    }
    const std::size_t i = order[w];
    out.windows.push_back(
        run_step(cell, ctx, refs, w, i, kLadder[i].rate,
                 seconds * kLadder[i].weight / (weight * repeats[i])));
  }
  if (maintenance) {
    maintenance->stop();
    const auto versions = maintenance->published();
    match_recal_lots(out.windows, cell, ctx, versions);
    out.recal_ms = maintenance->recal_ms();
    out.versions = versions.size();
    out.swaps = maintenance->swaps();
    out.rollbacks = maintenance->rollbacks();
  }
  for (StepRun& s : out.windows) finish_step(s);
  return out;
}

/// Figures of one offered-rate step over all its windows: the lower
/// quartile of the per-window latency quantiles, the upper quartile of
/// the per-window rate served, the median of the generator's lateness,
/// totals of the counts.
struct StepFigures {
  std::size_t windows = 0, sent = 0, failed = 0;
  double seconds = 0.0, attempts = 0.0;
  double p50_ms = 0.0, p90_ms = 0.0, gen_lag_p90_ms = 0.0;
  /// Lots per second the windows served: the upper quartile over windows.
  double served_per_s = 0.0;
  bool pass = false;  ///< More than half of its windows pass.

  double achieved_per_s() const {
    return seconds > 0.0 ? static_cast<double>(sent) / seconds : 0.0;
  }
  double fail_ratio() const {
    return sent ? static_cast<double>(failed) / static_cast<double>(sent)
                : 0.0;
  }
  double attempts_per_lot() const {
    return sent ? attempts / static_cast<double>(sent) : 0.0;
  }
};

StepFigures step_figures(const std::vector<const StepRun*>& windows) {
  StepFigures f;
  std::vector<double> p50, p90, lag, served;
  std::size_t passes = 0;
  for (const StepRun* w : windows) {
    served.push_back(static_cast<double>(w->sent()) / w->duration_s);
    ++f.windows;
    f.sent += w->sent();
    f.failed += w->outcome.failed;
    f.seconds += w->duration_s;
    f.attempts += w->attempts();
    p50.push_back(perfbench::percentile(w->latencies(), 50));
    p90.push_back(w->outcome.p90_ms);
    lag.push_back(w->outcome.gen_lag_p90_ms);
    if (w->verdict == perfbench::StepVerdict::kPass) ++passes;
  }
  f.p50_ms = perfbench::lower_quartile(p50);
  f.p90_ms = perfbench::lower_quartile(p90);
  f.gen_lag_p90_ms = perfbench::median(lag);
  f.served_per_s = perfbench::upper_quartile(served);
  f.pass = 2 * passes > f.windows;
  return f;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::vector<std::pair<std::string, std::string>> fingerprint(
    const Context& ctx) {
  return {
      {"cpu_model", json_string(cpu_model())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
      {"simd_backend", json_string(perfbench_kernel_simd_backend())},
      {"simd_runtime_enabled",
       core::simd::runtime_enabled() ? "true" : "false"},
      {"stf_contracts", std::to_string(STF_CONTRACTS)},
      {"stf_telemetry", std::to_string(STF_TELEMETRY)},
      {"threads", std::to_string(ctx.threads)},
      {"seed", std::to_string(ctx.args.seed)},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-28s %14.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
}

void print_tally(const char* what, const Tally& t) {
  std::printf("  dispositions %-14s %zu devices: %zu predicted, %zu retried,"
              " %zu routed; %zu captures\n",
              what, t.devices, t.predicted, t.retried, t.routed, t.captures);
}

void print_ladder(const LadderRun& ladder, std::size_t threads) {
  std::printf("  open-loop ladder (%zu generator threads/connections;"
              " quantiles are lower quartiles over a step's windows):\n",
              threads);
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    const auto windows = ladder.of(i);
    if (windows.empty()) continue;
    const StepFigures f = step_figures(windows);
    std::size_t backlog = 0, shed = 0, lost = 0, diverged = 0;
    for (const StepRun* w : windows) {
      backlog += w->outcome.backlog;
      shed += w->rejected;
      lost += w->lost;
      diverged += w->diverged;
    }
    std::printf("    offered %6.0f/s x%zu  sent %5zu  backlog %5zu  p50 %8.3f"
                " ms  p90 %8.3f ms  gen-lag p90 %6.3f ms  shed %zu  lost %zu"
                "  diverged %zu  -> %s",
                kLadder[i].rate, f.windows, f.sent, backlog, f.p50_ms,
                f.p90_ms, f.gen_lag_p90_ms, shed, lost, diverged,
                f.pass ? "pass" : "fail");
    for (const StepRun* w : windows)
      std::printf(" %s", perfbench::verdict_name(w->verdict));
    std::printf("%s\n", i == kNominalStep ? "  (nominal)" : "");
  }
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only)
// ---------------------------------------------------------------------------

struct ProbeResult {
  std::size_t devices = 0;
  double captures_per_device = 0.0, attempts_per_device = 0.0;
  std::size_t fft_n = 0;
  std::vector<double> predict_row_ns;
  std::vector<double> codec_us;
  double bytes_per_lot = 0.0;
  std::vector<double> store_put_ms, store_get_ms;
  double bytes_per_version = 0.0;
  std::vector<double> refit_ms;
  std::uint64_t swaps = 0, rollbacks = 0;
};

/// Serial probes of the acquisition, guard and prediction layers on the
/// workload's own devices, each call inside its own span.
void probe_device_path(const Cell& cell, const Context& ctx, double seconds,
                       ProbeResult& out) {
  const sigtest::GuardedRuntime& guard = cell.runtime->guarded();
  const sigtest::SignatureAcquirer& acq = guard.runtime().acquirer();
  const sigtest::SignatureTestConfig& cfg = acq.config();
  const rf::LoadBoard board(cfg.board, cfg.fs_sim_hz);
  const auto n_sim =
      static_cast<std::size_t>(std::floor(cfg.capture_s * cfg.fs_sim_hz)) + 1;
  const std::vector<double> rendered =
      guard.runtime().stimulus().render(cfg.fs_sim_hz, n_sim);
  std::vector<double> analog(n_sim), capture(acq.capture_length());
  const std::size_t n_fft = dsp::next_pow2(capture.size());
  std::vector<dsp::cplx> spectrum(n_fft);
  const rf::FaultInjector none;
  const rf::FaultInjector& faults = ctx.faults.empty() ? none : ctx.faults;
  la::Matrix signatures(cell.lot.size(), acq.signature_length());
  std::vector<double> sig(acq.signature_length());
  core::set_thread_count(1);

  Tally tally;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t i = 0;
  for (; i < 4096 && (now_ns() < deadline || i < 64); ++i) {
    const std::size_t seq = i % cell.lot.size();
    const stats::Rng base(ctx.lot_seeds[(i / cell.lot.size()) %
                                        ctx.lot_seeds.size()]);
    const rf::RfDut& dut = *cell.lot[seq];
    const Span device_span("probe.device", i);
    {
      stats::Rng rng = base.derive(seq);
      const Span span("guard.device", i);
      tally.add({guard.test_device(dut, rng, ctx.fault_ptr(), seq)});
    }
    stats::Rng rng = base.derive(seq);
    {
      const Span span("rf.board", i);
      board.run_into(rendered, cfg.fs_sim_hz, dut, &rng, analog);
    }
    {
      const Span span("rf.digitize", i);
      cfg.digitizer.capture_into(analog, cfg.fs_sim_hz, &rng, capture);
    }
    {
      const Span span("rf.faults", i);
      faults.apply(std::span<double>(capture), cfg.digitizer.fs_hz, seq, rng);
    }
    {
      const Span span("acq.signature", i);
      acq.signature_into(capture, sig);
    }
    {
      stats::Rng again = base.derive(seq);
      const Span span("acq.capture", i);
      acq.raw_capture_into(dut, guard.runtime().stimulus(), &again, capture);
    }
    signatures.set_row(seq, sig);
    std::fill(spectrum.begin(), spectrum.end(), dsp::cplx{});
    for (std::size_t k = 0; k < capture.size(); ++k)
      spectrum[k] = dsp::cplx(capture[k], 0.0);
    {
      const Span span("dsp.fft", i);
      dsp::fft_pow2_inplace(spectrum);
    }
  }
  out.devices = i;
  out.captures_per_device =
      static_cast<double>(tally.captures) / static_cast<double>(tally.devices);
  out.attempts_per_device =
      static_cast<double>(tally.attempts) / static_cast<double>(tally.devices);
  out.fft_n = n_fft;

  const auto model = guard.calibration().model;
  for (int r = 0; r < 50; ++r) {
    const std::uint64_t t0 = now_ns();
    {
      const Span span("calibration.predict_batch", static_cast<std::uint64_t>(r));
      const la::Matrix predicted = model->predict_batch(signatures);
      if (predicted.rows() != signatures.rows())
        throw std::runtime_error("predict_batch: row count changed");
    }
    out.predict_row_ns.push_back(static_cast<double>(now_ns() - t0) /
                                 static_cast<double>(signatures.rows()));
  }
}

/// Frame encode + decode of one lot's request and response, as the client
/// and server each do once per lot.
void probe_codec(const Context& ctx, const Disps& lot, ProbeResult& out) {
  const auto request = lot_request(ctx, 7, ctx.lot_seeds[0]);
  constexpr std::size_t kChunk = 64;  // the server's dispositions chunk
  Tally tally;
  tally.add(lot);
  auto payload = [](const std::vector<std::uint8_t>& frame) {
    return std::span<const std::uint8_t>(frame).subspan(5);
  };
  for (int r = 0; r < 200; ++r) {
    std::size_t bytes = 0;
    const std::uint64_t t0 = now_ns();
    {
      const Span span("net.codec", static_cast<std::uint64_t>(r));
      const auto req = net::encode_request(request);
      bytes += req.size();
      if (net::decode_request(payload(req)).seed != request.seed)
        throw std::runtime_error("codec probe: request round trip");
      for (std::size_t first = 0; first < lot.size(); first += kChunk) {
        net::DispositionChunk chunk;
        chunk.request_id = request.request_id;
        chunk.first_index = static_cast<std::uint32_t>(first);
        chunk.dispositions.assign(
            lot.begin() + static_cast<std::ptrdiff_t>(first),
            lot.begin() + static_cast<std::ptrdiff_t>(
                              std::min(first + kChunk, lot.size())));
        const auto frame = net::encode_dispositions(chunk);
        bytes += frame.size();
        if (net::decode_dispositions(payload(frame)).dispositions.size() !=
            chunk.dispositions.size())
          throw std::runtime_error("codec probe: dispositions round trip");
      }
      net::LotDone done;
      done.request_id = request.request_id;
      done.lot_size = static_cast<std::uint32_t>(lot.size());
      done.predicted = static_cast<std::uint32_t>(tally.predicted);
      done.retried = static_cast<std::uint32_t>(tally.retried);
      done.routed = static_cast<std::uint32_t>(tally.routed);
      const auto frame = net::encode_lot_done(done);
      bytes += frame.size();
      (void)net::decode_lot_done(payload(frame));
    }
    out.codec_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    out.bytes_per_lot = static_cast<double>(bytes);
  }
}

/// Store put/get of the workload's calibration under a probe key, and
/// refit-gate-swap cycles on a private copy of the runtime.
void probe_store(const Cell& cell, const Context& ctx, ProbeResult& out) {
  const std::string dir = ctx.run_dir + "/probe_store";
  std::filesystem::remove_all(dir);
  store::CalibrationStore st(dir);
  store::StoreKey key;
  key.scenario = ctx.scenario + ":probe";
  const auto version = cell.runtime->guarded().calibration();
  for (int r = 0; r < 10; ++r) {
    std::uint64_t t0 = now_ns();
    std::uint64_t v = 0;
    {
      const Span span("store.put", static_cast<std::uint64_t>(r));
      v = st.put(key, version.model, version.screen);
    }
    out.store_put_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    st.evict(key);  // time the disk load, not the cache
    t0 = now_ns();
    {
      const Span span("store.get", static_cast<std::uint64_t>(r));
      if (st.get(key, v).version != v)
        throw std::runtime_error("store probe: wrong version loaded");
    }
    out.store_get_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  double bytes = 0.0;
  std::size_t files = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.path().extension() == ".stfcal") {
      bytes += static_cast<double>(e.file_size());
      ++files;
    }
  out.bytes_per_version = files ? bytes / static_cast<double>(files) : 0.0;

  auto copy = std::make_shared<sigtest::BatchRuntime>(*cell.runtime);
  store::Recalibrator recal(copy, nullptr, key, Maintenance::policy());
  const auto goldens = rf::make_lna_population(
      kGoldens, ctx.spec.spread, kGoldenSeed);
  stats::Rng rng(perfbench::derive_seed(ctx.args.seed, 9));
  std::uint64_t sequence = 0;
  for (int r = 0; r < 8; ++r) {
    for (const auto& g : goldens)
      recal.observe_golden(*g.dut, g.specs.to_vector(), rng, nullptr,
                           sequence++);
    const std::uint64_t t0 = now_ns();
    {
      const Span span("recal.refit", static_cast<std::uint64_t>(r));
      (void)recal.recalibrate_now();
    }
    out.refit_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  out.swaps = recal.swaps();
  out.rollbacks = recal.rollbacks();
  std::filesystem::remove_all(dir);
}

/// Mean duration (us) of a program telemetry span, read from one
/// telemetry::to_json() snapshot (each span_stats() call re-aggregates
/// every recorded event, which takes seconds after a traced pass).
double span_mean_us(const std::string& snapshot, const std::string& name) {
  const std::string key = "\"" + name + "\":{\"count\":";
  const auto at = snapshot.find(key);
  unsigned long long count = 0, total_ns = 0;
  if (at == std::string::npos ||
      std::sscanf(snapshot.c_str() + at + key.size(), "%llu,\"total_ns\":%llu",
                  &count, &total_ns) != 2 ||
      count == 0)
    return 0.0;
  return static_cast<double>(total_ns) / 1e3 / static_cast<double>(count);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> json_metrics;
  std::vector<Metric> report;  ///< Everything printed, JSON or not.
};

/// One pass over the workload's measured phases.
struct Pass {
  LotPhase one_thread, all_threads;
  LadderRun ladder;  ///< Service workloads only.
};

Pass run_pass(const Cell& cell, const Context& ctx, References& refs,
              double seconds) {
  Pass p;
  if (!ctx.def->service) {
    // Pairs of about a second, 40% of it at one thread, until the time is
    // up (a block is at least one cycle over the lots, so may run longer).
    LotPhases lots(ctx, 0.4);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t b = 0; b < 4 || now_ns() < deadline; ++b)
      lots.run_pair(cell, ctx, refs, 1.0);
    p.one_thread = std::move(lots.one_thread);
    p.all_threads = std::move(lots.all_threads);
    return p;
  }
  // 30% of the time in-process, as pairs spread between the ladder's
  // windows; the rest open-loop service load.
  constexpr std::size_t kPairs = 8;
  LotPhases lots(ctx, 0.4);
  std::size_t done = 0;
  const double pair_s = 0.3 * seconds / static_cast<double>(kPairs);
  p.ladder = run_ladder(cell, ctx, refs, full_ladder(), 0.7 * seconds,
                        [&](std::size_t w) {
                          if (w % 3 == 0 && done < kPairs) {
                            lots.run_pair(cell, ctx, refs, pair_s);
                            ++done;
                          }
                        });
  for (; done < kPairs; ++done) lots.run_pair(cell, ctx, refs, pair_s);
  p.one_thread = std::move(lots.one_thread);
  p.all_threads = std::move(lots.all_threads);
  return p;
}

StepFigures nominal(const Pass& p) {
  return step_figures(p.ladder.of(kNominalStep));
}

/// The lot latency the end-to-end metrics read, each lot on one thread:
/// in-process test_lot for lot workloads, client-observed at the nominal
/// step for service workloads (whose served lots run on one thread). A lot
/// spread over all threads finishes with its slowest thread, so on a
/// shared host its p90 followed the steal time other tenants caused
/// (spread 0.73 over ten runs, against 0.05 at one thread);
/// devices_per_s carries the all-thread figure.
struct Latency {
  double p50_ms = 0.0, p90_ms = 0.0;
  std::size_t samples = 0;
};

Latency principal(const Pass& p, const Context& ctx) {
  if (ctx.def->service) {
    const StepFigures f = nominal(p);
    return {f.p50_ms, f.p90_ms, f.sent};
  }
  return {p.one_thread.lot_p50(), p.one_thread.lot_p90(),
          p.one_thread.lot_ms.size()};
}

void account(const LotPhase& ph, Outcome& o) {
  o.attempted += ph.lot_ms.size();
  o.failed += ph.diverged;
  o.correct = o.correct && ph.diverged == 0;
}

void account(const LadderRun& ladder, Outcome& o) {
  for (const StepRun& s : ladder.windows) {
    o.attempted += s.sent();
    o.failed += s.outcome.failed;
    o.correct = o.correct && s.diverged == 0;
  }
}

void account(const Pass& p, Outcome& o) {
  account(p.one_thread, o);
  account(p.all_threads, o);
  account(p.ladder, o);
}

std::vector<Metric> end_to_end(const Pass& p, const Context& ctx,
                               const std::vector<double>& setup_s) {
  const Latency lat = principal(p, ctx);
  // devices_per_s: in-process at all threads for lot workloads; for
  // service workloads the devices served per second at the top step,
  // which is above capacity, so the server's throughput end to end.
  double dps = p.all_threads.devices_per_s();
  std::size_t dps_samples = p.all_threads.tally.devices;
  if (ctx.def->service) {
    const StepFigures top = step_figures(p.ladder.of(kTopStep));
    dps = top.served_per_s * static_cast<double>(ctx.def->lot_size);
    dps_samples = top.sent * ctx.def->lot_size;
  }
  return {
      {"setup_s", perfbench::median(setup_s), "s", setup_s.size()},
      {"devices_per_s", dps, "1/s", dps_samples},
      {"devices_per_s_1t", p.one_thread.devices_per_s(), "1/s",
       p.one_thread.tally.devices},
      {"lot_ms_p50", lat.p50_ms, "ms", lat.samples},
      {"lot_ms_p90", lat.p90_ms, "ms", lat.samples},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };
}

/// End-to-end figures that exist only on some workloads: printed with the
/// rest, left out of the JSON line (which carries every listed metric on
/// every workload).
std::vector<Metric> workload_figures(const Pass& p, const Context& ctx) {
  std::vector<Metric> out;
  if (!ctx.def->service) {
    const std::size_t lots =
        p.one_thread.lot_ms.size() + p.all_threads.lot_ms.size();
    out.push_back({"fail_ratio",
                   lots ? static_cast<double>(p.one_thread.diverged +
                                              p.all_threads.diverged) /
                              static_cast<double>(lots)
                        : 0.0,
                   "1", lots});
    return out;
  }
  std::vector<perfbench::StepVerdict> verdicts;
  std::vector<StepFigures> figures;
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    figures.push_back(step_figures(p.ladder.of(i)));
    verdicts.push_back(figures.back().pass ? perfbench::StepVerdict::kPass
                                           : perfbench::StepVerdict::kLatency);
  }
  const int best = perfbench::highest_passing_step(verdicts);
  const StepFigures none;
  const StepFigures& top =
      best < 0 ? none : figures[static_cast<std::size_t>(best)];
  out.push_back(
      {"slo_rate_lots_per_s", top.achieved_per_s(), "1/s", top.sent});
  const StepFigures nom = nominal(p);
  out.push_back({"fail_ratio", nom.fail_ratio(), "1", nom.sent});
  if (ctx.def->recal)
    out.push_back({"recal_ms_p50", perfbench::median(p.ladder.recal_ms), "ms",
                   p.ladder.recal_ms.size()});
  return out;
}

void write_result(const Context& ctx, const Outcome& o,
                  const std::vector<Metric>& all) {
  std::filesystem::create_directories(ctx.args.out_dir);
  const std::string path = ctx.args.out_dir + "/" + ctx.def->name + "-seed" +
                           std::to_string(ctx.args.seed) + "-trace" +
                           (ctx.args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"workload\": " << json_string(ctx.def->name)
      << ", \"trace\": " << (ctx.args.trace ? 1 : 0)
      << ", \"seconds\": " << json_number(ctx.args.seconds)
      << ", \"correct\": " << (o.correct ? "true" : "false")
      << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
      << ",\n \"fingerprint\": {";
  const auto fp = fingerprint(ctx);
  for (std::size_t i = 0; i < fp.size(); ++i)
    out << (i ? ", " : "") << json_string(fp[i].first) << ": " << fp[i].second;
  out << "},\n \"metrics\": {";
  for (std::size_t i = 0; i < all.size(); ++i)
    out << (i ? ",\n  " : "\n  ") << json_string(all[i].name)
        << ": {\"value\": " << json_number(all[i].value)
        << ", \"unit\": " << json_string(all[i].unit)
        << ", \"samples\": " << all[i].samples << "}";
  out << "}}\n";
  std::printf("result file: %s\n", path.c_str());
}

Outcome run_untraced(const Context& ctx, const SetupResult& setup) {
  References refs;
  const Pass p = run_pass(setup.cell, ctx, refs, ctx.args.seconds);
  Outcome o;
  account(p, o);
  o.json_metrics = end_to_end(p, ctx, setup.setup_s);
  o.report = o.json_metrics;
  for (const Metric& m : workload_figures(p, ctx)) o.report.push_back(m);
  print_tally("(all threads)", p.all_threads.tally);
  if (ctx.def->service) print_ladder(p.ladder, ctx.threads);
  if (ctx.def->recal)
    std::printf("  recalibration: %zu versions published, %llu swaps, %llu"
                " rollbacks\n",
                p.ladder.versions,
                static_cast<unsigned long long>(p.ladder.swaps),
                static_cast<unsigned long long>(p.ladder.rollbacks));
  return o;
}

Outcome run_traced(const Context& ctx, SetupResult& setup) {
  const Cell& cell = setup.cell;
  const double s = ctx.args.seconds;
  References refs;
  Outcome o;

  progress("untraced principal phase");
  // 1. The principal measurement untraced, for the tracing overhead.
  double untraced_p50 = 0.0;
  if (ctx.def->service) {
    const LadderRun ladder = run_ladder(
        cell, ctx, refs, {kNominalStep, kNominalStep, kNominalStep}, 0.2 * s);
    untraced_p50 = step_figures(ladder.of(kNominalStep)).p50_ms;
    account(ladder, o);
  } else {
    ensure_references(cell, ctx, refs);
    LotPhase one_thread;
    one_thread.threads = 1;
    for (int b = 0; b < 3; ++b)
      run_lot_block(cell, ctx, refs, 0.2 * s / 3, one_thread);
    untraced_p50 = one_thread.lot_p50();
    account(one_thread, o);
  }

  progress("traced phases");
  // 2. Every phase again with the program's telemetry and our spans on.
  core::telemetry::reset();
  core::telemetry::set_enabled(true);
  perfbench::Tracer::instance().set_enabled(true);
  const Pass p = run_pass(cell, ctx, refs, 0.55 * s);
  core::telemetry::set_enabled(false);
  account(p, o);
  const Latency traced = principal(p, ctx);

  // 3. Serial layer probes on the workload's own inputs.
  progress("device-path probes");
  ProbeResult probe;
  probe_device_path(cell, ctx, 0.12 * s, probe);
  ensure_references(cell, ctx, refs);
  progress("codec and store probes");
  probe_codec(ctx, refs.lots[0], probe);
  probe_store(cell, ctx, probe);
  progress("service probe and report");
  // Service-layer figures: from the ladder, or for lot workloads from a
  // low-rate step of the same lots through a server.
  LadderRun service = p.ladder;
  if (!ctx.def->service) {
    start_server(setup.cell, ctx, false, std::uint64_t{1} << 41);
    const double rate = 0.25 * p.one_thread.devices_per_s() /
                        static_cast<double>(ctx.def->lot_size);
    core::set_thread_count(kServiceLotThreads);
    service.windows.push_back(run_step(cell, ctx, refs, 99, 0, rate, 0.1 * s));
    finish_step(service.windows.back());
    account(service, o);
  }
  // The lowest step: the service's own overhead with no queueing.
  const StepFigures low = step_figures(service.of(0));
  const StepFigures busy = ctx.def->service ? nominal(p) : low;
  perfbench::Tracer::instance().set_enabled(false);

  auto& tr = perfbench::Tracer::instance();
  auto med = [&](const char* name) { return perfbench::median(tr.durations_us(name)); };
  auto avg = [&](const char* name) { return mean(tr.durations_us(name)); };
  const double n = static_cast<double>(ctx.def->lot_size);
  const double threads = static_cast<double>(ctx.threads);
  // The in-process lots that match the principal latency (one thread).
  const LotPhase& matching = p.one_thread;
  const double dps = p.all_threads.devices_per_s();
  const double dps1 = p.one_thread.devices_per_s();
  const double captures =
      static_cast<double>(p.all_threads.tally.captures) /
      static_cast<double>(p.all_threads.tally.devices);
  const double predicted_devices = static_cast<double>(
      p.all_threads.tally.predicted + p.all_threads.tally.retried);
  const double lot_wall_us = mean(p.all_threads.lot_ms) * 1e3;
  const double predict_row_us = perfbench::median(probe.predict_row_ns) / 1e3;

  // Stage budget of one lot along its blocking path, the lot on one
  // thread: each device stage costs N x its per-device self time, and
  // codec work is serial on the service path.
  const double c_probe = probe.captures_per_device;
  const double a_probe = probe.attempts_per_device;
  const double board = avg("rf.board"), digitize = avg("rf.digitize"),
               capture = avg("acq.capture"), faults = avg("rf.faults"),
               fft = avg("dsp.fft"), signature = avg("acq.signature"),
               device = avg("guard.device");
  const double attempts =
      static_cast<double>(p.all_threads.tally.attempts) /
      static_cast<double>(p.all_threads.tally.devices);
  const double guard_self = std::max(
      0.0, device - c_probe * (capture + faults) - a_probe * signature -
               predict_row_us);
  const double per = n / 1e3;  // per-device us -> ms per lot
  std::vector<perfbench::BudgetRow> rows = {
      {"rf.board", per * captures * board},
      {"rf.digitize", per * captures * digitize},
      {"acq.capture (self)",
       per * captures * std::max(0.0, capture - board - digitize)},
      {"rf.faults", per * captures * faults},
      {"dsp.fft", per * attempts * fft},
      {"acq.signature (self)",
       per * attempts * std::max(0.0, signature - fft)},
      {"guard (self)", per * guard_self},
      {"calibration.predict", per * predict_row_us},
  };
  if (ctx.def->service) {
    // On the service path the lot's compute is one in-process test_lot;
    // what it takes beyond its device stages is the batch layer's own
    // (scheduling and idle workers).
    double device_ms = 0.0;
    for (const auto& r : rows) device_ms += r.ms;
    rows.push_back({"batch.test_lot (self)",
                    std::max(0.0, matching.lot_p50() - device_ms)});
    rows.push_back({"net.codec", mean(probe.codec_us) / 1e3});
  }
  const auto budget = perfbench::stage_budget(rows, traced.p50_ms);

  const double overhead_share = traced.p50_ms / untraced_p50 - 1.0;
  std::size_t sent_all = 0, rejected_all = 0;
  for (const StepRun& st : service.windows) {
    sent_all += st.sent();
    rejected_all += st.rejected;
  }
  const LadderRun& ladder = p.ladder;
  const bool recal = ctx.def->recal;

  o.json_metrics = {
      {"rf.board_us", med("rf.board"), "us", probe.devices},
      {"rf.digitize_us", med("rf.digitize"), "us", probe.devices},
      {"rf.faults_us", med("rf.faults"), "us", probe.devices},
      {"dsp.fft_us", med("dsp.fft"), "us", probe.devices},
      {"dsp.fft_flops",
       5.0 * static_cast<double>(probe.fft_n) *
           std::log2(static_cast<double>(probe.fft_n)),
       "flop", 1},
      {"acq.capture_us", med("acq.capture"), "us", probe.devices},
      {"acq.signature_us", med("acq.signature"), "us", probe.devices},
      {"guard.device_us", med("guard.device"), "us", probe.devices},
      {"guard.captures_per_device", captures, "count",
       p.all_threads.tally.devices},
      {"guard.yield",
       p.all_threads.tally.captures
           ? predicted_devices / static_cast<double>(p.all_threads.tally.captures)
           : 0.0,
       "1", p.all_threads.tally.captures},
      {"predict.row_ns", perfbench::median(probe.predict_row_ns), "ns",
       probe.predict_row_ns.size()},
      {"batch.scaling_eff", dps1 > 0.0 ? dps / (threads * dps1) : 0.0, "1",
       p.all_threads.lot_ms.size()},
      {"batch.idle_share",
       lot_wall_us > 0.0 ? 1.0 - n * device / (threads * lot_wall_us) : 0.0,
       "1", p.all_threads.lot_ms.size()},
      {"net.codec_us_per_lot", perfbench::median(probe.codec_us), "us",
       probe.codec_us.size()},
      {"net.bytes_per_lot", probe.bytes_per_lot, "B", 1},
      {"net.attempts_per_lot", busy.attempts_per_lot(), "count", busy.sent},
      {"svc.overhead_ms_p50", low.p50_ms - matching.lot_p50(), "ms",
       low.sent},
      {"svc.shed_ratio",
       sent_all ? static_cast<double>(rejected_all) /
                      static_cast<double>(sent_all)
                : 0.0,
       "1", sent_all},
      {"gen.lag_ms_p90", busy.gen_lag_p90_ms, "ms", busy.sent},
      {"registry.cold_ms", perfbench::median(setup.registry_ms), "ms",
       setup.registry_ms.size()},
      {"store.put_ms", perfbench::median(probe.store_put_ms), "ms",
       probe.store_put_ms.size()},
      {"store.get_ms", perfbench::median(probe.store_get_ms), "ms",
       probe.store_get_ms.size()},
      {"store.bytes_per_version", probe.bytes_per_version, "B", 1},
      {"recal.refit_ms", perfbench::median(probe.refit_ms), "ms",
       probe.refit_ms.size()},
      {"recal.swaps",
       static_cast<double>(recal ? ladder.swaps : probe.swaps), "count", 1},
      {"recal.rollbacks",
       static_cast<double>(recal ? ladder.rollbacks : probe.rollbacks),
       "count", 1},
      {"trace.overhead_share", overhead_share, "1", traced.samples},
      {"stage.unattributed_share", budget.unattributed_share, "1",
       traced.samples},
  };
  o.report = o.json_metrics;
  for (const Metric& m : workload_figures(p, ctx)) o.report.push_back(m);

  print_tally("(all threads)", p.all_threads.tally);
  if (ctx.def->service) print_ladder(p.ladder, ctx.threads);
  std::printf("stage budget of one lot (%s, one thread, lot_ms_p50 traced"
              " %.4f ms):\n",
              ctx.def->name, budget.total_ms);
  for (const auto& r : budget.rows)
    std::printf("  %-24s %10.4f ms  %6.2f%%\n", r.stage.c_str(), r.ms,
                budget.total_ms > 0 ? 100.0 * r.ms / budget.total_ms : 0.0);
  std::printf("  %-24s %10.4f ms  %6.2f%%\n", "unattributed",
              budget.unattributed_ms, 100.0 * budget.unattributed_share);
  std::printf("  (dsp.fft_flops is computed as 5 N log2 N, N = %zu)\n",
              probe.fft_n);
  const std::string snapshot = core::telemetry::to_json();
  std::printf("cross-check, program telemetry span means (us):");
  for (const char* name : {"acq.capture", "board.dut", "board.lpf", "acq.fft",
                           "batch.test_lot", "svc.lot", "store.put",
                           "recal.refit"})
    std::printf(" %s %.3f", name, span_mean_us(snapshot, name));
  std::printf("\n");
  const std::string spans = ctx.args.out_dir + "/" + ctx.def->name + "-seed" +
                            std::to_string(ctx.args.seed) + "-spans.json";
  std::filesystem::create_directories(ctx.args.out_dir);
  if (tr.write_chrome_trace(spans))
    std::printf("spans: %zu written to %s\n", tr.size(), spans.c_str());
  return o;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out-dir") a.out_dir = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  Context ctx;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) ctx.def = &w;
  if (ctx.def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ctx.args = args;
  ctx.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  ctx.scenario = "lna:spread=0.2:pop=" + std::to_string(kPopulationSeed);
  ctx.spec = service::parse_scenario(ctx.scenario);
  for (std::size_t k = 0; k < ctx.def->lot_seeds; ++k)
    ctx.lot_seeds.push_back(perfbench::derive_seed(args.seed, 10 + k));
  if (*ctx.def->faults != '\0')
    ctx.faults = rf::FaultInjector::parse(ctx.def->faults);
  ctx.run_dir = args.out_dir + "/run-" + ctx.def->name + "-" +
                std::to_string(args.seed);
  std::filesystem::create_directories(ctx.run_dir);

  std::printf("=== perfbench %s seed %llu, %.1f s, trace %d ===\n",
              ctx.def->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("fingerprint:");
  for (const auto& [k, v] : fingerprint(ctx))
    std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\nscenario %s, lot %zu devices, faults '%s'\n",
              ctx.scenario.c_str(), ctx.def->lot_size, ctx.def->faults);

  Outcome o;
  {
    progress("set-up");
    SetupResult setup = set_up(ctx);
    o = args.trace ? run_traced(ctx, setup) : run_untraced(ctx, setup);
    progress("stopping");
  }  // the server drains and stops here
  progress("stopped");
  std::filesystem::remove_all(ctx.run_dir);

  print_metrics(args.trace ? "per-layer metrics:" : "end-to-end metrics:",
                o.report);
  std::printf("lots attempted %zu, failed %zu, correctness gate %s\n",
              o.attempted, o.failed, o.correct ? "PASS" : "FAIL");
  write_result(ctx, o, o.report);

  std::string line = "{\"correct\": " + std::string(o.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < o.json_metrics.size(); ++i)
    line += (i ? ", " : "") + json_string(o.json_metrics[i].name) +
            ": {\"value\": " + json_number(o.json_metrics[i].value) +
            ", \"unit\": " + json_string(o.json_metrics[i].unit) + "}";
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return o.correct ? 0 : 1;
}
