// Wall-clock phase profiling for the threaded front-ends (src/obs).
//
// Scoped wall-clock timers on a fixed set of phases — the batch
// front-end's prepare/score/commit stages and SweepRunner cell execution —
// surfaced as the `profile` section of api::RunReport and the bench JSON.
//
// Wall-clock data is STRICTLY segregated from simulated-time results
// (determinism rule 9, docs/ARCHITECTURE.md): nothing here ever feeds a
// SimResult, an .otrace record, a golden, or any other deterministic
// artifact. The profiler is globally off by default; a disabled ScopedPhase
// is one relaxed atomic load — cheap enough to leave in inner loops.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace optchain::obs {

/// The instrumented engine phases. Fixed slots (not a name registry) keep
/// the hot-path cost to an indexed atomic add.
enum class Phase : std::uint8_t {
  kBatchPrepare = 0,  ///< batch front-end: drain + TaN registration
  kBatchScore,        ///< batch front-end: parallel gather/score
  kBatchCommit,       ///< batch front-end: sequential argmax + commit
  kSweepCell,         ///< sweep runner: one cell end-to-end
  kCount              ///< slot count, not a phase
};

/// Stable lowercase name of a phase (e.g. "place.batch.score").
const char* phase_name(Phase phase) noexcept;

/// One finished profile row: accumulated wall-clock seconds and the number
/// of scoped sections that contributed.
struct PhaseEntry {
  std::string phase;        ///< phase_name() of the slot
  double seconds = 0.0;     ///< accumulated wall-clock seconds
  std::uint64_t calls = 0;  ///< scoped sections accumulated
};

/// Process-global accumulator of wall-clock phase timings. Disabled by
/// default; api::simulate()/place() enable it for the duration of a run
/// when RunSpec::profile is set (the CLI's --profile). Accumulation is
/// thread-safe (per-slot atomics) — the batch front-end's workers and the
/// sweep pool time their phases concurrently.
class PhaseProfiler {
 public:
  /// The process-wide profiler instance.
  static PhaseProfiler& instance();

  /// Turns collection on/off. Scopes opened while disabled record nothing.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Whether scopes currently record.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Zeroes every slot (typically paired with set_enabled(true)).
  void reset() noexcept;

  /// Adds `nanos` wall-clock nanoseconds to a phase slot. Thread-safe.
  void add(Phase phase, std::uint64_t nanos) noexcept;

  /// Non-empty slots in enum order, converted to seconds.
  std::vector<PhaseEntry> snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> calls{0};
  };

  std::atomic<bool> enabled_{false};
  std::array<Slot, static_cast<std::size_t>(Phase::kCount)> slots_;
};

/// RAII wall-clock timer for one phase. When the global profiler is
/// disabled, construction is a single relaxed load and nothing is timed.
class ScopedPhase {
 public:
  /// Starts timing `phase` if the global profiler is enabled.
  explicit ScopedPhase(Phase phase) noexcept
      : phase_(phase), active_(PhaseProfiler::instance().enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  /// Stops the timer and accumulates the elapsed wall-clock into the slot.
  ~ScopedPhase() {
    if (active_) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      PhaseProfiler::instance().add(
          phase_, static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          elapsed)
                          .count()));
    }
  }

  /// Not copyable (a scope times exactly one section).
  ScopedPhase(const ScopedPhase&) = delete;
  /// Not copy-assignable.
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace optchain::obs
