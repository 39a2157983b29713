#include "obs/phase_profiler.hpp"

namespace optchain::obs {

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kBatchPrepare:
      return "place.batch.prepare";
    case Phase::kBatchScore:
      return "place.batch.score";
    case Phase::kBatchCommit:
      return "place.batch.commit";
    case Phase::kSweepCell:
      return "sweep.cell";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

PhaseProfiler& PhaseProfiler::instance() {
  static PhaseProfiler profiler;
  return profiler;
}

void PhaseProfiler::reset() noexcept {
  for (Slot& slot : slots_) {
    slot.nanos.store(0, std::memory_order_relaxed);
    slot.calls.store(0, std::memory_order_relaxed);
  }
}

void PhaseProfiler::add(Phase phase, std::uint64_t nanos) noexcept {
  Slot& slot = slots_[static_cast<std::size_t>(phase)];
  slot.nanos.fetch_add(nanos, std::memory_order_relaxed);
  slot.calls.fetch_add(1, std::memory_order_relaxed);
}

std::vector<PhaseEntry> PhaseProfiler::snapshot() const {
  std::vector<PhaseEntry> out;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint64_t calls = slots_[i].calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    PhaseEntry entry;
    entry.phase = phase_name(static_cast<Phase>(i));
    entry.seconds =
        static_cast<double>(slots_[i].nanos.load(std::memory_order_relaxed)) /
        1e9;
    entry.calls = calls;
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace optchain::obs
