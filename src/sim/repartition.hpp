// Online re-partitioning under a migration budget.
//
// The Metis warm start (api/scenario_spec.hpp `warm_ratio`) is offline-only:
// it partitions a batch it has already seen and then never moves a record
// again, so under churn and fabric pressure the assignment can only drift
// away from the current TaN. The RepartitionController closes that loop
// online: on a fixed cadence (SimConfig::repartition.interval_s) it snapshots
// the most recent `window` transactions of the TaN, runs the in-repo Metis
// k-way pass (metis/kway_partitioner.hpp) over the *active* shard set, and
// applies the delta through ShardAssignment::reassign — at most `budget`
// transaction migrations per event, the excess deferred to the next cycle
// (no recompute while a plan is still draining).
//
// Metis part ids are arbitrary labels, so the controller first relabels each
// part to the active shard it overlaps most (greedy maximum matching with
// deterministic ties). The migration delta — not the raw cut — is what the
// budget pays for; a re-partition that agrees with the current assignment
// costs nothing.
//
// The engine fires the controller as its own queued event (like scripted
// churn), so a repartition run is a pure function of its seeds —
// determinism rule 8 in docs/ARCHITECTURE.md, pinned by
// tests/repartition_test.cpp and tests/sim_fingerprint_test.cpp.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace optchain::api {
class PlacementPipeline;
}  // namespace optchain::api

namespace optchain::sim {

/// Knobs of the online re-partition controller (`RunSpec::repartition`,
/// `ScenarioSpec::repartition`). Default-constructed = disabled.
struct RepartitionConfig {
  /// Cadence in simulated seconds between re-partition events; 0 disables
  /// the controller entirely.
  double interval_s = 0.0;
  /// Migration budget: maximum transactions migrated per event. Planned
  /// moves beyond the budget are deferred to the next event; 0 = unlimited.
  std::uint64_t budget = 0;
  /// Snapshot window: the Metis pass runs over the most recent `window`
  /// transactions of the TaN (only edges with both endpoints inside the
  /// window are considered). 0 = the whole TaN.
  std::uint64_t window = 0;
  /// Seed of the Metis pass. 0 = derived from the run's placement seed by
  /// api::RunSpec::sim_config().
  std::uint64_t seed = 0;

  /// True when the controller fires (interval_s > 0).
  bool enabled() const noexcept { return interval_s > 0.0; }

  /// Throws std::invalid_argument on nonsensical knobs.
  void validate() const;
};

/// One applied migration: transaction `tx` moved shard `from` → `to`.
struct RepartitionMove {
  std::uint32_t tx = 0;    ///< migrated transaction index
  std::uint32_t from = 0;  ///< shard the record left
  std::uint32_t to = 0;    ///< shard the record joined
};

/// What one re-partition event did: the applied moves (at most `budget`) and
/// how many planned moves were deferred to the next cycle.
struct RepartitionOutcome {
  std::vector<RepartitionMove> applied;  ///< moves applied this event
  std::uint64_t deferred = 0;            ///< planned moves left for later
};

/// The periodic Metis re-partition controller (see the file comment). The
/// engine owning the pipeline constructs one per run and calls step() every
/// time a kRepartition event fires.
class RepartitionController {
 public:
  /// `config` must be enabled(); validates it.
  explicit RepartitionController(const RepartitionConfig& config);

  /// Runs one re-partition event: computes a fresh plan when the previous
  /// one has drained, then applies up to `budget` migrations through
  /// `pipeline`. Entries staled by churn (target shard retired, or the
  /// record already where the plan wants it) are skipped without consuming
  /// budget.
  RepartitionOutcome step(api::PlacementPipeline& pipeline);

  /// Planned moves still waiting for budget (drained before any recompute).
  std::uint64_t pending() const noexcept {
    return static_cast<std::uint64_t>(plan_.size() - cursor_);
  }

 private:
  void compute_plan(const api::PlacementPipeline& pipeline);

  RepartitionConfig config_;
  /// (tx, target shard) in ascending tx order; applied from cursor_ on.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> plan_;
  std::size_t cursor_ = 0;
};

}  // namespace optchain::sim
