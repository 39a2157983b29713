// RunSpec / RunReport — the config-object pair describing one experiment run
// and its results, shared by the CLI, the bench harness and the examples.
//
//   api::RunSpec spec;
//   spec.method = "OptChain";
//   spec.num_shards = 16;
//   api::RunReport report = api::place(spec, txs);        // Tables I-II
//   api::RunReport report = api::simulate(spec, txs);     // Figs. 3-11
//   report.to_table().print();       // aligned text table
//   report.to_csv();                 // RFC-4180 CSV, same rows
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "sim/simulation.hpp"
#include "txmodel/transaction.hpp"

namespace optchain::api {

/// Describes one (method, shard count, operating point) run. Placement-only
/// runs ignore the simulation knobs.
struct RunSpec {
  std::string method = "OptChain";  ///< a PlacerRegistry name
  std::uint32_t num_shards = 16;    ///< shard count k
  std::uint64_t seed = 1;           ///< method/partition seed

  // Simulation operating point (simulate() only).
  /// Seed of the simulator's network/consensus sampling — kept separate from
  /// `seed` (the method/partition seed) so placement results are comparable
  /// across operating points.
  std::uint64_t sim_seed = 42;
  double rate_tps = 2000.0;  ///< nominal client issue rate
  /// Cross-shard commit protocol (client-driven Atomix or RapidChain yank).
  sim::ProtocolMode protocol = sim::ProtocolMode::kOmniLedger;
  double commit_window_s = 50.0;         ///< Fig. 5 window width
  double queue_sample_interval_s = 5.0;  ///< Figs. 6-7 sampling cadence
  double leader_fault_rate = 0.0;        ///< P[view change] per round
  /// Chronic per-shard slowdown factors (missing entries = 1.0).
  std::vector<double> shard_slowdown;

  /// Link-level network fabric (simulate() only; see sim/fabric/): geo-region
  /// latency tiers, per-access-link bandwidth queues, jitter and stragglers.
  /// Disabled by default — every delivery then uses the flat NetworkModel
  /// path unchanged. Start from sim::fabric_preset("wan"), etc.
  sim::FabricConfig fabric;

  /// Scripted shard membership changes (simulate() only; see
  /// sim/shard_churn.hpp). Empty = the classic fixed shard set.
  sim::ShardChurnPlan churn;

  /// Periodic Metis re-partitioning of the live assignment (simulate()
  /// only; see sim/repartition.hpp). Disabled by default (interval 0).
  /// When repartition.seed is 0, sim_config() derives the controller seed
  /// from `seed` so the partitioner re-rolls with the method seed, not the
  /// simulator's stochastic sampling.
  sim::RepartitionConfig repartition;

  /// Borrowed sim::SimObserver hooks installed into the run (simulate()
  /// only); each must outlive it. This is how the stats/ collectors — or any
  /// custom instrumentation — attach to a run through the API instead of
  /// being hand-wired into a driver binary.
  std::vector<sim::SimObserver*> observers;

  /// The full SimConfig this spec describes.
  sim::SimConfig sim_config() const;
};

/// Unified result of a run: placement statistics always, simulation metrics
/// when the run went through the simulator.
struct RunReport {
  std::string method;            ///< the placer's self-reported name
  std::uint32_t num_shards = 0;  ///< shard count of the run
  /// Denominator of the cross-TX metric: non-coinbase transactions for
  /// placement runs (Tables I-II convention), every issued transaction for
  /// simulation runs (SimResult::cross_fraction convention).
  std::uint64_t total = 0;
  std::uint64_t cross = 0;  ///< cross-shard transactions
  std::vector<std::uint64_t> shard_sizes;  ///< final per-shard sizes
  /// Simulation metrics, present when the run went through the simulator.
  std::optional<sim::SimResult> sim;

  /// cross / total (0 when nothing was counted).
  double cross_fraction() const noexcept {
    return total == 0 ? 0.0
                      : static_cast<double>(cross) / static_cast<double>(total);
  }

  /// metric/value rows: method, shards, cross-TX always; the simulation
  /// metrics (throughput, latency, ...) when present; then per-shard sizes.
  TextTable to_table() const;
  /// The same rows as RFC-4180 CSV (header included).
  std::string to_csv() const;
};

/// Placement-only run (Tables I-II): streams `transactions` through the
/// spec's method. If `warm_parts` is non-empty the first warm_parts.size()
/// transactions are force-placed per that partition and excluded from the
/// cross-TX count (Table II's warm start).
RunReport place(const RunSpec& spec,
                std::span<const tx::Transaction> transactions,
                std::span<const std::uint32_t> warm_parts = {});

/// Placement-only run over a pull source (dynamic-workload decorators plug
/// in here). Stream-dependent strategies (Metis, Static) are unavailable —
/// the stream is never materialized. `expected_txs` backs up the source's
/// size hint when it has none (injecting decorators): capacity-capped
/// methods (Greedy, T2S) need a stream-length estimate or they degenerate
/// to uncapped first-shard pile-up.
RunReport place(const RunSpec& spec, workload::TxSource& source,
                std::uint64_t expected_txs = 0);

/// Full simulation run (Figs. 3-11): places online inside the simulator's
/// event loop, with the client's live shard-timing view feeding the L2S term.
RunReport simulate(const RunSpec& spec,
                   std::span<const tx::Transaction> transactions);

/// Full simulation run over a pull source. The source also owns the issue
/// schedule (TxSource::issue_time), which is how rate-curve decorators
/// (workload::DynamicTxSource) drive time-varying load through an otherwise
/// unchanged engine. `expected_txs` as in place().
RunReport simulate(const RunSpec& spec, workload::TxSource& source,
                   std::uint64_t expected_txs = 0);

}  // namespace optchain::api
