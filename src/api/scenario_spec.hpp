// ScenarioSpec — a declarative description of an experiment grid.
//
// The paper's whole evaluation (Figs. 2-11, Tables I-II) is a sweep of
// (method × shard count × tx rate × seed) runs over a generated workload.
// A ScenarioSpec names the axes and the fixed operating knobs once and
// expands into a Sweep: one fully self-contained SweepCell per grid point
// per replica, each carrying the complete api::RunSpec plus the workload
// recipe that produces its transaction stream. SweepRunner executes cells
// (in any order, on any number of threads — every cell's randomness derives
// only from its own seeds) and aggregates replicas into a SweepReport.
//
//   api::ScenarioSpec spec;
//   spec.name = "fig4a";
//   spec.methods = {"OptChain", "OmniLedger", "Metis", "Greedy"};
//   spec.rates = {2000, 3000, 4000, 5000, 6000};
//   spec.issue_seconds = 120.0;
//   api::SweepReport report = api::SweepRunner({.jobs = 8}).run(spec);
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/run_spec.hpp"
#include "workload/account_workload.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/dynamic_profile.hpp"

namespace optchain::api {

/// What each cell runs: placement-only streaming (Tables I-II) or the full
/// discrete-event simulation (Figs. 3-11).
enum class RunMode : std::uint8_t {
  kPlace,     ///< placement-only streaming (Tables I-II)
  kSimulate,  ///< full discrete-event simulation (Figs. 3-11)
};

/// "place" or "simulate" (report/JSON labels).
const char* to_string(RunMode mode) noexcept;

/// Which generator produces the cell's transaction stream.
enum class WorkloadKind : std::uint8_t {
  kBitcoinLike,  ///< workload::BitcoinLikeGenerator (UTXO model)
  kAccount,      ///< workload::AccountWorkloadGenerator (Ethereum-style)
  kTrace,        ///< trace::TraceTxSource replay of an imported .optx trace
};

/// Replay recipe for WorkloadKind::kTrace: one imported chunk-indexed
/// trace (see src/trace) shared by every cell and replica of the sweep —
/// the import happens once, offline, and cells stream windows of the file
/// instead of regenerating workloads per grid point.
struct TraceReplay {
  std::string path;         ///< the .optx container (OPTX v1 also accepted)
  std::uint64_t begin = 0;  ///< first absolute trace index to replay
  /// One past the last index; 0 = to the end of the trace. expand()
  /// resolves the actual end against the file (and against
  /// ScenarioSpec::txs, which caps the window length when set).
  std::uint64_t end = 0;
};

/// An explicit (rate, shard count) operating point. When a scenario lists
/// pairings they replace the shards × rates cross product — the paper's
/// Figs. 8b/9b pair each rate with the smallest shard count that keeps
/// OptChain healthy instead of sweeping the full grid.
struct OperatingPoint {
  double rate_tps = 2000.0;   ///< client issue rate
  std::uint32_t shards = 16;  ///< shard count paired with that rate
};

struct SweepCell;
struct Sweep;

/// A declarative experiment grid; see the file comment for the model.
struct ScenarioSpec {
  std::string name;       ///< registry key, e.g. "fig4a"
  std::string title;      ///< human description for list/report headers
  std::string paper_ref;  ///< what it reproduces, e.g. "Fig. 4a (§V.B.1)"

  /// Placement-only or full simulation (see RunMode).
  RunMode mode = RunMode::kSimulate;

  // ----- axes (cross product, in this nesting order: methods, then shard ×
  // rate points, then seeds, then replicas) ------------------------------
  std::vector<std::string> methods = {"OptChain"};  ///< PlacerRegistry names
  std::vector<std::uint32_t> shards = {16};  ///< shard-count axis
  std::vector<double> rates = {2000.0};      ///< issue-rate axis (tps)
  /// Non-empty: replaces shards × rates with this explicit point list.
  std::vector<OperatingPoint> pairings;
  /// Workload/method seeds (RunSpec::seed; also seeds the generator).
  std::vector<std::uint64_t> seeds = {1};
  /// Stochastic-simulation replicas per grid point: replica r runs the same
  /// workload under sim_seed = kBaseSimSeed + r, and SweepRunner reports
  /// mean/min/max across them.
  std::uint32_t replicas = 1;

  // ----- fixed RunSpec knobs -------------------------------------------
  /// Cross-shard commit protocol of every cell.
  sim::ProtocolMode protocol = sim::ProtocolMode::kOmniLedger;
  double leader_fault_rate = 0.0;      ///< P[view change] per round
  std::vector<double> shard_slowdown;  ///< chronic per-shard slowdowns
  double commit_window_s = 10.0;       ///< Fig. 5 window width
  double queue_sample_interval_s = 5.0;  ///< Figs. 6-7 sampling cadence
  /// Scripted shard membership changes applied to every cell (simulation
  /// mode only; expand() rejects churn in placement mode). `shards` then
  /// names each cell's *initial* shard count.
  sim::ShardChurnPlan churn;
  /// Periodic Metis re-partitioning applied to every cell (simulation mode
  /// only; expand() rejects it in placement mode, and in combination with
  /// warm_ratio — the Metis warm prefix assumes a static assignment).
  /// Disabled by default (interval 0); see sim/repartition.hpp and
  /// RunSpec::repartition for the seed-derivation rule.
  sim::RepartitionConfig repartition;
  /// Link-level network fabric applied to every simulation cell (disabled
  /// by default — cells then use the flat NetworkModel path unchanged; see
  /// RunSpec::fabric). expand() validates the config up front.
  sim::FabricConfig fabric;

  // ----- workload dynamics ---------------------------------------------
  /// Rate waves / hotspot skew / spam bursts decorating every cell's stream
  /// (see workload/dynamic_profile.hpp). Inert by default. Incompatible
  /// with warm_ratio (the Metis warm prefix assumes the undecorated
  /// stream); expand() rejects the combination. Stream-dependent methods
  /// (Metis, Static) cannot run under an *injecting* profile — the emitted
  /// stream is never materialized.
  workload::DynamicProfile dynamic;

  // ----- workload ------------------------------------------------------
  WorkloadKind workload = WorkloadKind::kBitcoinLike;  ///< which generator
  workload::WorkloadConfig bitcoin_workload;           ///< UTXO-model knobs
  workload::AccountWorkloadConfig account_workload;  ///< account-model knobs
  /// Trace replay recipe (workload == kTrace): every cell streams the same
  /// imported .optx window instead of regenerating a synthetic stream.
  /// Incompatible with warm_ratio (the Metis warm prefix assumes a
  /// materialized generator stream); expand() rejects the combination, an
  /// empty path, or a window outside the trace. Trace cells ignore `seeds`
  /// as a workload seed (the stream is fixed) but keep it as the method
  /// seed; rate_tps only drives the simulator's issue schedule.
  TraceReplay trace;
  /// Fixed stream length; 0 sizes each cell as rate × issue_seconds (the
  /// bench convention: a constant issue window equalizes the drain-tail
  /// bias across rates).
  std::uint64_t txs = 0;
  double issue_seconds = 90.0;
  /// Table II warm start: each cell's stream is preceded by
  /// warm_ratio × (placed txs) transactions whose TaN is partitioned
  /// offline with Metis and force-placed (excluded from the cross-TX
  /// count). 0 = cold start. Placement mode only.
  std::uint32_t warm_ratio = 0;

  /// sim_seed of replica 0 (matches SimConfig's default, so a 1-replica
  /// scenario reproduces the historical per-figure binaries exactly).
  static constexpr std::uint64_t kBaseSimSeed = 42;

  /// Grid points before replication: methods × points × seeds, where
  /// points = pairings.size() when pairings is non-empty, else
  /// shards.size() × rates.size().
  std::size_t num_cells() const noexcept;

  /// Stream length of a cell at `rate_tps` (excluding any warm prefix).
  std::uint64_t stream_length(double rate_tps) const noexcept;

  /// Throws std::invalid_argument naming the field when the grid is
  /// nonsense: an empty axis, replicas == 0, a shard count of 0, a rate or
  /// issue_seconds that is not positive and finite, a cell of 2^32 or more
  /// transactions (by txs, or by rate × issue_seconds when txs is 0;
  /// transaction indices are 32-bit), or knobs that need the simulator or
  /// exclude one another. expand() calls it first; it reads no file.
  void validate() const;

  /// Expands the axes into num_cells() × replicas self-contained cells.
  /// Calls validate() first, then resolves a trace window against its file;
  /// throws std::invalid_argument on either failure.
  Sweep expand() const;
};

/// One grid point × one replica, fully self-contained: SweepRunner executes
/// a cell without reading anything but the cell (what makes the thread pool
/// trivially deterministic).
struct SweepCell {
  std::size_t cell = 0;       ///< dense grid-point id, expansion order
  std::uint32_t replica = 0;  ///< replica index within the grid point
  RunMode mode = RunMode::kSimulate;  ///< place or simulate
  RunSpec spec;  ///< complete run description for this replica
  std::uint64_t stream_txs = 0;  ///< placed/simulated stream length
  std::uint64_t warm_txs = 0;  ///< Metis warm prefix length (kPlace only)
  std::uint64_t workload_seed = 1;  ///< generator seed
  WorkloadKind workload = WorkloadKind::kBitcoinLike;  ///< which generator
  workload::WorkloadConfig bitcoin_workload;           ///< UTXO-model knobs
  workload::AccountWorkloadConfig account_workload;  ///< account-model knobs
  /// Resolved trace window of the cell (workload == kTrace): end is always
  /// concrete (never the 0 = "to end" shorthand) after expand().
  TraceReplay trace;
  /// Dynamic-workload decoration of the cell's stream (inert by default).
  workload::DynamicProfile dynamic;
};

/// An expanded scenario: the flat cell list (grid-point-major,
/// replica-minor) plus the metadata reports carry forward.
struct Sweep {
  std::string scenario;   ///< ScenarioSpec::name
  std::string title;      ///< ScenarioSpec::title
  std::string paper_ref;  ///< ScenarioSpec::paper_ref
  RunMode mode = RunMode::kSimulate;  ///< place or simulate
  std::uint32_t replicas = 1;         ///< replicas per grid point
  std::vector<SweepCell> cells;       ///< grid-point-major, replica-minor
};

}  // namespace optchain::api
