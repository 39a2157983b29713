// Sharded-blockchain simulation driver — the reproduction of the paper's
// OverSim/OMNeT++ experiment harness (§V.A).
//
// Clients issue the transaction stream at a configured rate; each
// transaction is placed by a pluggable placement::Placer, then handled by
// the OmniLedger atomic cross-shard protocol (§III.A):
//
//   same-shard  : client ──tx──▶ output shard ──(block)──▶ committed
//   cross-shard : client ──tx──▶ every input shard (lock)
//                 input shard ──(block)──▶ proof-of-acceptance ──▶ client
//                 client (all proofs) ──unlock-to-commit──▶ output shard
//                 output shard ──(block)──▶ committed
//
// The abort path is simulated too (§III.A step 2-3): every shard tracks the
// lock/spend state of the UTXOs it owns; a lock request hitting an already
// locked or spent outpoint yields a proof-of-rejection, and one rejection
// makes the client abort the transaction with unlock-to-abort messages that
// release the locks taken at the other input shards. Double-spend conflicts
// for exercising this path come from workload::inject_double_spends().
// Consistency with issue order is optimistic: a transaction may lock the
// (not yet committed) outputs of an in-flight ancestor, since the stream
// issues children after their parents.
//
// A RapidChain-style mode routes proofs committee-to-committee ("yanking")
// instead of through the client. All messaging pays the network model's
// latency + bandwidth costs, and every lock/commit consumes mempool and
// block space at its shard — the mechanism behind every throughput/latency
// number in the paper's Figs. 3-11.
//
// Engine shape: the simulation IS the event dispatcher. Every scheduled
// action is a typed POD Event (sim/event_queue.hpp) dispatched by the
// on_event() switch — no per-event closures — and the transaction stream is
// pulled from a workload::TxSource one transaction at a time. A run keeps a
// record per in-flight transaction plus 4 bytes per index of the in-flight
// span (sim/tx_state.hpp's InflightWindow; at the paper's operating point,
// 150k txs at 6000 tps, the span peaks at 73k-78k indices and ~36k live
// records), the lock/spend ledger (~1.5 entries per transaction), and the
// O(1)-per-tx placement state the pipeline owns — not the whole stream.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "latency/l2s_model.hpp"
#include "placement/shard_assignment.hpp"
#include "sim/consensus.hpp"
#include "sim/event_queue.hpp"
#include "sim/fabric/fabric.hpp"
#include "sim/network.hpp"
#include "sim/repartition.hpp"
#include "sim/shard_churn.hpp"
#include "sim/shard_node.hpp"
#include "sim/sim_observer.hpp"
#include "sim/tx_state.hpp"
#include "stats/metrics.hpp"
#include "txmodel/transaction.hpp"
#include "workload/tx_source.hpp"

namespace optchain::sim {

enum class ProtocolMode : std::uint8_t {
  kOmniLedger,  // client-driven lock/unlock (Atomix)
  kRapidChain,  // committee-to-committee yanking
};

struct SimConfig {
  std::uint32_t num_shards = 16;
  double tx_rate_tps = 2000.0;
  NetworkConfig network;
  /// Link-level network fabric (sim/fabric/). Disabled by default: every
  /// delivery then goes through the flat `network` model unchanged. When
  /// enabled, protocol messages pay region-tier propagation, access-link
  /// serialization/queueing and jitter instead (see FabricConfig), and
  /// consensus block dissemination pays the fabric's link bandwidth.
  FabricConfig fabric;
  ConsensusConfig consensus;
  ProtocolMode protocol = ProtocolMode::kOmniLedger;
  std::uint64_t seed = 42;

  /// Failure injection: per-round leader faults across all shards, plus an
  /// optional chronic per-shard slowdown (shard_slowdown[s] multiplies shard
  /// s's round durations; missing entries default to 1.0).
  double leader_fault_rate = 0.0;
  double view_change_penalty_s = 5.0;
  std::vector<double> shard_slowdown;

  /// Metric cadence. The paper uses 50 s commit windows (Fig. 5); scaled-down
  /// streams may prefer narrower windows.
  double queue_sample_interval_s = 5.0;
  double commit_window_s = 50.0;

  /// Safety horizon: the run aborts (and reports failure) if the simulated
  /// clock passes this bound before every transaction commits.
  double max_sim_time_s = 1e7;

  /// Scripted shard membership changes (see sim/shard_churn.hpp). An empty
  /// plan leaves every engine code path and random draw untouched.
  ShardChurnPlan churn;

  /// Online re-partition cadence/budget (see sim/repartition.hpp). Disabled
  /// by default; a disabled config leaves every code path untouched.
  RepartitionConfig repartition;

  /// Message payload sizes (bytes).
  std::uint64_t proof_bytes = 256;

  /// Borrowed instrumentation hooks (see sim/sim_observer.hpp); each must
  /// outlive the run. The engine's own metric collection is itself an
  /// observer (stats::MetricsObserver), always notified first.
  std::vector<SimObserver*> observers;
};

struct SimResult {
  std::string placer_name;
  std::uint64_t total_txs = 0;
  std::uint64_t cross_txs = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t aborted_txs = 0;  // proof-of-rejection path (double spends)
  bool completed = false;        // every transaction committed or aborted
  double duration_s = 0.0;       // simulated time of the last commit
  double throughput_tps = 0.0;   // total_txs / duration_s
  double avg_latency_s = 0.0;
  double max_latency_s = 0.0;
  std::uint64_t total_blocks = 0;
  std::uint64_t total_events = 0;

  /// Memory-shape diagnostics. `shard_event_counts[s]` counts the
  /// shard-addressed events (deliveries, proofs, round completions,
  /// unlocks) dispatched for shard s — identical across engines by
  /// construction. `event_heap_peak` is the deepest any event heap got
  /// during the run; it is engine-*specific* (the parallel engine's
  /// per-shard-group heaps are individually shallower than the sequential
  /// engine's one global heap) and deliberately outside the bit-identity
  /// contract.
  std::uint64_t event_heap_peak = 0;
  std::vector<std::uint64_t> shard_event_counts;

  /// Shard churn accounting (zero without a churn plan): fired membership
  /// changes, transaction records bulk-migrated off retiring shards, and
  /// live UTXO-ledger records that moved with them.
  std::uint64_t shard_changes = 0;
  std::uint64_t migrated_txs = 0;
  std::uint64_t migrated_utxos = 0;

  /// Online re-partition accounting (zero unless SimConfig::repartition is
  /// enabled): fired events, transaction records migrated by the controller,
  /// live UTXO-ledger records that moved with them, and the sum over events
  /// of moves deferred past the migration budget.
  std::uint64_t repartition_events = 0;
  std::uint64_t repartition_migrated_txs = 0;
  std::uint64_t repartition_migrated_utxos = 0;
  std::uint64_t repartition_deferred_txs = 0;

  /// Link-fabric accounting (all zero when SimConfig::fabric is disabled;
  /// copied from LinkFabric::stats() at run end, inside the cross-engine
  /// bit-identity contract): delivered protocol messages and payload bytes,
  /// tail drops (each retransmitted), total time messages spent queued on
  /// busy uplinks, and the deepest uplink backlog ever observed.
  std::uint64_t link_messages = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t link_drops = 0;
  double link_queue_delay_s = 0.0;
  double link_peak_backlog_s = 0.0;

  stats::LatencyRecorder latencies;
  stats::WindowCounter commits_per_window{50.0};
  stats::QueueTracker queue_tracker;
  std::vector<std::uint64_t> final_shard_sizes;

  double cross_fraction() const noexcept {
    return total_txs == 0 ? 0.0
                          : static_cast<double>(cross_txs) /
                                static_cast<double>(total_txs);
  }
};

class Simulation final : private EventHandler {
 public:
  explicit Simulation(SimConfig config);

  /// Streams transactions from `source` through the placement pipeline and
  /// the cross-shard protocol. The pipeline must be fresh (nothing placed
  /// yet) and its shard count must match the simulation's: its TaN dag fills
  /// online as transactions are issued, so a placer constructed over it sees
  /// exactly the prefix that has arrived. The source must yield dense
  /// indices 0..n-1. Working memory is O(in-flight transactions), not O(n).
  SimResult run(workload::TxSource& source, api::PlacementPipeline& pipeline);

  /// Convenience for pre-materialized streams (adapts a SpanTxSource).
  SimResult run(std::span<const tx::Transaction> transactions,
                api::PlacementPipeline& pipeline);

  const SimConfig& config() const noexcept { return config_; }

 private:
  void on_event(const Event& event) override;
  void notify_issue(std::uint32_t tx, double time, bool cross);
  void notify_commit(std::uint32_t tx, double time, double latency_s);
  void notify_abort(std::uint32_t tx, double time);
  void notify_queue_sample(double time,
                           std::span<const std::uint64_t> queue_sizes);
  void notify_link_sample(double time, std::span<const LinkSample> links);
  void notify_block_commit(std::uint32_t shard, double time);
  void notify_shard_change(std::uint32_t shard, double time, bool joined,
                           std::uint64_t migrated_txs,
                           std::uint64_t migrated_utxos);
  void issue_transaction(std::uint32_t index);
  void on_item_committed(std::uint32_t shard, const QueueItem& item,
                         SimTime time);
  void commit_transaction(std::uint32_t index, SimTime time);
  void abort_transaction(std::uint32_t index, SimTime time);
  void sample_queues();
  void observe_timings();

  /// Transactions issued but not yet terminal, or not yet issued: the run
  /// loop's continue condition (the streaming equivalent of the old
  /// "remaining > 0").
  bool work_remaining() const noexcept {
    return staged_valid_ || outstanding_ > 0;
  }

  static std::uint64_t outpoint_key(const tx::OutPoint& point) noexcept {
    return (static_cast<std::uint64_t>(point.tx) << 32) | point.vout;
  }
  /// Fabric endpoint ids: the client is endpoint 0, shard s is 1 + s (the
  /// same convention in both engines — endpoints register in spawn order).
  static constexpr std::uint32_t kClientEndpoint = 0;
  static std::uint32_t endpoint_of(std::uint32_t shard) noexcept {
    return shard + 1;
  }
  /// Attempts to lock `index`'s inputs owned by `shard`; returns false (and
  /// locks nothing) if any is held or spent by another transaction.
  bool try_lock_inputs(std::uint32_t index, std::uint32_t shard);
  void release_locks(std::uint32_t index, std::uint32_t shard);
  void spend_inputs(std::uint32_t index);
  void handle_proof(std::uint32_t index, bool accepted,
                    std::uint32_t from_shard);
  void erase_if_settled(std::uint32_t index);

  // ----- shard churn ------------------------------------------------------
  bool churn_enabled() const noexcept { return !config_.churn.events.empty(); }
  /// Appends one ShardNode (constructor start-up and mid-run kAddShard share
  /// the same sampling path, so churn-free runs draw identically).
  void spawn_shard_node();
  /// Follows the retirement successor chain to the shard currently
  /// responsible for `shard`'s protocol role (identity without churn).
  std::uint32_t resolve_shard(std::uint32_t shard) const noexcept {
    while (successor_of_[shard] != shard) shard = successor_of_[shard];
    return shard;
  }
  void apply_churn(const ShardChurnEvent& change);

  // ----- online re-partition ---------------------------------------------
  bool repartition_enabled() const noexcept {
    return config_.repartition.enabled();
  }
  /// One kRepartition tick: drives the controller, transfers per-shard UTXO
  /// aggregates with the moved records, notifies observers, reschedules.
  void apply_repartition();
  void notify_repartition(double time, std::uint64_t migrated_txs,
                          std::uint64_t migrated_utxos,
                          std::uint64_t deferred_txs);

  SimConfig config_;
  EventQueue events_;
  NetworkModel network_;
  /// The link-level fabric every delivery routes through; a disabled config
  /// makes it a stateless pass-through to network_.
  LinkFabric fabric_;
  Rng rng_;
  Position client_position_;
  std::vector<std::unique_ptr<ShardNode>> shards_;

  // Per-run state.
  workload::TxSource* source_ = nullptr;
  tx::Transaction staged_;    // prefetched next transaction (buffer reused)
  bool staged_valid_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t outstanding_ = 0;  // issued, not yet terminal
  std::uint64_t committed_ = 0;
  InflightWindow inflight_;
  api::PlacementPipeline* pipeline_ = nullptr;
  const placement::ShardAssignment* assignment_ = nullptr;
  /// The client's timing view, one entry per shard. `mean_comm` is constant
  /// (stateless fabric propagation between fixed positions) and set once in
  /// spawn_shard_node(); observe_timings() refreshes `mean_verify`.
  std::vector<latency::ShardTiming> timings_;
  /// Lock/spend ledger per outpoint; absent key = available. Spent entries
  /// persist (double-spend detection), so this is the one per-run structure
  /// that grows with the stream: ~1.5 entries per transaction on
  /// Bitcoin-like workloads (225k for 150k txs), pre-sized from the size
  /// hint so the run never rehashes mid-flight.
  OutpointLedger outpoint_state_;
  std::vector<std::uint64_t> queue_sizes_;  // scratch for sample_queues
  std::vector<LinkSample> link_samples_;    // scratch for sample_queues
  /// Shard-addressed events dispatched per shard (SimResult diagnostics).
  std::vector<std::uint64_t> shard_event_counts_;
  /// Retirement successor chain: successor_of_[s] == s while s is active.
  /// Messages addressed to a retired shard resolve through this at delivery.
  std::vector<std::uint32_t> successor_of_;
  /// Live UTXO-ledger records per owning shard (churn runs only): outputs
  /// created by the shard's transactions minus spends. The per-retirement
  /// migrated-UTXO metric reads the retiring shard's entry.
  std::vector<std::uint64_t> utxo_records_;
  /// Live (unspent, non-injected) outputs per transaction (repartition runs
  /// only): what a single migrated record carries with it. Maintained by the
  /// same spend path as utxo_records_.
  std::vector<std::uint32_t> live_outputs_;
  /// The online re-partition controller (repartition runs only).
  std::unique_ptr<RepartitionController> repartitioner_;
  /// The engine's own collectors, attached through the same observer seam as
  /// external hooks (observers_[0]); copied into result_ when the run ends.
  stats::MetricsObserver metrics_;
  std::vector<SimObserver*> observers_;
  SimResult result_;
};

}  // namespace optchain::sim
