// Conservative parallel discrete-event engine — bit-identical to the
// sequential sim::Simulation.
//
// The sequential engine dispatches every event from one queue; this engine
// splits the work by *ownership*:
//
//   workers     one thread per shard group (shard s belongs to worker
//               s % jobs). Each worker owns an EventQueue holding its
//               shards' events, the ShardNode mempools/round loops, and the
//               lock/spend ledger partitions of its shards. Workers execute
//               ahead of the coordinator inside a lookahead window and emit
//               a WorkerRecord per event (sim/parallel/record.hpp).
//   coordinator the main thread. Owns the client side: the issue chain and
//               placement pipeline, proof handling, in-flight transaction
//               bookkeeping, observers and metrics. Merges the worker
//               record streams with its own queue by the shared event key
//               (sim/event_queue.hpp) and replays them in that order, so
//               every observer callback, metric accumulation and proof
//               send happens in exactly the sequential engine's order.
//
// Synchronization is a strict phase alternation (never concurrent):
//
//   window start  T = earliest pending event anywhere;
//                 E = min(T + lookahead, next scripted churn time)
//   phase A       workers execute events with time < E in parallel
//   phase B       coordinator replays records merged with its own events
//                 with time < E; messages to shards are deposited into
//                 per-worker mailboxes (sim/parallel/mailbox.hpp) and
//                 flushed before the next phase A
//
// The lookahead is the fabric's minimum delivery delay (LinkFabric::
// min_delay() — the smallest region-tier base latency, or the flat network
// base latency when the fabric is disabled): every client→shard message
// sent at time t arrives at t + message_delay ≥ t + min_delay ≥ E, so a
// worker executing inside [T, E) can never miss a message generated by the
// same window's phase B — and every coordinator-owned fact a worker reads
// (in-flight inputs, shard assignments) was finalized by an earlier window.
// All link-fabric state (uplink busy-until, jitter streams, drop counters)
// lives on the coordinator and mutates only in phase-B merged order, which
// is exactly the sequential dispatch order — fabric runs stay bit-identical
// at any jobs count.
// Shard churn (kShardChange) always cuts a window: it fires alone at a
// barrier with all workers idle, migrating queues, mempools and ledger
// partitions to the successor's worker before the next window starts.
// Online re-partition ticks (kRepartition, sim/repartition.hpp) use the same
// barrier mechanism: window ends never cross the next scheduled tick, and
// the controller mutates the assignment + migrates ledger-partition entries
// with every worker idle (determinism rule 8 in docs/ARCHITECTURE.md).
//
// Determinism contract (tested in tests/parallel_sim_test.cpp and the
// goldens): for any jobs ≥ 1, every SimResult field except event_heap_peak
// is bit-identical to sim::Simulation — both protocols, all placers, churn
// plans and trace replays included. event_heap_peak is engine-specific by
// design (per-group heaps are individually shallower than one global heap).
// Known edge outside the contract: a churn plan combined with *injected*
// double-spend conflicts can diverge on the sequential engine's tolerated
// dropped-lock path (a cross-shard commit's remote spent-markers are not
// propagated across partitions); churn and double-spends are each covered
// separately.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "latency/l2s_model.hpp"
#include "placement/shard_assignment.hpp"
#include "sim/consensus.hpp"
#include "sim/event_queue.hpp"
#include "sim/fabric/fabric.hpp"
#include "sim/network.hpp"
#include "sim/parallel/mailbox.hpp"
#include "sim/parallel/record.hpp"
#include "sim/shard_churn.hpp"
#include "sim/shard_node.hpp"
#include "sim/sim_observer.hpp"
#include "sim/simulation.hpp"
#include "stats/metrics.hpp"
#include "txmodel/transaction.hpp"
#include "workload/tx_source.hpp"

namespace optchain::sim::parallel {

class ParallelSimulation final : private EventHandler {
 public:
  /// `jobs` = worker thread count (≥ 1). Requires a positive fabric
  /// min-delay (the lookahead; the network base latency when the fabric is
  /// disabled); api::simulate falls back to the sequential engine otherwise.
  ParallelSimulation(SimConfig config, std::uint32_t jobs);
  ~ParallelSimulation();

  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

  /// Same contract as sim::Simulation::run (fresh pipeline, matching shard
  /// count, dense indices); returns the bit-identical SimResult.
  SimResult run(workload::TxSource& source, api::PlacementPipeline& pipeline);
  SimResult run(std::span<const tx::Transaction> transactions,
                api::PlacementPipeline& pipeline);

  const SimConfig& config() const noexcept { return config_; }
  std::uint32_t jobs() const noexcept { return jobs_; }

 private:
  // Client-side protocol bookkeeping. The semantics are shared with
  // sim::Simulation (the source of truth — see sim/simulation.hpp), but the
  // containers differ on purpose: the sequential engine keeps these records
  // and its lock/spend ledger in flat, index-addressed storage
  // (sim/tx_state.hpp) for speed, while this engine keeps plain node maps,
  // so that as the independent oracle of the cross-engine tests it shares
  // no container code with the engine it checks.
  struct PendingCross {
    std::uint32_t remaining_locks = 0;
    std::uint32_t output_shard = 0;
    bool rejected = false;
    std::vector<std::uint32_t> accepted_shards;
  };
  struct Inflight {
    double issue_time = 0.0;
    std::vector<tx::OutPoint> inputs;
    PendingCross cross;
    std::uint32_t releases_in_flight = 0;
    bool aborted = false;
  };
  enum class OutpointState : std::uint8_t { kLocked, kSpent };
  using LedgerPartition =
      std::unordered_map<std::uint64_t,
                         std::pair<OutpointState, std::uint32_t>>;

  /// One worker's owned state. Fixed in place at construction (`workers_`
  /// never reallocates: shard nodes hold references to the queues).
  struct Worker {
    EventQueue queue;
    Mailbox mailbox;
    std::vector<WorkerRecord> records;  // this window's executed events
    std::vector<ItemOutcome> items;     // round item outcomes (records index)
  };

  /// Routes a worker queue's popped events back into the owning engine.
  struct WorkerHandler final : EventHandler {
    WorkerHandler(ParallelSimulation& sim, Worker& worker)
        : sim_(&sim), worker_(&worker) {}
    void on_event(const Event& event) override {
      sim_->worker_on_event(*worker_, event);
    }
    ParallelSimulation* sim_;
    Worker* worker_;
  };

  /// Per-shard client-visible timing mirror, updated from replayed records
  /// so observe_timings() sees exactly what the sequential engine's direct
  /// node reads would show at the same replay position.
  struct ShardMirror {
    double mean_comm = 0.0;  // 2 × client↔leader propagation (immutable)
    double last_round = 0.0;
    std::uint64_t queue_size = 0;
  };

  // ----- worker side (phase A) --------------------------------------------
  void worker_main(Worker& worker);
  void worker_on_event(Worker& worker, const Event& event);
  void worker_item_committed(std::uint32_t node_id, const QueueItem& item,
                             SimTime time);
  bool partition_try_lock(std::uint32_t index, std::uint32_t shard);
  void partition_release_locks(std::uint32_t index, std::uint32_t shard);
  void partition_spend(std::uint32_t index, std::uint32_t shard);

  // ----- coordinator side (phase B) ---------------------------------------
  void on_event(const Event& event) override;  // coordinator queue dispatch
  void issue_transaction(std::uint32_t index);
  void handle_proof(std::uint32_t index, bool accepted,
                    std::uint32_t from_shard);
  void replay_window(SimTime window_end);
  void replay_record(const Worker& worker, const WorkerRecord& record);
  void replay_item(const WorkerRecord& record, const ItemOutcome& outcome);
  void commit_transaction(std::uint32_t index, SimTime time);
  void abort_transaction(std::uint32_t index, SimTime time);
  void erase_if_settled(std::uint32_t index);
  /// Replays the sequential spend_inputs() UTXO accounting on the shadow
  /// spent-map (churn runs only; lock state itself lives in the worker
  /// partitions).
  void shadow_spend(std::uint32_t index);
  void observe_timings();
  void sample_queues();
  void apply_churn(const ShardChurnEvent& change);
  /// One kRepartition tick at a barrier: drives the controller, migrates
  /// ledger-partition entries with the moved records, mirrors the sequential
  /// engine's UTXO accounting, reschedules.
  void apply_repartition();
  void spawn_shard_node();
  /// Deposits a client→shard message into the owning worker's mailbox.
  void send_to_shard(const Event& event, double delay);
  void count_shard_event(std::uint32_t shard);

  void notify_issue(std::uint32_t tx, double time, bool cross);
  void notify_commit(std::uint32_t tx, double time, double latency_s);
  void notify_abort(std::uint32_t tx, double time);
  void notify_block_commit(std::uint32_t shard, double time);
  void notify_shard_change(std::uint32_t shard, double time, bool joined,
                           std::uint64_t migrated_txs,
                           std::uint64_t migrated_utxos);
  void notify_repartition(double time, std::uint64_t migrated_txs,
                          std::uint64_t migrated_utxos,
                          std::uint64_t deferred_txs);

  bool work_remaining() const noexcept {
    return staged_valid_ || outstanding_ > 0;
  }
  bool churn_enabled() const noexcept { return !config_.churn.events.empty(); }
  bool repartition_enabled() const noexcept {
    return config_.repartition.enabled();
  }
  /// Shared spend-path UTXO accounting (shadow map + per-shard/per-tx
  /// counters); active when churn or repartition tracking is on.
  bool track_utxos() const noexcept {
    return churn_enabled() || repartition_enabled();
  }
  std::uint32_t resolve_shard(std::uint32_t shard) const noexcept {
    while (successor_of_[shard] != shard) shard = successor_of_[shard];
    return shard;
  }
  static std::uint64_t outpoint_key(const tx::OutPoint& point) noexcept {
    return (static_cast<std::uint64_t>(point.tx) << 32) | point.vout;
  }
  /// Fabric endpoint ids, the sequential engine's convention: client = 0,
  /// shard s = 1 + s.
  static constexpr std::uint32_t kClientEndpoint = 0;
  static std::uint32_t endpoint_of(std::uint32_t shard) noexcept {
    return shard + 1;
  }
  static bool shard_addressed(EventType type) noexcept {
    return type != EventType::kTxIssue && type != EventType::kQueueSample &&
           type != EventType::kShardChange &&
           type != EventType::kRepartition && type != EventType::kGossipHop;
  }

  // ----- phase barrier ----------------------------------------------------
  void start_workers();
  void run_worker_phase(SimTime window_end);
  void stop_workers();

  SimConfig config_;
  std::uint32_t jobs_;
  double lookahead_;  // fabric min-delay (network base latency when disabled)
  EventQueue events_;  // coordinator queue: issues, proofs, samples, churn
  NetworkModel network_;
  /// Coordinator-owned link fabric: all its mutable state advances in
  /// phase-B merged order only (workers never touch it).
  LinkFabric fabric_;
  Rng rng_;
  Position client_position_;
  std::vector<std::unique_ptr<ShardNode>> shards_;
  std::vector<Worker> workers_;
  std::vector<std::uint32_t> shard_to_worker_;
  std::vector<LedgerPartition> partitions_;  // per shard, owner-worker only
  std::vector<ShardMirror> mirror_;

  // Per-run coordinator state (mirrors sim::Simulation).
  workload::TxSource* source_ = nullptr;
  tx::Transaction staged_;
  bool staged_valid_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t blocks_replayed_ = 0;
  SimTime now_ = 0.0;  // time of the last merged item replayed
  std::unordered_map<std::uint32_t, Inflight> inflight_;
  api::PlacementPipeline* pipeline_ = nullptr;
  const placement::ShardAssignment* assignment_ = nullptr;
  std::vector<latency::ShardTiming> timings_;
  std::vector<std::uint64_t> queue_sizes_;
  std::vector<LinkSample> link_samples_;  // scratch for sample_queues
  std::vector<std::uint64_t> shard_event_counts_;
  std::vector<std::uint32_t> successor_of_;
  std::vector<std::uint64_t> utxo_records_;
  /// Sequential spend_inputs() ledger shadow (churn runs only): outpoint →
  /// first spender, for the tolerated-respend skip and UTXO accounting.
  std::unordered_map<std::uint64_t, std::uint32_t> shadow_spent_;
  /// Remaining scripted churn times, ascending; window ends never cross
  /// churn_times_[churn_cursor_].
  std::vector<double> churn_times_;
  std::size_t churn_cursor_ = 0;
  /// Live (unspent, non-injected) outputs per transaction (repartition runs
  /// only) — the sequential engine's live_outputs_, maintained in phase-B
  /// merged order.
  std::vector<std::uint32_t> live_outputs_;
  /// The online re-partition controller (repartition runs only).
  std::unique_ptr<RepartitionController> repartitioner_;
  /// Scheduled time of the next kRepartition tick; window ends never cross
  /// it (kNeverRepartition when disabled or no tick is pending).
  static constexpr double kNeverRepartition =
      std::numeric_limits<double>::infinity();
  double next_repartition_time_ = kNeverRepartition;
  std::vector<std::size_t> replay_cursor_;  // per-worker merge position

  stats::MetricsObserver metrics_;
  std::vector<SimObserver*> observers_;
  SimResult result_;

  // Phase barrier (coordinator ⇄ workers). All worker-state access is
  // ordered by mu_ hand-offs; phases never overlap.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_workers_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  std::uint32_t done_ = 0;
  SimTime window_end_ = 0.0;
  bool stop_ = false;
};

}  // namespace optchain::sim::parallel
