// PlacementPipeline — the one streaming driver for transaction placement.
//
// Every consumer used to hand-roll the same fragile loop:
//
//   dag.add_node(inputs);                      // BEFORE choose() — invariant!
//   shard = placer.choose(request, assignment);
//   assignment.record(index, shard);
//   placer.notify_placed(request, shard);
//
// The pipeline owns the TanDag, the ShardAssignment and the cross-TX
// counters and encapsulates that ordering once: callers feed transactions
// (step / place_stream) and read the outcome. Warm-start overrides
// (Table II) and what-if scoring (wallet UX) are first-class:
//
//   auto pipeline = api::make_pipeline("OptChain", k, txs);
//   for (const auto& t : txs) pipeline.step(t);
//   double cross = pipeline.cross_counter().fraction();
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/dag.hpp"
#include "latency/l2s_model.hpp"
#include "placement/placer.hpp"
#include "placement/shard_assignment.hpp"
#include "stats/metrics.hpp"
#include "txmodel/transaction.hpp"
#include "workload/tx_source.hpp"

namespace optchain::api {

/// The outcome of placing one transaction.
struct StepResult {
  /// The shard the transaction was placed into.
  placement::ShardId shard = placement::kUnplaced;
  /// The transaction has no inputs (block reward).
  bool coinbase = false;
  /// Some input lives in a different shard than the transaction (coinbase is
  /// never cross-shard).
  bool cross = false;
  /// Whether this step contributed to the cross-TX statistics (non-coinbase
  /// and not a forced warm-start placement).
  bool counted = false;
  /// Distinct shards holding the transaction's inputs — Sin(u), first-seen
  /// order (what the cross-shard protocol must lock). Filled only for
  /// cross-shard transactions; otherwise every input shares the
  /// transaction's own shard and no allocation is paid.
  std::vector<placement::ShardId> input_shards;
};

/// Aggregate outcome of a streamed batch (the Table I/II measurements).
struct StreamOutcome {
  std::uint64_t total = 0;  ///< transactions counted (non-coinbase, non-warm)
  std::uint64_t cross = 0;  ///< counted transactions placed cross-shard
  std::vector<std::uint64_t> shard_sizes;  ///< final per-shard sizes

  /// cross / total (0 when nothing was counted).
  double fraction() const noexcept {
    return total == 0 ? 0.0
                      : static_cast<double>(cross) / static_cast<double>(total);
  }
};

/// The one streaming driver for transaction placement: owns the TaN dag,
/// the ShardAssignment and the cross-TX counters, and encapsulates the
/// add-node-before-choose invariant (see the file comment).
class PlacementPipeline {
 public:
  /// Builds the placer over the pipeline-owned dag (for strategies like
  /// OptChain whose scorer holds a reference into the growing TaN).
  using PlacerFactory = std::function<std::unique_ptr<placement::Placer>(
      const graph::TanDag&)>;

  /// Pipeline around a dag-independent placer (Random, Greedy, Static, ...).
  PlacementPipeline(std::uint32_t k,
                    std::unique_ptr<placement::Placer> placer);

  /// Pipeline whose placer is constructed over the pipeline's own dag.
  PlacementPipeline(std::uint32_t k, const PlacerFactory& factory);

  /// Movable (the dag's address stays stable; see dag_), not copyable.
  PlacementPipeline(PlacementPipeline&&) noexcept = default;
  /// Move-assignable counterpart.
  PlacementPipeline& operator=(PlacementPipeline&&) noexcept = default;

  /// Places one transaction: registers its TaN node, asks the placer, records
  /// the decision and notifies the placer. Transactions must arrive in dense
  /// index order (0, 1, 2, ...). `timings` is the caller's current view of
  /// per-shard latencies for the L2S term; empty when unavailable.
  StepResult step(const tx::Transaction& transaction,
                  std::span<const latency::ShardTiming> timings = {});

  /// Like step(), but the decision is overridden with `forced` (Table II's
  /// warm start). choose() still runs so stateful placers build their
  /// per-transaction score vectors; the forced transaction is excluded from
  /// the cross-TX statistics.
  StepResult step_forced(const tx::Transaction& transaction,
                         placement::ShardId forced,
                         std::span<const latency::ShardTiming> timings = {});

  /// What-if scoring (the wallet deployment): registers the TaN node and
  /// returns the placer's choice WITHOUT recording it. A later step() for the
  /// same transaction commits exactly the previewed decision (choose() is
  /// stateful for OptChain-style placers and runs once per transaction, so
  /// the node is not re-added and the preview's timings are the ones that
  /// count). Repeated previews of the same transaction return the cached
  /// decision.
  placement::ShardId preview(const tx::Transaction& transaction,
                             std::span<const latency::ShardTiming> timings =
                                 {});

  /// Streams a whole batch. If `warm_parts` is non-empty, the first
  /// warm_parts.size() transactions are force-placed per that partition and
  /// excluded from the cross-TX count (Table II).
  StreamOutcome place_stream(std::span<const tx::Transaction> transactions,
                             std::span<const std::uint32_t> warm_parts = {});

  /// Streams from a pull source without materializing the stream: a
  /// 10M-transaction run needs O(1) transactions in memory (the pipeline's
  /// own per-tx state — dag, assignment, scorer — is pre-sized from the
  /// source's size hint).
  StreamOutcome place_stream(workload::TxSource& source,
                             std::span<const std::uint32_t> warm_parts = {});

  /// Pre-sizes everything that scales with the stream: the TaN dag (nodes +
  /// ~2n edges), the assignment table and the placer's per-transaction state.
  void reserve(std::uint64_t expected_txs);

  // ----- shard churn (see sim/shard_churn.hpp) ---------------------------

  /// Appends a fresh active shard to the assignment; returns its id. The
  /// placer sees the grown shard set on its next choose().
  placement::ShardId add_shard();

  /// Retires `shard`, bulk-migrating its transactions to `successor` (both
  /// active, distinct); returns the migrated-transaction count. Subsequent
  /// steps never place into a retired shard — a strategy that still picks
  /// one (Static/Metis replay a pre-churn partition) is diverted to the
  /// least-loaded active shard.
  std::uint64_t retire_shard(placement::ShardId shard,
                             placement::ShardId successor);

  /// Moves one already-placed transaction to the active shard `shard` — the
  /// online re-partition controller's migration primitive (see
  /// sim/repartition.hpp). A same-shard move is a no-op.
  void reassign(tx::TxIndex index, placement::ShardId shard);

  /// Shard count (every shard that ever existed, retired ones included).
  std::uint32_t k() const noexcept { return assignment_.k(); }
  /// Transactions placed so far.
  std::uint64_t total() const noexcept { return assignment_.total(); }
  /// The placer's self-reported strategy name.
  std::string_view method_name() const noexcept { return placer_->name(); }

  /// The pipeline-owned online TaN.
  const graph::TanDag& dag() const noexcept { return *dag_; }
  /// The shared transaction→shard assignment state.
  const placement::ShardAssignment& assignment() const noexcept {
    return assignment_;
  }
  /// Cross-TX statistics over the counted (non-coinbase, non-warm) steps.
  const stats::CrossTxCounter& cross_counter() const noexcept {
    return counter_;
  }
  /// The driven strategy (mutable: placers carry per-stream state).
  placement::Placer& placer() noexcept { return *placer_; }
  /// Const view of the driven strategy.
  const placement::Placer& placer() const noexcept { return *placer_; }

 private:
  StepResult step_impl(const tx::Transaction& transaction,
                       std::optional<placement::ShardId> forced,
                       std::span<const latency::ShardTiming> timings);
  void add_tan_node(const tx::Transaction& transaction,
                    const std::vector<tx::TxIndex>& inputs);

  // unique_ptr keeps the dag's address stable across pipeline moves (the
  // placer may hold a reference into it).
  std::unique_ptr<graph::TanDag> dag_;
  placement::ShardAssignment assignment_;
  std::unique_ptr<placement::Placer> placer_;
  stats::CrossTxCounter counter_;
  /// Decision cached by preview() for the next index, if any.
  std::optional<std::pair<tx::TxIndex, placement::ShardId>> previewed_;
  /// Scratch Nin(u) buffer reused across steps (allocation-free steady
  /// state).
  std::vector<tx::TxIndex> inputs_scratch_;
};

/// One-stop construction through the PlacerRegistry: builds the pipeline and
/// the named strategy over it. `stream` is the full batch when known up front
/// (Metis needs it); `static_parts` feeds the "Static" strategy.
/// `expected_txs` is the stream-length hint for streamed runs where the
/// batch is NOT materialized — it sizes the capacity caps of the
/// capacity-capped methods (Greedy, T2S) and pre-reserves the pipeline
/// (dag/assignment/scorer). When a non-empty `stream` is given its length is
/// used automatically. Throws std::invalid_argument naming `num_shards` when
/// `k` is 0.
PlacementPipeline make_pipeline(std::string_view method, std::uint32_t k,
                                std::span<const tx::Transaction> stream = {},
                                std::uint64_t seed = 1,
                                std::span<const std::uint32_t> static_parts =
                                    {},
                                std::uint64_t expected_txs = 0);

}  // namespace optchain::api
