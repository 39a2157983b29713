#include "api/placement_pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "api/placer_registry.hpp"
#include "common/assert.hpp"

namespace optchain::api {

PlacementPipeline::PlacementPipeline(std::uint32_t k,
                                     std::unique_ptr<placement::Placer> placer)
    : dag_(std::make_unique<graph::TanDag>()),
      assignment_(k),
      placer_(std::move(placer)) {
  OPTCHAIN_EXPECTS(placer_ != nullptr);
}

PlacementPipeline::PlacementPipeline(std::uint32_t k,
                                     const PlacerFactory& factory)
    : dag_(std::make_unique<graph::TanDag>()), assignment_(k) {
  placer_ = factory(*dag_);
  OPTCHAIN_EXPECTS(placer_ != nullptr);
}

void PlacementPipeline::add_tan_node(
    const tx::Transaction& transaction,
    const std::vector<tx::TxIndex>& inputs) {
  // Dense arrival order; a preceding preview() has already added the node.
  if (dag_->num_nodes() == transaction.index) {
    dag_->add_node(inputs);
  }
  OPTCHAIN_EXPECTS(dag_->num_nodes() == transaction.index + 1);
}

placement::ShardId PlacementPipeline::preview(
    const tx::Transaction& transaction,
    std::span<const latency::ShardTiming> timings) {
  OPTCHAIN_EXPECTS(transaction.index == assignment_.total());
  // choose() is stateful for OptChain-style placers (the scorer builds one
  // vector per arrival), so it runs at most once per transaction: repeated
  // previews return the cached decision.
  if (previewed_.has_value() && previewed_->first == transaction.index) {
    return previewed_->second;
  }
  transaction.distinct_input_txs(inputs_scratch_);
  add_tan_node(transaction, inputs_scratch_);

  placement::PlacementRequest request;
  request.index = transaction.index;
  request.input_txs = inputs_scratch_;
  request.transaction = &transaction;
  request.timings = timings;
  const placement::ShardId shard = placer_->choose(request, assignment_);
  previewed_ = {transaction.index, shard};
  return shard;
}

StepResult PlacementPipeline::step_impl(
    const tx::Transaction& transaction,
    std::optional<placement::ShardId> forced,
    std::span<const latency::ShardTiming> timings) {
  OPTCHAIN_EXPECTS(transaction.index == assignment_.total());
  transaction.distinct_input_txs(inputs_scratch_);
  add_tan_node(transaction, inputs_scratch_);

  placement::PlacementRequest request;
  request.index = transaction.index;
  request.input_txs = inputs_scratch_;
  request.transaction = &transaction;
  request.timings = timings;

  // choose() always runs exactly once per transaction — stateful placers
  // (OptChain's T2S vectors) build their per-transaction state there — so a
  // preceding preview's decision is reused instead of re-chosen. A warm
  // start may then override the decision.
  placement::ShardId shard;
  if (previewed_.has_value() && previewed_->first == transaction.index) {
    shard = previewed_->second;
    previewed_.reset();
  } else {
    shard = placer_->choose(request, assignment_);
  }
  if (forced.has_value()) shard = *forced;
  // Churn safety net: strategies replaying pre-churn decisions (Static,
  // Metis, stale warm starts) may still name a retired shard; divert to the
  // least-loaded active one. No-op (single branch) in churn-free runs.
  if (!assignment_.is_active(shard)) shard = assignment_.least_loaded();
  assignment_.record(transaction.index, shard);
  placer_->notify_placed(request, shard);

  StepResult result;
  result.shard = shard;
  result.coinbase = transaction.is_coinbase();
  result.cross = assignment_.is_cross_shard(inputs_scratch_, shard);
  // Sin(u) is only materialized when the protocol actually has remote locks
  // to take — for same-shard transactions it is trivially {shard}, and
  // skipping the allocation keeps the hot placement loop at the
  // pre-refactor cost.
  if (result.cross) {
    result.input_shards = assignment_.input_shards(inputs_scratch_);
  }
  result.counted = !forced.has_value() && !result.coinbase;
  if (result.counted) counter_.record(result.cross);
  return result;
}

StepResult PlacementPipeline::step(
    const tx::Transaction& transaction,
    std::span<const latency::ShardTiming> timings) {
  return step_impl(transaction, std::nullopt, timings);
}

StepResult PlacementPipeline::step_forced(
    const tx::Transaction& transaction, placement::ShardId forced,
    std::span<const latency::ShardTiming> timings) {
  return step_impl(transaction, forced, timings);
}

StreamOutcome PlacementPipeline::place_stream(
    std::span<const tx::Transaction> transactions,
    std::span<const std::uint32_t> warm_parts) {
  const std::uint64_t counted_before = counter_.total();
  const std::uint64_t cross_before = counter_.cross();
  for (const tx::Transaction& transaction : transactions) {
    if (transaction.index < warm_parts.size()) {
      step_forced(transaction, warm_parts[transaction.index]);
    } else {
      step(transaction);
    }
  }
  StreamOutcome outcome;
  outcome.total = counter_.total() - counted_before;
  outcome.cross = counter_.cross() - cross_before;
  outcome.shard_sizes = assignment_.sizes();
  return outcome;
}

StreamOutcome PlacementPipeline::place_stream(
    workload::TxSource& source, std::span<const std::uint32_t> warm_parts) {
  if (const auto hint = source.size_hint()) {
    reserve(*hint);
  }
  const std::uint64_t counted_before = counter_.total();
  const std::uint64_t cross_before = counter_.cross();
  tx::Transaction transaction;
  while (source.next(transaction)) {
    if (transaction.index < warm_parts.size()) {
      step_forced(transaction, warm_parts[transaction.index]);
    } else {
      step(transaction);
    }
  }
  StreamOutcome outcome;
  outcome.total = counter_.total() - counted_before;
  outcome.cross = counter_.cross() - cross_before;
  outcome.shard_sizes = assignment_.sizes();
  return outcome;
}

placement::ShardId PlacementPipeline::add_shard() {
  return assignment_.add_shard();
}

std::uint64_t PlacementPipeline::retire_shard(placement::ShardId shard,
                                              placement::ShardId successor) {
  return assignment_.retire_shard(shard, successor);
}

void PlacementPipeline::reassign(tx::TxIndex index, placement::ShardId shard) {
  assignment_.reassign(index, shard);
}

void PlacementPipeline::reserve(std::uint64_t expected_txs) {
  const auto n = static_cast<std::size_t>(expected_txs);
  // Bitcoin-like TaN networks carry ~2 edges per node (paper Fig. 2); a
  // generous factor here only rounds the reservation up.
  dag_->reserve(n, 2 * n);
  assignment_.reserve(n);
  placer_->reserve(expected_txs);
}

PlacementPipeline make_pipeline(std::string_view method, std::uint32_t k,
                                std::span<const tx::Transaction> stream,
                                std::uint64_t seed,
                                std::span<const std::uint32_t> static_parts,
                                std::uint64_t expected_txs) {
  if (k == 0) {
    throw std::invalid_argument(
        "make_pipeline: num_shards must be >= 1 (got 0)");
  }
  if (expected_txs == 0) expected_txs = stream.size();
  PlacementPipeline pipeline(
      k, [&](const graph::TanDag& dag) {
        const PlacerContext context{dag, k, seed, stream, static_parts,
                                    expected_txs};
        return PlacerRegistry::instance().make(method, context);
      });
  if (expected_txs > 0) pipeline.reserve(expected_txs);
  return pipeline;
}

}  // namespace optchain::api
