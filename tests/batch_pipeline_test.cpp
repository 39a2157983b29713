// Batch-vs-sequential bit-identity for the micro-batched placement
// front-end (api/batch_pipeline.hpp).
//
// The front-end's whole contract is one sentence: place_stream() through
// BatchPlacementPipeline produces *bit-identical* results to
// PlacementPipeline::place_stream on the same stream, for every registered
// placer, at any jobs >= 1 and any batch size. These tests enforce the
// contract at its sharpest points:
//
//   - the full registry grid (every PlacerRegistry strategy x shard counts
//     x batch sizes including 1 x jobs including more than the machine has
//     cores), comparing not just the outcome totals but every individual
//     per-transaction decision and — for the OptChain family — every stored
//     p' score entry, bit for bit;
//   - conflict-heavy chains where every transaction spends the previous
//     one's output, so NO transaction is ever independent and the entire
//     stream takes the commit-time gather path;
//   - Table II warm starts (forced placements excluded from the cross count);
//   - the latency/telemetry accessors the serve tool builds on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/batch_pipeline.hpp"
#include "api/placement_pipeline.hpp"
#include "api/placer_registry.hpp"
#include "core/optchain_placer.hpp"
#include "core/score_pool.hpp"
#include "core/t2s_scorer.hpp"
#include "txmodel/transaction.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tx_source.hpp"

namespace optchain {
namespace {

constexpr std::uint64_t kSeed = 20260808;
constexpr std::size_t kStreamTxs = 1200;

const std::vector<tx::Transaction>& test_stream() {
  static const std::vector<tx::Transaction> stream = [] {
    workload::BitcoinLikeGenerator gen({}, kSeed);
    return gen.generate(kStreamTxs);
  }();
  return stream;
}

/// A stream where tx i spends tx i-1's first output: every transaction has
/// an in-batch parent for any batch size > 1, so the parallel score phase
/// never fires and the whole stream exercises the commit-time gather.
std::vector<tx::Transaction> chain_stream(std::size_t n) {
  std::vector<tx::Transaction> txs(n);
  for (std::size_t i = 0; i < n; ++i) {
    txs[i].index = static_cast<tx::TxIndex>(i);
    if (i > 0) {
      txs[i].inputs.push_back({static_cast<tx::TxIndex>(i - 1), 0});
    }
    txs[i].outputs.push_back({50, static_cast<std::uint64_t>(i)});
  }
  return txs;
}

struct RunState {
  api::PlacementPipeline pipeline;
  api::StreamOutcome outcome;
};

RunState run_sequential(const std::string& method, std::uint32_t k,
                        const std::vector<tx::Transaction>& txs,
                        std::span<const std::uint32_t> warm_parts = {}) {
  api::PlacementPipeline pipeline = api::make_pipeline(method, k, txs);
  const api::StreamOutcome outcome = pipeline.place_stream(txs, warm_parts);
  return {std::move(pipeline), outcome};
}

struct BatchRunState {
  api::PlacementPipeline pipeline;
  api::StreamOutcome outcome;
  api::BatchLatencyStats stats;
  bool kernel_active = false;
  std::uint64_t parallel_txs = 0;
  std::uint64_t chained_txs = 0;
};

BatchRunState run_batched(const std::string& method, std::uint32_t k,
                          const std::vector<tx::Transaction>& txs,
                          api::BatchConfig config,
                          std::span<const std::uint32_t> warm_parts = {}) {
  api::PlacementPipeline pipeline = api::make_pipeline(method, k, txs);
  BatchRunState state{std::move(pipeline), {}, {}, false, 0, 0};
  {
    // The front-end borrows the pipeline; destroying it only joins the
    // worker pool, so moving the pipeline out afterwards is safe.
    api::BatchPlacementPipeline batched(state.pipeline, config);
    workload::SpanTxSource source(txs);
    state.outcome = batched.place_stream(source, warm_parts);
    state.stats = batched.latency_stats();
    state.kernel_active = batched.kernel_active();
    state.parallel_txs = batched.parallel_txs();
    state.chained_txs = batched.chained_txs();
  }
  return state;
}

/// Bitwise comparison: outcome aggregates, every per-transaction decision,
/// and (for OptChain-family placers) every stored p' score entry.
void expect_identical(const RunState& seq, const api::PlacementPipeline& bat,
                      const api::StreamOutcome& bat_outcome,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(seq.outcome.total, bat_outcome.total);
  EXPECT_EQ(seq.outcome.cross, bat_outcome.cross);
  ASSERT_EQ(seq.outcome.shard_sizes.size(), bat_outcome.shard_sizes.size());
  for (std::size_t s = 0; s < seq.outcome.shard_sizes.size(); ++s) {
    EXPECT_EQ(seq.outcome.shard_sizes[s], bat_outcome.shard_sizes[s])
        << "shard " << s;
  }
  ASSERT_EQ(seq.pipeline.total(), bat.total());
  for (std::uint64_t u = 0; u < seq.pipeline.total(); ++u) {
    ASSERT_EQ(seq.pipeline.assignment().shard_of(
                  static_cast<tx::TxIndex>(u)),
              bat.assignment().shard_of(static_cast<tx::TxIndex>(u)))
        << "tx " << u << " diverged";
  }
  // OptChain family: the stored sparse p' vectors must match bit for bit —
  // any reassociated gather or drifted divisor shows up here even when the
  // argmax happened to agree.
  const auto* seq_placer =
      dynamic_cast<const core::OptChainPlacer*>(&seq.pipeline.placer());
  const auto* bat_placer =
      dynamic_cast<const core::OptChainPlacer*>(&bat.placer());
  ASSERT_EQ(seq_placer == nullptr, bat_placer == nullptr);
  if (seq_placer == nullptr) return;
  const core::ScorePool& seq_pool = seq_placer->scorer().pool();
  const core::ScorePool& bat_pool = bat_placer->scorer().pool();
  ASSERT_EQ(seq_pool.num_nodes(), bat_pool.num_nodes());
  ASSERT_EQ(seq_pool.total_entries(), bat_pool.total_entries());
  for (std::size_t node = 0; node < seq_pool.num_nodes(); ++node) {
    const auto a = seq_pool.vector_of(static_cast<std::uint32_t>(node));
    const auto b = bat_pool.vector_of(static_cast<std::uint32_t>(node));
    ASSERT_EQ(a.size(), b.size()) << "node " << node;
    for (std::size_t e = 0; e < a.size(); ++e) {
      ASSERT_EQ(a[e].shard, b[e].shard) << "node " << node << " entry " << e;
      // Exact bit equality, not EXPECT_DOUBLE_EQ: the contract is
      // bit-identity, not closeness.
      ASSERT_EQ(a[e].value, b[e].value) << "node " << node << " entry " << e;
    }
  }
}

TEST(BatchPipelineTest, EveryRegisteredPlacerIsBitIdenticalAcrossTheGrid) {
  const std::vector<std::string> methods = api::PlacerRegistry::instance().names();
  ASSERT_FALSE(methods.empty());
  const std::uint32_t shard_counts[] = {3, 16, 64};
  const std::uint32_t batch_sizes[] = {1, 7, 256};
  // jobs = 5 oversubscribes every CI machine we run on — the pool must not
  // care.
  const std::uint32_t job_counts[] = {1, 2, 5};

  const auto& txs = test_stream();
  // One sequential baseline per (method, k); every (batch, jobs) cell
  // compares against it.
  std::map<std::pair<std::string, std::uint32_t>, RunState> baselines;
  for (const std::string& method : methods) {
    for (const std::uint32_t k : shard_counts) {
      baselines.emplace(std::make_pair(method, k),
                        run_sequential(method, k, txs));
    }
  }
  for (const std::string& method : methods) {
    for (const std::uint32_t k : shard_counts) {
      const RunState& seq = baselines.at({method, k});
      for (const std::uint32_t batch : batch_sizes) {
        for (const std::uint32_t jobs : job_counts) {
          const BatchRunState bat =
              run_batched(method, k, txs, {jobs, batch});
          expect_identical(seq, bat.pipeline, bat.outcome,
                           method + " k=" + std::to_string(k) +
                               " batch=" + std::to_string(batch) +
                               " jobs=" + std::to_string(jobs));
        }
      }
    }
  }
}

TEST(BatchPipelineTest, ConflictHeavyChainTakesTheChainedPathBitIdentically) {
  // Every tx parents the previous one: zero independent transactions, the
  // entire stream gathers at commit time.
  const std::vector<tx::Transaction> txs = chain_stream(600);
  const RunState seq = run_sequential("OptChain", 4, txs);
  for (const std::uint32_t batch : {4u, 64u}) {
    const BatchRunState bat = run_batched("OptChain", 4, txs, {3, batch});
    expect_identical(seq, bat.pipeline, bat.outcome,
                     "chain batch=" + std::to_string(batch));
    EXPECT_TRUE(bat.kernel_active);
    if (batch > 1) {
      // Only each batch's first tx can be independent (its parent precedes
      // the batch); everything else is chained.
      EXPECT_GT(bat.chained_txs, bat.parallel_txs);
      EXPECT_GT(bat.chained_txs, 0u);
    }
  }
}

TEST(BatchPipelineTest, WarmStartForcedPrefixMatchesSequential) {
  const auto& txs = test_stream();
  // Table II-style warm prefix: the first quarter of the stream is
  // force-placed round-robin and excluded from the cross count.
  std::vector<std::uint32_t> warm_parts(txs.size() / 4);
  for (std::size_t i = 0; i < warm_parts.size(); ++i) {
    warm_parts[i] = static_cast<std::uint32_t>(i % 8);
  }
  const RunState seq = run_sequential("OptChain", 8, txs, warm_parts);
  const BatchRunState bat =
      run_batched("OptChain", 8, txs, {4, 50}, warm_parts);
  expect_identical(seq, bat.pipeline, bat.outcome, "warm start");
  // Warm placements are excluded from the counted totals (as are
  // coinbases, like the sequential path).
  std::uint64_t expected_counted = 0;
  for (std::size_t i = warm_parts.size(); i < txs.size(); ++i) {
    if (!txs[i].is_coinbase()) ++expected_counted;
  }
  EXPECT_EQ(seq.outcome.total, expected_counted);
}

TEST(BatchPipelineTest, KernelActivationMatchesTheBatchScorableInterface) {
  const auto& txs = test_stream();
  EXPECT_TRUE(run_batched("OptChain", 8, txs, {2, 64}).kernel_active);
  EXPECT_TRUE(run_batched("T2S", 8, txs, {2, 64}).kernel_active);
  // Greedy has no score vectors to gather — it runs the exact sequential
  // loop per batch (identical by construction) and spawns no threads.
  EXPECT_FALSE(run_batched("Greedy", 8, txs, {2, 64}).kernel_active);
}

TEST(BatchPipelineTest, LatencyStatsCoverEveryBatch) {
  const auto& txs = test_stream();
  const std::uint32_t batch = 128;
  const BatchRunState bat = run_batched("OptChain", 8, txs, {2, batch});
  const std::uint64_t expected_batches =
      (txs.size() + batch - 1) / batch;
  EXPECT_EQ(bat.stats.batches, expected_batches);
  EXPECT_GE(bat.stats.p50_us, 0.0);
  EXPECT_GE(bat.stats.p99_us, bat.stats.p50_us);
  EXPECT_GE(bat.stats.max_us, bat.stats.p99_us);
  EXPECT_GT(bat.stats.max_us, 0.0);
  // A generated UTXO stream has both kinds of transactions, so both
  // counters move and they account for every gathered (non-coinbase) tx.
  EXPECT_GT(bat.parallel_txs, 0u);
}

TEST(BatchPipelineTest, BatchOfOneDegeneratesToTheSequentialLoop) {
  const auto& txs = test_stream();
  const RunState seq = run_sequential("OptChain", 16, txs);
  const BatchRunState bat = run_batched("OptChain", 16, txs, {1, 1});
  expect_identical(seq, bat.pipeline, bat.outcome, "batch=1 jobs=1");
  EXPECT_EQ(bat.stats.batches, txs.size());
}

}  // namespace
}  // namespace optchain
