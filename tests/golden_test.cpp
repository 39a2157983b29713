// Golden determinism tests for the million-transaction engine refactor.
//
// The typed-POD-event queue, the pooled T2S score store and the streaming
// TxSource path all promised *bit-identical* results to the closure-based /
// per-node-vector engine they replaced. These goldens were captured from the
// pre-refactor engine (PR 1 tree) with %.17g precision — every double
// round-trips exactly — for fixed seeds on both protocol modes and the
// OptChain / Greedy / T2S placers. Any event reordering, floating-point
// reassociation or divergent placement shows up here as a hard failure.
//
// If a future PR changes simulation semantics ON PURPOSE, re-capture these
// numbers and say so in the PR description; this suite exists to make silent
// drift impossible, not to freeze behavior forever.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "core/score_pool.hpp"
#include "core/t2s_scorer.hpp"
#include "sim/simulation.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tx_source.hpp"

namespace optchain {
namespace {

using sim::ProtocolMode;

constexpr std::uint64_t kStreamSeed = 20260729;
constexpr std::size_t kStreamLength = 3000;

std::vector<tx::Transaction> golden_stream() {
  workload::BitcoinLikeGenerator gen({}, kStreamSeed);
  return gen.generate(kStreamLength);
}

sim::SimConfig golden_config(ProtocolMode protocol) {
  sim::SimConfig config;
  config.num_shards = 8;
  config.tx_rate_tps = 1000.0;
  config.consensus.txs_per_block = 100;
  config.consensus.block_bytes = 50'000;
  config.consensus.committee_size = 64;
  config.queue_sample_interval_s = 1.0;
  config.commit_window_s = 10.0;
  config.protocol = protocol;
  return config;
}

struct SimGolden {
  const char* method;
  ProtocolMode protocol;
  std::uint64_t cross_txs;
  std::uint64_t committed_txs;
  std::uint64_t aborted_txs;
  std::uint64_t total_blocks;
  double duration_s;
  double throughput_tps;
  double avg_latency_s;
  double max_latency_s;
  std::uint64_t total_events;
  std::uint64_t shard0_size;
};

// Originally captured from the pre-refactor engine (std::function events,
// vector-of-vectors T2S store, materialized streams) at commit 17b789b.
// Re-captured once, for the content-keyed event tie-break and the per-shard
// spawn RNG streams (sim/shard_spawn.hpp): both deliberately changed the
// draw order and simultaneous-event order, shifting shard geographies and
// therefore every timing-derived number. tests/sim_fingerprint_test.cpp
// pins these same runs on every SimResult field and their .otrace bytes.
constexpr SimGolden kSimGoldens[] = {
    {"OptChain", ProtocolMode::kOmniLedger, 391, 3000, 0, 69,
     16.200536145047913, 185.17905661517398, 5.6366342502404292,
     13.338536145047913, 7908, 499},
    {"OptChain", ProtocolMode::kRapidChain, 391, 3000, 0, 69,
     16.200536145047913, 185.17905661517398, 5.636157778551528,
     13.338536145047913, 7908, 499},
    {"Greedy", ProtocolMode::kOmniLedger, 439, 3000, 0, 56,
     14.177539896835354, 211.6022964371729, 5.6856748547690925,
     11.536152977768634, 7477, 412},
    {"Greedy", ProtocolMode::kRapidChain, 439, 3000, 0, 56,
     14.161713163457454, 211.83877722796478, 5.6854532805018003,
     11.536152977768634, 7477, 412},
    {"T2S", ProtocolMode::kOmniLedger, 546, 3000, 0, 67,
     14.007444413156756, 214.17182974377491, 5.3095046500720269,
     12.003444413156757, 8210, 412},
    {"T2S", ProtocolMode::kRapidChain, 546, 3000, 0, 67,
     14.007444413156756, 214.17182974377491, 5.3095046500720269,
     12.003444413156757, 8210, 412},
};

class SimGoldenTest : public ::testing::TestWithParam<SimGolden> {};

TEST_P(SimGoldenTest, BitIdenticalToPreRefactorEngine) {
  const SimGolden& golden = GetParam();
  const auto txs = golden_stream();
  api::PlacementPipeline pipeline = api::make_pipeline(golden.method, 8, txs);
  sim::Simulation simulation(golden_config(golden.protocol));
  const sim::SimResult result = simulation.run(txs, pipeline);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.cross_txs, golden.cross_txs);
  EXPECT_EQ(result.committed_txs, golden.committed_txs);
  EXPECT_EQ(result.aborted_txs, golden.aborted_txs);
  EXPECT_EQ(result.total_blocks, golden.total_blocks);
  EXPECT_EQ(result.total_events, golden.total_events);
  // Bit-identical, not approximately-equal: the refactor preserved the exact
  // event order and arithmetic.
  EXPECT_DOUBLE_EQ(result.duration_s, golden.duration_s);
  EXPECT_DOUBLE_EQ(result.throughput_tps, golden.throughput_tps);
  EXPECT_DOUBLE_EQ(result.avg_latency_s, golden.avg_latency_s);
  EXPECT_DOUBLE_EQ(result.max_latency_s, golden.max_latency_s);
  ASSERT_FALSE(result.final_shard_sizes.empty());
  EXPECT_EQ(result.final_shard_sizes[0], golden.shard0_size);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimGoldenTest, ::testing::ValuesIn(kSimGoldens),
    [](const ::testing::TestParamInfo<SimGolden>& info) {
      return std::string(info.param.method) +
             (info.param.protocol == ProtocolMode::kOmniLedger ? "_omni"
                                                               : "_rapid");
    });

// The streaming source path must issue the exact same stream (and therefore
// reproduce the same golden) without ever materializing it.
TEST(SimGoldenTest, GeneratorSourceMatchesMaterializedGolden) {
  const SimGolden& golden = kSimGoldens[0];  // OptChain / OmniLedger
  workload::GeneratorTxSource source({}, kStreamSeed, kStreamLength);
  api::PlacementPipeline pipeline = api::make_pipeline(
      golden.method, 8, {}, 1, {}, kStreamLength);
  sim::Simulation simulation(golden_config(golden.protocol));
  const sim::SimResult result = simulation.run(source, pipeline);
  EXPECT_EQ(result.total_events, golden.total_events);
  EXPECT_DOUBLE_EQ(result.duration_s, golden.duration_s);
  EXPECT_DOUBLE_EQ(result.avg_latency_s, golden.avg_latency_s);
  EXPECT_EQ(result.cross_txs, golden.cross_txs);
}

// ------------------------------------------------- placement-only goldens

struct PlaceGolden {
  const char* method;
  std::uint64_t total;
  std::uint64_t cross;
  std::uint64_t sizes0123[4];
};

constexpr PlaceGolden kPlaceGoldens[] = {
    {"OptChain", 2970, 364, {662, 327, 565, 247}},
    {"Greedy", 2970, 673, {205, 205, 205, 205}},
    {"T2S", 2970, 658, {205, 205, 205, 148}},
};

class PlaceGoldenTest : public ::testing::TestWithParam<PlaceGolden> {};

TEST_P(PlaceGoldenTest, PlacementBitIdenticalAt16Shards) {
  const PlaceGolden& golden = GetParam();
  const auto txs = golden_stream();
  api::PlacementPipeline pipeline = api::make_pipeline(golden.method, 16, txs);
  const api::StreamOutcome outcome = pipeline.place_stream(txs);
  EXPECT_EQ(outcome.total, golden.total);
  EXPECT_EQ(outcome.cross, golden.cross);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(outcome.shard_sizes[s], golden.sizes0123[s]) << "shard " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlaceGoldenTest, ::testing::ValuesIn(kPlaceGoldens),
    [](const ::testing::TestParamInfo<PlaceGolden>& info) {
      return std::string(info.param.method);
    });

// ------------------------------------------- pooled score store vs dense

// The ScorePool must reproduce the dense from-scratch recomputation exactly,
// including across page boundaries and slack-slot reuse — exercised with a
// pathologically small page so a 400-node run crosses pages hundreds of
// times.
TEST(ScorePoolGoldenTest, PooledVectorsMatchDenseRecomputation) {
  Rng rng(1234);
  graph::TanDag dag;
  placement::ShardAssignment assignment(8);
  core::T2sConfig config;
  config.prune_threshold = 0.0;  // exact comparison
  core::T2sScorer scorer(config);

  constexpr std::size_t kNodes = 400;
  std::vector<graph::NodeId> inputs;
  std::vector<double> scores;
  for (graph::NodeId u = 0; u < kNodes; ++u) {
    inputs.clear();
    if (u > 0) {
      const auto deg = static_cast<std::uint32_t>(rng.below(4));
      for (std::uint32_t i = 0; i < deg; ++i) {
        inputs.push_back(static_cast<graph::NodeId>(rng.below(u)));
      }
    }
    dag.add_node(inputs);
    scorer.score(dag, u, assignment, scores);
    const auto shard = static_cast<placement::ShardId>(rng.below(8));
    assignment.record(u, shard);
    scorer.commit(u, shard);
  }

  const auto dense = core::recompute_all_scores_dense(dag, assignment, config);
  for (graph::NodeId u = 0; u < kNodes; ++u) {
    std::vector<double> raw(8, 0.0);
    std::uint32_t last_shard = 0;
    bool first = true;
    for (const core::ScoreEntry& entry : scorer.raw_vector(u)) {
      // Pool vectors stay sorted by shard id (the merge invariant).
      EXPECT_TRUE(first || entry.shard > last_shard);
      first = false;
      last_shard = entry.shard;
      raw[entry.shard] = entry.value;
    }
    for (std::uint32_t i = 0; i < 8; ++i) {
      EXPECT_DOUBLE_EQ(raw[i], dense[u][i]) << "node " << u << " shard " << i;
    }
  }
}

// Direct ScorePool mechanics: page rollover, slack-slot insertion and
// reclamation, oversized runs.
TEST(ScorePoolTest, PagingAndSlackSlots) {
  core::ScorePool pool(/*page_entries=*/4);
  // Node 0: empty vector, commit inserts into the slack slot.
  pool.append_node({});
  pool.add_to_last(0, 2, 0.5);
  ASSERT_EQ(pool.vector_of(0).size(), 1u);
  EXPECT_EQ(pool.vector_of(0)[0].shard, 2u);
  EXPECT_DOUBLE_EQ(pool.vector_of(0)[0].value, 0.5);

  // Node 1: two entries; commit hits an existing shard (slack reclaimed by
  // the next append).
  const core::ScoreEntry two[] = {{1, 0.25}, {3, 0.125}};
  pool.append_node(two);
  pool.add_to_last(1, 3, 0.5);
  ASSERT_EQ(pool.vector_of(1).size(), 2u);
  EXPECT_DOUBLE_EQ(pool.vector_of(1)[1].value, 0.625);

  // Node 2: insertion in the middle, keeping shard order.
  const core::ScoreEntry ends[] = {{0, 0.1}, {7, 0.2}};
  pool.append_node(ends);
  pool.add_to_last(2, 4, 0.5);
  ASSERT_EQ(pool.vector_of(2).size(), 3u);
  EXPECT_EQ(pool.vector_of(2)[1].shard, 4u);
  EXPECT_DOUBLE_EQ(pool.vector_of(2)[1].value, 0.5);

  // Node 3: larger than a whole page (dedicated page).
  const core::ScoreEntry big[] = {{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0},
                                  {4, 1.0}, {5, 1.0}};
  pool.append_node(big);
  pool.add_to_last(3, 6, 0.5);
  ASSERT_EQ(pool.vector_of(3).size(), 7u);
  EXPECT_EQ(pool.vector_of(3)[6].shard, 6u);

  // Earlier vectors must be untouched by later appends.
  EXPECT_EQ(pool.vector_of(0).size(), 1u);
  EXPECT_DOUBLE_EQ(pool.vector_of(1)[0].value, 0.25);
  EXPECT_EQ(pool.total_entries(), 1u + 2u + 3u + 7u);

  // Slot accounting: pages are 4-entry (node 3 got a dedicated 7-slot
  // page), the two closed pages hold 6 live entries in 8 slots (node 1's
  // unclaimed slack was reclaimed by node 2's append; the two tail gaps
  // from page rollover are the only permanent waste), and the live page is
  // full.
  EXPECT_EQ(pool.num_pages(), 3u);
  EXPECT_EQ(pool.used_slots(), pool.total_entries());
  EXPECT_EQ(pool.used_slots(), 13u);
  EXPECT_EQ(pool.slot_capacity(), 15u);
  EXPECT_EQ(pool.wasted_slots(), 2u);
  EXPECT_EQ(pool.slab_bytes(), 15u * sizeof(core::ScoreEntry));
}

}  // namespace
}  // namespace optchain
