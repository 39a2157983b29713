// Tests for the OptChain placer (Algorithm 1): T2S-driven affinity, L2S
// balancing, capacity-capped T2S-variant, and end-to-end cross-TX quality
// against the baselines on generated workloads.
#include <gtest/gtest.h>

#include <functional>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "common/rng.hpp"
#include "core/optchain_placer.hpp"
#include "placement/greedy_placer.hpp"
#include "placement/random_placer.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tan_builder.hpp"

namespace optchain::core {
namespace {

using latency::ShardTiming;
using placement::PlacementRequest;
using placement::ShardAssignment;
using placement::ShardId;

/// Streams a transaction batch through a registry method (the pipeline's
/// dag grows online, as in the real deployment); returns the cross-TX
/// fraction over non-coinbase txs.
double run_placement(std::span<const tx::Transaction> txs,
                     const char* method, std::uint32_t k) {
  api::PlacementPipeline pipeline = api::make_pipeline(method, k, txs);
  return pipeline.place_stream(txs).fraction();
}

TEST(OptChainPlacerTest, CoinbaseBalancesAcrossShards) {
  graph::TanDag dag;
  OptChainPlacer placer(dag);
  ShardAssignment assignment(4);
  // Four coinbase transactions with no timing data: ties must spread by
  // shard size.
  for (tx::TxIndex i = 0; i < 4; ++i) {
    dag.add_node({});
    PlacementRequest request;
    request.index = i;
    const ShardId shard = placer.choose(request, assignment);
    assignment.record(i, shard);
    placer.notify_placed(request, shard);
  }
  for (ShardId s = 0; s < 4; ++s) EXPECT_EQ(assignment.size_of(s), 1u);
}

TEST(OptChainPlacerTest, ChildFollowsParentShard) {
  graph::TanDag dag;
  OptChainPlacer placer(dag);
  ShardAssignment assignment(4);

  dag.add_node({});
  PlacementRequest coinbase;
  coinbase.index = 0;
  const ShardId parent_shard = placer.choose(coinbase, assignment);
  assignment.record(0, parent_shard);
  placer.notify_placed(coinbase, parent_shard);

  dag.add_node(std::vector<graph::NodeId>{0});
  PlacementRequest child;
  child.index = 1;
  const std::vector<tx::TxIndex> inputs{0};
  child.input_txs = inputs;
  const ShardId child_shard = placer.choose(child, assignment);
  EXPECT_EQ(child_shard, parent_shard);
}

TEST(OptChainPlacerTest, L2sSteersCoinbaseToIdleShard) {
  // A coinbase has no T2S mass, so the temporal fitness is pure -0.01·E(j):
  // the idle shard must win regardless of shard sizes.
  graph::TanDag dag;
  OptChainPlacer placer(dag);
  ShardAssignment assignment(2);
  dag.add_node({});
  PlacementRequest request;
  request.index = 0;
  std::vector<ShardTiming> skewed{{0.1, 500.0}, {0.1, 1.0}};  // 0 backlogged
  request.timings = skewed;
  EXPECT_EQ(placer.choose(request, assignment), 1u);
}

TEST(OptChainPlacerTest, L2sPicksIdleOutputShardAmongEqualAffinity) {
  // Parents in shards 0 and 1 give the child equal T2S affinity either way,
  // and the proof phase is identical; the commit-phase term must route the
  // child to the idle shard.
  graph::TanDag dag;
  OptChainPlacer placer(dag);
  ShardAssignment assignment(2);
  std::vector<ShardTiming> balanced{{0.1, 1.0}, {0.1, 1.0}};

  for (tx::TxIndex i = 0; i < 2; ++i) {
    dag.add_node({});
    PlacementRequest coinbase;
    coinbase.index = i;
    coinbase.timings = balanced;
    const ShardId s = placer.choose(coinbase, assignment);
    assignment.record(i, s);
    placer.notify_placed(coinbase, s);
  }
  ASSERT_NE(assignment.shard_of(0), assignment.shard_of(1));

  dag.add_node(std::vector<graph::NodeId>{0, 1});
  PlacementRequest child;
  child.index = 2;
  const std::vector<tx::TxIndex> inputs{0, 1};
  child.input_txs = inputs;
  std::vector<ShardTiming> skewed{{0.1, 1.0}, {0.1, 1.0}};
  skewed[0].mean_verify = 500.0;  // shard 0 deeply backlogged
  child.timings = skewed;
  EXPECT_EQ(placer.choose(child, assignment), 1u);
}

TEST(OptChainPlacerTest, CapacityCapRedirects) {
  graph::TanDag dag;
  OptChainConfig config;
  config.expected_txs = 4;  // k=2, ε=0.1 → cap = 2 per shard
  config.epsilon = 0.0;
  OptChainPlacer placer(dag, config, "T2S-based");
  ShardAssignment assignment(2);

  // Fill shard 0 with two linked transactions.
  dag.add_node({});
  PlacementRequest r0;
  r0.index = 0;
  ShardId s = placer.choose(r0, assignment);
  assignment.record(0, s);
  placer.notify_placed(r0, s);

  dag.add_node(std::vector<graph::NodeId>{0});
  PlacementRequest r1;
  r1.index = 1;
  const std::vector<tx::TxIndex> i1{0};
  r1.input_txs = i1;
  const ShardId s1 = placer.choose(r1, assignment);
  EXPECT_EQ(s1, s);
  assignment.record(1, s1);
  placer.notify_placed(r1, s1);

  // Third linked transaction: preferred shard is full, must divert.
  dag.add_node(std::vector<graph::NodeId>{1});
  PlacementRequest r2;
  r2.index = 2;
  const std::vector<tx::TxIndex> i2{1};
  r2.input_txs = i2;
  const ShardId s2 = placer.choose(r2, assignment);
  EXPECT_NE(s2, s);
}

TEST(OptChainPlacerTest, NotifyCommitsAlpha) {
  graph::TanDag dag;
  OptChainPlacer placer(dag);
  ShardAssignment assignment(4);
  dag.add_node({});
  PlacementRequest request;
  request.index = 0;
  const ShardId shard = placer.choose(request, assignment);
  assignment.record(0, shard);
  placer.notify_placed(request, shard);
  const auto raw = placer.scorer().raw_vector(0);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].shard, shard);
  EXPECT_DOUBLE_EQ(raw[0].value, 0.5);
}

TEST(OptChainPlacerTest, LastScoresExposed) {
  graph::TanDag dag;
  OptChainPlacer placer(dag);
  ShardAssignment assignment(4);
  dag.add_node({});
  PlacementRequest request;
  request.index = 0;
  placer.choose(request, assignment);
  EXPECT_EQ(placer.last_scores().size(), 4u);
}

TEST(OptChainPlacerTest, ChoiceIsArgmaxOfFullTemporalFitness) {
  // Property: with random per-shard timings on every transaction, the
  // placer's choice equals argmax_j (T2S_j − w·E(j)) with E(j) from the full
  // L2S model (L2sEstimator::score, proof-phase quadrature included); ties
  // go to the smaller shard, then the lower id. A twin placer with
  // l2s_weight = 0 fed the same decisions supplies T2S_j.
  const double weight = OptChainConfig{}.l2s_weight;
  OptChainConfig t2s_only;
  t2s_only.l2s_weight = 0.0;
  const latency::L2sEstimator l2s;
  for (const std::uint32_t k : {4u, 16u, 64u}) {
    workload::BitcoinLikeGenerator gen({}, 500 + k);
    const auto txs = gen.generate(2000);
    graph::TanDag dag;
    OptChainPlacer placer(dag);
    OptChainPlacer twin(dag, t2s_only);
    ShardAssignment assignment(k);
    Rng rng(k);
    std::vector<ShardTiming> timings(k);
    std::uint64_t multi_shard_inputs = 0;
    for (const tx::Transaction& transaction : txs) {
      const std::vector<tx::TxIndex> parents =
          transaction.distinct_input_txs();
      dag.add_node(parents);
      for (auto& timing : timings) {
        timing.mean_comm = rng.uniform(0.05, 0.3);
        timing.mean_verify = rng.uniform(0.5, 12.0);
      }
      PlacementRequest request;
      request.index = transaction.index;
      request.input_txs = parents;
      request.timings = timings;
      PlacementRequest untimed = request;
      untimed.timings = {};

      const ShardId chosen = placer.choose(request, assignment);
      twin.choose(untimed, assignment);
      const std::vector<ShardId> input_shards =
          assignment.input_shards(parents);
      multi_shard_inputs += input_shards.size() >= 2 ? 1 : 0;

      ShardId expected = 0;
      double best_fitness = -std::numeric_limits<double>::infinity();
      for (ShardId j = 0; j < k; ++j) {
        const double fitness = twin.last_scores()[j] -
                               weight * l2s.score(timings, input_shards, j);
        if (fitness > best_fitness ||
            (fitness == best_fitness &&
             assignment.size_of(j) < assignment.size_of(expected))) {
          expected = j;
          best_fitness = fitness;
        }
      }
      ASSERT_EQ(chosen, expected) << "k " << k << " tx " << request.index;

      assignment.record(request.index, chosen);
      placer.notify_placed(request, chosen);
      twin.notify_placed(untimed, chosen);
    }
    EXPECT_GT(multi_shard_inputs, 50u) << "k " << k;
  }
}

/// The argmax the dense untimed loops compute over last_scores(): the
/// highest score among eligible shards (active, below `cap`), then the
/// smaller shard, then the lower id; least_loaded() when none is eligible.
/// `tied` counts the eligible shards sharing the best score.
struct DenseChoice {
  ShardId shard = placement::kUnplaced;
  double score = 0.0;
  std::uint32_t tied = 0;
};

DenseChoice dense_argmax(std::span<const double> scores,
                         const ShardAssignment& assignment,
                         std::uint64_t cap) {
  DenseChoice best;
  for (ShardId j = 0; j < assignment.k(); ++j) {
    if (!assignment.is_active(j) || assignment.size_of(j) >= cap) continue;
    if (best.shard == placement::kUnplaced || scores[j] > best.score) {
      best = {j, scores[j], 1};
    } else if (scores[j] == best.score) {
      ++best.tied;
      if (assignment.size_of(j) < assignment.size_of(best.shard)) {
        best.shard = j;
      }
    }
  }
  if (best.shard == placement::kUnplaced) {
    best.shard = assignment.least_loaded();
  }
  return best;
}

struct TieCounts {
  std::uint64_t all_zero = 0;  ///< steps whose best score 0 is shared
  std::uint64_t positive = 0;  ///< steps whose best score > 0 is shared
};

/// Places `txs` one at a time with no timing data and asserts that every
/// choice is dense_argmax over last_scores(). Halfway through, the largest
/// shard retires when `retire_midway` is set.
void expect_untimed_dense_argmax(const OptChainConfig& config,
                                 std::span<const tx::Transaction> txs,
                                 std::uint32_t k, bool retire_midway,
                                 TieCounts& ties) {
  graph::TanDag dag;
  OptChainPlacer placer(dag, config);
  ShardAssignment assignment(k);
  const std::uint64_t cap =
      config.expected_txs == 0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(
                (1.0 + config.epsilon) *
                static_cast<double>(config.expected_txs / k));
  for (const tx::Transaction& transaction : txs) {
    if (retire_midway && transaction.index == txs.size() / 2) {
      const ShardId largest = assignment.largest_active();
      assignment.retire_shard(largest, largest == 0 ? 1 : 0);
    }
    const std::vector<tx::TxIndex> parents = transaction.distinct_input_txs();
    dag.add_node(parents);
    PlacementRequest request;
    request.index = transaction.index;
    request.input_txs = parents;

    const ShardId chosen = placer.choose(request, assignment);
    const DenseChoice expected =
        dense_argmax(placer.last_scores(), assignment, cap);
    ASSERT_EQ(chosen, expected.shard)
        << "k " << k << " tx " << request.index << " best score "
        << expected.score;
    if (expected.tied >= 2) {
      ++(expected.score > 0.0 ? ties.positive : ties.all_zero);
    }
    assignment.record(request.index, chosen);
    placer.notify_placed(request, chosen);
  }
}

TEST(OptChainPlacerTest, UntimedChoiceIsArgmaxOfDenseT2S) {
  // Property: without timing data, the choice equals the dense argmax over
  // every shard's T2S score although the uncapped, all-active placer only
  // scans u's support. Capped (T2S-based) and churned placers take the
  // dense loops and are held to the same reference.
  OptChainConfig capped;
  capped.l2s_weight = 0.0;
  capped.expected_txs = 2000;
  for (const std::uint32_t k : {2u, 16u, 64u, 256u}) {
    workload::BitcoinLikeGenerator gen({}, 900 + k);
    const auto txs = gen.generate(2000);
    TieCounts ties;
    ASSERT_NO_FATAL_FAILURE(
        expect_untimed_dense_argmax({}, txs, k, false, ties));
    EXPECT_GT(ties.all_zero, 0u) << "k " << k;
    std::cout << "[          ] k=" << k << ": " << ties.all_zero
              << " all-zero ties, " << ties.positive << " positive ties\n";

    TieCounts fallback_ties;
    ASSERT_NO_FATAL_FAILURE(
        expect_untimed_dense_argmax(capped, txs, k, false, fallback_ties))
        << "capped";
    ASSERT_NO_FATAL_FAILURE(
        expect_untimed_dense_argmax({}, txs, k, true, fallback_ties))
        << "retired shard";
  }
}

/// Adds transaction `index` spending `parents` and records it on `shard`
/// whatever the placer chose, as a diverting front-end may.
void place_on(graph::TanDag& dag, OptChainPlacer& placer,
              ShardAssignment& assignment, tx::TxIndex index,
              const std::vector<tx::TxIndex>& parents, ShardId shard) {
  dag.add_node(parents);
  PlacementRequest request;
  request.index = index;
  request.input_txs = parents;
  placer.choose(request, assignment);
  assignment.record(index, shard);
  placer.notify_placed(request, shard);
}

TEST(OptChainPlacerTest, UntimedPositiveTieGoesToTheSmallerShard) {
  // The generated streams above tie above 0 at no step, so this case pins
  // the size tie-break among support shards.
  // p'(3) = 0.5 · (0.5 + 0.5 on shard 0, 0.5 on shard 1) = {0.5, 0.25};
  // shard 0 holds two transactions, shard 1 one, so both score exactly
  // 0.25. The smaller shard wins although its id is higher.
  graph::TanDag dag;
  OptChainPlacer placer(dag);
  ShardAssignment assignment(4);
  place_on(dag, placer, assignment, 0, {}, 1);
  place_on(dag, placer, assignment, 1, {}, 0);
  place_on(dag, placer, assignment, 2, {}, 0);

  dag.add_node(std::vector<graph::NodeId>{0, 1, 2});
  PlacementRequest request;
  request.index = 3;
  const std::vector<tx::TxIndex> inputs{0, 1, 2};
  request.input_txs = inputs;
  const ShardId chosen = placer.choose(request, assignment);
  ASSERT_EQ(placer.last_scores()[0], 0.25);
  ASSERT_EQ(placer.last_scores()[1], 0.25);
  EXPECT_EQ(chosen, 1u);
  EXPECT_EQ(chosen, dense_argmax(placer.last_scores(), assignment,
                                 std::numeric_limits<std::uint64_t>::max())
                        .shard);
}

TEST(OptChainPlacerTest, UntimedEmptySupportShardsFallBackToLeastLoaded) {
  // Re-partitioning can move every transaction off the shard a parent's
  // mass points at. The child's only support shard then has size 0 and
  // scores 0 like every other shard, so the tie goes to the least-loaded
  // shard — here shard 0, not the support shard 2.
  graph::TanDag dag;
  OptChainPlacer placer(dag);
  ShardAssignment assignment(4);
  place_on(dag, placer, assignment, 0, {}, 2);
  place_on(dag, placer, assignment, 1, {}, 1);
  place_on(dag, placer, assignment, 2, {}, 3);
  assignment.reassign(0, 3);  // sizes {0, 1, 0, 2}
  ASSERT_EQ(assignment.size_of(2), 0u);

  dag.add_node(std::vector<graph::NodeId>{0});
  PlacementRequest request;
  request.index = 3;
  const std::vector<tx::TxIndex> inputs{0};
  request.input_txs = inputs;
  const ShardId chosen = placer.choose(request, assignment);
  ASSERT_EQ(placer.scorer().raw_vector(3).size(), 1u);
  ASSERT_EQ(placer.scorer().raw_vector(3)[0].shard, 2u);
  EXPECT_EQ(chosen, assignment.least_loaded());
  EXPECT_EQ(chosen, 0u);
}

// OptChainConfig::validate() runs first in the constructor, so a nonsense
// field throws std::invalid_argument naming it instead of aborting in the
// scorer's precondition or reaching select()'s cast of the capacity cap.
TEST(OptChainPlacerTest, ConstructorRejectsBadConfigsNamingTheField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct BadConfig {
    const char* field;
    std::function<void(OptChainConfig&)> apply;
  };
  const BadConfig cases[] = {
      {"t2s.alpha", [](OptChainConfig& c) { c.t2s.alpha = 0.0; }},
      {"t2s.alpha", [](OptChainConfig& c) { c.t2s.alpha = 1.5; }},
      {"t2s.alpha", [](OptChainConfig& c) { c.t2s.alpha = -0.5; }},
      {"t2s.alpha", [nan](OptChainConfig& c) { c.t2s.alpha = nan; }},
      {"t2s.prune_threshold",
       [](OptChainConfig& c) { c.t2s.prune_threshold = -1e-7; }},
      {"t2s.prune_threshold",
       [nan](OptChainConfig& c) { c.t2s.prune_threshold = nan; }},
      {"t2s.prune_threshold",
       [inf](OptChainConfig& c) { c.t2s.prune_threshold = inf; }},
      {"l2s_weight", [](OptChainConfig& c) { c.l2s_weight = -0.01; }},
      {"l2s_weight", [nan](OptChainConfig& c) { c.l2s_weight = nan; }},
      {"l2s_weight", [inf](OptChainConfig& c) { c.l2s_weight = inf; }},
      {"epsilon", [](OptChainConfig& c) { c.epsilon = -2.0; }},
      {"epsilon", [nan](OptChainConfig& c) { c.epsilon = nan; }},
      {"epsilon", [inf](OptChainConfig& c) { c.epsilon = inf; }},
  };
  graph::TanDag dag;
  for (const BadConfig& bad : cases) {
    OptChainConfig config;
    bad.apply(config);
    try {
      OptChainPlacer placer(dag, config);
      ADD_FAILURE() << bad.field << ": no error";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(bad.field), std::string::npos)
          << error.what();
    }
  }
  // The edges of each range are accepted: α = 1, zero threshold, weight
  // and ε.
  OptChainConfig edges;
  edges.t2s.alpha = 1.0;
  edges.t2s.prune_threshold = 0.0;
  edges.l2s_weight = 0.0;
  edges.epsilon = 0.0;
  EXPECT_NO_THROW(OptChainPlacer(dag, edges));
}

// ------------------------------------------------- cross-TX quality sweeps

struct QualityCase {
  std::uint32_t k;
  std::uint64_t seed;
};

class CrossTxQualityTest : public ::testing::TestWithParam<QualityCase> {};

/// The paper's Table-I invariants that are robust on the synthetic stream:
/// the informed online methods (T2S, Greedy) land an order of magnitude
/// below random placement, and T2S stays within a small factor of the
/// offline Metis oracle. (On the real Bitcoin data the paper additionally
/// measures Greedy well above T2S; our synthetic communities are temporal,
/// which flatters Greedy's one-hop rule on the cross-TX metric — it pays for
/// it with the temporal imbalance covered by the simulation tests. The gap
/// is open: ROADMAP.md item 12.)
TEST_P(CrossTxQualityTest, InformedMethodsCrushRandomPlacement) {
  const auto [k, seed] = GetParam();
  workload::BitcoinLikeGenerator gen({}, seed);
  const auto txs = gen.generate(30000);

  const double t2s_cross = run_placement(txs, "T2S", k);
  const double greedy_cross = run_placement(txs, "Greedy", k);
  const double random_cross = run_placement(txs, "OmniLedger", k);

  // Random placement approaches 1 - 1/k for related transactions; with ~2
  // distinct inputs it should be far above 60% for k >= 4.
  EXPECT_GT(random_cross, 0.6);
  // Paper headline: ~10x cross-TX reduction for T2S.
  EXPECT_LT(t2s_cross, random_cross / 4.0);
  EXPECT_LT(greedy_cross, random_cross / 4.0);
  // And T2S tracks the paper's Table-I values (9.3%-21.7% for k=4..64).
  EXPECT_LT(t2s_cross, 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrossTxQualityTest,
    ::testing::Values(QualityCase{4, 1}, QualityCase{8, 1}, QualityCase{16, 1},
                      QualityCase{8, 2}, QualityCase{16, 3}),
    [](const ::testing::TestParamInfo<QualityCase>& param_info) {
      return "k" + std::to_string(param_info.param.k) + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace optchain::core
