// Tests for the incremental T2S scorer: hand-computed values, equivalence
// with the from-scratch dense recomputation, the gather's summation order,
// divisor policies, pruning.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/t2s_scorer.hpp"
#include "graph/dag.hpp"
#include "placement/shard_assignment.hpp"
#include "support/t2s_oracle.hpp"

namespace optchain::core {
namespace {

using graph::NodeId;

TEST(T2sScorerTest, CoinbaseHasZeroScores) {
  graph::TanDag dag;
  placement::ShardAssignment assignment(4);
  T2sScorer scorer;
  dag.add_node({});
  const auto scores = scorer.score(dag, 0, assignment);
  for (const double s : scores) EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_TRUE(scorer.raw_vector(0).empty());
}

TEST(T2sScorerTest, CommitAddsAlpha) {
  graph::TanDag dag;
  placement::ShardAssignment assignment(4);
  T2sScorer scorer;
  dag.add_node({});
  scorer.score(dag, 0, assignment);
  scorer.commit(0, 2);
  const auto raw = scorer.raw_vector(0);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].shard, 2u);
  EXPECT_DOUBLE_EQ(raw[0].value, 0.5);
}

TEST(T2sScorerTest, HandComputedChain) {
  // tx0 (coinbase, shard 0) <- tx1 <- tx2 (also spends tx0).
  graph::TanDag dag;
  placement::ShardAssignment assignment(2);
  T2sScorer scorer;  // alpha = 0.5

  dag.add_node({});
  scorer.score(dag, 0, assignment);
  assignment.record(0, 0);
  scorer.commit(0, 0);

  // tx1 spends tx0: divisor(tx0) = 1 spender so far (tx1 itself).
  dag.add_node(std::vector<NodeId>{0});
  const auto s1 = scorer.score(dag, 1, assignment);
  // p'(1) = 0.5 * (0.5 / 1) = 0.25; p(1)[0] = 0.25 / |S0| = 0.25 / 1.
  EXPECT_DOUBLE_EQ(s1[0], 0.25);
  EXPECT_DOUBLE_EQ(s1[1], 0.0);
  assignment.record(1, 0);
  scorer.commit(1, 0);  // p'(1) = {0: 0.75}

  // tx2 spends tx0 and tx1: divisor(tx0) = 2, divisor(tx1) = 1.
  dag.add_node(std::vector<NodeId>{0, 1});
  const auto s2 = scorer.score(dag, 2, assignment);
  // p'(2) = 0.5 * (0.5/2 + 0.75/1) = 0.5; p(2)[0] = 0.5 / |S0| = 0.5 / 2.
  EXPECT_DOUBLE_EQ(s2[0], 0.25);
  EXPECT_DOUBLE_EQ(s2[1], 0.0);
}

TEST(T2sScorerTest, MassSplitsAcrossShards) {
  // Two coinbase parents in different shards feed one child.
  graph::TanDag dag;
  placement::ShardAssignment assignment(2);
  T2sScorer scorer;
  dag.add_node({});
  scorer.score(dag, 0, assignment);
  assignment.record(0, 0);
  scorer.commit(0, 0);
  dag.add_node({});
  scorer.score(dag, 1, assignment);
  assignment.record(1, 1);
  scorer.commit(1, 1);

  dag.add_node(std::vector<NodeId>{0, 1});
  const auto scores = scorer.score(dag, 2, assignment);
  // p'(2) = 0.5*(0.5/1) at both entries = 0.25 each; each shard has size 1.
  EXPECT_DOUBLE_EQ(scores[0], 0.25);
  EXPECT_DOUBLE_EQ(scores[1], 0.25);
}

TEST(T2sScorerTest, DeclaredOutputsPolicy) {
  // Same chain as HandComputedChain but dividing by declared output counts.
  graph::TanDag dag;
  placement::ShardAssignment assignment(2);
  T2sConfig config;
  config.divisor = DivisorPolicy::kDeclaredOutputs;
  const auto outputs_of = [](tx::TxIndex index) -> std::uint32_t {
    return index == 0 ? 4 : 1;  // tx0 declares 4 outputs
  };
  T2sScorer scorer(config, outputs_of);

  dag.add_node({});
  scorer.score(dag, 0, assignment);
  assignment.record(0, 0);
  scorer.commit(0, 0);

  dag.add_node(std::vector<NodeId>{0});
  const auto s1 = scorer.score(dag, 1, assignment);
  // p'(1) = 0.5 * (0.5/4) = 0.0625.
  EXPECT_DOUBLE_EQ(s1[0], 0.0625);
}

TEST(T2sScorerDeathTest, DeclaredOutputsRequiresCallback) {
  T2sConfig config;
  config.divisor = DivisorPolicy::kDeclaredOutputs;
  EXPECT_DEATH(T2sScorer scorer(config), "Precondition");
}

TEST(T2sScorerTest, AlphaOneKeepsOnlyOwnMass) {
  graph::TanDag dag;
  placement::ShardAssignment assignment(2);
  T2sConfig config;
  config.alpha = 1.0;
  T2sScorer scorer(config);
  dag.add_node({});
  scorer.score(dag, 0, assignment);
  assignment.record(0, 0);
  scorer.commit(0, 0);
  dag.add_node(std::vector<NodeId>{0});
  const auto scores = scorer.score(dag, 1, assignment);
  // (1 - α) = 0: no inherited mass at all.
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
}

/// Drives a random DAG through the scorer with arbitrary placements and
/// compares every score vector with the dense from-scratch recomputation.
void check_incremental_matches_dense(std::uint64_t seed, std::uint32_t k,
                                     std::size_t n) {
  Rng rng(seed);
  graph::TanDag dag;
  placement::ShardAssignment assignment(k);
  T2sConfig config;
  config.prune_threshold = 0.0;  // exact comparison
  T2sScorer scorer(config);

  std::vector<std::vector<double>> observed;
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> inputs;
    if (u > 0) {
      const std::uint32_t deg = static_cast<std::uint32_t>(rng.below(4));
      for (std::uint32_t i = 0; i < deg; ++i) {
        inputs.push_back(static_cast<NodeId>(rng.below(u)));
      }
    }
    dag.add_node(inputs);
    observed.push_back(scorer.score(dag, u, assignment));
    const auto shard = static_cast<placement::ShardId>(rng.below(k));
    assignment.record(u, shard);
    scorer.commit(u, shard);
  }

  const auto dense = recompute_all_scores_dense(dag, assignment, config);
  for (NodeId u = 0; u < n; ++u) {
    // The dense table holds p'; compare raw vectors entry by entry.
    std::vector<double> raw(k, 0.0);
    for (const auto& entry : scorer.raw_vector(u)) {
      raw[entry.shard] = entry.value;
    }
    for (std::uint32_t i = 0; i < k; ++i) {
      EXPECT_NEAR(raw[i], dense[u][i], 1e-12)
          << "node " << u << " shard " << i;
    }
  }
}

struct IncrementalCase {
  std::uint64_t seed;
  std::uint32_t k;
  std::size_t n;
};

class T2sIncrementalTest : public ::testing::TestWithParam<IncrementalCase> {};

TEST_P(T2sIncrementalTest, MatchesDenseRecomputation) {
  const auto& param = GetParam();
  check_incremental_matches_dense(param.seed, param.k, param.n);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, T2sIncrementalTest,
    ::testing::Values(IncrementalCase{1, 2, 200}, IncrementalCase{2, 4, 200},
                      IncrementalCase{3, 8, 300}, IncrementalCase{4, 16, 300},
                      IncrementalCase{5, 3, 500}, IncrementalCase{6, 64, 150}),
    [](const ::testing::TestParamInfo<IncrementalCase>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_k" +
             std::to_string(param_info.param.k);
    });

/// The gather's order contract, computed the naive way from the parents'
/// stored vectors: per shard a left fold from 0.0 over dag.inputs(u) in
/// order of value / spender_count, times (1 − α), the total summed in
/// ascending shard order, entries below total × prune_threshold dropped.
std::vector<ScoreEntry> reference_gather(const T2sScorer& scorer,
                                         const graph::TanDag& dag, NodeId u,
                                         std::uint32_t k) {
  std::vector<double> sums(k, 0.0);
  std::vector<bool> hit(k, false);
  for (const NodeId v : dag.inputs(u)) {
    const auto divisor = static_cast<double>(dag.spender_count(v));
    for (const ScoreEntry& entry : scorer.raw_vector(v)) {
      sums[entry.shard] += entry.value / divisor;
      hit[entry.shard] = true;
    }
  }
  std::vector<ScoreEntry> expected;
  double total = 0.0;
  for (std::uint32_t shard = 0; shard < k; ++shard) {
    if (!hit[shard]) continue;
    expected.push_back({shard, sums[shard] * (1.0 - scorer.alpha())});
    total += expected.back().value;
  }
  const double cutoff = total * scorer.config().prune_threshold;
  std::erase_if(expected,
                [cutoff](const ScoreEntry& e) { return e.value < cutoff; });
  return expected;
}

/// Scores a random DAG at `k` shards and checks every gather, before its
/// commit, bit for bit against reference_gather(). Nodes take 3–6 parents
/// from the last 40 arrivals, and half of them follow a parent's shard, so
/// parents overlap on shards and gathers hold more than 16 entries at
/// k ≥ 17; k ≥ 65 crosses a 64-shard word.
void check_gather_order(std::uint32_t k, double prune_threshold) {
  Rng rng(1000 + k);
  graph::TanDag dag;
  placement::ShardAssignment assignment(k);
  T2sConfig config;
  config.prune_threshold = prune_threshold;
  T2sScorer scorer(config);
  std::size_t wide_gathers = 0;  // gathers of more than 16 entries
  std::uint32_t max_shard = 0;
  std::vector<NodeId> inputs;
  for (NodeId u = 0; u < 1500; ++u) {
    inputs.clear();
    if (u >= 8) {
      const auto degree = 3 + static_cast<std::uint32_t>(rng.below(4));
      const NodeId window = std::min<NodeId>(u, 40);
      for (std::uint32_t i = 0; i < degree; ++i) {
        inputs.push_back(u - 1 - static_cast<NodeId>(rng.below(window)));
      }
    }
    dag.add_node(inputs);
    scorer.score(dag, u, assignment);

    std::size_t gathered = 0;
    for (const NodeId v : dag.inputs(u)) {
      gathered += scorer.raw_vector(v).size();
    }
    if (gathered > 16) ++wide_gathers;
    const auto expected = reference_gather(scorer, dag, u, k);
    const auto stored = scorer.raw_vector(u);
    ASSERT_EQ(stored.size(), expected.size()) << "node " << u;
    for (std::size_t i = 0; i < stored.size(); ++i) {
      ASSERT_EQ(stored[i].shard, expected[i].shard) << "node " << u;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(stored[i].value),
                std::bit_cast<std::uint64_t>(expected[i].value))
          << "node " << u << " shard " << stored[i].shard;
      max_shard = std::max(max_shard, stored[i].shard);
    }

    const auto parents = dag.inputs(u);
    const auto shard =
        !parents.empty() && rng.below(2) == 0
            ? assignment.shard_of(parents[rng.below(parents.size())])
            : static_cast<placement::ShardId>(rng.below(k));
    assignment.record(u, shard);
    scorer.commit(u, shard);
  }
  if (k >= 17) {
    EXPECT_GT(wide_gathers, 0u);
  }
  if (k >= 65) {
    EXPECT_GE(max_shard, 64u);
  }
}

// Bit for bit, not EXPECT_NEAR: every shard's sum is folded in parent push
// order, whatever the gather's size or k. A zero prune_threshold keeps every
// emitted entry, so a stale mask bit (an extra zero entry) shows; 1e-3 also
// runs the pruning.
TEST(T2sScorerTest, GatherSumsEachShardInParentOrder) {
  for (const std::uint32_t k : {1u, 2u, 16u, 17u, 63u, 64u, 65u, 128u}) {
    for (const double prune_threshold : {0.0, 1e-3}) {
      SCOPED_TRACE("k = " + std::to_string(k) +
                   ", prune_threshold = " + std::to_string(prune_threshold));
      check_gather_order(k, prune_threshold);
    }
  }
}

TEST(T2sScorerTest, PruningBoundsMemoryWithSmallError) {
  Rng rng(77);
  graph::TanDag dag;
  placement::ShardAssignment assignment(16);
  T2sConfig pruned_config;
  pruned_config.prune_threshold = 1e-4;
  T2sConfig exact_config;
  exact_config.prune_threshold = 0.0;
  T2sScorer pruned(pruned_config);
  T2sScorer exact(exact_config);

  constexpr std::size_t kNodes = 800;
  for (NodeId u = 0; u < kNodes; ++u) {
    std::vector<NodeId> inputs;
    if (u > 0) {
      const std::uint32_t deg = 1 + static_cast<std::uint32_t>(rng.below(3));
      for (std::uint32_t i = 0; i < deg; ++i) {
        inputs.push_back(static_cast<NodeId>(rng.below(u)));
      }
    }
    dag.add_node(inputs);
    const auto a = pruned.score(dag, u, assignment);
    const auto b = exact.score(dag, u, assignment);
    for (std::uint32_t i = 0; i < 16; ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-3);
    }
    const auto shard = static_cast<placement::ShardId>(rng.below(16));
    assignment.record(u, shard);
    pruned.commit(u, shard);
    exact.commit(u, shard);
  }
  EXPECT_LE(pruned.total_entries(), exact.total_entries());
}

}  // namespace
}  // namespace optchain::core
