// Tests for the from-scratch multilevel k-way partitioner.
#include <gtest/gtest.h>

#include <cmath>
#include <ios>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "graph/csr.hpp"
#include "metis/kway_partitioner.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tan_builder.hpp"

namespace optchain::metis {
namespace {

using Edge = std::pair<std::uint32_t, std::uint32_t>;

graph::Csr undirected_from(std::size_t n, std::vector<Edge> edges) {
  std::vector<Edge> both;
  both.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    both.emplace_back(u, v);
    both.emplace_back(v, u);
  }
  return graph::Csr::from_edges(n, both);
}

/// Two K4 cliques joined by one bridge edge.
graph::Csr two_cliques() {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = i + 1; j < 4; ++j) {
      edges.emplace_back(i, j);
      edges.emplace_back(i + 4, j + 4);
    }
  }
  edges.emplace_back(3, 4);  // bridge
  return undirected_from(8, edges);
}

TEST(KwayPartitionerTest, EmptyGraph) {
  const graph::Csr empty = graph::Csr::from_edges(0, {});
  EXPECT_TRUE(partition_kway(empty, {.k = 4}).empty());
}

TEST(KwayPartitionerTest, SinglePartIsTrivial) {
  const graph::Csr g = two_cliques();
  const auto parts = partition_kway(g, {.k = 1});
  for (const auto p : parts) EXPECT_EQ(p, 0u);
  EXPECT_EQ(edge_cut(g, parts), 0u);
}

TEST(KwayPartitionerTest, TwoCliquesSplitAtBridge) {
  const graph::Csr g = two_cliques();
  PartitionConfig config;
  config.k = 2;
  config.coarsen_target = 4;  // exercise coarsening even on a tiny graph
  const auto parts = partition_kway(g, config);
  ASSERT_EQ(parts.size(), 8u);
  // Each clique must be monochromatic and the cliques in different parts.
  for (std::uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(parts[i], parts[0]);
    EXPECT_EQ(parts[i + 4], parts[4]);
  }
  EXPECT_NE(parts[0], parts[4]);
  EXPECT_EQ(edge_cut(g, parts), 1u);
}

TEST(KwayPartitionerTest, AllPartsInRange) {
  const graph::Csr g = two_cliques();
  for (std::uint32_t k : {2u, 3u, 4u}) {
    const auto parts = partition_kway(g, {.k = k});
    for (const auto p : parts) EXPECT_LT(p, k);
  }
}

TEST(KwayPartitionerTest, EveryNodeAssignedExactlyOnce) {
  const graph::Csr g = two_cliques();
  const auto parts = partition_kway(g, {.k = 2});
  EXPECT_EQ(parts.size(), g.num_nodes());
}

TEST(EdgeCutTest, KnownValues) {
  const graph::Csr g = two_cliques();
  // All in one part: no cut.
  EXPECT_EQ(edge_cut(g, std::vector<std::uint32_t>(8, 0)), 0u);
  // Alternating: cuts most edges.
  std::vector<std::uint32_t> alternating(8);
  for (std::size_t i = 0; i < 8; ++i) alternating[i] = i % 2;
  EXPECT_GT(edge_cut(g, alternating), 5u);
}

TEST(BalanceFactorTest, PerfectAndSkewed) {
  EXPECT_DOUBLE_EQ(balance_factor(std::vector<std::uint32_t>{0, 1, 0, 1}, 2),
                   1.0);
  EXPECT_DOUBLE_EQ(balance_factor(std::vector<std::uint32_t>{0, 0, 0, 1}, 2),
                   1.5);
}

// Property sweep: on generated TaN graphs the partitioner must (a) respect
// the balance constraint loosely, (b) beat random placement's cut, and
// (c) assign all nodes.
struct KwayCase {
  std::uint32_t k;
  std::uint64_t seed;
};

class KwayPropertyTest : public ::testing::TestWithParam<KwayCase> {};

TEST_P(KwayPropertyTest, BeatsRandomCutAndStaysBalanced) {
  const auto [k, seed] = GetParam();
  workload::BitcoinLikeGenerator gen({}, seed);
  const auto txs = gen.generate(4000);
  const graph::TanDag dag = workload::build_tan(txs);
  const graph::Csr undirected = dag.to_undirected();

  PartitionConfig config;
  config.k = k;
  config.seed = seed;
  const auto parts = partition_kway(undirected, config);
  ASSERT_EQ(parts.size(), undirected.num_nodes());
  for (const auto p : parts) ASSERT_LT(p, k);

  // Balance: within the (1+ε) bound plus slack for the coarsest granularity.
  EXPECT_LE(balance_factor(parts, k), 1.0 + config.imbalance + 0.15);

  // Cut quality: strictly better than hash-random assignment.
  Rng rng(seed);
  std::vector<std::uint32_t> random_parts(parts.size());
  for (auto& p : random_parts) {
    p = static_cast<std::uint32_t>(rng.below(k));
  }
  EXPECT_LT(edge_cut(undirected, parts),
            edge_cut(undirected, random_parts) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KwayPropertyTest,
    ::testing::Values(KwayCase{2, 1}, KwayCase{4, 1}, KwayCase{8, 1},
                      KwayCase{16, 1}, KwayCase{4, 2}, KwayCase{8, 3},
                      KwayCase{16, 4}, KwayCase{32, 5}),
    [](const ::testing::TestParamInfo<KwayCase>& param_info) {
      return "k" + std::to_string(param_info.param.k) + "_seed" +
             std::to_string(param_info.param.seed);
    });

TEST(KwayPartitionerTest, DeterministicForSameSeed) {
  workload::BitcoinLikeGenerator gen({}, 31);
  const auto txs = gen.generate(3000);
  const graph::Csr g = workload::build_tan(txs).to_undirected();
  const auto a = partition_kway(g, {.k = 8, .seed = 9});
  const auto b = partition_kway(g, {.k = 8, .seed = 9});
  EXPECT_EQ(a, b);
}

TEST(KwayPartitionerTest, PathGraphBisection) {
  // A path of 100 nodes: optimal bisection cuts exactly 1 edge.
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i + 1 < 100; ++i) edges.emplace_back(i, i + 1);
  const graph::Csr g = undirected_from(100, edges);
  const auto parts = partition_kway(g, {.k = 2, .seed = 3});
  const std::uint64_t cut = edge_cut(g, parts);
  EXPECT_LE(cut, 3u);  // multilevel heuristics may be slightly off-optimal
  EXPECT_LE(balance_factor(parts, 2), 1.25);
}

TEST(PartitionConfigTest, ValidateNamesTheField) {
  struct Bad {
    PartitionConfig config;
    const char* field;
  };
  const Bad cases[] = {
      {{.k = 0}, "k"},
      {{.imbalance = -1.0}, "imbalance"},
      {{.imbalance = std::nan("")}, "imbalance"},
      {{.imbalance = std::numeric_limits<double>::infinity()}, "imbalance"},
  };
  const graph::Csr g = two_cliques();
  for (const Bad& bad : cases) {
    const std::string expected =
        std::string("PartitionConfig: ") + bad.field + " must be";
    try {
      bad.config.validate();
      ADD_FAILURE() << bad.field << " passed validate()";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
          << error.what();
    }
    EXPECT_THROW(partition_kway(g, bad.config), std::invalid_argument)
        << bad.field;
  }
  EXPECT_NO_THROW(PartitionConfig{}.validate());
}

// A balance bound at or above the total weight binds nothing. So imbalance
// 1e300, whose bound no integer holds, must partition exactly as imbalance
// = k, whose bound (1 + k) * ceil(n / k) already exceeds n.
TEST(KwayPartitionerTest, HugeImbalanceActsAsNoBound) {
  workload::BitcoinLikeGenerator gen({}, 17);
  const graph::Csr g = workload::build_tan(gen.generate(4000)).to_undirected();
  const auto unbounded = partition_kway(g, {.k = 8, .imbalance = 1e300});
  const auto loose = partition_kway(g, {.k = 8, .imbalance = 8.0});
  EXPECT_EQ(unbounded, loose);
}

// Exact output on generated TaNs that coarsen deeply. Coarsening stops at
// max(coarsen_target, 100k) vertices; each case below goes through at least
// six levels, so matching, projection and refinement at every level are
// inside its digest. (The runs sim_fingerprint_test pins stream at most
// 3,000 transactions, one or two levels at most.) The 60k-node k = 16 case
// has the shape of the second re-partition plan of perfbench's
// sim_wan_churn_k16.
//
// The digests also encode the standard library's std::unordered_map
// iteration order: it is the coarse adjacency order, by which matching,
// region growing and refinement break ties (kway_partitioner.hpp). A
// library whose map iterates differently moves these pins with no change to
// this repo; re-capture them on purpose and say why.
TEST(KwayPartitionerTest, DeepCoarseningDigestsArePinned) {
  struct Pin {
    std::size_t txs;
    std::uint64_t generator_seed;
    std::uint32_t k;
    std::uint64_t seed;
    std::uint64_t digest;  // FNV-1a over the part ids, 4 bytes LE each
  };
  const Pin pins[] = {
      {20'000, 1, 2, 5, 0x2277eda0f55a1745},   // 6 levels
      {20'000, 1, 16, 5, 0xc7dba1374ede30a0},  // 6 levels
      {60'000, 2, 16, 7, 0x2c9f2258885322ca},  // 9 levels
      {60'000, 2, 64, 7, 0x69c6356be595dd92},  // 6 levels
  };
  for (const Pin& pin : pins) {
    workload::BitcoinLikeGenerator gen({}, pin.generator_seed);
    const graph::Csr g =
        workload::build_tan(gen.generate(pin.txs)).to_undirected();
    const auto parts = partition_kway(g, {.k = pin.k, .seed = pin.seed});
    std::vector<std::uint8_t> bytes;
    bytes.reserve(4 * parts.size());
    for (const std::uint32_t p : parts) {
      for (int shift = 0; shift < 32; shift += 8) {
        bytes.push_back(static_cast<std::uint8_t>(p >> shift));
      }
    }
    const std::uint64_t digest = fnv1a(bytes);
    EXPECT_EQ(digest, pin.digest)
        << pin.txs << " txs (generator seed " << pin.generator_seed
        << "), k = " << pin.k << ", seed " << pin.seed << ": digest 0x"
        << std::hex << digest;
  }
}

}  // namespace
}  // namespace optchain::metis
