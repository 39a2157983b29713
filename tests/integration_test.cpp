// End-to-end integration: the full pipeline (generator → TaN → placement →
// simulator → metrics) reproduces the paper's qualitative findings at test
// scale. These are the "shape" assertions behind Tables I-II and Figs. 3-10.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "core/optchain_placer.hpp"
#include "metis/kway_partitioner.hpp"
#include "sim/simulation.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tan_builder.hpp"

namespace optchain {
namespace {

std::vector<tx::Transaction> stream(std::size_t n, std::uint64_t seed = 42) {
  workload::BitcoinLikeGenerator gen({}, seed);
  return gen.generate(n);
}

sim::SimConfig test_config(std::uint32_t shards, double rate) {
  // Paper-regime consensus (2000-tx blocks, 400-validator committees):
  // the L2S term is calibrated for backlogs measured in whole blocks, so
  // shrinking the block size distorts OptChain's behavior.
  sim::SimConfig config;
  config.num_shards = shards;
  config.tx_rate_tps = rate;
  config.queue_sample_interval_s = 2.0;
  config.commit_window_s = 10.0;
  return config;
}

/// Offline Metis partition of the full stream (the paper's oracle baseline).
std::vector<std::uint32_t> metis_partition(
    std::span<const tx::Transaction> txs, std::uint32_t k) {
  const graph::TanDag dag = workload::build_tan(txs);
  metis::PartitionConfig config;
  config.k = k;
  return metis::partition_kway(dag.to_undirected(), config);
}

struct MethodResult {
  double cross_fraction = 0.0;
  sim::SimResult sim;
};

std::map<std::string, MethodResult> run_all_methods(
    std::span<const tx::Transaction> txs, std::uint32_t k, double rate) {
  // Registry names: OmniLedger = random hashing; T2S = Table I's "T2S-based"
  // variant (no L2S term, ε-capped like Greedy).
  const std::map<std::string, std::string> methods{
      {"random", "OmniLedger"}, {"greedy", "Greedy"}, {"metis", "Metis"},
      {"optchain", "OptChain"}, {"t2s", "T2S"}};
  std::map<std::string, MethodResult> results;
  for (const auto& [label, method] : methods) {
    api::PlacementPipeline pipeline = api::make_pipeline(method, k, txs);
    sim::Simulation simulation(test_config(k, rate));
    MethodResult r;
    r.sim = simulation.run(txs, pipeline);
    r.cross_fraction = r.sim.cross_fraction();
    results[label] = std::move(r);
  }
  return results;
}

TEST(IntegrationTest, CrossTxOrderingMatchesTableOne) {
  // Table I's robust shape: the offline Metis oracle is the best
  // cross-TX minimizer, every informed method lands an order of magnitude
  // below random placement, and the T2S score stays in the paper's value
  // range. (The paper additionally measures Greedy well above T2S on the
  // real Bitcoin data; our synthetic stream's temporal communities flatter
  // Greedy on this metric — an open gap, ROADMAP.md item 12 — while the
  // simulation figures still show Greedy losing on latency/throughput.)
  const auto txs = stream(60000);
  const auto results = run_all_methods(txs, 8, 3000.0);
  EXPECT_LT(results.at("metis").cross_fraction,
            results.at("t2s").cross_fraction);
  EXPECT_LT(results.at("t2s").cross_fraction,
            results.at("random").cross_fraction / 4.0);
  EXPECT_LT(results.at("greedy").cross_fraction,
            results.at("random").cross_fraction / 4.0);
  EXPECT_GT(results.at("random").cross_fraction, 0.6);
  // Paper Table I at k=8: T2S-based = 12.52%.
  EXPECT_LT(results.at("t2s").cross_fraction, 0.25);
  // Full OptChain still lands far below random placement.
  EXPECT_LT(results.at("optchain").cross_fraction,
            results.at("random").cross_fraction / 3.0);
}

TEST(IntegrationTest, OptChainCutsCrossTxByLargeFactor) {
  // Paper headline: up to 10x cross-TX reduction vs random placement.
  const auto txs = stream(20000);
  auto random = api::make_pipeline("OmniLedger", 16, txs);
  auto optchain = api::make_pipeline("OptChain", 16, txs);
  const auto r = sim::Simulation(test_config(16, 2000.0)).run(txs, random);
  const auto o = sim::Simulation(test_config(16, 2000.0)).run(txs, optchain);
  EXPECT_GT(r.cross_fraction(), 0.75);
  EXPECT_LT(o.cross_fraction(), r.cross_fraction() / 2.5);
}

TEST(IntegrationTest, OptChainBestLatencyUnderLoad) {
  // Fig. 8 shape: at a rate the baselines struggle with, OptChain's average
  // latency is the lowest.
  const auto txs = stream(60000);
  const auto results = run_all_methods(txs, 8, 4500.0);
  EXPECT_LT(results.at("optchain").sim.avg_latency_s,
            results.at("random").sim.avg_latency_s);
  EXPECT_LT(results.at("optchain").sim.avg_latency_s,
            results.at("greedy").sim.avg_latency_s);
  EXPECT_LT(results.at("optchain").sim.avg_latency_s,
            results.at("metis").sim.avg_latency_s);
}

TEST(IntegrationTest, MetisSuffersTemporalImbalance) {
  // Fig. 6 shape: Metis minimizes the cut but maps long consecutive runs of
  // the stream onto single shards, so its worst-case queue depth dwarfs
  // OptChain's. The contrast needs the paper's consensus regime (2000-tx
  // blocks, ~700 tps per shard): OptChain's L2S term only diverts once a
  // backlog is worth whole seconds, which toy block sizes never reach.
  const auto txs = stream(60000);
  sim::SimConfig config;  // paper-scale consensus defaults
  config.num_shards = 8;
  config.tx_rate_tps = 4500.0;
  config.queue_sample_interval_s = 1.0;

  auto metis_pipeline = api::make_pipeline("Metis", 8, txs);
  auto opt_pipeline = api::make_pipeline("OptChain", 8, txs);
  const auto metis_result =
      sim::Simulation(config).run(txs, metis_pipeline);
  const auto opt_result = sim::Simulation(config).run(txs, opt_pipeline);

  EXPECT_GT(static_cast<double>(metis_result.queue_tracker.global_max()),
            1.5 * static_cast<double>(opt_result.queue_tracker.global_max()));
}

TEST(IntegrationTest, OptChainShardSizesStayBalanced) {
  const auto txs = stream(30000);
  auto pipeline = api::make_pipeline("OptChain", 8, txs);
  const auto result =
      sim::Simulation(test_config(8, 3000.0)).run(txs, pipeline);
  std::uint64_t max_size = 0, min_size = UINT64_MAX;
  for (const auto s : result.final_shard_sizes) {
    max_size = std::max(max_size, s);
    min_size = std::min(min_size, s);
  }
  // OptChain's balance objective is *temporal* (queue sizes), not total
  // counts: affinity may concentrate counts, but never beyond a loose factor
  // while queues stay level.
  EXPECT_LT(static_cast<double>(max_size),
            6.0 * static_cast<double>(std::max<std::uint64_t>(min_size, 1)));
}

TEST(IntegrationTest, HigherShardCountReducesLatencyUnderLoad) {
  // Fig. 3 shape: at a fixed rate, more shards => lower average latency.
  const auto txs = stream(30000);
  auto pipeline_small = api::make_pipeline("OptChain", 4, txs);
  auto pipeline_large = api::make_pipeline("OptChain", 16, txs);
  const auto small =
      sim::Simulation(test_config(4, 3000.0)).run(txs, pipeline_small);
  const auto large =
      sim::Simulation(test_config(16, 3000.0)).run(txs, pipeline_large);
  EXPECT_LT(large.avg_latency_s, small.avg_latency_s);
}

TEST(IntegrationTest, WarmStartPlacementStillFavorsT2s) {
  // Table II setting: warm-start the assignment with a Metis partition of a
  // prefix, then place the remaining stream online. The method separation
  // needs a reasonably long placed window (Table II uses 1M transactions).
  const auto txs = stream(100000);
  const std::size_t warm = 60000;
  const std::uint32_t k = 8;

  // Offline partition of the warm prefix only.
  const auto prefix_parts = metis_partition(
      std::span<const tx::Transaction>(txs).subspan(0, warm), k);

  // The pipeline's warm-start handling: the prefix is force-placed per the
  // precomputed partition (choose() still runs so stateful placers build
  // their score vectors) and only the tail is counted.
  const auto run_tail = [&](const char* method) -> double {
    api::PlacementPipeline pipeline = api::make_pipeline(method, k, txs);
    return pipeline.place_stream(txs, prefix_parts).fraction();
  };

  const double t2s_cross = run_tail("T2S");
  const double greedy_cross = run_tail("Greedy");
  const double random_cross = run_tail("OmniLedger");

  EXPECT_LT(t2s_cross, greedy_cross);
  EXPECT_LT(greedy_cross, random_cross);
}

// OptChain placement must stay cheap: the average placement cost is O(k)
// sparse-entry work, far below a millisecond.
TEST(IntegrationTest, PlacementThroughputIsPractical) {
  const auto txs = stream(20000);
  api::PlacementPipeline pipeline(16, [](const graph::TanDag& dag) {
    core::OptChainConfig config;
    config.l2s_weight = 0.0;
    return std::make_unique<core::OptChainPlacer>(dag, config);
  });

  const auto start = std::chrono::steady_clock::now();
  for (const auto& transaction : txs) {
    pipeline.step(transaction);
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // 20k placements in well under 2 s even on slow CI hardware.
  EXPECT_LT(elapsed / static_cast<double>(txs.size()), 1e-4);
}

}  // namespace
}  // namespace optchain
