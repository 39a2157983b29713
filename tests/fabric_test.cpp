// Link-fabric suite (sim/fabric/): config validation, the flat-identity
// contract (an enabled-but-degenerate fabric is bit-identical to the
// classic NetworkModel path), queue buildup / tail-drop accounting, jitter
// determinism, region-tier latency math and the tree-gossip fabric
// overload. Whole congested and wan runs are pinned in
// tests/sim_fingerprint_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "api/run_spec.hpp"
#include "sim/fabric/fabric.hpp"
#include "sim/simulation.hpp"
#include "sim/tree_gossip.hpp"
#include "stats/metrics.hpp"
#include "workload/bitcoin_like_generator.hpp"

namespace optchain {
namespace {

using sim::FabricConfig;
using sim::LinkFabric;
using sim::NetworkConfig;
using sim::NetworkModel;
using sim::Position;
using sim::ProtocolMode;

constexpr std::uint64_t kStreamSeed = 20260808;
constexpr std::size_t kStreamLength = 2500;

std::vector<tx::Transaction> stream() {
  workload::BitcoinLikeGenerator generator({}, kStreamSeed);
  return generator.generate(kStreamLength);
}

sim::SimConfig base_config(ProtocolMode protocol) {
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

sim::SimResult run_sequential(const sim::SimConfig& config,
                              const std::vector<tx::Transaction>& txs) {
  api::PlacementPipeline pipeline =
      api::make_pipeline("OptChain", config.num_shards, txs);
  sim::Simulation simulation(config);
  return simulation.run(txs, pipeline);
}

/// Bit-identity of two SimResults, link-fabric accounting included.
void expect_bit_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(b.placer_name, a.placer_name);
  EXPECT_EQ(b.total_txs, a.total_txs);
  EXPECT_EQ(b.cross_txs, a.cross_txs);
  EXPECT_EQ(b.committed_txs, a.committed_txs);
  EXPECT_EQ(b.aborted_txs, a.aborted_txs);
  EXPECT_EQ(b.completed, a.completed);
  EXPECT_EQ(b.total_blocks, a.total_blocks);
  EXPECT_EQ(b.total_events, a.total_events);
  EXPECT_DOUBLE_EQ(b.duration_s, a.duration_s);
  EXPECT_DOUBLE_EQ(b.throughput_tps, a.throughput_tps);
  EXPECT_DOUBLE_EQ(b.avg_latency_s, a.avg_latency_s);
  EXPECT_DOUBLE_EQ(b.max_latency_s, a.max_latency_s);
  EXPECT_EQ(b.shard_event_counts, a.shard_event_counts);
  EXPECT_EQ(b.final_shard_sizes, a.final_shard_sizes);
  EXPECT_EQ(b.latencies.count(), a.latencies.count());
  EXPECT_DOUBLE_EQ(b.latencies.average(), a.latencies.average());
  EXPECT_DOUBLE_EQ(b.latencies.maximum(), a.latencies.maximum());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(b.latencies.quantile(q), a.latencies.quantile(q));
  }
  EXPECT_EQ(b.commits_per_window.counts(), a.commits_per_window.counts());
  EXPECT_EQ(b.queue_tracker.global_max(), a.queue_tracker.global_max());
  EXPECT_EQ(b.link_messages, a.link_messages);
  EXPECT_EQ(b.link_bytes, a.link_bytes);
  EXPECT_EQ(b.link_drops, a.link_drops);
  EXPECT_DOUBLE_EQ(b.link_queue_delay_s, a.link_queue_delay_s);
  EXPECT_DOUBLE_EQ(b.link_peak_backlog_s, a.link_peak_backlog_s);
}

// ----------------------------------------------------------- validation

TEST(FabricValidation, NetworkModelRejectsNonPositiveBandwidth) {
  EXPECT_THROW(NetworkModel({0.100, 0.050, 0.0}), std::invalid_argument);
  EXPECT_THROW(NetworkModel({0.100, 0.050, -20e6}), std::invalid_argument);
  EXPECT_NO_THROW(NetworkModel({0.100, 0.050, 20e6}));
}

TEST(FabricValidation, FabricConfigRejectsBrokenConfigs) {
  {
    FabricConfig config;  // disabled, but the bandwidth check still applies
    config.link.bandwidth_bps = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    FabricConfig config;
    config.enabled = true;
    config.regions = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    FabricConfig config;
    config.enabled = true;
    config.max_jitter_s = -0.01;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    FabricConfig config;
    config.enabled = true;
    config.straggler_fraction = 1.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    FabricConfig config;
    config.enabled = true;
    config.link.queue_bytes = 1024;
    config.retransmit_timeout_s = 0.0;  // finite queue needs a retry clock
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  EXPECT_NO_THROW(FabricConfig{}.validate());
}

TEST(FabricValidation, PresetsAreValidAndUnknownNamesThrow) {
  for (const char* name : {"off", "", "flat", "wan", "congested"}) {
    EXPECT_NO_THROW(sim::fabric_preset(name).validate()) << name;
  }
  EXPECT_FALSE(sim::fabric_preset("off").enabled);
  EXPECT_TRUE(sim::fabric_preset("congested").enabled);
  EXPECT_THROW(sim::fabric_preset("lan"), std::invalid_argument);
}

TEST(FabricValidation, ConstructionAndSimulationRejectInvalidConfigs) {
  const NetworkModel flat;
  FabricConfig config;
  config.enabled = true;
  config.intra_region_latency_s = -1.0;
  EXPECT_THROW(LinkFabric(config, flat, 42), std::invalid_argument);
  sim::SimConfig sim_config = base_config(ProtocolMode::kOmniLedger);
  sim_config.fabric = config;
  EXPECT_THROW(sim::Simulation{sim_config}, std::invalid_argument);
}

// -------------------------------------------------------- flat identity

TEST(FabricFlatIdentity, DegenerateFabricBitIdenticalToDisabled) {
  const auto txs = stream();
  for (const ProtocolMode protocol :
       {ProtocolMode::kOmniLedger, ProtocolMode::kRapidChain}) {
    sim::SimConfig disabled = base_config(protocol);
    const sim::SimResult golden = run_sequential(disabled, txs);

    sim::SimConfig flat = base_config(protocol);
    flat.fabric = sim::fabric_preset("flat");
    const sim::SimResult fabric = run_sequential(flat, txs);

    // Same engine outcome down to the last double; only the fabric's own
    // delivery accounting (zero when disabled) is allowed to differ.
    EXPECT_EQ(fabric.total_txs, golden.total_txs);
    EXPECT_EQ(fabric.cross_txs, golden.cross_txs);
    EXPECT_EQ(fabric.committed_txs, golden.committed_txs);
    EXPECT_EQ(fabric.aborted_txs, golden.aborted_txs);
    EXPECT_EQ(fabric.total_blocks, golden.total_blocks);
    EXPECT_EQ(fabric.total_events, golden.total_events);
    EXPECT_DOUBLE_EQ(fabric.duration_s, golden.duration_s);
    EXPECT_DOUBLE_EQ(fabric.throughput_tps, golden.throughput_tps);
    EXPECT_DOUBLE_EQ(fabric.avg_latency_s, golden.avg_latency_s);
    EXPECT_DOUBLE_EQ(fabric.max_latency_s, golden.max_latency_s);
    EXPECT_EQ(fabric.latencies.count(), golden.latencies.count());
    EXPECT_DOUBLE_EQ(fabric.latencies.average(), golden.latencies.average());
    EXPECT_EQ(fabric.commits_per_window.counts(),
              golden.commits_per_window.counts());
    EXPECT_EQ(fabric.final_shard_sizes, golden.final_shard_sizes);
    EXPECT_EQ(golden.link_messages, 0u);  // disabled fabric counts nothing
    EXPECT_GT(fabric.link_messages, 0u);
    EXPECT_EQ(fabric.link_drops, 0u);  // unconstrained queue never drops
  }
}

// --------------------------------------------------- queueing and drops

TEST(FabricQueueing, UplinkSerializesAndTailDrops) {
  // 8000 bps = 1000 bytes/s; a 1000-byte queue holds one second of backlog.
  FabricConfig config;
  config.enabled = true;
  config.link.bandwidth_bps = 8000.0;
  config.link.queue_bytes = 1000;
  config.retransmit_timeout_s = 2.0;
  config.intra_region_latency_s = 0.0;
  config.max_distance_latency_s = 0.0;
  const NetworkModel flat;
  LinkFabric fabric(config, flat, 7);
  fabric.add_endpoint();
  fabric.add_endpoint();
  const Position at{0.0, 0.0};

  // First send: empty uplink, pure serialization (500 bytes = 0.5 s).
  EXPECT_DOUBLE_EQ(fabric.message_delay(0.0, 0, 1, at, at, 500), 0.5);
  // Second send at the same instant queues behind it: 0.5 s wait + 0.5 s.
  EXPECT_DOUBLE_EQ(fabric.message_delay(0.0, 0, 1, at, at, 500), 1.0);
  // Third: 1.0 s of backlog = exactly queue_bytes — still admitted.
  EXPECT_DOUBLE_EQ(fabric.message_delay(0.0, 0, 1, at, at, 500), 1.5);
  EXPECT_EQ(fabric.stats().drops, 0u);
  // Fourth: 1.5 s of backlog > 1 s of queue — tail drop, retransmitted at
  // t = 2.0 where the uplink (busy until 1.5) has drained: 2.0 s of
  // retry-queueing plus its own 0.5 s serialization.
  EXPECT_DOUBLE_EQ(fabric.message_delay(0.0, 0, 1, at, at, 500), 2.5);
  EXPECT_EQ(fabric.stats().drops, 1u);
  EXPECT_DOUBLE_EQ(fabric.stats().peak_backlog_s, 1.0);

  // reset_state() returns the uplink to idle.
  fabric.reset_state();
  EXPECT_EQ(fabric.stats().drops, 0u);
  EXPECT_DOUBLE_EQ(fabric.message_delay(0.0, 0, 1, at, at, 500), 0.5);
}

TEST(FabricQueueing, CongestedSimulationAccountsDropsAndCompletes) {
  sim::SimConfig config = base_config(ProtocolMode::kOmniLedger);
  config.tx_rate_tps = 3000.0;
  config.fabric = sim::fabric_preset("congested");
  const sim::SimResult result = run_sequential(config, stream());
  EXPECT_TRUE(result.completed);  // retransmits delay, never deadlock
  EXPECT_GT(result.committed_txs, 0u);
  EXPECT_GT(result.link_messages, 0u);
  EXPECT_GT(result.link_bytes, 0u);
  EXPECT_GT(result.link_drops, 0u);  // 5 Mbps + 64 KiB queues must drop
  EXPECT_GT(result.link_queue_delay_s, 0.0);
  EXPECT_GT(result.link_peak_backlog_s, 0.0);
  // An admitted send's backlog never exceeds the queue capacity.
  const double queue_capacity_s =
      static_cast<double>(config.fabric.link.queue_bytes) * 8.0 /
      config.fabric.link.bandwidth_bps;
  EXPECT_LE(result.link_peak_backlog_s, queue_capacity_s);
}

// -------------------------------------------------- jitter determinism

TEST(FabricJitter, DrawsAreDeterministicPerSeedAndPair) {
  FabricConfig config;
  config.enabled = true;
  config.max_jitter_s = 0.010;
  const NetworkModel flat;
  LinkFabric a(config, flat, 42);
  LinkFabric b(config, flat, 42);
  LinkFabric other_seed(config, flat, 43);
  for (LinkFabric* fabric : {&a, &b, &other_seed}) {
    fabric->add_endpoint();
    fabric->add_endpoint();
  }
  const Position at{0.25, 0.75};
  double sum_a = 0.0, sum_b = 0.0, sum_other = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double da = a.message_delay(0.0, 0, 1, at, at, 100);
    const double db = b.message_delay(0.0, 0, 1, at, at, 100);
    EXPECT_DOUBLE_EQ(da, db);  // same seed: the same stream, draw by draw
    sum_a += da;
    sum_b += db;
    sum_other += other_seed.message_delay(0.0, 0, 1, at, at, 100);
  }
  EXPECT_NE(sum_a, sum_other);  // different seed: a different stream
  EXPECT_DOUBLE_EQ(sum_a, sum_b);
}

TEST(FabricJitter, WanRunsAreReproducible) {
  sim::SimConfig config = base_config(ProtocolMode::kRapidChain);
  config.fabric = sim::fabric_preset("wan");
  const auto txs = stream();
  const sim::SimResult first = run_sequential(config, txs);
  const sim::SimResult second = run_sequential(config, txs);
  expect_bit_identical(first, second);
  EXPECT_GT(first.link_messages, 0u);
}

// -------------------------------------------------- region-tier latency

TEST(FabricRegions, TierLatencyMatchesTheTierNetworkModel) {
  FabricConfig config;
  config.enabled = true;
  config.regions = 4;
  config.intra_region_latency_s = 0.030;
  config.inter_region_latency_s = 0.180;
  config.max_distance_latency_s = 0.050;
  const NetworkModel flat;
  LinkFabric fabric(config, flat, 42);
  const std::uint32_t n = 16;
  for (std::uint32_t ep = 0; ep < n; ++ep) fabric.add_endpoint();

  const NetworkModel intra(
      {config.intra_region_latency_s, config.max_distance_latency_s,
       config.link.bandwidth_bps});
  const NetworkModel inter(
      {config.inter_region_latency_s, config.max_distance_latency_s,
       config.link.bandwidth_bps});
  const Position from{0.1, 0.2};
  const Position to{0.8, 0.9};

  bool saw_intra = false, saw_inter = false;
  for (std::uint32_t a = 0; a < n; ++a) {
    EXPECT_LT(fabric.region_of(a), config.regions);
    for (std::uint32_t b = 0; b < n; ++b) {
      const bool same = fabric.region_of(a) == fabric.region_of(b);
      (same ? saw_intra : saw_inter) = true;
      const NetworkModel& tier = same ? intra : inter;
      EXPECT_DOUBLE_EQ(fabric.propagation_delay(a, b, from, to),
                       tier.propagation_delay(from, to));
      // queue_bytes == 0: the stateless path is literally the tier model.
      EXPECT_DOUBLE_EQ(fabric.message_delay(0.0, a, b, from, to, 4096),
                       tier.message_delay(from, to, 4096));
    }
  }
  EXPECT_TRUE(saw_intra);  // 16 endpoints over 4 regions: both tiers exist
  EXPECT_TRUE(saw_inter);

  // Stragglers add their extra per touched endpoint, on top of the tier.
  config.straggler_fraction = 1.0;
  config.straggler_extra_s = 0.100;
  LinkFabric slow(config, flat, 42);
  slow.add_endpoint();
  slow.add_endpoint();
  EXPECT_TRUE(slow.is_straggler(0));
  EXPECT_DOUBLE_EQ(slow.propagation_delay(0, 1, from, to),
                   (slow.region_of(0) == slow.region_of(1) ? intra : inter)
                           .propagation_delay(from, to) +
                       2 * config.straggler_extra_s);
}

// ------------------------------------------------------------ tree gossip

TEST(FabricTreeGossip, DisabledAndDegenerateFabricMatchTheFlatOverload) {
  const NetworkModel network;
  sim::ConsensusConfig consensus;
  Rng rng(7);
  const Position leader = network.random_position(rng);
  std::vector<Position> validators;
  for (int i = 0; i < 30; ++i) {
    validators.push_back(network.random_position(rng));
  }
  const double flat_round = simulate_tree_gossip_round(
      network, leader, validators, consensus, consensus.txs_per_block);
  EXPECT_GT(flat_round, 0.0);

  const double off_round = simulate_tree_gossip_round(
      sim::fabric_preset("off"), network, leader, validators, consensus,
      consensus.txs_per_block, /*sim_seed=*/42);
  EXPECT_DOUBLE_EQ(off_round, flat_round);

  // The degenerate preset pays serialization through its (unconstrained)
  // links with the same arithmetic — the flat identity extends here too.
  const double degenerate_round = simulate_tree_gossip_round(
      sim::fabric_preset("flat"), network, leader, validators, consensus,
      consensus.txs_per_block, /*sim_seed=*/42);
  EXPECT_DOUBLE_EQ(degenerate_round, flat_round);
}

TEST(FabricTreeGossip, CongestedFabricSlowsTheRoundDeterministically) {
  const NetworkModel network;
  sim::ConsensusConfig consensus;
  Rng rng(11);
  const Position leader = network.random_position(rng);
  std::vector<Position> validators;
  for (int i = 0; i < 60; ++i) {
    validators.push_back(network.random_position(rng));
  }
  const auto run = [&] {
    return simulate_tree_gossip_round(sim::fabric_preset("congested"),
                                      network, leader, validators, consensus,
                                      consensus.txs_per_block,
                                      /*sim_seed=*/42);
  };
  const double first = run();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(run(), first);  // fresh per-phase fabrics: reproducible
}

// ---------------------------------------------------- observer plumbing

TEST(FabricObserver, MetricsObserverSeesLinkSamples) {
  const auto txs = stream();
  api::RunSpec spec;
  spec.method = "OptChain";
  spec.num_shards = 8;
  spec.rate_tps = 2000.0;
  spec.queue_sample_interval_s = 1.0;
  spec.fabric = sim::fabric_preset("congested");
  stats::MetricsObserver observer;
  spec.observers = {&observer};
  const api::RunReport report = api::simulate(spec, txs);
  ASSERT_TRUE(report.sim.has_value());
  EXPECT_GT(observer.link_samples(), 0u);
  EXPECT_GT(observer.peak_backlog_s(), 0.0);
  // The observer holds the last sample's cumulative drop counters; drops
  // after the final sample are visible only in the run totals.
  EXPECT_LE(observer.link_drops(), report.sim->link_drops);
  EXPECT_GT(report.sim->link_drops, 0u);

  // A disabled fabric fires no link samples at all.
  stats::MetricsObserver quiet;
  spec.fabric = sim::fabric_preset("off");
  spec.observers = {&quiet};
  const api::RunReport flat_report = api::simulate(spec, txs);
  EXPECT_EQ(quiet.link_samples(), 0u);
  EXPECT_EQ(flat_report.sim->link_messages, 0u);
}

}  // namespace
}  // namespace optchain
