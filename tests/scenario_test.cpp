// Tests for the declarative experiment layer: ScenarioSpec axis expansion,
// SweepRunner determinism across thread counts, replica aggregation math,
// and the SimObserver golden (observer-collected metrics == the engine's
// own SimResult for a fixed seed).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/run_spec.hpp"
#include "api/scenario_spec.hpp"
#include "api/sweep_runner.hpp"
#include "common/json_writer.hpp"
#include "stats/metrics.hpp"
#include "workload/bitcoin_like_generator.hpp"

namespace optchain::api {
namespace {

// ------------------------------------------------------------- expansion

ScenarioSpec grid_spec() {
  ScenarioSpec spec;
  spec.name = "test-grid";
  spec.methods = {"OptChain", "OmniLedger"};
  spec.shards = {4, 8};
  spec.rates = {100.0, 200.0};
  spec.seeds = {1, 2};
  spec.replicas = 2;
  spec.protocol = sim::ProtocolMode::kRapidChain;
  spec.leader_fault_rate = 0.25;
  spec.shard_slowdown = {2.0, 1.0};
  spec.commit_window_s = 7.0;
  spec.queue_sample_interval_s = 3.0;
  spec.txs = 500;
  return spec;
}

TEST(ScenarioSpecTest, AxisExpansionCountsAndOrder) {
  const ScenarioSpec spec = grid_spec();
  EXPECT_EQ(spec.num_cells(), 2u * 2u * 2u * 2u);
  const Sweep sweep = spec.expand();
  ASSERT_EQ(sweep.cells.size(), spec.num_cells() * spec.replicas);
  EXPECT_EQ(sweep.scenario, "test-grid");
  EXPECT_EQ(sweep.replicas, 2u);

  // Nesting order: methods, then shards × rates, then seeds, then replicas.
  const SweepCell& first = sweep.cells[0];
  EXPECT_EQ(first.cell, 0u);
  EXPECT_EQ(first.replica, 0u);
  EXPECT_EQ(first.spec.method, "OptChain");
  EXPECT_EQ(first.spec.num_shards, 4u);
  EXPECT_DOUBLE_EQ(first.spec.rate_tps, 100.0);
  EXPECT_EQ(first.spec.seed, 1u);
  EXPECT_EQ(first.workload_seed, 1u);

  const SweepCell& second = sweep.cells[1];  // replica 1 of the same point
  EXPECT_EQ(second.cell, 0u);
  EXPECT_EQ(second.replica, 1u);
  EXPECT_EQ(second.spec.sim_seed, ScenarioSpec::kBaseSimSeed + 1);
  EXPECT_EQ(first.spec.sim_seed, ScenarioSpec::kBaseSimSeed);

  const SweepCell& third = sweep.cells[2];  // next seed
  EXPECT_EQ(third.cell, 1u);
  EXPECT_EQ(third.spec.seed, 2u);

  const SweepCell& last = sweep.cells.back();
  EXPECT_EQ(last.spec.method, "OmniLedger");
  EXPECT_EQ(last.spec.num_shards, 8u);
  EXPECT_DOUBLE_EQ(last.spec.rate_tps, 200.0);
  EXPECT_EQ(last.spec.seed, 2u);
  EXPECT_EQ(last.replica, 1u);

  // Fixed knobs propagate into every per-cell RunSpec.
  for (const SweepCell& cell : sweep.cells) {
    EXPECT_EQ(cell.spec.protocol, sim::ProtocolMode::kRapidChain);
    EXPECT_DOUBLE_EQ(cell.spec.leader_fault_rate, 0.25);
    EXPECT_EQ(cell.spec.shard_slowdown, (std::vector<double>{2.0, 1.0}));
    EXPECT_DOUBLE_EQ(cell.spec.commit_window_s, 7.0);
    EXPECT_DOUBLE_EQ(cell.spec.queue_sample_interval_s, 3.0);
    EXPECT_EQ(cell.stream_txs, 500u);
    EXPECT_EQ(cell.warm_txs, 0u);  // simulate mode never warms
  }
}

TEST(ScenarioSpecTest, PairingsReplaceTheShardRateGrid) {
  ScenarioSpec spec = grid_spec();
  spec.pairings = {{2000.0, 6}, {3000.0, 8}, {6000.0, 16}};
  EXPECT_EQ(spec.num_cells(),
            spec.methods.size() * 3u * spec.seeds.size());
  const Sweep sweep = spec.expand();
  EXPECT_EQ(sweep.cells[0].spec.num_shards, 6u);
  EXPECT_DOUBLE_EQ(sweep.cells[0].spec.rate_tps, 2000.0);
}

TEST(ScenarioSpecTest, StreamSizedByRateTimesIssueWindow) {
  ScenarioSpec spec;
  spec.txs = 0;
  spec.issue_seconds = 2.0;
  EXPECT_EQ(spec.stream_length(500.0), 1000u);
  spec.txs = 123;
  EXPECT_EQ(spec.stream_length(500.0), 123u);
}

TEST(ScenarioSpecTest, WarmRatioSetsTheWarmPrefix) {
  ScenarioSpec spec;
  spec.mode = RunMode::kPlace;
  spec.txs = 100;
  spec.warm_ratio = 30;
  const Sweep sweep = spec.expand();
  EXPECT_EQ(sweep.cells[0].stream_txs, 100u);
  EXPECT_EQ(sweep.cells[0].warm_txs, 3000u);
}

/// Expects `spec.validate()` and `spec.expand()` to throw
/// std::invalid_argument naming `field`.
void expect_rejected(const ScenarioSpec& spec, const std::string& field) {
  for (int call = 0; call < 2; ++call) {
    try {
      if (call == 0) {
        spec.validate();
      } else {
        (void)spec.expand();
      }
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  }
}

TEST(ScenarioSpecTest, ValidateNamesTheField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(grid_spec().validate());
  for (const double bad : {0.0, -1.0, nan, inf}) {
    ScenarioSpec spec = grid_spec();
    spec.issue_seconds = bad;
    expect_rejected(spec, "issue_seconds");
    spec = grid_spec();
    spec.rates = {100.0, bad};
    expect_rejected(spec, "rates");
    spec = grid_spec();
    spec.pairings = {{bad, 4}};
    expect_rejected(spec, "pairings.rate_tps");
  }
  ScenarioSpec spec = grid_spec();
  spec.shards = {4, 0};
  expect_rejected(spec, "shards");
  spec = grid_spec();
  spec.pairings = {{100.0, 0}};
  expect_rejected(spec, "pairings.shards");
  spec = grid_spec();
  spec.rates.clear();
  expect_rejected(spec, "rates");
  spec = grid_spec();
  spec.seeds.clear();
  expect_rejected(spec, "seeds");
  spec = grid_spec();
  spec.methods.clear();
  expect_rejected(spec, "methods");
  spec = grid_spec();
  spec.replicas = 0;
  expect_rejected(spec, "replicas");
  // Transaction indices are 32-bit: a stream of 2^32 or more is refused
  // before anything is sized from it.
  spec = grid_spec();
  spec.txs = std::uint64_t{1} << 32;
  expect_rejected(spec, "txs");
  spec.txs = ~std::uint64_t{0};
  expect_rejected(spec, "txs");
  spec.txs = (std::uint64_t{1} << 32) - 1;
  EXPECT_NO_THROW(spec.validate());
  // Without txs, a cell streams rate × issue_seconds transactions: the
  // fastest rate (200 tps here) sets the bound.
  spec.txs = 0;
  spec.issue_seconds = 2.2e7;  // 4.4e9 at 200 tps
  expect_rejected(spec, "issue_seconds");
  spec.issue_seconds = 2.1e7;  // 4.2e9
  EXPECT_NO_THROW(spec.validate());
  spec.rates.clear();
  spec.pairings = {{100.0, 4}, {250.0, 8}};  // 5.25e9 at 250 tps
  expect_rejected(spec, "issue_seconds");
}

// ----------------------------------------------------------- SweepRunner

ScenarioSpec small_sim_spec() {
  ScenarioSpec spec;
  spec.name = "test-sim";
  spec.methods = {"OptChain", "OmniLedger"};
  spec.shards = {4};
  spec.rates = {400.0, 800.0};
  spec.seeds = {7};
  spec.replicas = 2;
  spec.issue_seconds = 1.5;
  spec.commit_window_s = 5.0;
  spec.queue_sample_interval_s = 1.0;
  return spec;
}

TEST(SweepRunnerTest, BitIdenticalAcrossJobCounts) {
  const ScenarioSpec spec = small_sim_spec();
  const SweepReport serial = SweepRunner({.jobs = 1}).run(spec);
  const SweepReport parallel = SweepRunner({.jobs = 4}).run(spec);

  // The full-precision CSV covers every aggregate of every cell at %.17g:
  // equal strings mean bit-identical doubles.
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());

  JsonWriter serial_json, parallel_json;
  serial.write_json(serial_json);
  parallel.write_json(parallel_json);
  EXPECT_EQ(serial_json.finish(), parallel_json.finish());

  // And the raw per-replica reports agree too, not just the aggregates.
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    ASSERT_EQ(serial.cells[c].runs.size(), parallel.cells[c].runs.size());
    for (std::size_t r = 0; r < serial.cells[c].runs.size(); ++r) {
      const RunReport& a = serial.cells[c].runs[r];
      const RunReport& b = parallel.cells[c].runs[r];
      EXPECT_EQ(a.cross, b.cross);
      EXPECT_EQ(a.shard_sizes, b.shard_sizes);
      ASSERT_TRUE(a.sim.has_value() && b.sim.has_value());
      EXPECT_DOUBLE_EQ(a.sim->avg_latency_s, b.sim->avg_latency_s);
      EXPECT_EQ(a.sim->total_events, b.sim->total_events);
    }
  }
}

TEST(SweepRunnerTest, ReplicaAggregationMath) {
  ScenarioSpec spec = small_sim_spec();
  spec.rates = {400.0};
  spec.replicas = 3;
  // Make replicas actually diverge: leader faults are part of the sim
  // seed's stochastic sampling.
  spec.leader_fault_rate = 0.2;
  const SweepReport report = SweepRunner({.jobs = 2}).run(spec);

  ASSERT_EQ(report.cells.size(), 2u);  // two methods × one point
  for (const CellReport& cell : report.cells) {
    ASSERT_EQ(cell.runs.size(), 3u);
    double sum = 0.0, lo = 1e300, hi = -1e300;
    for (const RunReport& run : cell.runs) {
      ASSERT_TRUE(run.sim.has_value());
      sum += run.sim->avg_latency_s;
      lo = std::min(lo, run.sim->avg_latency_s);
      hi = std::max(hi, run.sim->avg_latency_s);
    }
    EXPECT_DOUBLE_EQ(cell.avg_latency_s.mean, sum / 3.0);
    EXPECT_DOUBLE_EQ(cell.avg_latency_s.min, lo);
    EXPECT_DOUBLE_EQ(cell.avg_latency_s.max, hi);
    EXPECT_LE(cell.avg_latency_s.min, cell.avg_latency_s.mean);
    EXPECT_LE(cell.avg_latency_s.mean, cell.avg_latency_s.max);
    // Replica 0 keeps the default sim seed; the different sim seeds should
    // produce different network samplings (and so a min < max spread).
    EXPECT_LT(cell.avg_latency_s.min, cell.avg_latency_s.max);
  }
}

TEST(SweepRunnerTest, CellRunMatchesDirectApiCall) {
  ScenarioSpec spec = small_sim_spec();
  spec.replicas = 1;
  const Sweep sweep = spec.expand();
  const SweepReport report = SweepRunner({.jobs = 1}).run(sweep);

  // Replaying a cell through the plain api:: entry points (same stream,
  // same RunSpec) reproduces the runner's result exactly.
  const SweepCell& cell = sweep.cells[0];
  workload::BitcoinLikeGenerator generator(spec.bitcoin_workload,
                                           cell.workload_seed);
  const auto txs = generator.generate(cell.stream_txs);
  const RunReport direct = simulate(cell.spec, txs);

  const RunReport& run = report.cells[0].runs[0];
  ASSERT_TRUE(run.sim.has_value() && direct.sim.has_value());
  EXPECT_EQ(run.cross, direct.cross);
  EXPECT_EQ(run.total, direct.total);
  EXPECT_EQ(run.sim->total_events, direct.sim->total_events);
  EXPECT_DOUBLE_EQ(run.sim->avg_latency_s, direct.sim->avg_latency_s);
  EXPECT_DOUBLE_EQ(run.sim->throughput_tps, direct.sim->throughput_tps);
  EXPECT_EQ(run.shard_sizes, direct.shard_sizes);
}

TEST(SweepRunnerTest, PlacementModeMatchesDirectPlace) {
  ScenarioSpec spec;
  spec.name = "test-place";
  spec.mode = RunMode::kPlace;
  spec.methods = {"T2S", "Greedy"};
  spec.shards = {4, 8};
  spec.seeds = {3};
  spec.txs = 2000;
  const SweepReport report = SweepRunner({.jobs = 3}).run(spec);
  ASSERT_EQ(report.cells.size(), 4u);

  workload::BitcoinLikeGenerator generator({}, 3);
  const auto txs = generator.generate(2000);
  for (const CellReport& cell : report.cells) {
    RunSpec run_spec;
    run_spec.method = cell.method;
    run_spec.num_shards = cell.num_shards;
    run_spec.seed = cell.seed;
    const RunReport direct = place(run_spec, txs);
    EXPECT_EQ(cell.runs[0].cross, direct.cross);
    EXPECT_EQ(cell.runs[0].total, direct.total);
    EXPECT_EQ(cell.runs[0].shard_sizes, direct.shard_sizes);
    EXPECT_FALSE(cell.runs[0].sim.has_value());
  }
}

// -------------------------------------------------------- observer golden

TEST(SimObserverTest, ExternalMetricsObserverMatchesSimResult) {
  workload::BitcoinLikeGenerator generator({}, 20260729);
  const auto txs = generator.generate(3000);

  RunSpec spec;
  spec.method = "OptChain";
  spec.num_shards = 8;
  spec.rate_tps = 1000.0;
  spec.commit_window_s = 10.0;
  spec.queue_sample_interval_s = 1.0;
  spec.leader_fault_rate = 0.1;  // exercise view-change block commits too

  // The same collector bundle the engine uses internally, attached from the
  // outside through the RunSpec seam: both views of the run must agree
  // exactly — this is the guarantee that lets every figure's metrics come
  // out of observers instead of engine members.
  stats::MetricsObserver observer(spec.commit_window_s);
  spec.observers = {&observer};
  const RunReport report = simulate(spec, txs);
  ASSERT_TRUE(report.sim.has_value());
  const sim::SimResult& result = *report.sim;

  EXPECT_EQ(observer.cross_counter().total(), result.total_txs);
  EXPECT_EQ(observer.cross_counter().cross(), result.cross_txs);
  EXPECT_EQ(observer.committed(), result.committed_txs);
  EXPECT_EQ(observer.aborted(), result.aborted_txs);
  EXPECT_EQ(observer.blocks(), result.total_blocks);
  EXPECT_DOUBLE_EQ(observer.duration_s(), result.duration_s);

  EXPECT_EQ(observer.latencies().count(), result.latencies.count());
  EXPECT_DOUBLE_EQ(observer.latencies().average(), result.avg_latency_s);
  EXPECT_DOUBLE_EQ(observer.latencies().maximum(), result.max_latency_s);

  EXPECT_EQ(observer.commits_per_window().counts(),
            result.commits_per_window.counts());

  const auto& observed = observer.queue_tracker().snapshots();
  const auto& engine = result.queue_tracker.snapshots();
  ASSERT_EQ(observed.size(), engine.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    EXPECT_DOUBLE_EQ(observed[i].time, engine[i].time);
    EXPECT_EQ(observed[i].max_queue, engine[i].max_queue);
    EXPECT_EQ(observed[i].min_queue, engine[i].min_queue);
  }
  EXPECT_EQ(observer.queue_tracker().global_max(),
            result.queue_tracker.global_max());
}

}  // namespace
}  // namespace optchain::api
