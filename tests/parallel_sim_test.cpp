// Parallel-engine determinism suite: sim::parallel::ParallelSimulation must
// be *bit-identical* to the sequential sim::Simulation — every SimResult
// field except the engine-specific event_heap_peak, every observer callback
// in the same order with the same arguments — for both commit protocols,
// all registered placers, churn plans, trace-replay windows, and any worker
// count (jobs = 1 and jobs = 4 must agree with each other and with the
// sequential engine). Comparisons use EXPECT_DOUBLE_EQ, i.e. exact bits,
// because the replay order fixes every floating-point accumulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "api/run_spec.hpp"
#include "sim/parallel/parallel_simulation.hpp"
#include "sim/shard_churn.hpp"
#include "sim/sim_observer.hpp"
#include "sim/simulation.hpp"
#include "trace/trace_source.hpp"
#include "trace/trace_writer.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/conflict_injector.hpp"
#include "workload/tx_source.hpp"

namespace optchain {
namespace {

using sim::ProtocolMode;
using sim::parallel::ParallelSimulation;

constexpr std::uint64_t kStreamSeed = 20260729;
constexpr std::size_t kStreamLength = 3000;

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

/// Asserts the full bit-identity contract between two SimResults.
/// event_heap_peak is deliberately excluded (per-group heaps are shallower
/// than one global heap by design); everything else must match exactly.
void expect_bit_identical(const sim::SimResult& sequential,
                          const sim::SimResult& parallel) {
  EXPECT_EQ(parallel.placer_name, sequential.placer_name);
  EXPECT_EQ(parallel.total_txs, sequential.total_txs);
  EXPECT_EQ(parallel.cross_txs, sequential.cross_txs);
  EXPECT_EQ(parallel.committed_txs, sequential.committed_txs);
  EXPECT_EQ(parallel.aborted_txs, sequential.aborted_txs);
  EXPECT_EQ(parallel.completed, sequential.completed);
  EXPECT_EQ(parallel.total_blocks, sequential.total_blocks);
  EXPECT_EQ(parallel.total_events, sequential.total_events);
  EXPECT_DOUBLE_EQ(parallel.duration_s, sequential.duration_s);
  EXPECT_DOUBLE_EQ(parallel.throughput_tps, sequential.throughput_tps);
  EXPECT_DOUBLE_EQ(parallel.avg_latency_s, sequential.avg_latency_s);
  EXPECT_DOUBLE_EQ(parallel.max_latency_s, sequential.max_latency_s);

  EXPECT_EQ(parallel.shard_event_counts, sequential.shard_event_counts);
  EXPECT_EQ(parallel.shard_changes, sequential.shard_changes);
  EXPECT_EQ(parallel.migrated_txs, sequential.migrated_txs);
  EXPECT_EQ(parallel.migrated_utxos, sequential.migrated_utxos);
  EXPECT_EQ(parallel.repartition_events, sequential.repartition_events);
  EXPECT_EQ(parallel.repartition_migrated_txs,
            sequential.repartition_migrated_txs);
  EXPECT_EQ(parallel.repartition_migrated_utxos,
            sequential.repartition_migrated_utxos);
  EXPECT_EQ(parallel.repartition_deferred_txs,
            sequential.repartition_deferred_txs);
  EXPECT_EQ(parallel.final_shard_sizes, sequential.final_shard_sizes);

  // Latency distribution: same samples in the same order.
  EXPECT_EQ(parallel.latencies.count(), sequential.latencies.count());
  EXPECT_DOUBLE_EQ(parallel.latencies.average(),
                   sequential.latencies.average());
  EXPECT_DOUBLE_EQ(parallel.latencies.maximum(),
                   sequential.latencies.maximum());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(parallel.latencies.quantile(q),
                     sequential.latencies.quantile(q));
  }

  EXPECT_EQ(parallel.commits_per_window.counts(),
            sequential.commits_per_window.counts());

  const auto& seq_snaps = sequential.queue_tracker.snapshots();
  const auto& par_snaps = parallel.queue_tracker.snapshots();
  ASSERT_EQ(par_snaps.size(), seq_snaps.size());
  for (std::size_t i = 0; i < seq_snaps.size(); ++i) {
    EXPECT_DOUBLE_EQ(par_snaps[i].time, seq_snaps[i].time);
    EXPECT_EQ(par_snaps[i].max_queue, seq_snaps[i].max_queue);
    EXPECT_EQ(par_snaps[i].min_queue, seq_snaps[i].min_queue);
  }
  EXPECT_EQ(parallel.queue_tracker.global_max(),
            sequential.queue_tracker.global_max());
}

sim::SimResult run_sequential(const sim::SimConfig& config,
                              const std::string& method,
                              const std::vector<tx::Transaction>& txs) {
  api::PlacementPipeline pipeline =
      api::make_pipeline(method, config.num_shards, txs);
  sim::Simulation simulation(config);
  return simulation.run(txs, pipeline);
}

sim::SimResult run_parallel(const sim::SimConfig& config, std::uint32_t jobs,
                            const std::string& method,
                            const std::vector<tx::Transaction>& txs) {
  api::PlacementPipeline pipeline =
      api::make_pipeline(method, config.num_shards, txs);
  ParallelSimulation simulation(config, jobs);
  return simulation.run(txs, pipeline);
}

// ------------------------------------------------ placer × protocol grid

struct GridCase {
  const char* method;
  ProtocolMode protocol;
};

constexpr GridCase kGrid[] = {
    {"OptChain", ProtocolMode::kOmniLedger},
    {"OptChain", ProtocolMode::kRapidChain},
    {"Greedy", ProtocolMode::kOmniLedger},
    {"Greedy", ProtocolMode::kRapidChain},
    {"T2S", ProtocolMode::kOmniLedger},
    {"T2S", ProtocolMode::kRapidChain},
    {"ShardScheduler", ProtocolMode::kOmniLedger},
    {"ShardScheduler", ProtocolMode::kRapidChain},
};

class ParallelGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(ParallelGridTest, BitIdenticalToSequentialEngine) {
  const GridCase& grid = GetParam();
  const auto txs = stream();
  const sim::SimConfig config = base_config(grid.protocol);
  const sim::SimResult sequential = run_sequential(config, grid.method, txs);
  const sim::SimResult parallel = run_parallel(config, 4, grid.method, txs);
  EXPECT_TRUE(sequential.completed);
  expect_bit_identical(sequential, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelGridTest, ::testing::ValuesIn(kGrid),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return std::string(info.param.method) +
             (info.param.protocol == ProtocolMode::kOmniLedger ? "_omni"
                                                               : "_rapid");
    });

// --------------------------------------------------- worker-count freedom

// The shard→worker mapping must be invisible: one worker, four workers and
// the sequential engine all land on the same bits.
TEST(ParallelJobsTest, AnyJobCountProducesTheSameBits) {
  const auto txs = stream();
  const sim::SimConfig config = base_config(ProtocolMode::kOmniLedger);
  const sim::SimResult sequential = run_sequential(config, "OptChain", txs);
  for (std::uint32_t jobs : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const sim::SimResult parallel = run_parallel(config, jobs, "OptChain", txs);
    expect_bit_identical(sequential, parallel);
  }
}

// More workers than shards: the excess workers idle, the bits don't change.
TEST(ParallelJobsTest, MoreWorkersThanShards) {
  const auto txs = stream();
  sim::SimConfig config = base_config(ProtocolMode::kRapidChain);
  config.num_shards = 3;
  const sim::SimResult sequential = run_sequential(config, "Greedy", txs);
  const sim::SimResult parallel = run_parallel(config, 8, "Greedy", txs);
  expect_bit_identical(sequential, parallel);
}

// ------------------------------------------------------- observer parity

/// Records every SimObserver callback with its full argument list, so two
/// engines can be compared hook-for-hook in delivery order.
class HookRecorder final : public sim::SimObserver {
 public:
  struct Entry {
    char kind;  // I/C/A/Q/B/S
    std::uint32_t id = 0;
    double time = 0.0;
    double value = 0.0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  void on_issue(std::uint32_t tx, double time, bool cross) override {
    entries.push_back({'I', tx, time, 0.0, cross ? 1u : 0u, 0});
  }
  void on_commit(std::uint32_t tx, double time, double latency_s) override {
    entries.push_back({'C', tx, time, latency_s, 0, 0});
  }
  void on_abort(std::uint32_t tx, double time) override {
    entries.push_back({'A', tx, time, 0.0, 0, 0});
  }
  void on_queue_sample(double time,
                       std::span<const std::uint64_t> queues) override {
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    for (std::uint64_t q : queues) {
      sum += q;
      if (q > max) max = q;
    }
    entries.push_back({'Q', static_cast<std::uint32_t>(queues.size()), time,
                       0.0, sum, max});
  }
  void on_block_commit(std::uint32_t shard, double time) override {
    entries.push_back({'B', shard, time, 0.0, 0, 0});
  }
  void on_shard_change(std::uint32_t shard, double time, bool joined,
                       std::uint64_t migrated_txs,
                       std::uint64_t migrated_utxos) override {
    entries.push_back(
        {'S', shard, time, joined ? 1.0 : 0.0, migrated_txs, migrated_utxos});
  }

  std::vector<Entry> entries;
};

// Every observer callback — issue, commit, abort, queue sample, block
// commit — arrives in the same order with the same arguments on both
// engines (the record streams are merged back into event-key order before
// delivery).
TEST(ParallelObserverTest, CallbacksMatchSequentialOrderExactly) {
  const auto txs = stream();
  for (ProtocolMode protocol :
       {ProtocolMode::kOmniLedger, ProtocolMode::kRapidChain}) {
    HookRecorder sequential_hooks, parallel_hooks;
    sim::SimConfig config = base_config(protocol);

    config.observers = {&sequential_hooks};
    const sim::SimResult sequential = run_sequential(config, "OptChain", txs);
    config.observers = {&parallel_hooks};
    const sim::SimResult parallel = run_parallel(config, 4, "OptChain", txs);

    expect_bit_identical(sequential, parallel);
    ASSERT_EQ(parallel_hooks.entries.size(), sequential_hooks.entries.size());
    EXPECT_EQ(parallel_hooks.entries, sequential_hooks.entries);
  }
}

// ------------------------------------------------------------- churn plans

// A scripted add + remove plan: the membership changes cut the lookahead
// windows, queues/mempools/ledger partitions migrate across workers, and
// the results (migration accounting and shard-change hooks included) stay
// bit-identical.
TEST(ParallelChurnTest, AddAndRemovePlansStayBitIdentical) {
  workload::BitcoinLikeGenerator generator({}, 7);
  const auto txs = generator.generate(2000);
  for (const char* method : {"OptChain", "ShardScheduler"}) {
    SCOPED_TRACE(method);
    HookRecorder sequential_hooks, parallel_hooks;
    sim::SimConfig config = base_config(ProtocolMode::kOmniLedger);
    config.num_shards = 6;
    config.tx_rate_tps = 500.0;
    config.commit_window_s = 2.0;
    config.churn.events = {
        {1.0, sim::ChurnKind::kRemoveShard, sim::ShardChurnEvent::kAutoShard},
        {2.0, sim::ChurnKind::kAddShard, 0},
        {2.5, sim::ChurnKind::kRemoveShard, sim::ShardChurnEvent::kAutoShard},
    };

    config.observers = {&sequential_hooks};
    const sim::SimResult sequential = run_sequential(config, method, txs);
    config.observers = {&parallel_hooks};
    const sim::SimResult parallel = run_parallel(config, 4, method, txs);

    EXPECT_EQ(sequential.shard_changes, 3u);
    expect_bit_identical(sequential, parallel);
    EXPECT_EQ(parallel_hooks.entries, sequential_hooks.entries);
  }
}

// ------------------------------------------------------ abort path

// Injected double spends drive the abort path, and a shard slowed 25x keeps
// the transactions it touches in flight while thousands of later ones
// settle, so the sequential engine's in-flight window grows around live
// records. OmniLedger placement does not route around the slow shard. Each
// conflict re-spends the inputs of one of the last 8 arrivals, and 20 ms of
// per-link jitter lets the two contenders reach their input shards in
// different orders: both then abort, and the locks each won are released by
// unlock-to-abort. No churn: churn with injected double spends is outside
// the contract (see sim/parallel/parallel_simulation.hpp).
TEST(ParallelAbortPathTest, DoubleSpendsBehindASlowShardStayBitIdentical) {
  workload::BitcoinLikeGenerator generator({}, kStreamSeed);
  const workload::ConflictStream injected = workload::inject_double_spends(
      generator.generate(20000), 0.02, kStreamSeed + 1, /*window=*/8);
  ASSERT_GT(injected.num_conflicts, 0u);
  for (ProtocolMode protocol :
       {ProtocolMode::kOmniLedger, ProtocolMode::kRapidChain}) {
    SCOPED_TRACE(protocol == ProtocolMode::kOmniLedger ? "omni" : "rapid");
    sim::SimConfig config = base_config(protocol);
    config.shard_slowdown = {1.0, 1.0, 1.0, 25.0};
    config.fabric.enabled = true;
    config.fabric.max_jitter_s = 0.020;
    const sim::SimResult sequential =
        run_sequential(config, "OmniLedger", injected.transactions);
    EXPECT_TRUE(sequential.completed);
    // Without a race only the later contender aborts. More aborts than
    // conflicts means some pairs both lost, so unlock-to-abort ran.
    EXPECT_GT(sequential.aborted_txs, injected.num_conflicts);
    for (std::uint32_t jobs : {1u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      expect_bit_identical(sequential,
                           run_parallel(config, jobs, "OmniLedger",
                                        injected.transactions));
    }
  }
}

// ------------------------------------------------------ trace replay

// A windowed trace replay ([500, 2500) of an on-disk stream) through both
// engines: the streamed TxSource path and the window's synthesized external
// fundings behave identically.
TEST(ParallelTraceTest, WindowedTraceReplayStaysBitIdentical) {
  const auto txs = stream();
  const std::string path = ::testing::TempDir() + "/parallel_replay.optx";
  {
    trace::TraceWriter writer(path, {.chunk_capacity = 256});
    for (const tx::Transaction& transaction : txs) writer.append(transaction);
    ASSERT_EQ(writer.finish(), txs.size());
  }
  constexpr std::uint64_t kBegin = 500;
  constexpr std::uint64_t kEnd = 2500;
  const sim::SimConfig config = base_config(ProtocolMode::kOmniLedger);

  trace::TraceTxSource sequential_source(path, kBegin, kEnd);
  api::PlacementPipeline sequential_pipeline = api::make_pipeline(
      "OptChain", config.num_shards, {}, 1, {}, kEnd - kBegin);
  sim::Simulation sequential_sim(config);
  const sim::SimResult sequential =
      sequential_sim.run(sequential_source, sequential_pipeline);

  trace::TraceTxSource parallel_source(path, kBegin, kEnd);
  api::PlacementPipeline parallel_pipeline = api::make_pipeline(
      "OptChain", config.num_shards, {}, 1, {}, kEnd - kBegin);
  ParallelSimulation parallel_sim(config, 4);
  const sim::SimResult parallel =
      parallel_sim.run(parallel_source, parallel_pipeline);

  EXPECT_TRUE(sequential.completed);
  expect_bit_identical(sequential, parallel);
}

// ------------------------------------------------------------ API seam

// RunSpec::sim_jobs selects the engine behind api::simulate without
// touching the results — the whole point of the seam.
TEST(ParallelRunSpecTest, SimJobsIsASpeedKnobNotASemanticsKnob) {
  const auto txs = stream();
  api::RunSpec spec;
  spec.method = "OptChain";
  spec.num_shards = 8;
  spec.rate_tps = 1000.0;
  spec.commit_window_s = 10.0;

  const api::RunReport sequential = api::simulate(spec, txs);
  spec.sim_jobs = 4;
  const api::RunReport parallel = api::simulate(spec, txs);

  ASSERT_TRUE(sequential.sim.has_value() && parallel.sim.has_value());
  EXPECT_EQ(parallel.shard_sizes, sequential.shard_sizes);
  expect_bit_identical(*sequential.sim, *parallel.sim);
}

// --------------------------------------------------------- engine basics

// Same validation point as the sequential engine: a zero interval would
// reschedule the queue sample at one instant forever.
TEST(ParallelEngineDeathTest, NonPositiveQueueSampleIntervalRejected) {
  for (const double interval :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    sim::SimConfig config = base_config(ProtocolMode::kOmniLedger);
    config.queue_sample_interval_s = interval;
    EXPECT_DEATH((ParallelSimulation{config, 2}), "queue_sample_interval_s")
        << interval;
  }
}

TEST(ParallelEngineTest, ReportsItsConfiguration) {
  const sim::SimConfig config = base_config(ProtocolMode::kOmniLedger);
  ParallelSimulation simulation(config, 3);
  EXPECT_EQ(simulation.jobs(), 3u);
  EXPECT_EQ(simulation.config().num_shards, config.num_shards);
}

// The parallel engine still fills event_heap_peak and the per-shard event
// counts; the counts match the sequential engine (contractual), the peak is
// merely positive and no deeper than the sequential global heap's.
TEST(ParallelEngineTest, HeapDiagnosticsAreSane) {
  const auto txs = stream();
  const sim::SimConfig config = base_config(ProtocolMode::kOmniLedger);
  const sim::SimResult sequential = run_sequential(config, "OptChain", txs);
  const sim::SimResult parallel = run_parallel(config, 4, "OptChain", txs);
  EXPECT_GT(parallel.event_heap_peak, 0u);
  EXPECT_LE(parallel.event_heap_peak, sequential.event_heap_peak);
  EXPECT_EQ(parallel.shard_event_counts, sequential.shard_event_counts);
}

}  // namespace
}  // namespace optchain
