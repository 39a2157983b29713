// Tests for the online re-partitioning subsystem (sim/repartition.hpp):
// controller cadence and budget semantics, deferred-migration accounting
// (budget-starved plans drain across consecutive events before any
// recompute), the Fennel streaming baseline's balance/quality bounds,
// repartition × churn interleaving, double spends racing re-partition
// moves, sweep-level determinism, and the ScenarioSpec rejections
// (placement mode; warm_ratio — the Metis warm prefix assumes a static
// assignment). Whole repartition runs are pinned in
// tests/sim_fingerprint_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "api/placer_registry.hpp"
#include "api/run_spec.hpp"
#include "api/scenario_spec.hpp"
#include "api/sweep_runner.hpp"
#include "sim/fabric/fabric.hpp"
#include "sim/repartition.hpp"
#include "sim/shard_churn.hpp"
#include "sim/sim_observer.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/conflict_injector.hpp"

namespace optchain {
namespace {

std::vector<tx::Transaction> stream(std::size_t n = 3000,
                                    std::uint64_t seed = 17) {
  workload::BitcoinLikeGenerator generator({}, seed);
  return generator.generate(n);
}

// ------------------------------------------------------------- config

TEST(RepartitionConfigTest, ValidateRejectsNegativeIntervalOnly) {
  sim::RepartitionConfig config;
  EXPECT_FALSE(config.enabled());  // interval 0 disables
  EXPECT_NO_THROW(config.validate());
  config.interval_s = 2.5;
  EXPECT_TRUE(config.enabled());
  EXPECT_NO_THROW(config.validate());
  config.interval_s = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ------------------------------------------------------- controller unit

/// Hash placement scatters the TaN, so a Metis pass always finds a large
/// move set — the plan is guaranteed non-trivial.
api::PlacementPipeline scattered_pipeline(const std::vector<tx::Transaction>&
                                              txs) {
  api::PlacementPipeline pipeline = api::make_pipeline("OmniLedger", 4, txs);
  pipeline.place_stream(txs);
  return pipeline;
}

TEST(RepartitionControllerTest, UnlimitedBudgetAppliesTheWholePlan) {
  const auto txs = stream();
  api::PlacementPipeline pipeline = scattered_pipeline(txs);
  sim::RepartitionConfig config;
  config.interval_s = 1.0;
  config.seed = 3;
  sim::RepartitionController controller(config);

  const sim::RepartitionOutcome outcome = controller.step(pipeline);
  EXPECT_GT(outcome.applied.size(), 0u);
  EXPECT_EQ(outcome.deferred, 0u);
  EXPECT_EQ(controller.pending(), 0u);
  for (const sim::RepartitionMove& move : outcome.applied) {
    EXPECT_NE(move.from, move.to);
    // The record actually moved: the assignment now agrees with the plan.
    EXPECT_EQ(pipeline.assignment().shard_of(move.tx), move.to);
  }
}

TEST(RepartitionControllerTest, BudgetDefersAndDrainsBeforeRecompute) {
  const auto txs = stream();
  api::PlacementPipeline pipeline = scattered_pipeline(txs);
  sim::RepartitionConfig config;
  config.interval_s = 1.0;
  config.budget = 40;
  config.seed = 3;
  sim::RepartitionController controller(config);

  const sim::RepartitionOutcome first = controller.step(pipeline);
  ASSERT_EQ(first.applied.size(), 40u);  // plan >> budget for hash placement
  ASSERT_GT(first.deferred, 0u);
  EXPECT_EQ(first.deferred, controller.pending());

  // The next event drains the *same* plan — without churn no move goes
  // stale, so the pending count shrinks by exactly the applied count and
  // every move still lands where the plan said.
  const sim::RepartitionOutcome second = controller.step(pipeline);
  EXPECT_EQ(second.applied.size(),
            std::min<std::uint64_t>(40u, first.deferred));
  EXPECT_EQ(second.deferred, first.deferred - second.applied.size());

  // Drain to empty: the total applied across events equals the plan size.
  std::uint64_t applied = first.applied.size() + second.applied.size();
  std::uint64_t guard = 0;
  while (controller.pending() > 0 && ++guard < 1000) {
    applied += controller.step(pipeline).applied.size();
  }
  EXPECT_EQ(controller.pending(), 0u);
  EXPECT_GT(applied, 40u);
}

TEST(RepartitionControllerTest, PlansAreSeedDeterministic) {
  const auto txs = stream();
  sim::RepartitionConfig config;
  config.interval_s = 1.0;
  config.seed = 11;
  for (int round = 0; round < 2; ++round) {
    api::PlacementPipeline a = scattered_pipeline(txs);
    api::PlacementPipeline b = scattered_pipeline(txs);
    sim::RepartitionController first(config);
    sim::RepartitionController second(config);
    const auto out_a = first.step(a);
    const auto out_b = second.step(b);
    ASSERT_EQ(out_a.applied.size(), out_b.applied.size());
    for (std::size_t i = 0; i < out_a.applied.size(); ++i) {
      EXPECT_EQ(out_a.applied[i].tx, out_b.applied[i].tx);
      EXPECT_EQ(out_a.applied[i].to, out_b.applied[i].to);
    }
  }
}

// --------------------------------------------------- simulation cadence

/// Records every on_repartition callback.
struct RepartitionRecorder final : sim::SimObserver {
  struct Entry {
    double time;
    std::uint64_t migrated_txs;
    std::uint64_t migrated_utxos;
    std::uint64_t deferred_txs;
  };

  void on_repartition(double time, std::uint64_t migrated_txs,
                      std::uint64_t migrated_utxos,
                      std::uint64_t deferred_txs) override {
    entries.push_back({time, migrated_txs, migrated_utxos, deferred_txs});
  }

  std::vector<Entry> entries;
};

api::RunSpec repartition_run_spec(const std::string& method) {
  api::RunSpec spec;
  spec.method = method;
  spec.num_shards = 6;
  spec.seed = 7;
  spec.rate_tps = 1000.0;
  spec.commit_window_s = 2.0;
  spec.repartition.interval_s = 0.5;
  spec.repartition.budget = 60;
  return spec;
}

TEST(RepartitionSimulationTest, EventsFireOnCadenceUnderBudget) {
  const auto txs = stream(3000, 7);  // 3 s of issue at 1000 tps
  RepartitionRecorder recorder;
  api::RunSpec spec = repartition_run_spec("OmniLedger");
  spec.observers = {&recorder};
  const api::RunReport report = api::simulate(spec, txs);
  ASSERT_TRUE(report.sim.has_value());
  const sim::SimResult& result = *report.sim;
  EXPECT_TRUE(result.completed);

  // Cadence: ticks at exact interval multiples, first at 0.5, strictly
  // increasing, and they fire even when the plan is empty.
  ASSERT_GE(recorder.entries.size(), 4u);
  for (std::size_t i = 0; i < recorder.entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(recorder.entries[i].time,
                     0.5 * static_cast<double>(i + 1));
  }

  // Budget: no event migrates more than the cap; the hash placement keeps
  // the controller busy enough that deferral is actually exercised.
  std::uint64_t moved = 0, moved_utxos = 0, deferred = 0, max_applied = 0;
  for (const auto& entry : recorder.entries) {
    EXPECT_LE(entry.migrated_txs, 60u);
    max_applied = std::max(max_applied, entry.migrated_txs);
    moved += entry.migrated_txs;
    moved_utxos += entry.migrated_utxos;
    deferred += entry.deferred_txs;
  }
  EXPECT_EQ(max_applied, 60u);
  EXPECT_GT(deferred, 0u);

  // Deferred-plan chaining: while a plan is pending the next event drains
  // it (no recompute), so consecutive deferred counts shrink by exactly the
  // next event's applied count.
  for (std::size_t i = 0; i + 1 < recorder.entries.size(); ++i) {
    if (recorder.entries[i].deferred_txs == 0) continue;
    EXPECT_EQ(recorder.entries[i + 1].deferred_txs,
              recorder.entries[i].deferred_txs -
                  recorder.entries[i + 1].migrated_txs)
        << "event " << i;
  }

  // Hook parity: SimResult's accounting equals the observer's sums.
  EXPECT_EQ(result.repartition_events, recorder.entries.size());
  EXPECT_EQ(result.repartition_migrated_txs, moved);
  EXPECT_EQ(result.repartition_migrated_utxos, moved_utxos);
  EXPECT_EQ(result.repartition_deferred_txs, deferred);
}

TEST(RepartitionSimulationTest, UnlimitedBudgetNeverDefers) {
  const auto txs = stream(2000, 7);
  api::RunSpec spec = repartition_run_spec("OmniLedger");
  spec.repartition.budget = 0;  // unlimited
  const api::RunReport report = api::simulate(spec, txs);
  ASSERT_TRUE(report.sim.has_value());
  EXPECT_GT(report.sim->repartition_events, 0u);
  EXPECT_GT(report.sim->repartition_migrated_txs, 0u);
  EXPECT_EQ(report.sim->repartition_deferred_txs, 0u);
}

// -------------------------------------------------- repartition × churn

TEST(RepartitionChurnTest, InterleavesWithChurnAndAvoidsRetiredShards) {
  const auto txs = stream(3000, 31);
  api::RunSpec spec = repartition_run_spec("OptChain");
  spec.churn.events = {
      {1.0, sim::ChurnKind::kRemoveShard, sim::ShardChurnEvent::kAutoShard},
      {2.0, sim::ChurnKind::kAddShard, 0},
  };

  struct ChangeRecorder final : sim::SimObserver {
    void on_shard_change(std::uint32_t shard, double /*time*/, bool joined,
                         std::uint64_t, std::uint64_t) override {
      if (!joined) retired.push_back(shard);
    }
    std::vector<std::uint32_t> retired;
  };

  ChangeRecorder changes;
  spec.observers = {&changes};
  const api::RunReport report = api::simulate(spec, txs);
  ASSERT_TRUE(report.sim.has_value());
  const sim::SimResult& result = *report.sim;
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.shard_changes, 2u);
  EXPECT_GT(result.repartition_events, 0u);
  EXPECT_GT(result.repartition_migrated_txs, 0u);
  // The controller never moves a record onto a retired shard: its final
  // size stays exactly zero after the bulk handoff.
  ASSERT_EQ(changes.retired.size(), 1u);
  EXPECT_EQ(result.final_shard_sizes[changes.retired[0]], 0u);
}

// --------------------------------------------- repartition × double spends

/// Records every committed transaction.
struct CommitRecorder final : sim::SimObserver {
  void on_commit(std::uint32_t tx, double /*time*/,
                 double /*latency_s*/) override {
    committed.push_back(tx);
  }
  std::vector<std::uint32_t> committed;
};

/// A re-partition move between a transaction's issue and its lock request
/// (or its same-shard delivery) must not leave an input that no shard
/// checks. Each input is checked at the shard its parent was on when the
/// transaction was issued, so no outpoint is spent by two committed
/// transactions and every injected conflict aborts at least one contender.
TEST(RepartitionConflictTest, NoOutpointIsSpentByTwoCommittedTransactions) {
  for (const bool churn : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(churn ? "churn + repartition" : "repartition") +
                   ", seed " + std::to_string(seed));
      const workload::ConflictStream injected = workload::inject_double_spends(
          stream(3000, seed), 0.03, seed, /*window=*/8);
      ASSERT_GT(injected.num_conflicts, 0u);
      api::RunSpec spec;
      spec.method = "OptChain";
      spec.num_shards = 6;
      spec.rate_tps = 500.0;
      spec.fabric = sim::fabric_preset("wan");
      spec.repartition.interval_s = 1.0;
      spec.repartition.budget = 200;
      if (churn) {
        spec.churn.events = {
            {2.0, sim::ChurnKind::kRemoveShard,
             sim::ShardChurnEvent::kAutoShard},
            {4.0, sim::ChurnKind::kAddShard, 0},
        };
      }
      CommitRecorder commits;
      spec.observers = {&commits};
      const api::RunReport report =
          api::simulate(spec, injected.transactions);
      ASSERT_TRUE(report.sim.has_value());
      EXPECT_TRUE(report.sim->completed);
      EXPECT_GT(report.sim->repartition_migrated_txs, 0u);

      std::unordered_map<std::uint64_t, std::uint32_t> spender;
      std::uint64_t double_spent = 0;
      for (const std::uint32_t tx : commits.committed) {
        for (const tx::OutPoint& point : injected.transactions[tx].inputs) {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(point.tx) << 32) | point.vout;
          if (!spender.emplace(key, tx).second) ++double_spent;
        }
      }
      EXPECT_EQ(double_spent, 0u);
      EXPECT_GE(report.sim->aborted_txs, injected.num_conflicts);
    }
  }
}

// ------------------------------------------------------ Fennel baseline

TEST(FennelPlacerTest, RegisteredBalancedAndBetterThanHashing) {
  EXPECT_TRUE(api::PlacerRegistry::instance().contains("Fennel"));
  EXPECT_TRUE(api::PlacerRegistry::instance().contains("fennel"));

  const auto txs = stream(4000, 11);
  api::PlacementPipeline pipeline = api::make_pipeline("Fennel", 8, txs);
  EXPECT_EQ(pipeline.method_name(), "Fennel");
  const api::StreamOutcome outcome = pipeline.place_stream(txs);

  std::uint64_t placed = 0, largest = 0;
  for (const std::uint64_t size : outcome.shard_sizes) {
    placed += size;
    largest = std::max(largest, size);
  }
  EXPECT_EQ(placed, txs.size());
  // The ν = 1.1 capacity cap bounds the heaviest shard at ν·n/k (one
  // placement of slack for the cap racing the final arrivals).
  EXPECT_LE(static_cast<double>(largest),
            1.1 * static_cast<double>(placed) / 8.0 + 1.0);
  // Quality: the neighborhood term keeps Fennel far below hash placement's
  // ~(1 - 1/k) ≈ 87.5% cross fraction at 8 shards.
  EXPECT_LT(outcome.fraction(), 0.6);
}

TEST(FennelPlacerTest, DeterministicAcrossRuns) {
  const auto txs = stream(2000, 13);
  api::PlacementPipeline a = api::make_pipeline("Fennel", 8, txs);
  api::PlacementPipeline b = api::make_pipeline("Fennel", 8, txs);
  const api::StreamOutcome out_a = a.place_stream(txs);
  const api::StreamOutcome out_b = b.place_stream(txs);
  EXPECT_EQ(out_a.cross, out_b.cross);
  EXPECT_EQ(out_a.shard_sizes, out_b.shard_sizes);
  for (tx::TxIndex i = 0; i < txs.size(); ++i) {
    ASSERT_EQ(a.assignment().shard_of(i), b.assignment().shard_of(i)) << i;
  }
}

// ------------------------------------------------- sweep-level plumbing

TEST(RepartitionSweepTest, ReportsAreBitIdenticalAtAnyJobCount) {
  api::ScenarioSpec spec;
  spec.name = "repartition-test";
  spec.methods = {"OptChain", "Fennel"};
  spec.shards = {4};
  spec.rates = {500.0};
  spec.seeds = {1, 2};
  spec.txs = 900;
  spec.commit_window_s = 2.0;
  spec.repartition.interval_s = 0.4;
  spec.repartition.budget = 50;

  const api::SweepReport serial = api::SweepRunner({.jobs = 1}).run(spec);
  const api::SweepReport parallel = api::SweepRunner({.jobs = 4}).run(spec);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());

  // The re-partition metrics are part of the emitted schema and non-trivial.
  EXPECT_NE(serial.to_csv().find("repartition_events_mean"),
            std::string::npos);
  JsonWriter json_writer;
  serial.write_json(json_writer);
  EXPECT_NE(json_writer.finish().find("repartition_migrated_txs"),
            std::string::npos);
  for (const api::CellReport& cell : serial.cells) {
    EXPECT_GT(cell.repartition_events.mean, 0.0);
  }
}

TEST(RepartitionScenarioTest, ExpandRejectsPlacementMode) {
  api::ScenarioSpec spec;
  spec.mode = api::RunMode::kPlace;
  spec.txs = 100;
  spec.repartition.interval_s = 1.0;
  EXPECT_THROW(spec.expand(), std::invalid_argument);
}

TEST(RepartitionScenarioTest, ExpandRejectsWarmRatioCombination) {
  api::ScenarioSpec spec;
  spec.mode = api::RunMode::kSimulate;
  spec.txs = 100;
  spec.warm_ratio = 2;
  spec.repartition.interval_s = 1.0;
  try {
    spec.expand();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    // The satellite regression: the error names the conflicting knob and
    // says why (the Metis warm prefix assumes a static assignment).
    EXPECT_NE(std::string(error.what()).find("warm"), std::string::npos);
  }
}

}  // namespace
}  // namespace optchain
