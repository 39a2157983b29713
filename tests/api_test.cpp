// Tests for the optchain::api layer: PlacerRegistry round-trips, the
// PlacementPipeline's equivalence with the hand-rolled driving loop it
// replaced, warm-start/preview semantics, the agreement of every way of
// feeding it a stream (whole span, span slices, pull source), and the
// RunReport CSV output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "api/placer_registry.hpp"
#include "api/run_spec.hpp"
#include "core/optchain_placer.hpp"
#include "placement/random_placer.hpp"
#include "stats/metrics.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tx_source.hpp"

namespace optchain::api {
namespace {

std::vector<tx::Transaction> stream(std::size_t n, std::uint64_t seed = 7) {
  workload::BitcoinLikeGenerator generator({}, seed);
  return generator.generate(n);
}

// ------------------------------------------------------------- registry

TEST(PlacerRegistryTest, EveryBuiltinNameConstructs) {
  const auto txs = stream(500);
  PlacerRegistry& registry = PlacerRegistry::instance();
  const std::vector<std::string> names = registry.names();
  ASSERT_GE(names.size(), 7u);
  for (const std::string& name : names) {
    graph::TanDag dag;
    const PlacerContext context{dag, 4, 1, txs, {}};
    const auto placer = registry.make(name, context);
    ASSERT_NE(placer, nullptr) << name;
  }
}

TEST(PlacerRegistryTest, ExpectedLineUpIsRegistered) {
  PlacerRegistry& registry = PlacerRegistry::instance();
  for (const char* name :
       {"OptChain", "T2S", "Greedy", "OmniLedger", "LeastLoaded", "Static",
        "Metis", "Random"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
}

TEST(PlacerRegistryTest, LookupIsCaseInsensitive) {
  const auto txs = stream(100);
  graph::TanDag dag;
  const PlacerContext context{dag, 4, 1, txs, {}};
  const auto placer = PlacerRegistry::instance().make("optchain", context);
  EXPECT_EQ(placer->name(), "OptChain");
  // The CLI's historical lowercase "random" alias keeps working.
  EXPECT_EQ(PlacerRegistry::instance().make("random", context)->name(),
            "OmniLedger");
}

TEST(PlacerRegistryTest, UnknownNameThrowsListingKnownNames) {
  graph::TanDag dag;
  const PlacerContext context{dag, 4, 1, {}, {}};
  try {
    PlacerRegistry::instance().make("NoSuchMethod", context);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("NoSuchMethod"), std::string::npos);
    EXPECT_NE(message.find("OptChain"), std::string::npos);
    EXPECT_NE(message.find("Metis"), std::string::npos);
  }
}

TEST(PlacerRegistryTest, RegistrationHookPlugsInWithoutDriverChanges) {
  // A strategy registered at runtime is immediately constructible by name —
  // the seam future protocols plug into.
  PlacerRegistry registry;  // fresh, no built-ins
  register_builtin_placers(registry);
  registry.register_placer("PinToZero", [](const PlacerContext&) {
    class PinToZero final : public placement::Placer {
      placement::ShardId choose(const placement::PlacementRequest&,
                                const placement::ShardAssignment&) override {
        return 0;
      }
      std::string_view name() const noexcept override { return "PinToZero"; }
    };
    return std::make_unique<PinToZero>();
  });
  graph::TanDag dag;
  const PlacerContext context{dag, 4, 1, {}, {}};
  EXPECT_EQ(registry.make("pintozero", context)->name(), "PinToZero");
  EXPECT_EQ(registry.names().back(), "PinToZero");
}

TEST(PlacerRegistryTest, StreamDependentMethodsFailCleanlyWithoutStream) {
  // Metis cannot partition and Static has nothing to replay: both must
  // throw a catchable error instead of aborting mid-stream.
  graph::TanDag dag;
  const PlacerContext context{dag, 4, 1, {}, {}};
  EXPECT_THROW(PlacerRegistry::instance().make("Metis", context),
               std::invalid_argument);
  EXPECT_THROW(PlacerRegistry::instance().make("Static", context),
               std::invalid_argument);
}

TEST(PlacerRegistryTest, StaticReplaysProvidedPartition) {
  const auto txs = stream(50);
  const std::vector<std::uint32_t> parts(txs.size(), 3);
  PlacementPipeline pipeline =
      make_pipeline("Static", 4, txs, 1, parts);
  pipeline.place_stream(txs);
  for (std::uint64_t i = 0; i < pipeline.total(); ++i) {
    ASSERT_EQ(pipeline.assignment().shard_of(static_cast<tx::TxIndex>(i)),
              3u);
  }
}

// ------------------------------------------------------------- pipeline

/// The exact hand-rolled loop the pipeline replaced (pre-refactor
/// bench_common::run_placement): any divergence is an API regression.
struct HandRolled {
  graph::TanDag dag;
  placement::ShardAssignment assignment;
  stats::CrossTxCounter counter;

  explicit HandRolled(std::uint32_t k) : assignment(k) {}

  void run(std::span<const tx::Transaction> txs, placement::Placer& placer) {
    for (const auto& transaction : txs) {
      const auto inputs = transaction.distinct_input_txs();
      dag.add_node(inputs);
      placement::PlacementRequest request;
      request.index = transaction.index;
      request.input_txs = inputs;
      request.hash64 = transaction.txid().low64();
      const placement::ShardId shard = placer.choose(request, assignment);
      assignment.record(transaction.index, shard);
      placer.notify_placed(request, shard);
      if (!transaction.is_coinbase()) {
        counter.record(assignment.is_cross_shard(inputs, shard));
      }
    }
  }
};

TEST(PlacementPipelineTest, MatchesHandRolledLoopForOptChain) {
  const auto txs = stream(8000, 11);
  const std::uint32_t k = 8;

  HandRolled reference(k);
  graph::TanDag& ref_dag = reference.dag;
  core::OptChainPlacer ref_placer(ref_dag);
  reference.run(txs, ref_placer);

  PlacementPipeline pipeline = make_pipeline("OptChain", k, txs);
  const StreamOutcome outcome = pipeline.place_stream(txs);

  ASSERT_EQ(pipeline.total(), txs.size());
  for (const auto& transaction : txs) {
    ASSERT_EQ(pipeline.assignment().shard_of(transaction.index),
              reference.assignment.shard_of(transaction.index))
        << "diverged at tx " << transaction.index;
  }
  EXPECT_EQ(outcome.total, reference.counter.total());
  EXPECT_EQ(outcome.cross, reference.counter.cross());
  EXPECT_DOUBLE_EQ(outcome.fraction(), reference.counter.fraction());
}

TEST(PlacementPipelineTest, MatchesHandRolledLoopForHashPlacement) {
  const auto txs = stream(4000, 3);
  const std::uint32_t k = 16;

  HandRolled reference(k);
  placement::RandomPlacer ref_placer;
  reference.run(txs, ref_placer);

  PlacementPipeline pipeline(k, std::make_unique<placement::RandomPlacer>());
  const StreamOutcome outcome = pipeline.place_stream(txs);

  for (const auto& transaction : txs) {
    ASSERT_EQ(pipeline.assignment().shard_of(transaction.index),
              reference.assignment.shard_of(transaction.index));
  }
  EXPECT_DOUBLE_EQ(outcome.fraction(), reference.counter.fraction());
}

TEST(PlacementPipelineTest, WarmStartForcesAndExcludesFromCount) {
  const auto txs = stream(2000, 5);
  const std::uint32_t k = 4;
  std::vector<std::uint32_t> warm(500);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    warm[i] = static_cast<std::uint32_t>(i % k);
  }

  PlacementPipeline pipeline = make_pipeline("T2S", k, txs);
  const StreamOutcome outcome = pipeline.place_stream(txs, warm);

  // Forced prefix is replayed verbatim...
  for (std::size_t i = 0; i < warm.size(); ++i) {
    ASSERT_EQ(pipeline.assignment().shard_of(static_cast<tx::TxIndex>(i)),
              warm[i]);
  }
  // ...and only the tail is counted.
  std::uint64_t tail_non_coinbase = 0;
  for (const auto& transaction : txs) {
    if (transaction.index >= warm.size() && !transaction.is_coinbase()) {
      ++tail_non_coinbase;
    }
  }
  EXPECT_EQ(outcome.total, tail_non_coinbase);
}

TEST(PlacementPipelineTest, PreviewDoesNotRecordAndStepCommits) {
  const auto txs = stream(300, 9);
  PlacementPipeline pipeline = make_pipeline("OptChain", 4, txs);
  for (const auto& transaction : txs) {
    const placement::ShardId previewed = pipeline.preview(transaction);
    EXPECT_EQ(pipeline.total(), transaction.index);  // nothing recorded
    const StepResult placed = pipeline.step(transaction);
    // Same request, same state: the committed decision matches the preview,
    // and the TaN node was not registered twice.
    EXPECT_EQ(placed.shard, previewed);
    EXPECT_EQ(pipeline.dag().num_nodes(), transaction.index + 1u);
  }
}

// ------------------------------------------------ streamed entry points

/// A pipeline and its cumulative outcome after one way of feeding a stream.
struct Placed {
  PlacementPipeline pipeline;
  StreamOutcome outcome;
};

/// place_stream(span) over `txs` cut into `slice`-transaction spans on one
/// pipeline, summing the per-call outcomes. A slice as long as the stream
/// is the whole-stream call.
Placed place_in_slices(const std::string& method, std::uint32_t k,
                       std::span<const tx::Transaction> txs, std::size_t slice,
                       std::span<const std::uint32_t> warm_parts = {}) {
  Placed placed{make_pipeline(method, k, txs), {}};
  for (std::size_t begin = 0; begin < txs.size(); begin += slice) {
    const StreamOutcome part = placed.pipeline.place_stream(
        txs.subspan(begin, std::min(slice, txs.size() - begin)), warm_parts);
    placed.outcome.total += part.total;
    placed.outcome.cross += part.cross;
    placed.outcome.shard_sizes = part.shard_sizes;
  }
  return placed;
}

/// place_stream(TxSource&) over a SpanTxSource of `txs`.
Placed place_from_source(const std::string& method, std::uint32_t k,
                         std::span<const tx::Transaction> txs,
                         std::span<const std::uint32_t> warm_parts = {}) {
  Placed placed{make_pipeline(method, k, txs), {}};
  workload::SpanTxSource source(txs);
  placed.outcome = placed.pipeline.place_stream(source, warm_parts);
  return placed;
}

/// Bitwise comparison: outcome aggregates, every per-transaction decision,
/// and (for the OptChain family) every stored p' score entry.
void expect_identical(const Placed& expected, const Placed& actual,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(expected.outcome.total, actual.outcome.total);
  EXPECT_EQ(expected.outcome.cross, actual.outcome.cross);
  EXPECT_EQ(expected.outcome.shard_sizes, actual.outcome.shard_sizes);
  ASSERT_EQ(expected.pipeline.total(), actual.pipeline.total());
  for (std::uint64_t u = 0; u < expected.pipeline.total(); ++u) {
    const auto index = static_cast<tx::TxIndex>(u);
    ASSERT_EQ(expected.pipeline.assignment().shard_of(index),
              actual.pipeline.assignment().shard_of(index))
        << "tx " << u << " diverged";
  }
  // OptChain and T2S: a reassociated gather or a drifted divisor shows up
  // in the stored vectors even when the argmax happened to agree.
  const auto* expected_placer =
      dynamic_cast<const core::OptChainPlacer*>(&expected.pipeline.placer());
  const auto* actual_placer =
      dynamic_cast<const core::OptChainPlacer*>(&actual.pipeline.placer());
  ASSERT_EQ(expected_placer == nullptr, actual_placer == nullptr);
  if (expected_placer == nullptr) return;
  const core::ScorePool& a = expected_placer->scorer().pool();
  const core::ScorePool& b = actual_placer->scorer().pool();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.total_entries(), b.total_entries());
  for (std::uint32_t node = 0; node < a.num_nodes(); ++node) {
    const auto x = a.vector_of(node);
    const auto y = b.vector_of(node);
    ASSERT_EQ(x.size(), y.size()) << "node " << node;
    for (std::size_t e = 0; e < x.size(); ++e) {
      ASSERT_EQ(x[e].shard, y[e].shard) << "node " << node << " entry " << e;
      // Exact bit equality, not EXPECT_DOUBLE_EQ.
      ASSERT_EQ(x[e].value, y[e].value) << "node " << node << " entry " << e;
    }
  }
}

TEST(PlacementPipelineTest, EveryEntryPointPlacesEveryPlacerIdentically) {
  // 1200 transactions: two full 512-tx slices and a partial one.
  const auto txs = stream(1200, 20260808);
  const std::vector<std::string> methods = PlacerRegistry::instance().names();
  ASSERT_FALSE(methods.empty());
  for (const std::string& method : methods) {
    for (const std::uint32_t k : {3u, 16u, 64u}) {
      const std::string label = method + " k=" + std::to_string(k);
      const Placed whole = place_in_slices(method, k, txs, txs.size());
      for (const std::size_t slice : {512u, 7u, 1u}) {
        expect_identical(whole, place_in_slices(method, k, txs, slice),
                         label + " slice=" + std::to_string(slice));
      }
      expect_identical(whole, place_from_source(method, k, txs),
                       label + " SpanTxSource");
    }
  }
}

TEST(PlacementPipelineTest, WarmPrefixAcrossSliceBoundariesPlacesIdentically) {
  // Table II-style warm start: the first quarter is force-placed round-robin
  // and ends inside a slice for every slice length below.
  const auto txs = stream(1200, 20260808);
  std::vector<std::uint32_t> warm(txs.size() / 4);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    warm[i] = static_cast<std::uint32_t>(i % 8);
  }
  const Placed whole = place_in_slices("OptChain", 8, txs, txs.size(), warm);
  for (const std::size_t slice : {128u, 7u}) {
    expect_identical(whole, place_in_slices("OptChain", 8, txs, slice, warm),
                     "slice=" + std::to_string(slice));
  }
  expect_identical(whole, place_from_source("OptChain", 8, txs, warm),
                   "SpanTxSource");
  std::uint64_t counted = 0;
  for (std::size_t i = warm.size(); i < txs.size(); ++i) {
    if (!txs[i].is_coinbase()) ++counted;
  }
  EXPECT_EQ(whole.outcome.total, counted);
}

TEST(PlacementPipelineTest, StepReportsProtocolFacts) {
  // Two pinned coinbases then a spender of both: the step must report the
  // cross flag and the exact input-shard set the protocol has to lock.
  std::vector<tx::Transaction> txs(3);
  txs[0].index = 0;
  txs[0].outputs = {{50, 0}};
  txs[1].index = 1;
  txs[1].outputs = {{50, 1}};
  txs[2].index = 2;
  txs[2].inputs = {{0, 0}, {1, 0}};
  txs[2].outputs = {{100, 2}};

  const std::vector<std::uint32_t> parts{0, 1, 0};
  PlacementPipeline pipeline = make_pipeline("Static", 2, txs, 1, parts);
  const StepResult a = pipeline.step(txs[0]);
  EXPECT_TRUE(a.coinbase);
  EXPECT_FALSE(a.cross);
  EXPECT_FALSE(a.counted);
  EXPECT_TRUE(a.input_shards.empty());

  pipeline.step(txs[1]);
  const StepResult c = pipeline.step(txs[2]);
  EXPECT_FALSE(c.coinbase);
  EXPECT_TRUE(c.cross);
  EXPECT_TRUE(c.counted);
  EXPECT_EQ(c.input_shards, (std::vector<placement::ShardId>{0, 1}));
  EXPECT_EQ(pipeline.cross_counter().total(), 1u);
  EXPECT_EQ(pipeline.cross_counter().cross(), 1u);
}

// -------------------------------------------------------- RunSpec/Report

TEST(RunReportTest, CsvGoldenOutput) {
  RunReport report;
  report.method = "OptChain";
  report.num_shards = 2;
  report.total = 10;
  report.cross = 3;
  report.shard_sizes = {7, 5};

  const std::string expected =
      "metric,value\n"
      "method,OptChain\n"
      "shards,2\n"
      "transactions counted,10\n"
      "cross-shard,3\n"
      "cross-shard fraction,30.00 %\n"
      "shard 0 txs,7\n"
      "shard 1 txs,5\n";
  EXPECT_EQ(report.to_csv(), expected);
}

TEST(RunReportTest, PlaceReportsSameFractionAsPipeline) {
  const auto txs = stream(3000, 21);
  RunSpec spec;
  spec.method = "T2S";
  spec.num_shards = 8;
  const RunReport report = place(spec, txs);

  PlacementPipeline pipeline = make_pipeline("T2S", 8, txs);
  const StreamOutcome outcome = pipeline.place_stream(txs);
  EXPECT_EQ(report.total, outcome.total);
  EXPECT_EQ(report.cross, outcome.cross);
  EXPECT_EQ(report.shard_sizes, outcome.shard_sizes);
  EXPECT_EQ(report.method, "T2S");
}

TEST(RunReportTest, SimulateFillsSimResult) {
  const auto txs = stream(2000, 31);
  RunSpec spec;
  spec.method = "OmniLedger";
  spec.num_shards = 4;
  spec.rate_tps = 500.0;
  const RunReport report = simulate(spec, txs);
  ASSERT_TRUE(report.sim.has_value());
  EXPECT_TRUE(report.sim->completed);
  EXPECT_EQ(report.sim->committed_txs + report.sim->aborted_txs, txs.size());
  EXPECT_EQ(report.method, "OmniLedger");
  // The placement-side accounting flows through to the report.
  EXPECT_GT(report.total, 0u);
  const TextTable table = report.to_table();
  EXPECT_GT(table.rows(), 10u);
}

// Bad operating points fail with std::invalid_argument naming the field,
// on both simulate() overloads, before anything that would abort on them
// is built: ShardAssignment on zero shards, WindowCounter on a zero commit
// window, ShardNode on a zero slowdown. Both place() overloads reject a zero
// shard count the same way (make_pipeline checks it).
TEST(RunReportTest, SimulateRejectsBadConfigsNamingTheField) {
  const auto txs = stream(300);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct BadSpec {
    const char* field;
    std::function<void(RunSpec&)> apply;
  };
  const BadSpec cases[] = {
      {"commit_window_s", [](RunSpec& s) { s.commit_window_s = 0.0; }},
      {"shard_slowdown[0]", [](RunSpec& s) { s.shard_slowdown = {0.0}; }},
      {"tx_rate_tps", [nan](RunSpec& s) { s.rate_tps = nan; }},
      {"tx_rate_tps", [](RunSpec& s) { s.rate_tps = -5.0; }},
      {"num_shards", [](RunSpec& s) { s.num_shards = 0; }},
      {"queue_sample_interval_s",
       [nan](RunSpec& s) { s.queue_sample_interval_s = nan; }},
      {"leader_fault_rate", [](RunSpec& s) { s.leader_fault_rate = 2.0; }},
      {"max_jitter_s", [](RunSpec& s) { s.fabric.max_jitter_s = -0.5; }},
      {"max_jitter_s", [nan](RunSpec& s) { s.fabric.max_jitter_s = nan; }},
  };
  const auto expect_named = [](const char* field, const auto& run) {
    try {
      run();
      ADD_FAILURE() << field << ": no error";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  for (const BadSpec& bad : cases) {
    RunSpec spec;
    spec.method = "OptChain";
    spec.num_shards = 4;
    spec.rate_tps = 500.0;
    bad.apply(spec);
    expect_named(bad.field, [&] { simulate(spec, txs); });
    expect_named(bad.field, [&] {
      workload::SpanTxSource source(txs);
      simulate(spec, source);
    });
  }
  RunSpec spec;
  spec.num_shards = 0;
  expect_named("num_shards", [&] { place(spec, txs); });
  expect_named("num_shards", [&] {
    workload::SpanTxSource source(txs);
    place(spec, source);
  });
}

}  // namespace
}  // namespace optchain::api
