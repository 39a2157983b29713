// Micro-benchmarks (google-benchmark): per-operation costs of the hot paths.
// The paper's practicality argument (§IV.B) rests on the O(k·|Nin|) T2S
// update being cheap enough for wallet software; these benchmarks quantify
// it, along with the substrate costs.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>

#include "api/placement_pipeline.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/optchain_placer.hpp"
#include "latency/l2s_model.hpp"
#include "metis/kway_partitioner.hpp"
#include "placement/random_placer.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/tree_gossip.hpp"
#include "sim/tx_state.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tan_builder.hpp"

namespace {

using namespace optchain;

void BM_Sha256_512B(benchmark::State& state) {
  std::vector<std::uint8_t> data(512, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_Sha256_512B);

void BM_WorkloadGenerator(benchmark::State& state) {
  workload::BitcoinLikeGenerator generator({}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadGenerator);

/// Full OptChain placement step through the api::PlacementPipeline (TaN
/// registration + txid + T2S scoring + argmax + commit), per transaction,
/// across shard counts. Without timing data the argmax visits only the
/// shards in u's sparse score vector, O(|support|); what still grows with k
/// is normalize()'s zero-fill of the dense score vector. The pipeline is
/// stateful; when the prepared stream runs out, state resets outside the
/// timed region.
void BM_OptChainPlacement(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  workload::BitcoinLikeGenerator generator({}, 2);
  const auto txs = generator.generate(200000);

  const auto fresh_pipeline = [k] {
    return std::make_unique<api::PlacementPipeline>(
        k, [](const graph::TanDag& dag) {
          core::OptChainConfig config;
          config.l2s_weight = 0.0;
          return std::make_unique<core::OptChainPlacer>(dag, config);
        });
  };

  auto pipeline = fresh_pipeline();
  std::size_t i = 0;
  for (auto _ : state) {
    if (i >= txs.size()) {
      state.PauseTiming();
      pipeline = fresh_pipeline();
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(pipeline->step(txs[i]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OptChainPlacement)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_L2sScoreAll(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  std::vector<latency::ShardTiming> timings(k);
  Rng rng(3);
  for (auto& timing : timings) {
    timing.mean_comm = rng.uniform(0.05, 0.3);
    timing.mean_verify = rng.uniform(0.5, 8.0);
  }
  const std::vector<std::uint32_t> inputs{0, 1 % k, 2 % k};
  const latency::L2sEstimator estimator;
  std::vector<double> scores;
  for (auto _ : state) {
    estimator.relative_scores(timings, inputs, scores);
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L2sScoreAll)->Arg(4)->Arg(16)->Arg(64);

/// The proof-phase quadrature alone (E[max] over Arg input shards) — the
/// per-transaction constant relative_scores leaves out of the placer.
void BM_L2sExpectedMax(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<latency::ShardTiming> proof_set(n);
  Rng rng(3);
  for (auto& timing : proof_set) {
    timing.mean_comm = rng.uniform(0.05, 0.3);
    timing.mean_verify = rng.uniform(0.5, 8.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(latency::expected_max_two_phase(proof_set));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L2sExpectedMax)->Arg(2)->Arg(3);

struct NullHandler final : sim::EventHandler {
  void on_event(const sim::Event&) override {}
};

/// schedule + dispatch of one typed POD event (no allocation, no indirect
/// closure call). Arg = number of events already pending in the heap. The
/// event goes through the heap in front of all of them, so it sifts up to
/// the root and is popped straight back: the pattern the held slot spares
/// the engine's issue chain (BM_EventQueueHeldIssue).
void BM_EventQueue(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  NullHandler handler;
  double t = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule(1e12 + static_cast<double>(i), sim::Event::tx_issue(0));
  }
  for (auto _ : state) {
    queue.schedule(t + 1.0, sim::Event::tx_issue(0));
    queue.run_one(handler);
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueue)->Arg(0)->Arg(1024)->Arg(2048);

/// Shard messages at random delays (uniform in [0, 1) s): the heap traffic
/// left to the engine once issues are held.
struct RandomMessages {
  explicit RandomMessages(std::uint64_t seed) {
    Rng rng(seed);
    for (double& delay : delays) delay = rng.uniform(0.0, 1.0);
  }
  sim::Event next() {
    ++count;
    return sim::Event::deliver(sim::EventType::kTxDeliver,
                               static_cast<std::uint32_t>(count % 16),
                               static_cast<std::uint32_t>(count));
  }
  double delay() { return delays[count % delays.size()]; }

  std::array<double, 4096> delays{};
  std::uint64_t count = 0;
};

/// The engine's remaining heap traffic: Arg events pending at random delays,
/// each pop scheduling one replacement at a random delay. Items = pops.
void BM_EventQueueSteady(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  NullHandler handler;
  RandomMessages messages(11);
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule_in(messages.delay(), messages.next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.run_one(handler));
    queue.schedule_in(messages.delay(), messages.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteady)->Arg(2048);

/// BM_EventQueue's pattern through the held slot: an issue held in front
/// of Arg events pending at random delays, then dispatched.
void BM_EventQueueHeldIssue(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  NullHandler handler;
  RandomMessages messages(11);
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule(1e12 + messages.delay(), messages.next());
  }
  double t = 0.0;
  for (auto _ : state) {
    queue.schedule_chained(t + 1.0, sim::Event::tx_issue(0));
    benchmark::DoNotOptimize(queue.run_one(handler));
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHeldIssue)->Arg(0)->Arg(2048);

/// The sequential engine's lock/spend ledger (sim::ParentIndexedLedger) in
/// the engine's order over a generated 150k-transaction stream: each
/// transaction registers its output count, then its inputs are probed and
/// locked; a second pass spends every input. Items = inputs.
void BM_OutpointLedger(benchmark::State& state) {
  constexpr std::size_t kTxs = 150000;
  workload::BitcoinLikeGenerator generator({}, 6);
  const auto txs = generator.generate(kTxs);
  std::size_t inputs = 0;
  for (const tx::Transaction& transaction : txs) {
    inputs += transaction.inputs.size();
  }
  sim::ParentIndexedLedger ledger;
  for (auto _ : state) {
    state.PauseTiming();
    ledger.clear();
    ledger.reserve(kTxs);
    state.ResumeTiming();
    for (const tx::Transaction& transaction : txs) {
      ledger.register_outputs(
          transaction.index,
          static_cast<std::uint32_t>(transaction.outputs.size()));
      for (const tx::OutPoint& point : transaction.inputs) {
        benchmark::DoNotOptimize(ledger.find(point));
        ledger[point] = {sim::OutpointState::kLocked, transaction.index};
      }
    }
    for (const tx::Transaction& transaction : txs) {
      for (const tx::OutPoint& point : transaction.inputs) {
        ledger[point] = {sim::OutpointState::kSpent, transaction.index};
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs));
}
BENCHMARK(BM_OutpointLedger)->Unit(benchmark::kMillisecond);

/// The sequential engine's in-flight window at a fixed in-flight depth
/// (Arg): issue one transaction with its generated inputs (those with more
/// than four spill to the heap), walk the inputs of the oldest, settle it.
void BM_InflightWindow(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  workload::BitcoinLikeGenerator generator({}, 6);
  const auto txs = generator.generate(4096);
  sim::InflightWindow window;
  std::uint32_t next = 0;
  const auto issue = [&] {
    sim::Inflight& record = window.open(next);
    record.issue_time = static_cast<double>(next);
    for (const tx::OutPoint& point : txs[next % txs.size()].inputs) {
      record.inputs.push_back(point, point.tx % 16);
    }
    ++next;
  };
  while (next < depth) issue();
  for (auto _ : state) {
    issue();
    const std::uint32_t oldest = next - 1 - depth;
    std::uint32_t shards = 0;
    for (const sim::InflightInput& input : window.at(oldest).inputs) {
      shards += input.shard;
    }
    benchmark::DoNotOptimize(shards);
    window.erase(oldest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InflightWindow)->Arg(1024)->Arg(32768);

void BM_MetisPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::BitcoinLikeGenerator generator({}, 4);
  const auto txs = generator.generate(n);
  const graph::Csr undirected = workload::build_tan(txs).to_undirected();
  for (auto _ : state) {
    metis::PartitionConfig config;
    config.k = 16;
    benchmark::DoNotOptimize(metis::partition_kway(undirected, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MetisPartition)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

/// The O(k(|V|+|E|)) full recomputation the paper rejects (§IV.B), per
/// transaction — contrast with BM_OptChainPlacement's incremental O(k·|Nin|).
void BM_OfflineT2sRecompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::BitcoinLikeGenerator generator({}, 6);
  const auto txs = generator.generate(n);
  const graph::TanDag dag = workload::build_tan(txs);
  placement::ShardAssignment assignment(16);
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    assignment.record(static_cast<tx::TxIndex>(i),
                      static_cast<placement::ShardId>(rng.below(16)));
  }
  core::T2sConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::recompute_all_scores_dense(dag, assignment, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OfflineT2sRecompute)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// Message-level tree-gossip consensus round vs the closed-form model.
void BM_TreeGossipRound(benchmark::State& state) {
  const auto committee = static_cast<std::uint32_t>(state.range(0));
  sim::NetworkModel network;
  const sim::Position leader{0.5, 0.5};
  sim::ConsensusConfig consensus;
  consensus.committee_size = committee;
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(sim::simulate_tree_gossip_round(
        network, leader, consensus, 2000, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeGossipRound)->Arg(64)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

void BM_SimulationEndToEnd(benchmark::State& state) {
  workload::BitcoinLikeGenerator generator({}, 5);
  const auto txs = generator.generate(20000);
  for (auto _ : state) {
    sim::SimConfig config;
    config.num_shards = 8;
    config.tx_rate_tps = 2000.0;
    api::PlacementPipeline pipeline(
        8, std::make_unique<placement::RandomPlacer>());
    sim::Simulation simulation(config);
    benchmark::DoNotOptimize(simulation.run(txs, pipeline));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(txs.size()));
  state.SetLabel("20k txs / iteration");
}
BENCHMARK(BM_SimulationEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
