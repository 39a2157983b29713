// Pinned fingerprints of the simulation engine's output.
//
// Each case is one complete simulation — a placer, a protocol, a stream and
// an operating point (churn, re-partitioning, link fabric, injected double
// spends, a windowed trace replay) — run through api::simulate or
// sim::Simulation with an obs::RunTracer attached. Its fingerprint is two
// 64-bit FNV-1a digests:
//
//   result  over a canonical text dump of the SimResult (every field listed
//           in dump(), doubles at %.17g, so the digest covers exact bits);
//   trace   over the .otrace bytes, i.e. every observer callback in dispatch
//           order with its arguments (determinism rule 9).
//
// The pins were captured while a second, parallel engine still reproduced
// every one of these runs bit for bit (event_heap_peak aside), so they hold
// the engine to outcomes that were cross-checked. The three outpoint cases
// (hotspot vouts, edge-list vouts, 30-input floods) came later: their pins
// were captured while every outpoint still lived in the hashed
// OutpointLedger, before the parent-indexed ledger existed. The golden_test
// rows cover a flat network without churn or conflicts; these cases cover
// the rest of the space. A moved pin means the simulated outcome changed:
// the test prints the case's fields and its new digests. Change a pin only
// for a deliberate semantic change, and say so in the change description.
//
// The 28 drawn cases come from a fixed-seed PRNG (placer × protocol × churn
// × re-partition × fabric preset × stream seed/length); the SCOPED_TRACE
// string is the repro recipe.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "api/run_spec.hpp"
#include "common/hash.hpp"
#include "obs/run_tracer.hpp"
#include "sim/fabric/fabric.hpp"
#include "sim/shard_churn.hpp"
#include "sim/simulation.hpp"
#include "trace/trace_source.hpp"
#include "trace/trace_writer.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/conflict_injector.hpp"
#include "workload/dataset_loader.hpp"
#include "workload/dynamic_profile.hpp"
#include "workload/tan_builder.hpp"
#include "workload/tx_source.hpp"

namespace optchain {
namespace {

using sim::ProtocolMode;

// ------------------------------------------------------------ fingerprint

/// Every SimResult field a run is pinned on, one `name=value` line each.
/// Doubles print at %.17g, so equal text means equal bits.
std::string dump(const sim::SimResult& r) {
  std::ostringstream out;
  const auto real = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return std::string(buffer);
  };
  const auto list = [](const std::vector<std::uint64_t>& values) {
    std::string joined;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) joined += ',';
      joined += std::to_string(values[i]);
    }
    return joined;
  };
  out << "placer_name=" << r.placer_name << '\n'
      << "total_txs=" << r.total_txs << '\n'
      << "cross_txs=" << r.cross_txs << '\n'
      << "committed_txs=" << r.committed_txs << '\n'
      << "aborted_txs=" << r.aborted_txs << '\n'
      << "completed=" << r.completed << '\n'
      << "total_blocks=" << r.total_blocks << '\n'
      << "total_events=" << r.total_events << '\n'
      << "duration_s=" << real(r.duration_s) << '\n'
      << "throughput_tps=" << real(r.throughput_tps) << '\n'
      << "avg_latency_s=" << real(r.avg_latency_s) << '\n'
      << "max_latency_s=" << real(r.max_latency_s) << '\n'
      << "event_heap_peak=" << r.event_heap_peak << '\n'
      << "shard_event_counts=" << list(r.shard_event_counts) << '\n'
      << "final_shard_sizes=" << list(r.final_shard_sizes) << '\n'
      << "shard_changes=" << r.shard_changes << '\n'
      << "migrated_txs=" << r.migrated_txs << '\n'
      << "migrated_utxos=" << r.migrated_utxos << '\n'
      << "repartition_events=" << r.repartition_events << '\n'
      << "repartition_migrated_txs=" << r.repartition_migrated_txs << '\n'
      << "repartition_migrated_utxos=" << r.repartition_migrated_utxos << '\n'
      << "repartition_deferred_txs=" << r.repartition_deferred_txs << '\n'
      << "link_messages=" << r.link_messages << '\n'
      << "link_bytes=" << r.link_bytes << '\n'
      << "link_drops=" << r.link_drops << '\n'
      << "link_queue_delay_s=" << real(r.link_queue_delay_s) << '\n'
      << "link_peak_backlog_s=" << real(r.link_peak_backlog_s) << '\n'
      << "latencies.count=" << r.latencies.count() << '\n'
      << "latencies.average=" << real(r.latencies.average()) << '\n'
      << "latencies.maximum=" << real(r.latencies.maximum()) << '\n';
  if (r.latencies.count() > 0) {
    for (const double q : {0.5, 0.9, 0.99}) {
      out << "latencies.quantile(" << q << ")=" << real(r.latencies.quantile(q))
          << '\n';
    }
  }
  out << "commits_per_window=" << list(r.commits_per_window.counts()) << '\n'
      << "queue_tracker.global_max=" << r.queue_tracker.global_max() << '\n';
  for (const stats::QueueSnapshot& snap : r.queue_tracker.snapshots()) {
    out << "queue_snapshot=" << real(snap.time) << ',' << snap.max_queue << ','
        << snap.min_queue << '\n';
  }
  return out.str();
}

std::uint64_t digest(std::string_view bytes) {
  return fnv1a(std::span(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size()));
}

/// A whole file as raw bytes.
std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016" PRIx64, value);
  return buffer;
}

// ------------------------------------------------------------------ cases

/// One pinned run. `run` executes it with `tracer` installed as an observer
/// and returns its result; `repro` describes the operating point.
struct Case {
  std::string name;
  std::string repro;
  std::function<sim::SimResult(sim::SimObserver& tracer)> run;
};

sim::SimResult run_spec(api::RunSpec spec,
                        const std::vector<tx::Transaction>& txs,
                        sim::SimObserver& tracer) {
  spec.observers = {&tracer};
  return api::simulate(spec, txs).sim.value();
}

sim::SimResult run_config(sim::SimConfig config, const std::string& method,
                        const std::vector<tx::Transaction>& txs,
                        sim::SimObserver& tracer) {
  config.observers.push_back(&tracer);
  api::PlacementPipeline pipeline =
      api::make_pipeline(method, config.num_shards, txs);
  sim::Simulation simulation(config);
  return simulation.run(txs, pipeline);
}

std::vector<tx::Transaction> generate(std::uint64_t seed, std::size_t n) {
  workload::BitcoinLikeGenerator generator({}, seed);
  return generator.generate(n);
}

// ------------------------------------------------- randomized operating points

constexpr int kDrawnCases = 28;

/// One randomly drawn operating point, printable as a repro recipe.
struct DrawnCase {
  std::string method;
  std::string fabric;
  ProtocolMode protocol = ProtocolMode::kOmniLedger;
  std::uint32_t shards = 0;
  std::uint64_t stream_seed = 0;
  std::size_t stream_length = 0;
  double rate_tps = 0.0;
  bool churn = false;
  bool repartition = false;

  std::string describe() const {
    return "method=" + method + " fabric=" + fabric + " protocol=" +
           (protocol == ProtocolMode::kOmniLedger ? "omniledger"
                                                  : "rapidchain") +
           " shards=" + std::to_string(shards) +
           " seed=" + std::to_string(stream_seed) +
           " txs=" + std::to_string(stream_length) +
           " rate=" + std::to_string(rate_tps) +
           " churn=" + (churn ? "on" : "off") +
           " repartition=" + (repartition ? "on" : "off");
  }
};

template <typename T, std::size_t N>
const T& pick(std::mt19937_64& rng, const T (&options)[N]) {
  return options[std::uniform_int_distribution<std::size_t>(0, N - 1)(rng)];
}

DrawnCase draw(std::mt19937_64& rng) {
  // Online placers only: stream-dependent methods (Metis, Static) are a
  // placement-time concern, orthogonal to the engine.
  static const std::string kMethods[] = {
      "OptChain",   "T2S",         "Greedy",        "Fennel",
      "OmniLedger", "LeastLoaded", "ShardScheduler"};
  static const std::string kFabrics[] = {"off", "flat", "wan", "congested"};
  static const std::uint32_t kShards[] = {3, 4, 6, 8};
  // Once the drawn worker count of a second engine. The draw stays so that
  // every case keeps the operating point its pin was captured at.
  static const std::uint32_t kRetiredWorkerAxis[] = {1, 2, 4};

  DrawnCase out;
  out.method = pick(rng, kMethods);
  out.fabric = pick(rng, kFabrics);
  out.protocol = std::bernoulli_distribution(0.5)(rng)
                     ? ProtocolMode::kRapidChain
                     : ProtocolMode::kOmniLedger;
  out.shards = pick(rng, kShards);
  static_cast<void>(pick(rng, kRetiredWorkerAxis));
  out.stream_seed = rng();
  out.stream_length =
      std::uniform_int_distribution<std::size_t>(600, 1800)(rng);
  out.rate_tps = std::uniform_real_distribution<double>(400.0, 1200.0)(rng);
  out.churn = std::bernoulli_distribution(0.5)(rng);
  out.repartition = std::bernoulli_distribution(0.5)(rng);
  return out;
}

api::RunSpec spec_of(const DrawnCase& drawn, std::mt19937_64& rng) {
  api::RunSpec spec;
  spec.method = drawn.method;
  spec.num_shards = drawn.shards;
  spec.seed = 1 + (drawn.stream_seed % 97);
  spec.rate_tps = drawn.rate_tps;
  spec.protocol = drawn.protocol;
  spec.commit_window_s = 2.0;
  spec.queue_sample_interval_s = 1.0;
  spec.fabric = sim::fabric_preset(drawn.fabric);
  const double issue_window_s =
      static_cast<double>(drawn.stream_length) / drawn.rate_tps;
  if (drawn.churn) {
    spec.churn.events = {
        {0.3 * issue_window_s, sim::ChurnKind::kRemoveShard,
         sim::ShardChurnEvent::kAutoShard},
        {0.6 * issue_window_s, sim::ChurnKind::kAddShard, 0},
    };
  }
  if (drawn.repartition) {
    spec.repartition.interval_s = std::uniform_real_distribution<double>(
        0.25 * issue_window_s, 0.5 * issue_window_s)(rng);
    static const std::uint64_t kBudgets[] = {0, 50, 200};
    spec.repartition.budget = pick(rng, kBudgets);
    static const std::uint64_t kWindows[] = {0, 400};
    spec.repartition.window = pick(rng, kWindows);
  }
  return spec;
}

void add_drawn_cases(std::vector<Case>& cases) {
  // Fixed master seed: the same operating points in every environment.
  std::mt19937_64 rng(0x0C7C4A1A2026ull);
  for (int index = 0; index < kDrawnCases; ++index) {
    const DrawnCase drawn = draw(rng);
    const api::RunSpec spec = spec_of(drawn, rng);
    char name[16];
    std::snprintf(name, sizeof name, "drawn_%02d", index);
    cases.push_back({name, drawn.describe(),
                     [drawn, spec](sim::SimObserver& tracer) {
                       return run_spec(spec,
                           generate(drawn.stream_seed, drawn.stream_length),
                           tracer);
                     }});
  }
}

// ------------------------------------------------------ hand-picked cases

constexpr std::uint64_t kStreamSeed = 20260729;

/// 8 shards at 1000 tps with 100-tx blocks: the golden_test operating point.
sim::SimConfig small_blocks(ProtocolMode protocol) {
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

const char* protocol_name(ProtocolMode protocol) {
  return protocol == ProtocolMode::kOmniLedger ? "omni" : "rapid";
}

void add_config_cases(std::vector<Case>& cases) {
  constexpr ProtocolMode kBoth[] = {ProtocolMode::kOmniLedger,
                                    ProtocolMode::kRapidChain};

  // Placer × protocol grid over 3000 Bitcoin-like transactions.
  for (const char* method : {"OptChain", "Greedy", "T2S", "ShardScheduler"}) {
    for (const ProtocolMode protocol : kBoth) {
      cases.push_back({std::string("grid_") + method + "_" +
                           protocol_name(protocol),
                       "3000 txs, small blocks",
                       [method, protocol](sim::SimObserver& tracer) {
                         return run_config(small_blocks(protocol), method,
                                         generate(kStreamSeed, 3000), tracer);
                       }});
    }
  }
  cases.push_back({"grid_Greedy_rapid_3shards", "3000 txs, 3 shards",
                   [](sim::SimObserver& tracer) {
                     sim::SimConfig config =
                         small_blocks(ProtocolMode::kRapidChain);
                     config.num_shards = 3;
                     return run_config(config, "Greedy",
                                     generate(kStreamSeed, 3000), tracer);
                   }});

  // Windowed replay [500, 2500) of an on-disk OPTX trace: the streamed
  // TxSource path and the window's dropped out-of-window parents.
  cases.push_back(
      {"trace_window_OptChain_omni", "OPTX window [500, 2500) of 3000 txs",
       [](sim::SimObserver& tracer) {
         const std::string path =
             ::testing::TempDir() + "/fingerprint_replay.optx";
         {
           trace::TraceWriter writer(path, {.chunk_capacity = 256});
           for (const tx::Transaction& t : generate(kStreamSeed, 3000)) {
             writer.append(t);
           }
           writer.finish();
         }
         sim::SimConfig config = small_blocks(ProtocolMode::kOmniLedger);
         config.observers = {&tracer};
         trace::TraceTxSource source(path, 500, 2500);
         api::PlacementPipeline pipeline = api::make_pipeline(
             "OptChain", config.num_shards, {}, 1, {}, 2000);
         sim::Simulation simulation(config);
         sim::SimResult result = simulation.run(source, pipeline);
         std::filesystem::remove(path);
         return result;
       }});

  // The abort path: 2% injected double spends within the last 8 arrivals,
  // shard 3 slowed 25x and 20 ms of link jitter, so contenders race and
  // unlock-to-abort releases the locks the losers took.
  for (const ProtocolMode protocol : kBoth) {
    cases.push_back(
        {std::string("abort_path_OmniLedger_") + protocol_name(protocol),
         "20000 txs, 2% double spends, slow shard 3, 20 ms jitter",
         [protocol](sim::SimObserver& tracer) {
           sim::SimConfig config = small_blocks(protocol);
           config.shard_slowdown = {1.0, 1.0, 1.0, 25.0};
           config.fabric.enabled = true;
           config.fabric.max_jitter_s = 0.020;
           return run_config(config, "OmniLedger",
                           workload::inject_double_spends(
                               generate(kStreamSeed, 20000), 0.02,
                               kStreamSeed + 1, /*window=*/8)
                               .transactions,
                           tracer);
         }});
  }

  // Link-fabric topologies: congested (tail drops) and wan (jitter).
  constexpr std::uint64_t kFabricSeed = 20260808;
  for (const ProtocolMode protocol : kBoth) {
    cases.push_back({std::string("fabric_congested_OptChain_") +
                         protocol_name(protocol),
                     "2500 txs, congested preset",
                     [protocol](sim::SimObserver& tracer) {
                       sim::SimConfig config = small_blocks(protocol);
                       config.fabric = sim::fabric_preset("congested");
                       return run_config(config, "OptChain",
                                       generate(kFabricSeed, 2500), tracer);
                     }});
  }
  cases.push_back({"fabric_wan_OptChain_omni", "2500 txs, wan preset",
                   [](sim::SimObserver& tracer) {
                     sim::SimConfig config =
                         small_blocks(ProtocolMode::kOmniLedger);
                     config.fabric = sim::fabric_preset("wan");
                     return run_config(config, "OptChain",
                                     generate(kFabricSeed, 2500), tracer);
                   }});

  // A scripted remove / add / remove churn plan.
  for (const char* method : {"OptChain", "ShardScheduler"}) {
    cases.push_back(
        {std::string("churn_plan_") + method + "_omni",
         "2000 txs, 6 shards, remove@1 add@2 remove@2.5",
         [method](sim::SimObserver& tracer) {
           sim::SimConfig config = small_blocks(ProtocolMode::kOmniLedger);
           config.num_shards = 6;
           config.tx_rate_tps = 500.0;
           config.commit_window_s = 2.0;
           config.churn.events = {
               {1.0, sim::ChurnKind::kRemoveShard,
                sim::ShardChurnEvent::kAutoShard},
               {2.0, sim::ChurnKind::kAddShard, 0},
               {2.5, sim::ChurnKind::kRemoveShard,
                sim::ShardChurnEvent::kAutoShard},
           };
           return run_config(config, method, generate(7, 2000), tracer);
         }});
  }
}

void add_spec_cases(std::vector<Case>& cases) {
  cases.push_back({"spec_OptChain_omni", "3000 txs, RunSpec defaults",
                   [](sim::SimObserver& tracer) {
                     api::RunSpec spec;
                     spec.method = "OptChain";
                     spec.num_shards = 8;
                     spec.rate_tps = 1000.0;
                     spec.commit_window_s = 10.0;
                     return run_spec(spec, generate(kStreamSeed, 3000),
                                     tracer);
                   }});

  // Online Metis re-partitioning every 0.5 s under a 60-move budget.
  const auto repartitioned = [](const char* method) {
    api::RunSpec spec;
    spec.method = method;
    spec.num_shards = 6;
    spec.seed = 7;
    spec.rate_tps = 1000.0;
    spec.commit_window_s = 2.0;
    spec.repartition.interval_s = 0.5;
    spec.repartition.budget = 60;
    return spec;
  };
  for (const char* method : {"OptChain", "Greedy", "Fennel"}) {
    cases.push_back({std::string("repartition_") + method,
                     "2500 txs, 6 shards, window 1200",
                     [repartitioned, method](sim::SimObserver& tracer) {
                       api::RunSpec spec = repartitioned(method);
                       spec.repartition.window = 1200;
                       return run_spec(spec, generate(23, 2500), tracer);
                     }});
  }
  cases.push_back({"repartition_churn_OptChain",
                   "3000 txs, 6 shards, remove@1 add@2",
                   [repartitioned](sim::SimObserver& tracer) {
                     api::RunSpec spec = repartitioned("OptChain");
                     spec.churn.events = {
                         {1.0, sim::ChurnKind::kRemoveShard,
                          sim::ShardChurnEvent::kAutoShard},
                         {2.0, sim::ChurnKind::kAddShard, 0},
                     };
                     return run_spec(spec, generate(31, 3000), tracer);
                   }});

  // Churn over starved congested links: the retiring shard's in-flight
  // messages face queueing and tail drops at the handoff.
  cases.push_back({"churn_congested_OptChain",
                   "2000 txs, 6 shards, 1 Mbps links, remove@1 add@2",
                   [](sim::SimObserver& tracer) {
                     api::RunSpec spec;
                     spec.method = "OptChain";
                     spec.num_shards = 6;
                     spec.seed = 7;
                     spec.rate_tps = 500.0;
                     spec.commit_window_s = 2.0;
                     spec.churn.events = {
                         {1.0, sim::ChurnKind::kRemoveShard,
                          sim::ShardChurnEvent::kAutoShard},
                         {2.0, sim::ChurnKind::kAddShard, 0},
                     };
                     spec.fabric = sim::fabric_preset("congested");
                     spec.fabric.link.bandwidth_bps = 1e6;
                     spec.fabric.link.queue_bytes = 16 * 1024;
                     return run_spec(spec, generate(7, 2000), tracer);
                   }});
}

// Outpoints the cases above never produce: synthetic hotspot vouts, vouts
// past a parent's output count, and transactions with dozens of inputs.
void add_outpoint_cases(std::vector<Case>& cases) {
  // Hotspot injection spends synthetic vouts (>= kInjectedVoutBase) of a
  // rotating hot set. Injection makes the stream length unknown, so the run
  // has no size hint and pre-sizes nothing.
  cases.push_back(
      {"hotspot_OptChain_omni", "2500 txs + 15% hotspot injection, no hint",
       [](sim::SimObserver& tracer) {
         workload::GeneratorTxSource inner({}, kStreamSeed, 2500);
         workload::DynamicProfile profile;
         profile.hotspot.injection_fraction = 0.15;
         profile.hotspot.hot_set_size = 16;
         profile.hotspot.rotation_interval = 400;
         profile.hotspot.fanout_inputs = 2;
         workload::DynamicTxSource source(inner, profile, kStreamSeed + 2);
         sim::SimConfig config = small_blocks(ProtocolMode::kOmniLedger);
         config.observers = {&tracer};
         api::PlacementPipeline pipeline = api::make_pipeline(
             "OptChain", config.num_shards, {}, 1, {}, 3000);
         sim::Simulation simulation(config);
         return simulation.run(source, pipeline);
       }});

  // An edge-list replay gives every parent one output and numbers its
  // spends 0, 1, 2, ...; double spends injected into the replayed stream
  // then contend for vouts past the parent's output count.
  cases.push_back(
      {"edge_list_conflicts_OmniLedger_omni",
       "3000 txs saved as a TaN edge list, replayed, 3% double spends",
       [](sim::SimObserver& tracer) {
         const std::string path =
             ::testing::TempDir() + "/fingerprint_replay.tan";
         workload::save_tan_edge_list(
             workload::build_tan(generate(kStreamSeed, 3000)), path);
         workload::EdgeListFileTxSource replay(path);
         std::vector<tx::Transaction> replayed =
             workload::materialize(replay);
         std::filesystem::remove(path);
         sim::SimConfig config = small_blocks(ProtocolMode::kOmniLedger);
         config.fabric.enabled = true;
         config.fabric.max_jitter_s = 0.020;
         return run_config(config, "OmniLedger",
                           workload::inject_double_spends(
                               std::move(replayed), 0.03, kStreamSeed + 3,
                               /*window=*/8)
                               .transactions,
                           tracer);
       }});

  // A flood episode of 30-input consolidations with injected double spends,
  // a slow shard, jitter, churn and online re-partitioning: records past the
  // inline input capacity lock, release and spend across many shards.
  cases.push_back(
      {"flood_conflicts_churn_repartition",
       "2500 txs, 30-input flood [800, 1100), 3% double spends, 6 shards, "
       "remove@1 add@2, repartition every 0.5 s",
       [](sim::SimObserver& tracer) {
         workload::WorkloadConfig flooded;
         flooded.flood = {800, 1100, 30};
         workload::BitcoinLikeGenerator generator(flooded, kStreamSeed);
         const workload::ConflictStream injected =
             workload::inject_double_spends(generator.generate(2500), 0.03,
                                            kStreamSeed + 4, /*window=*/8);
         api::RunSpec spec;
         spec.method = "OmniLedger";
         spec.num_shards = 6;
         spec.seed = 7;
         spec.rate_tps = 800.0;
         spec.commit_window_s = 2.0;
         spec.shard_slowdown = {1.0, 1.0, 4.0};
         spec.fabric.enabled = true;
         spec.fabric.max_jitter_s = 0.020;
         spec.churn.events = {
             {1.0, sim::ChurnKind::kRemoveShard,
              sim::ShardChurnEvent::kAutoShard},
             {2.0, sim::ChurnKind::kAddShard, 0},
         };
         spec.repartition.interval_s = 0.5;
         spec.repartition.budget = 100;
         return run_spec(spec, injected.transactions, tracer);
       }});
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  add_drawn_cases(cases);
  add_config_cases(cases);
  add_spec_cases(cases);
  add_outpoint_cases(cases);
  return cases;
}

// ------------------------------------------------------------------- pins

struct Pin {
  const char* name;
  std::uint64_t result;  // digest of dump(SimResult)
  std::uint64_t trace;   // digest of the .otrace bytes
};

constexpr Pin kPins[] = {
    {"drawn_00", 0x5ddc065e26f3e080, 0x33a30f3f6e9613c1},
    {"drawn_01", 0x2a094deef8def2c1, 0x9f2fa6271253a828},
    {"drawn_02", 0xcbd98e1fd6087ce5, 0x9255684cebee7396},
    {"drawn_03", 0x662066ac29eff8d0, 0x0da3661d1a94578a},
    {"drawn_04", 0xf7e71d6cb2206f25, 0xbf6c8ea941030c24},
    {"drawn_05", 0x1261573cbdbd12fe, 0x24d7a7411ecda68a},
    {"drawn_06", 0x068888137cf4cb1b, 0x8ccf3ccb8675493c},
    {"drawn_07", 0xecdd737c570bc3d8, 0xd5bb25706f8b1c20},
    {"drawn_08", 0x2ca54f46b28e2fc8, 0x443a3fa4b4a8dd17},
    {"drawn_09", 0x93108686fed1ba55, 0x9bd7281b0be34b25},
    {"drawn_10", 0xb4f4832d180641dd, 0xd4e2c5fef2cfb976},
    {"drawn_11", 0x76ff960dcb507df3, 0x2e2f96b85815bbe4},
    {"drawn_12", 0xac0fc6c7e8d7d028, 0x0fb8a0837611b407},
    {"drawn_13", 0x90b057fb61253799, 0x3c827f64817d2f3a},
    {"drawn_14", 0x72b457e0e3e081f7, 0x34f1e0956cccae52},
    {"drawn_15", 0x28871cbb9884d918, 0xafe09e125d04f60e},
    {"drawn_16", 0xd0a105a2af0b0a70, 0xfb186f3efb1dee60},
    {"drawn_17", 0x7fbaded754fb190d, 0x73a731f81db3eaa6},
    {"drawn_18", 0x260bd081d8d03e42, 0xe65a50b53c9a3a0e},
    {"drawn_19", 0xdd298f9710b3eab7, 0xf763b9943301ab55},
    {"drawn_20", 0x58cbe2f183ae262a, 0x05accff6d566238a},
    {"drawn_21", 0x3774cef99d8b62d0, 0x3745e31a35097502},
    {"drawn_22", 0xe4b6bcc1eb6e6d41, 0xf253376dd4047c4b},
    {"drawn_23", 0xb4db7e773ce66de2, 0x8e5f45d4095fa166},
    {"drawn_24", 0x0329ce6277a3ae34, 0x64518fbf8575e8a8},
    {"drawn_25", 0x447a600b1b403c0a, 0xcc65cc1c588d3beb},
    {"drawn_26", 0x4f2d44aa608b1c1f, 0xaa020679664c4ac0},
    {"drawn_27", 0xcdda32c4d104a187, 0xdd26eb43628e7ea1},
    {"grid_OptChain_omni", 0xdaf05b9651615a83, 0x2085ef4ca049bc88},
    {"grid_OptChain_rapid", 0x81898770b484a17a, 0x6e8af551d5836e60},
    {"grid_Greedy_omni", 0x6829784da426c131, 0xea73cb021a1d55b2},
    {"grid_Greedy_rapid", 0x6cc78bf21b2fc443, 0x9903a0d7aeedbabc},
    {"grid_T2S_omni", 0x6c0910a38246b182, 0x0074e700e77d8eec},
    {"grid_T2S_rapid", 0x4a7aafd01264093c, 0x0074e700e77d8eec},
    {"grid_ShardScheduler_omni", 0x312d5f712883e18e, 0xd36a6a210ec4f83c},
    {"grid_ShardScheduler_rapid", 0x3412045a145ebb56, 0x1ab1be34dc045e33},
    {"grid_Greedy_rapid_3shards", 0xb0f229985e8e13dc, 0xae15c4325edf3f01},
    {"trace_window_OptChain_omni", 0x9d46329b5e88e153, 0x6f8a7fba8cdee6e9},
    {"abort_path_OmniLedger_omni", 0x18333391a3149c60, 0x096b9aaa0a7cb345},
    {"abort_path_OmniLedger_rapid", 0xf3fe7f1c04303ae0, 0x3719dd4eeb2a916c},
    {"fabric_congested_OptChain_omni", 0x8738b8610bcb25e8, 0x3b8723ef0a452de2},
    {"fabric_congested_OptChain_rapid", 0x4364b68062ecd294, 0xb3776ed1eecdb33f},
    {"fabric_wan_OptChain_omni", 0x6d3d0e3f782836e0, 0x86bc275b8d742ba5},
    {"churn_plan_OptChain_omni", 0x5d46f80bdf34057d, 0x5902484d8befaa32},
    {"churn_plan_ShardScheduler_omni", 0xb59c8774128ef77d, 0x1ca4b4dfd9854eca},
    {"spec_OptChain_omni", 0x0a8b68719008f797, 0xa910934f39bc37dd},
    {"repartition_OptChain", 0x4cd4229d2b7657ee, 0x3b1ef8c6beca58e9},
    {"repartition_Greedy", 0x5b2671e60055852e, 0x998171db542132d3},
    {"repartition_Fennel", 0xa73ef2cd495125dd, 0x56c01165065397a5},
    {"repartition_churn_OptChain", 0x7335cb153a357fdc, 0xfe85a050d1343644},
    {"churn_congested_OptChain", 0x956703cf7c32d58f, 0x9a09b06de900b7aa},
    {"hotspot_OptChain_omni", 0xea1ee081d67efb55, 0x739f9ead024b7fa5},
    {"edge_list_conflicts_OmniLedger_omni", 0xebe6dd2973083f09,
     0xf5cdbd297ae69f6c},
    {"flood_conflicts_churn_repartition", 0x34a2e7f10a58c20b,
     0x3dd4fe0553a223f7},
};

const Pin* find_pin(std::string_view name) {
  for (const Pin& pin : kPins) {
    if (name == pin.name) return &pin;
  }
  return nullptr;
}

TEST(SimFingerprintTest, EveryCaseMatchesItsPin) {
  const std::vector<Case> cases = all_cases();
  EXPECT_EQ(cases.size(), std::size(kPins));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name + ": " + c.repro);
    const std::string path =
        ::testing::TempDir() + "/fingerprint_" + c.name + ".otrace";
    obs::RunTracer tracer(path);
    const sim::SimResult result = c.run(tracer);
    EXPECT_GT(tracer.finish(), 0u);
    EXPECT_TRUE(result.completed);
    const std::string fields = dump(result);
    const std::uint64_t result_digest = digest(fields);
    const std::uint64_t trace_digest = digest(slurp(path));
    std::filesystem::remove(path);

    const Pin* pin = find_pin(c.name);
    if (pin == nullptr || pin->result != result_digest ||
        pin->trace != trace_digest) {
      ADD_FAILURE() << "fingerprint moved: {\"" << c.name << "\", "
                    << hex(result_digest) << ", " << hex(trace_digest)
                    << "},\npinned: "
                    << (pin == nullptr
                            ? std::string("none")
                            : hex(pin->result) + ", " + hex(pin->trace))
                    << "\nfields:\n"
                    << fields;
    }
  }
}

}  // namespace
}  // namespace optchain
