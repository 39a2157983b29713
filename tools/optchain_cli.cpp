// optchain — command-line driver for the library, built on the optchain::api
// layer (PlacerRegistry + PlacementPipeline + RunSpec/RunReport).
//
//   optchain generate  --txs=N [--seed=S] [--account] --out=stream.optx
//   optchain stats     --in=stream.optx [--begin=A --end=B]
//   optchain methods                          # list registered strategies
//   optchain place     --in=stream.optx --method=<name> --shards=K
//                      [--begin=A --end=B] [--csv=out.csv]
//   optchain partition --in=stream.optx --shards=K [--epsilon=0.1]
//   optchain simulate  --in=stream.optx --method=<name> --shards=K --rate=TPS
//                      [--begin=A --end=B]
//                      [--protocol=omniledger|rapidchain]
//                      [--fault_rate=P] [--sim_seed=S] [--commit_window=SECS]
//                      [--queue_interval=SECS] [--slowdown=a,b,...]
//                      [--fabric=off|flat|wan|congested] [--regions=R]
//                      [--jitter=SECS]
//                      [--repartition_interval=SECS] [--repartition_budget=N]
//                      [--repartition_window=N] [--csv=out.csv]
//                      [--trace_out=run.otrace]
//
// Streams are OPTX trace containers (src/trace): `generate` writes the
// chunk-indexed v2 format, and every consumer replays through the streaming
// trace::TraceTxSource — flat OPTX v1 files (the old codec) stay readable.
// `--trace=` is accepted as a synonym for `--in=`, and `--begin=`/`--end=`
// replay a window of the trace (out-of-window parents become external
// funding; see src/trace/trace_source.hpp for the boundary policy). Nothing
// here materializes the stream: a 10M-transaction replay holds one chunk
// plus the engines' own per-transaction state.
//
// The simulate knobs cover every RunSpec operating point the bench
// scenarios sweep: --sim_seed re-rolls the network/consensus sampling
// (replicas), --commit_window / --queue_interval set the Fig. 5-7 metric
// cadences, and --slowdown=a,b,... applies a chronic per-shard slowdown
// (shard s runs a_s times slower; missing entries default to 1).
// --fabric=<preset> routes deliveries through the link-level network fabric
// (sim/fabric/): geo-region latency tiers, bandwidth queues with tail drop,
// jitter and stragglers. --regions= and --jitter= override the preset's
// region count / jitter bound ("--fabric=wan --regions=8 --jitter=0.02").
// --repartition_interval=SECS enables the periodic Metis re-partition
// controller (sim/repartition.hpp; 0 = off); --repartition_budget= caps the
// transaction moves applied per event (0 = unlimited, excess deferred) and
// --repartition_window= snapshots only the most recent N transactions of
// the TaN (0 = the whole graph).
//
// --trace_out=PATH attaches an obs::RunTracer and writes the run's full
// lifecycle telemetry as an .otrace container (per-tx issue→commit spans,
// blocks, queue/link samples, churn/re-partition events) — export to
// Perfetto with `optchain-obs export`; the bytes are a pure function of the
// seeds (determinism rule 9).
//
// --method accepts any PlacerRegistry name (case-insensitive): OptChain,
// T2S, Greedy, OmniLedger (alias: Random), LeastLoaded, Static, Metis.
// Stream-dependent methods (Metis, Static without --static parts) need the
// whole window in memory; the CLI materializes it for them and streams for
// everyone else.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/placer_registry.hpp"
#include "api/run_spec.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "graph/dag.hpp"
#include "metis/kway_partitioner.hpp"
#include "obs/run_tracer.hpp"
#include "trace/trace_import.hpp"
#include "trace/trace_source.hpp"
#include "workload/tan_builder.hpp"
#include "workload/tx_source.hpp"

namespace {

using namespace optchain;

int usage() {
  std::fprintf(stderr,
               "usage: optchain "
               "<generate|stats|methods|place|partition|simulate> [--flags]\n"
               "run `optchain <command>` with no flags for that command's "
               "options\n");
  return 2;
}

/// Opens the replay window named by --in= (or its synonym --trace=) plus
/// --begin/--end as a streaming source; v1 and v2 containers both work.
/// --end=0 means "to the end of the trace", matching ScenarioSpec::trace —
/// an empty window is impossible to request, never a silent no-op.
trace::TraceTxSource open_stream(const Flags& flags) {
  std::string path = flags.get_string("in", "");
  if (path.empty()) path = flags.get_string("trace", "");
  if (path.empty()) {
    throw std::runtime_error("--in=<stream.optx> (or --trace=) is required");
  }
  const auto begin = static_cast<std::uint64_t>(flags.get_int("begin", 0));
  const auto end = static_cast<std::uint64_t>(flags.get_int("end", 0));
  return trace::TraceTxSource(path, begin,
                              end == 0 ? trace::TraceTxSource::kToEnd : end);
}

/// Builds the TaN of the whole replay window without materializing the
/// transaction stream (stats/partition need the graph, not the txs).
graph::TanDag stream_tan(workload::TxSource& source) {
  const auto hint = source.size_hint();
  workload::TanBuilder builder(
      static_cast<std::size_t>(hint.value_or(0)));
  tx::Transaction transaction;
  while (source.next(transaction)) builder.add(transaction);
  return std::move(builder).take();
}

/// Stream-dependent strategies (Metis; Static without precomputed parts)
/// need the full window up front; everyone else streams in O(chunk) memory.
bool needs_materialized_stream(const std::string& method) {
  std::string lower = method;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower == "metis" || lower == "static";
}

/// The run description shared by place/simulate, read off the flags.
api::RunSpec spec_from_flags(const Flags& flags) {
  api::RunSpec spec;
  spec.method = flags.get_string("method", "OptChain");
  spec.num_shards = static_cast<std::uint32_t>(flags.get_int("shards", 16));
  spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  spec.rate_tps = flags.get_double("rate", 2000.0);
  spec.leader_fault_rate = flags.get_double("fault_rate", 0.0);
  spec.sim_seed =
      static_cast<std::uint64_t>(flags.get_int("sim_seed", 42));
  spec.commit_window_s =
      flags.get_double("commit_window", spec.commit_window_s);
  spec.queue_sample_interval_s =
      flags.get_double("queue_interval", spec.queue_sample_interval_s);
  spec.shard_slowdown = flags.get_double_list("slowdown", {});
  if (flags.get_string("protocol", "omniledger") == "rapidchain") {
    spec.protocol = sim::ProtocolMode::kRapidChain;
  }
  // Fabric preset first, then the per-knob overrides on top of it.
  spec.fabric = sim::fabric_preset(flags.get_string("fabric", "off"));
  // A given knob always overrides the preset, so validate() sees (and
  // rejects) a nonsense value instead of the preset's.
  if (flags.has("regions")) {
    const long long regions = flags.get_int("regions", 1);
    if (regions < 1) throw std::invalid_argument("--regions must be >= 1");
    spec.fabric.regions = static_cast<std::uint32_t>(regions);
  }
  if (flags.has("jitter")) {
    spec.fabric.max_jitter_s = flags.get_double("jitter", 0.0);
  }
  spec.fabric.validate();
  spec.repartition.interval_s = flags.get_double("repartition_interval", 0.0);
  spec.repartition.budget =
      static_cast<std::uint64_t>(flags.get_int("repartition_budget", 0));
  spec.repartition.window =
      static_cast<std::uint64_t>(flags.get_int("repartition_window", 0));
  spec.repartition.validate();
  return spec;
}

void print_and_maybe_save(const api::RunReport& report, const Flags& flags) {
  const TextTable table = report.to_table();
  table.print();
  const std::string csv = flags.get_string("csv", "");
  if (!csv.empty()) {
    table.save_csv(csv);
    std::printf("wrote %s\n", csv.c_str());
  }
}

int cmd_generate(const Flags& flags) {
  const auto n = static_cast<std::uint64_t>(flags.get_int("txs", 100000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string out = flags.get_string("out", "stream.optx");

  // Generator → trace writer, one transaction at a time: snapshotting a
  // 10M-tx workload costs O(chunk) memory, and the result replays through
  // every --in= consumer (and sweep cells) without regeneration.
  trace::TraceWriterOptions options;
  options.chunk_capacity = static_cast<std::uint32_t>(
      flags.get_int("chunk", trace::kDefaultChunkCapacity));
  trace::ImportResult result;
  if (flags.get_bool("account", false)) {
    workload::AccountGeneratorTxSource source({}, seed, n);
    result = trace::import_source(source, out, options);
  } else {
    workload::GeneratorTxSource source({}, seed, n);
    result = trace::import_source(source, out, options);
  }
  std::printf("wrote %llu transactions to %s\n",
              static_cast<unsigned long long>(result.txs), out.c_str());
  return 0;
}

int cmd_stats(const Flags& flags) {
  trace::TraceTxSource source = open_stream(flags);
  const graph::TanDag dag = stream_tan(source);
  const auto stats = graph::compute_degree_stats(dag);
  TextTable table({"statistic", "value"});
  table.add_row({"transactions", TextTable::fmt_int(
                                     static_cast<long long>(stats.nodes))});
  table.add_row({"TaN edges", TextTable::fmt_int(
                                  static_cast<long long>(stats.edges))});
  table.add_row({"average degree", TextTable::fmt(stats.average_degree, 3)});
  table.add_row({"coinbase/funding txs",
                 TextTable::fmt_int(
                     static_cast<long long>(stats.coinbase_nodes))});
  table.add_row({"unspent frontier",
                 TextTable::fmt_int(
                     static_cast<long long>(stats.unspent_nodes))});
  table.print();
  return 0;
}

int cmd_methods(const Flags& /*flags*/) {
  std::printf("registered placement methods (case-insensitive):\n");
  for (const std::string& name : api::PlacerRegistry::instance().names()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

int cmd_place(const Flags& flags) {
  trace::TraceTxSource source = open_stream(flags);
  const api::RunSpec spec = spec_from_flags(flags);
  api::RunReport report;
  if (needs_materialized_stream(spec.method)) {
    const std::vector<tx::Transaction> txs = workload::materialize(source);
    report = api::place(spec, txs);
  } else {
    report = api::place(spec, source);
  }

  std::printf("%s over %u shards: %.2f %% cross-shard (%llu / %llu)\n",
              report.method.c_str(), report.num_shards,
              100.0 * report.cross_fraction(),
              static_cast<unsigned long long>(report.cross),
              static_cast<unsigned long long>(report.total));
  print_and_maybe_save(report, flags);
  return 0;
}

int cmd_partition(const Flags& flags) {
  trace::TraceTxSource source = open_stream(flags);
  const auto k = static_cast<std::uint32_t>(flags.get_int("shards", 16));
  const graph::TanDag dag = stream_tan(source);
  const graph::Csr undirected = dag.to_undirected();

  metis::PartitionConfig config;
  config.k = k;
  config.imbalance = flags.get_double("epsilon", 0.1);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto parts = metis::partition_kway(undirected, config);
  const auto cut = metis::edge_cut(undirected, parts);
  std::printf("metis %u-way: edge cut %llu of %llu (%.2f %%), balance %.3f\n",
              k, static_cast<unsigned long long>(cut),
              static_cast<unsigned long long>(dag.num_edges()),
              100.0 * static_cast<double>(cut) /
                  static_cast<double>(std::max<std::size_t>(
                      dag.num_edges(), 1)),
              metis::balance_factor(parts, k));
  return 0;
}

int cmd_simulate(const Flags& flags) {
  trace::TraceTxSource source = open_stream(flags);
  api::RunSpec spec = spec_from_flags(flags);
  // --trace_out=PATH captures the run's lifecycle telemetry as an .otrace
  // container (inspect with optchain-obs summarize/export/diff).
  std::unique_ptr<obs::RunTracer> tracer;
  const std::string trace_out = flags.get_string("trace_out", "");
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::RunTracer>(trace_out);
    spec.observers.push_back(tracer.get());
  }
  api::RunReport report;
  if (needs_materialized_stream(spec.method)) {
    const std::vector<tx::Transaction> txs = workload::materialize(source);
    report = api::simulate(spec, txs);
  } else {
    report = api::simulate(spec, source);
  }
  if (tracer != nullptr) {
    const std::uint64_t records = tracer->finish();
    std::printf("wrote %s (%llu trace records)\n", trace_out.c_str(),
                static_cast<unsigned long long>(records));
  }
  print_and_maybe_save(report, flags);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Flags flags(argc - 1, argv + 1);
    if (command == "generate") return cmd_generate(flags);
    if (command == "stats") return cmd_stats(flags);
    if (command == "methods") return cmd_methods(flags);
    if (command == "place") return cmd_place(flags);
    if (command == "partition") return cmd_partition(flags);
    if (command == "simulate") return cmd_simulate(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optchain %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  return usage();
}
