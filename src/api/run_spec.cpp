#include "api/run_spec.hpp"

#include <string>
#include <utility>

#include "api/placement_pipeline.hpp"
#include "sim/simulation.hpp"

namespace optchain::api {

sim::SimConfig RunSpec::sim_config() const {
  sim::SimConfig config;
  config.num_shards = num_shards;
  config.tx_rate_tps = rate_tps;
  config.protocol = protocol;
  config.seed = sim_seed;
  config.commit_window_s = commit_window_s;
  config.queue_sample_interval_s = queue_sample_interval_s;
  config.leader_fault_rate = leader_fault_rate;
  config.shard_slowdown = shard_slowdown;
  config.fabric = fabric;
  config.churn = churn;
  config.repartition = repartition;
  if (config.repartition.seed == 0) {
    // Default the controller seed to the method/partition seed: the offline
    // Metis baseline and the online controller then re-roll together, and
    // replicas (which vary only sim_seed) keep identical re-partition plans.
    config.repartition.seed = seed;
  }
  config.observers = observers;
  return config;
}

TextTable RunReport::to_table() const {
  TextTable table({"metric", "value"});
  table.add_row({"method", method});
  table.add_row({"shards", TextTable::fmt_int(num_shards)});
  table.add_row({"transactions counted",
                 TextTable::fmt_int(static_cast<long long>(total))});
  table.add_row({"cross-shard",
                 TextTable::fmt_int(static_cast<long long>(cross))});
  table.add_row({"cross-shard fraction",
                 TextTable::fmt_percent(cross_fraction())});
  if (sim.has_value()) {
    table.add_row({"committed", TextTable::fmt_int(static_cast<long long>(
                                    sim->committed_txs))});
    table.add_row({"aborted", TextTable::fmt_int(static_cast<long long>(
                                  sim->aborted_txs))});
    table.add_row({"throughput (tps)", TextTable::fmt(sim->throughput_tps,
                                                      0)});
    table.add_row({"avg latency (s)", TextTable::fmt(sim->avg_latency_s, 2)});
    table.add_row({"max latency (s)", TextTable::fmt(sim->max_latency_s, 2)});
    table.add_row({"blocks", TextTable::fmt_int(static_cast<long long>(
                                 sim->total_blocks))});
    table.add_row({"completed", sim->completed ? "yes" : "no"});
    if (sim->link_messages > 0) {  // fabric-enabled runs only
      table.add_row({"link messages", TextTable::fmt_int(static_cast<long long>(
                                          sim->link_messages))});
      table.add_row({"link drops", TextTable::fmt_int(static_cast<long long>(
                                       sim->link_drops))});
      table.add_row(
          {"link peak backlog (s)", TextTable::fmt(sim->link_peak_backlog_s,
                                                   3)});
    }
    if (sim->repartition_events > 0) {  // re-partition-enabled runs only
      table.add_row({"repartition events",
                     TextTable::fmt_int(static_cast<long long>(
                         sim->repartition_events))});
      table.add_row({"repartition migrated txs",
                     TextTable::fmt_int(static_cast<long long>(
                         sim->repartition_migrated_txs))});
      table.add_row({"repartition migrated utxos",
                     TextTable::fmt_int(static_cast<long long>(
                         sim->repartition_migrated_utxos))});
      table.add_row({"repartition deferred txs",
                     TextTable::fmt_int(static_cast<long long>(
                         sim->repartition_deferred_txs))});
    }
  }
  for (std::size_t s = 0; s < shard_sizes.size(); ++s) {
    table.add_row({"shard " + std::to_string(s) + " txs",
                   TextTable::fmt_int(static_cast<long long>(
                       shard_sizes[s]))});
  }
  return table;
}

std::string RunReport::to_csv() const { return to_table().to_csv(); }

RunReport place(const RunSpec& spec,
                std::span<const tx::Transaction> transactions,
                std::span<const std::uint32_t> warm_parts) {
  PlacementPipeline pipeline = make_pipeline(
      spec.method, spec.num_shards, transactions, spec.seed);
  const StreamOutcome outcome = pipeline.place_stream(transactions, warm_parts);

  RunReport report;
  report.method = std::string(pipeline.method_name());
  report.num_shards = spec.num_shards;
  report.total = outcome.total;
  report.cross = outcome.cross;
  report.shard_sizes = outcome.shard_sizes;
  return report;
}

RunReport place(const RunSpec& spec, workload::TxSource& source,
                std::uint64_t expected_txs) {
  PlacementPipeline pipeline =
      make_pipeline(spec.method, spec.num_shards, {}, spec.seed, {},
                    source.size_hint().value_or(expected_txs));
  const StreamOutcome outcome = pipeline.place_stream(source);

  RunReport report;
  report.method = std::string(pipeline.method_name());
  report.num_shards = spec.num_shards;
  report.total = outcome.total;
  report.cross = outcome.cross;
  report.shard_sizes = outcome.shard_sizes;
  return report;
}

RunReport simulate(const RunSpec& spec,
                   std::span<const tx::Transaction> transactions) {
  // The engine validates its config (SimConfig::validate) before the
  // pipeline is built, so a bad shard count is an error, not an abort.
  sim::Simulation simulation(spec.sim_config());
  PlacementPipeline pipeline = make_pipeline(
      spec.method, spec.num_shards, transactions, spec.seed);
  workload::SpanTxSource source(transactions);
  sim::SimResult result = simulation.run(source, pipeline);

  RunReport report;
  report.method = result.placer_name;
  report.num_shards = spec.num_shards;
  // Simulation runs report the protocol-level cross-TX metric (denominator =
  // every issued transaction, SimResult::cross_fraction), keeping the CLI
  // and the bench figure binaries comparable on the same run.
  report.total = result.total_txs;
  report.cross = result.cross_txs;
  report.shard_sizes = result.final_shard_sizes;  // == assignment().sizes()
  report.sim = std::move(result);
  return report;
}

RunReport simulate(const RunSpec& spec, workload::TxSource& source,
                   std::uint64_t expected_txs) {
  sim::Simulation simulation(spec.sim_config());  // validates first
  PlacementPipeline pipeline =
      make_pipeline(spec.method, spec.num_shards, {}, spec.seed, {},
                    source.size_hint().value_or(expected_txs));
  sim::SimResult result = simulation.run(source, pipeline);

  RunReport report;
  report.method = result.placer_name;
  report.num_shards = spec.num_shards;
  report.total = result.total_txs;
  report.cross = result.cross_txs;
  report.shard_sizes = result.final_shard_sizes;
  report.sim = std::move(result);
  return report;
}

}  // namespace optchain::api
