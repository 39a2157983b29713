#include "api/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "metis/kway_partitioner.hpp"
#include "trace/trace_source.hpp"
#include "workload/tan_builder.hpp"

namespace optchain::api {

namespace {

/// Per-run memo of Table II warm partitions. Within one sweep the workload
/// config is fixed, so (shards, seed, warm length, workload kind) identifies
/// the partition — without this, every method cell of a warm-started
/// scenario would redo the dominant Metis work on the same 30:1 warm prefix.
/// call_once gives each key exactly one Metis run even when method cells
/// race for it; distinct keys still partition in parallel.
struct WarmPartition {
  std::once_flag once;
  std::vector<std::uint32_t> parts;
};

struct WarmCache {
  using Key = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, int>;
  std::mutex mutex;
  std::map<Key, std::shared_ptr<WarmPartition>> entries;
};

/// run_cell with an optional warm-partition memo (the stream itself is still
/// generated per cell: at paper scale a shared materialized warm stream per
/// in-flight key would dwarf the partition's memory).
RunReport run_cell_cached(const SweepCell& cell, WarmCache* cache) {
  // Trace cells never regenerate (or materialize) anything: each one
  // streams its window of the shared imported container straight off disk —
  // the "import once, replay many cells" contract. expand() already
  // rejected warm starts for traces, and stream-dependent methods (Metis,
  // Static) are unavailable for the same reason they are under dynamic
  // profiles: there is no materialized stream to hand them.
  if (cell.workload == WorkloadKind::kTrace) {
    OPTCHAIN_EXPECTS(cell.warm_txs == 0);
    trace::TraceTxSource source(cell.trace.path, cell.trace.begin,
                                cell.trace.end);
    if (cell.dynamic.active()) {
      workload::DynamicTxSource dynamic(source, cell.dynamic,
                                        cell.workload_seed);
      return cell.mode == RunMode::kSimulate
                 ? simulate(cell.spec, dynamic, cell.stream_txs)
                 : place(cell.spec, dynamic, cell.stream_txs);
    }
    return cell.mode == RunMode::kSimulate
               ? simulate(cell.spec, source, cell.stream_txs)
               : place(cell.spec, source, cell.stream_txs);
  }

  const std::vector<tx::Transaction> txs = SweepRunner::cell_stream(cell);

  // Dynamic profiles decorate the generated stream through the TxSource
  // seam: the engines consume the decorated pull source unchanged (rate
  // curve issue times, injected hot-spend transactions). Incompatible with
  // warm starts — expand() rejects that combination up front.
  if (cell.dynamic.active()) {
    OPTCHAIN_EXPECTS(cell.warm_txs == 0);
    workload::SpanTxSource inner(txs);
    workload::DynamicTxSource source(inner, cell.dynamic, cell.workload_seed);
    // Injecting profiles have no exact emitted length; the inner stream
    // length keeps the capacity-capped methods' caps meaningful.
    return cell.mode == RunMode::kSimulate
               ? simulate(cell.spec, source, cell.stream_txs)
               : place(cell.spec, source, cell.stream_txs);
  }

  if (cell.mode == RunMode::kSimulate) return simulate(cell.spec, txs);

  if (cell.warm_txs == 0) return place(cell.spec, txs);

  // Table II warm start: offline Metis partition of the warm prefix (the
  // "certain stage of the system"), replayed as forced placements.
  const std::span<const tx::Transaction> all(txs);
  const auto compute = [&] {
    const graph::TanDag warm_tan =
        workload::build_tan(all.subspan(0, cell.warm_txs));
    metis::PartitionConfig metis_config;
    metis_config.k = cell.spec.num_shards;
    metis_config.seed = cell.spec.seed;
    return metis::partition_kway(warm_tan.to_undirected(), metis_config);
  };
  if (cache == nullptr) return place(cell.spec, all, compute());

  std::shared_ptr<WarmPartition> entry;
  {
    const std::lock_guard<std::mutex> lock(cache->mutex);
    std::shared_ptr<WarmPartition>& slot =
        cache->entries[{cell.spec.num_shards, cell.spec.seed, cell.warm_txs,
                        static_cast<int>(cell.workload)}];
    if (slot == nullptr) slot = std::make_shared<WarmPartition>();
    entry = slot;
  }
  std::call_once(entry->once, [&] { entry->parts = compute(); });
  return place(cell.spec, all, entry->parts);
}

}  // namespace

Aggregate Aggregate::of(std::span<const double> values) noexcept {
  Aggregate aggregate;
  if (values.empty()) return aggregate;
  aggregate.min = values[0];
  aggregate.max = values[0];
  double sum = 0.0;
  for (const double value : values) {
    sum += value;
    aggregate.min = std::min(aggregate.min, value);
    aggregate.max = std::max(aggregate.max, value);
  }
  aggregate.mean = sum / static_cast<double>(values.size());
  return aggregate;
}

std::vector<tx::Transaction> SweepRunner::cell_stream(const SweepCell& cell) {
  const std::uint64_t n = cell.warm_txs + cell.stream_txs;
  if (cell.workload == WorkloadKind::kTrace) {
    trace::TraceTxSource source(cell.trace.path, cell.trace.begin,
                                cell.trace.end);
    return workload::materialize(source);
  }
  if (cell.workload == WorkloadKind::kAccount) {
    workload::AccountWorkloadGenerator generator(cell.account_workload,
                                                 cell.workload_seed);
    return generator.generate(n);
  }
  workload::BitcoinLikeGenerator generator(cell.bitcoin_workload,
                                           cell.workload_seed);
  return generator.generate(n);
}

RunReport SweepRunner::run_cell(const SweepCell& cell) {
  return run_cell_cached(cell, nullptr);
}

SweepReport SweepRunner::run(const ScenarioSpec& spec) const {
  return run(spec.expand());
}

SweepReport SweepRunner::run(const Sweep& sweep) const {
  // A sweep that expanded to nothing is a configuration bug (an emptied
  // methods axis, a filtered-out grid); running it would "succeed" with an
  // empty report and exit code 0 — fail loudly instead.
  if (sweep.cells.empty()) {
    throw std::runtime_error("sweep \"" + sweep.scenario +
                             "\" expanded to zero cells — check the "
                             "methods/shards/rates axes");
  }
  // Execute every cell, in parallel up to `jobs` workers. results[i] is
  // written only by the worker that claimed index i, so the outcome is
  // independent of scheduling; a failed cell records its error instead.
  std::vector<RunReport> results(sweep.cells.size());
  std::vector<std::string> errors(sweep.cells.size());
  std::atomic<std::size_t> next{0};
  WarmCache warm_cache;
  const auto worker = [&] {
    while (true) {
      const std::size_t index = next.fetch_add(1);
      if (index >= sweep.cells.size()) return;
      try {
        results[index] = run_cell_cached(sweep.cells[index], &warm_cache);
      } catch (const std::exception& error) {
        errors[index] = error.what();
      }
    }
  };

  unsigned jobs = options_.jobs != 0 ? options_.jobs
                                     : std::thread::hardware_concurrency();
  jobs = std::max(1u, std::min<unsigned>(
                          jobs, static_cast<unsigned>(sweep.cells.size())));
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
  }

  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i].empty()) {
      throw std::runtime_error("sweep cell " + std::to_string(i) + " (" +
                               sweep.cells[i].spec.method + ", k=" +
                               std::to_string(sweep.cells[i].spec.num_shards) +
                               "): " + errors[i]);
    }
  }

  // Aggregate replicas grid-point by grid-point. Cells are grid-point-major
  // and replica-minor, so each group is a contiguous run of `replicas`.
  SweepReport report;
  report.scenario = sweep.scenario;
  report.title = sweep.title;
  report.paper_ref = sweep.paper_ref;
  report.mode = sweep.mode;
  const std::uint32_t replicas = std::max<std::uint32_t>(1, sweep.replicas);
  OPTCHAIN_EXPECTS(sweep.cells.size() % replicas == 0);
  report.cells.reserve(sweep.cells.size() / replicas);

  std::vector<double> values(replicas);
  const auto aggregate = [&](auto&& metric, std::size_t base) {
    for (std::uint32_t r = 0; r < replicas; ++r) {
      values[r] = metric(results[base + r]);
    }
    return Aggregate::of(values);
  };

  for (std::size_t base = 0; base < sweep.cells.size(); base += replicas) {
    const SweepCell& cell = sweep.cells[base];
    CellReport out;
    out.cell = cell.cell;
    // The requested registry key, not the placer's self-reported name: the
    // ablation registers variants ("Greedy-smallties") whose placer answers
    // with its family name, and cells must stay distinguishable.
    out.method = cell.spec.method;
    out.num_shards = cell.spec.num_shards;
    out.rate_tps = cell.spec.rate_tps;
    out.seed = cell.spec.seed;
    out.txs = cell.stream_txs;
    out.warm_txs = cell.warm_txs;
    out.replicas = replicas;

    out.cross_fraction =
        aggregate([](const RunReport& r) { return r.cross_fraction(); }, base);
    out.cross_txs = aggregate(
        [](const RunReport& r) { return static_cast<double>(r.cross); }, base);
    const auto sim_metric = [](double sim::SimResult::*field) {
      return [field](const RunReport& r) {
        return r.sim.has_value() ? (*r.sim).*field : 0.0;
      };
    };
    out.throughput_tps =
        aggregate(sim_metric(&sim::SimResult::throughput_tps), base);
    out.avg_latency_s =
        aggregate(sim_metric(&sim::SimResult::avg_latency_s), base);
    out.max_latency_s =
        aggregate(sim_metric(&sim::SimResult::max_latency_s), base);
    out.duration_s = aggregate(sim_metric(&sim::SimResult::duration_s), base);
    out.committed = aggregate(
        [](const RunReport& r) {
          return r.sim ? static_cast<double>(r.sim->committed_txs) : 0.0;
        },
        base);
    out.aborted = aggregate(
        [](const RunReport& r) {
          return r.sim ? static_cast<double>(r.sim->aborted_txs) : 0.0;
        },
        base);
    out.total_blocks = aggregate(
        [](const RunReport& r) {
          return r.sim ? static_cast<double>(r.sim->total_blocks) : 0.0;
        },
        base);
    out.shard_changes = aggregate(
        [](const RunReport& r) {
          return r.sim ? static_cast<double>(r.sim->shard_changes) : 0.0;
        },
        base);
    out.migrated_txs = aggregate(
        [](const RunReport& r) {
          return r.sim ? static_cast<double>(r.sim->migrated_txs) : 0.0;
        },
        base);
    out.migrated_utxos = aggregate(
        [](const RunReport& r) {
          return r.sim ? static_cast<double>(r.sim->migrated_utxos) : 0.0;
        },
        base);
    out.repartition_events = aggregate(
        [](const RunReport& r) {
          return r.sim ? static_cast<double>(r.sim->repartition_events) : 0.0;
        },
        base);
    out.repartition_migrated_txs = aggregate(
        [](const RunReport& r) {
          return r.sim
                     ? static_cast<double>(r.sim->repartition_migrated_txs)
                     : 0.0;
        },
        base);
    out.repartition_migrated_utxos = aggregate(
        [](const RunReport& r) {
          return r.sim
                     ? static_cast<double>(r.sim->repartition_migrated_utxos)
                     : 0.0;
        },
        base);
    out.repartition_deferred_txs = aggregate(
        [](const RunReport& r) {
          return r.sim
                     ? static_cast<double>(r.sim->repartition_deferred_txs)
                     : 0.0;
        },
        base);
    for (std::uint32_t r = 0; r < replicas; ++r) {
      if (results[base + r].sim && !results[base + r].sim->completed) {
        out.completed = false;
      }
      out.runs.push_back(std::move(results[base + r]));
    }
    report.cells.push_back(std::move(out));
  }
  return report;
}

const CellReport* SweepReport::find(std::string_view method,
                                    std::uint32_t num_shards,
                                    double rate_tps) const noexcept {
  for (const CellReport& cell : cells) {
    if (cell.method == method && cell.num_shards == num_shards &&
        cell.rate_tps == rate_tps) {
      return &cell;
    }
  }
  return nullptr;
}

TextTable SweepReport::to_table() const {
  if (mode == RunMode::kPlace) {
    TextTable table({"method", "shards", "seed", "txs", "cross-TX",
                     "cross-TX %"});
    for (const CellReport& cell : cells) {
      table.add_row({cell.method, std::to_string(cell.num_shards),
                     std::to_string(cell.seed),
                     TextTable::fmt_int(static_cast<long long>(cell.txs)),
                     TextTable::fmt(cell.cross_txs.mean, 0),
                     TextTable::fmt_percent(cell.cross_fraction.mean)});
    }
    return table;
  }
  TextTable table({"method", "shards", "rate(tps)", "seed", "cross-TX",
                   "throughput(tps)", "avg lat(s)", "max lat(s)",
                   "completed"});
  for (const CellReport& cell : cells) {
    table.add_row({cell.method, std::to_string(cell.num_shards),
                   TextTable::fmt(cell.rate_tps, 0),
                   std::to_string(cell.seed),
                   TextTable::fmt_percent(cell.cross_fraction.mean),
                   TextTable::fmt(cell.throughput_tps.mean, 0),
                   TextTable::fmt(cell.avg_latency_s.mean, 1),
                   TextTable::fmt(cell.max_latency_s.mean, 1),
                   cell.completed ? "yes" : "no"});
  }
  return table;
}

namespace {

void append_full(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void append_aggregate(std::string& out, const Aggregate& aggregate) {
  out += ',';
  append_full(out, aggregate.mean);
  out += ',';
  append_full(out, aggregate.min);
  out += ',';
  append_full(out, aggregate.max);
}

constexpr const char* kAggregateColumns[] = {
    "cross_fraction", "cross_txs",  "throughput_tps",
    "avg_latency_s",  "max_latency_s", "committed",
    "aborted",        "duration_s", "total_blocks",
    "shard_changes",  "migrated_txs", "migrated_utxos",
    "repartition_events", "repartition_migrated_txs",
    "repartition_migrated_utxos", "repartition_deferred_txs"};

}  // namespace

std::string SweepReport::to_csv() const {
  std::string out =
      "scenario,mode,cell,method,shards,rate_tps,seed,replicas,txs,warm_txs,"
      "completed";
  for (const char* column : kAggregateColumns) {
    out += std::string(",") + column + "_mean," + column + "_min," + column +
           "_max";
  }
  out += '\n';
  for (const CellReport& cell : cells) {
    out += scenario;
    out += ',';
    out += to_string(mode);
    out += ',' + std::to_string(cell.cell) + ',' + cell.method + ',' +
           std::to_string(cell.num_shards) + ',';
    append_full(out, cell.rate_tps);
    out += ',' + std::to_string(cell.seed) + ',' +
           std::to_string(cell.replicas) + ',' + std::to_string(cell.txs) +
           ',' + std::to_string(cell.warm_txs) + ',' +
           (cell.completed ? "1" : "0");
    const Aggregate* aggregates[] = {
        &cell.cross_fraction, &cell.cross_txs,  &cell.throughput_tps,
        &cell.avg_latency_s,  &cell.max_latency_s, &cell.committed,
        &cell.aborted,        &cell.duration_s, &cell.total_blocks,
        &cell.shard_changes,  &cell.migrated_txs, &cell.migrated_utxos,
        &cell.repartition_events, &cell.repartition_migrated_txs,
        &cell.repartition_migrated_utxos, &cell.repartition_deferred_txs};
    for (const Aggregate* aggregate : aggregates) {
      append_aggregate(out, *aggregate);
    }
    out += '\n';
  }
  return out;
}

void SweepReport::write_json(JsonWriter& json) const {
  json.field("scenario", scenario)
      .field("title", title)
      .field("paper_ref", paper_ref)
      .field("mode", to_string(mode))
      .field("num_cells", cells.size());
  for (const CellReport& cell : cells) {
    json.begin_object("cell" + std::to_string(cell.cell))
        .field("method", cell.method)
        .field("shards", cell.num_shards)
        .field("rate_tps", cell.rate_tps)
        .field("seed", cell.seed)
        .field("replicas", cell.replicas)
        .field("txs", cell.txs)
        .field("warm_txs", cell.warm_txs)
        .field("completed", cell.completed);
    const std::pair<const char*, const Aggregate*> metrics[] = {
        {"cross_fraction", &cell.cross_fraction},
        {"cross_txs", &cell.cross_txs},
        {"throughput_tps", &cell.throughput_tps},
        {"avg_latency_s", &cell.avg_latency_s},
        {"max_latency_s", &cell.max_latency_s},
        {"committed", &cell.committed},
        {"aborted", &cell.aborted},
        {"duration_s", &cell.duration_s},
        {"total_blocks", &cell.total_blocks},
        {"shard_changes", &cell.shard_changes},
        {"migrated_txs", &cell.migrated_txs},
        {"migrated_utxos", &cell.migrated_utxos},
        {"repartition_events", &cell.repartition_events},
        {"repartition_migrated_txs", &cell.repartition_migrated_txs},
        {"repartition_migrated_utxos", &cell.repartition_migrated_utxos},
        {"repartition_deferred_txs", &cell.repartition_deferred_txs}};
    for (const auto& [name, aggregate] : metrics) {
      json.begin_object(name)
          .field("mean", aggregate->mean)
          .field("min", aggregate->min)
          .field("max", aggregate->max)
          .end_object();
    }
    json.end_object();
  }
}

}  // namespace optchain::api
