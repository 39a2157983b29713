#include "scenarios.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <utility>

#include "api/placer_registry.hpp"
#include "api/run_spec.hpp"
#include "bench_common.hpp"
#include "common/histogram.hpp"
#include "common/table.hpp"
#include "core/optchain_placer.hpp"
#include "graph/dag.hpp"
#include "obs/chrome_export.hpp"
#include "obs/run_tracer.hpp"
#include "placement/greedy_placer.hpp"
#include "trace/trace_import.hpp"
#include "trace/trace_reader.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tan_builder.hpp"
#include "workload/tx_source.hpp"

namespace optchain::bench {
namespace {

// ---------------------------------------------------------------- helpers

std::uint64_t seed_of(const Flags& flags) {
  return static_cast<std::uint64_t>(flags.get_int("seed", 1));
}

bool smoke(const Flags& flags) { return flags.get_bool("smoke", false); }

/// Issue-window seconds: explicit --issue_seconds wins, --smoke shrinks to a
/// 1 s window, otherwise the figure's paper-scale default.
double issue_window(const Flags& flags, double default_seconds) {
  if (flags.has("issue_seconds")) {
    return flags.get_double("issue_seconds", default_seconds);
  }
  return smoke(flags) ? 1.0 : default_seconds;
}

/// Fixed stream length: explicit --txs wins, --smoke uses the CI size.
std::uint64_t sized(const Flags& flags, std::uint64_t full,
                    std::uint64_t smoke_size) {
  if (flags.has("txs")) {
    return static_cast<std::uint64_t>(
        flags.get_int("txs", static_cast<std::int64_t>(full)));
  }
  return smoke(flags) ? smoke_size : full;
}

std::vector<double> rate_axis(const Flags& flags,
                              std::vector<std::int64_t> fallback) {
  std::vector<double> out;
  for (const auto rate : flags.get_int_list("rates", std::move(fallback))) {
    out.push_back(static_cast<double>(rate));
  }
  return out;
}

std::vector<std::uint32_t> shard_axis(const Flags& flags,
                                      std::vector<std::int64_t> fallback) {
  std::vector<std::uint32_t> out;
  for (const auto k : flags.get_int_list("shards", std::move(fallback))) {
    out.push_back(static_cast<std::uint32_t>(k));
  }
  return out;
}

/// Method line-up override (--methods=A,B,...). An explicitly empty list
/// (--methods=) flows through to ScenarioSpec::expand(), which rejects it —
/// an empty expansion must fail loudly, never run zero cells successfully.
std::vector<std::string> method_axis(const Flags& flags,
                                     std::vector<std::string> fallback) {
  return flags.get_string_list("methods", std::move(fallback));
}

/// The simulation-scenario base: the paper's method line-up, one seed, the
/// historical 10 s Fig. 5 window, sized by rate × issue window.
api::ScenarioSpec sim_spec(const Flags& flags, double default_issue_seconds) {
  api::ScenarioSpec spec;
  spec.mode = api::RunMode::kSimulate;
  spec.methods =
      method_axis(flags, {"OptChain", "OmniLedger", "Metis", "Greedy"});
  spec.seeds = {seed_of(flags)};
  spec.replicas =
      static_cast<std::uint32_t>(flags.get_int("replicas", 1));
  spec.issue_seconds = issue_window(flags, default_issue_seconds);
  spec.txs = static_cast<std::uint64_t>(flags.get_int("txs", 0));
  spec.commit_window_s = 10.0;
  return spec;
}

std::vector<tx::Transaction> make_stream(std::size_t n, std::uint64_t seed,
                                         workload::WorkloadConfig config = {}) {
  workload::BitcoinLikeGenerator generator(config, seed);
  return generator.generate(n);
}

void maybe_save_csv(const Flags& flags, const std::string& name,
                    const TextTable& table) {
  const std::string dir = flags.get_string("csv_dir", "");
  if (dir.empty()) return;
  const std::string path = dir + "/" + name + ".csv";
  table.save_csv(path);
  std::printf("(wrote %s)\n", path.c_str());
}

double metric_or_zero(const api::CellReport* cell,
                      double api::Aggregate::*stat,
                      api::Aggregate api::CellReport::*metric) {
  return cell == nullptr ? 0.0 : (cell->*metric).*stat;
}

/// rates × methods pivot of one aggregate's mean (Figs. 4a/8a/9a shape).
TextTable rate_method_table(const api::SweepReport& report,
                            const std::vector<std::string>& methods,
                            const std::vector<double>& rates, std::uint32_t k,
                            api::Aggregate api::CellReport::*metric,
                            int precision) {
  std::vector<std::string> header{"rate(tps)"};
  header.insert(header.end(), methods.begin(), methods.end());
  TextTable table(std::move(header));
  for (const double rate : rates) {
    std::vector<std::string> row{
        TextTable::fmt_int(static_cast<long long>(rate))};
    for (const std::string& method : methods) {
      row.push_back(TextTable::fmt(
          metric_or_zero(report.find(method, k, rate), &api::Aggregate::mean,
                         metric),
          precision));
    }
    table.add_row(std::move(row));
  }
  return table;
}

/// (rate, shards) pairings × methods pivot (Figs. 8b/9b shape).
TextTable pairing_method_table(const api::SweepReport& report,
                               const std::vector<std::string>& methods,
                               const std::vector<api::OperatingPoint>& points,
                               api::Aggregate api::CellReport::*metric,
                               int precision) {
  std::vector<std::string> header{"rate(tps)", "shards"};
  header.insert(header.end(), methods.begin(), methods.end());
  TextTable table(std::move(header));
  for (const api::OperatingPoint& point : points) {
    std::vector<std::string> row{
        TextTable::fmt_int(static_cast<long long>(point.rate_tps)),
        std::to_string(point.shards)};
    for (const std::string& method : methods) {
      row.push_back(TextTable::fmt(
          metric_or_zero(report.find(method, point.shards, point.rate_tps),
                         &api::Aggregate::mean, metric),
          precision));
    }
    table.add_row(std::move(row));
  }
  return table;
}

const std::vector<api::OperatingPoint>& paper_pairings() {
  // The paper pairs each rate with the smallest shard count that keeps
  // OptChain healthy (Figs. 8b/9b).
  static const std::vector<api::OperatingPoint> kPairings = {
      {2000.0, 6}, {3000.0, 8}, {4000.0, 10}, {5000.0, 14}, {6000.0, 16}};
  return kPairings;
}

// ------------------------------------------------------------ fig2 (custom)

int run_fig2(const Flags& flags, JsonWriter* json) {
  const auto n = static_cast<std::size_t>(sized(flags, 1'000'000, 20'000));
  const std::uint64_t seed = seed_of(flags);

  // Place a flood episode at ~60% of the stream, mirroring the spam attack
  // the paper observes around transaction 80M of 298M.
  workload::WorkloadConfig config;
  config.flood.start =
      static_cast<std::uint64_t>(0.60 * static_cast<double>(n));
  config.flood.end = config.flood.start + n / 50;
  config.flood.inputs_per_tx = 12;
  // Extra liquidity so the consolidation episode has dust to sweep.
  config.coinbase_interval = 50;

  const auto txs = make_stream(n, seed, config);
  const graph::TanDag dag = workload::build_tan(txs);
  const auto stats = graph::compute_degree_stats(dag);

  std::printf("nodes=%llu edges=%llu (paper: 298,325,121 / 696,860,716 full; "
              "10M/19.96M for the evaluation prefix)\n",
              static_cast<unsigned long long>(stats.nodes),
              static_cast<unsigned long long>(stats.edges));
  std::printf("average in-/out-degree = %.3f (paper: ~2.0-2.3)\n",
              stats.average_degree);

  // (a) Degree distributions.
  IntHistogram input_degree, spender_degree;
  for (graph::NodeId u = 0; u < dag.num_nodes(); ++u) {
    input_degree.add(dag.input_degree(u));
    spender_degree.add(dag.spender_count(u));
  }
  std::printf("\n-- Fig. 2a: degree distribution (head; log-log power law) "
              "--\n");
  TextTable degree_table({"degree", "count(inputs)", "count(spenders)"});
  for (std::uint64_t d = 0; d <= 12; ++d) {
    degree_table.add_row(
        {std::to_string(d),
         TextTable::fmt_int(static_cast<long long>(input_degree.count_of(d))),
         TextTable::fmt_int(
             static_cast<long long>(spender_degree.count_of(d)))});
  }
  degree_table.print();

  // (b) Cumulative distribution at the paper's reference points.
  std::printf("\n-- Fig. 2b: cumulative distribution --\n");
  TextTable cdf_table({"statistic", "measured", "paper"});
  cdf_table.add_row({"P[spender-degree < 3]",
                     TextTable::fmt_percent(spender_degree.fraction_below(3)),
                     "93.1 %"});
  cdf_table.add_row({"P[input-degree < 3]",
                     TextTable::fmt_percent(input_degree.fraction_below(3)),
                     "86.3 %"});
  cdf_table.add_row({"P[input-degree < 10]",
                     TextTable::fmt_percent(input_degree.fraction_below(10)),
                     "97.6 %"});
  cdf_table.print();
  maybe_save_csv(flags, "fig2b_degree_cdf", cdf_table);

  // (c) Average degree over time (windowed), flood episode visible.
  std::printf("\n-- Fig. 2c: average degree over time (20 windows) --\n");
  TextTable time_table({"window(txs)", "avg inputs/tx", "note"});
  const std::size_t window = dag.num_nodes() / 20;
  for (std::size_t w = 0; w < 20 && window > 0; ++w) {
    const std::size_t begin = w * window;
    const std::size_t end = std::min(begin + window, dag.num_nodes());
    std::uint64_t edges_in_window = 0;
    for (std::size_t u = begin; u < end; ++u) {
      edges_in_window += dag.input_degree(static_cast<graph::NodeId>(u));
    }
    const double avg = static_cast<double>(edges_in_window) /
                       static_cast<double>(end - begin);
    const bool flooded = begin < config.flood.end && end > config.flood.start;
    time_table.add_row({std::to_string(begin) + "-" + std::to_string(end),
                        TextTable::fmt(avg, 3),
                        flooded ? "<-- flood episode" : ""});
  }
  time_table.print();

  if (json != nullptr) {
    json->field("txs", n)
        .field("nodes", stats.nodes)
        .field("edges", stats.edges)
        .field("average_degree", stats.average_degree)
        .field("p_spender_degree_lt3", spender_degree.fraction_below(3))
        .field("p_input_degree_lt3", input_degree.fraction_below(3))
        .field("p_input_degree_lt10", input_degree.fraction_below(10));
  }
  return 0;
}

// ----------------------------------------------------------- fig11 (custom)

/// True when the run kept up with the input: everything committed and the
/// drain tail after the last issued transaction stayed short.
bool sustainable(const sim::SimResult& result, std::size_t n, double rate) {
  const double issue_window_s = static_cast<double>(n) / rate;
  return result.completed && result.duration_s <= issue_window_s + 30.0 &&
         result.avg_latency_s <= 20.0;
}

int run_fig11(const Flags& flags, JsonWriter* json) {
  const std::uint64_t seed = seed_of(flags);
  const auto shard_counts =
      shard_axis(flags, smoke(flags)
                            ? std::vector<std::int64_t>{4, 8}
                            : std::vector<std::int64_t>{4, 8, 16, 24, 32, 48,
                                                        62});
  const double issue_seconds = issue_window(flags, 20.0);

  std::printf("stream sized to %.1f s of issue time per probe; binary search "
              "over rates\n\n",
              issue_seconds);

  TextTable table({"shards", "max sustainable rate(tps)", "avg latency(s)",
                   "max latency(s)"});
  for (const std::uint32_t k : shard_counts) {
    // Binary search the highest sustainable rate for this shard count.
    double lo = 500.0;
    double hi = 1100.0 * k;  // above any plausible per-shard capacity
    double best_avg = 0.0, best_max = 0.0;
    for (int iter = 0; iter < 8; ++iter) {
      const double rate = (lo + hi) / 2.0;
      const auto n = static_cast<std::size_t>(rate * issue_seconds);
      const auto txs = make_stream(n, seed);
      api::RunSpec spec;
      spec.method = "OptChain";
      spec.num_shards = k;
      spec.seed = seed;
      spec.rate_tps = rate;
      spec.commit_window_s = 10.0;
      const api::RunReport report = api::simulate(spec, txs);
      if (sustainable(*report.sim, n, rate)) {
        lo = rate;
        best_avg = report.sim->avg_latency_s;
        best_max = report.sim->max_latency_s;
      } else {
        hi = rate;
      }
    }
    table.add_row({std::to_string(k), TextTable::fmt(lo, 0),
                   TextTable::fmt(best_avg, 1), TextTable::fmt(best_max, 1)});
    if (json != nullptr) {
      json->begin_object("k" + std::to_string(k))
          .field("max_rate_tps", lo)
          .field("avg_latency_s", best_avg)
          .field("max_latency_s", best_max)
          .end_object();
    }
  }
  table.print();
  maybe_save_csv(flags, "fig11_scalability", table);
  std::printf("\npaper shape: near-linear in #shards; >20k tps at 62 shards; "
              "confirmation <= 11 s while sustainable\n");
  return 0;
}

// --------------------------------------------------------- network (custom)

/// Link-fabric study, not a paper figure: the placement lineup under
/// link-level network topologies (sim/fabric/: geo-region latency tiers,
/// access-link bandwidth queues with tail drop, stragglers), sweeping
/// placers × topology × cross-shard cost — the inter-region latency scale.
/// The paper's flat model prices every message the same; this scenario
/// shows what each placer's cross-shard avoidance is worth once crossing
/// shards costs real network resources. Output is deterministic (no wall
/// clock), so the scenario participates in `optchain-bench all`.
int run_network_bench(const Flags& flags, JsonWriter* json) {
  const std::uint64_t seed = seed_of(flags);
  const std::uint64_t n = sized(flags, 50'000, 3'000);
  const auto shards = static_cast<std::uint32_t>(flags.get_int("k", 16));
  const double rate = flags.get_double("rate", 4000.0);
  const std::vector<std::string> topologies =
      flags.get_string_list("topology", {"flat", "wan", "congested"});
  const std::vector<double> inter_scales =
      flags.get_double_list("inter_scale", {1.0, 2.0});
  const std::vector<std::string> methods =
      method_axis(flags, {"OptChain", "OmniLedger", "Greedy"});

  std::printf("%llu txs, %u shards, %.0f tps; topologies × inter-region "
              "latency scale × methods\n\n",
              static_cast<unsigned long long>(n), shards, rate);
  const auto txs = make_stream(n, seed);

  TextTable table({"topology", "xscale", "method", "tput(tps)", "avg_lat(s)",
                   "cross%", "drops", "peak_backlog(s)"});
  if (json != nullptr) {
    json->field("txs", n)
        .field("shards", shards)
        .field("rate_tps", rate);
  }
  for (const std::string& topology : topologies) {
    const sim::FabricConfig base = sim::fabric_preset(topology);
    for (const double scale : inter_scales) {
      // A single-region topology has no inter-region tier to scale; keep
      // one row instead of duplicating identical runs per scale value.
      if (base.regions < 2 && scale != inter_scales.front()) continue;
      sim::FabricConfig fabric = base;
      fabric.inter_region_latency_s *= scale;
      const std::string scale_label = TextTable::fmt(scale, 1);
      for (const std::string& method : methods) {
        api::RunSpec spec;
        spec.method = method;
        spec.num_shards = shards;
        spec.seed = seed;
        spec.rate_tps = rate;
        spec.commit_window_s = 10.0;
        spec.fabric = fabric;
        const api::RunReport report = api::simulate(spec, txs);
        table.add_row(
            {topology, scale_label, report.method,
             TextTable::fmt(report.sim->throughput_tps, 0),
             TextTable::fmt(report.sim->avg_latency_s, 2),
             TextTable::fmt_percent(report.cross_fraction()),
             TextTable::fmt_int(
                 static_cast<long long>(report.sim->link_drops)),
             TextTable::fmt(report.sim->link_peak_backlog_s, 3)});
        if (json != nullptr) {
          json->begin_object(topology + "/x" + scale_label + "/" +
                             report.method)
              .field("throughput_tps", report.sim->throughput_tps)
              .field("avg_latency_s", report.sim->avg_latency_s)
              .field("cross_fraction", report.cross_fraction())
              .field("link_messages", report.sim->link_messages)
              .field("link_drops", report.sim->link_drops)
              .field("link_queue_delay_s", report.sim->link_queue_delay_s)
              .field("link_peak_backlog_s", report.sim->link_peak_backlog_s)
              .end_object();
        }
      }
    }
  }
  table.print();
  maybe_save_csv(flags, "network_fabric", table);
  std::printf("\n\"flat\" is the degenerate fabric (bit-identical to the "
              "classic NetworkModel path); wan/congested add region tiers, "
              "queueing and stragglers\n");
  return 0;
}

// --------------------------------------------------- observability (custom)

/// Observability benchmark, not a paper figure: the run-telemetry layer
/// (src/obs) end to end on one operating point. It publishes one run's
/// trace (--trace_out) and its Perfetto export (--export_out), so CI
/// uploads an openable ui.perfetto.dev artifact, then checks the tracer
/// overhead — traced vs untraced wall-clock (best of --reps); above
/// --max_overhead (default 5%) the scenario fails.
int run_observability(const Flags& flags, JsonWriter* json) {
  const std::uint64_t seed = seed_of(flags);
  const std::uint64_t n = sized(flags, 100'000, 4'000);
  const auto shards = static_cast<std::uint32_t>(flags.get_int("k", 16));
  const double rate = flags.get_double("rate", 4000.0);
  const auto reps = static_cast<int>(
      std::max<std::int64_t>(1, flags.get_int("reps", 3)));
  const double max_overhead = flags.get_double("max_overhead", 0.05);
  const std::string trace_out =
      flags.get_string("trace_out", "obs_run.otrace");
  const std::string export_out =
      flags.get_string("export_out", "obs_run.perfetto.json");

  std::printf("%llu txs, %u shards, %.0f tps; trace capture, tracer "
              "overhead (best of %d)\n\n",
              static_cast<unsigned long long>(n), shards, rate, reps);
  const auto txs = make_stream(n, seed);

  api::RunSpec spec;
  spec.method = "OptChain";
  spec.num_shards = shards;
  spec.seed = seed;
  spec.rate_tps = rate;
  spec.commit_window_s = 10.0;

  if (json != nullptr) {
    json->field("txs", n).field("shards", shards).field("rate_tps", rate);
  }

  // 1. Publish the artifacts: one traced run and its Perfetto export.
  obs::RunTracer tracer(trace_out);
  api::RunSpec traced = spec;
  traced.observers.push_back(&tracer);
  api::simulate(traced, txs);
  const std::uint64_t trace_records = tracer.finish();
  const std::uint64_t perfetto_events =
      obs::export_chrome_trace(trace_out, export_out);
  std::printf("wrote %s (%llu records) and %s (%llu trace events; open "
              "in ui.perfetto.dev)\n",
              trace_out.c_str(),
              static_cast<unsigned long long>(trace_records),
              export_out.c_str(),
              static_cast<unsigned long long>(perfetto_events));
  if (json != nullptr) {
    json->field("trace_records", trace_records)
        .field("trace_path", trace_out)
        .field("perfetto_events", perfetto_events)
        .field("perfetto_path", export_out);
  }

  // 2. Tracer overhead: untraced vs traced wall-clock, best of --reps
  // (minimum filters scheduler noise — the stable floor is the comparison
  // that reflects the tracer's real cost). Measured on a stream of at
  // least 16k txs even in --smoke: at 4k txs the runs are ~10 ms and
  // timer/scheduler jitter swamps the few-percent marginal cost the
  // budget bounds.
  const std::uint64_t overhead_n = std::max<std::uint64_t>(n, 16'000);
  const std::vector<tx::Transaction> overhead_txs =
      overhead_n == n ? txs : make_stream(overhead_n, seed);
  const auto temp = std::filesystem::temp_directory_path();
  const auto best_wall = [&](bool with_tracer) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
      const std::string path =
          (temp / ("optchain_obs_overhead_" + std::to_string(rep) +
                   ".otrace"))
              .string();
      api::RunSpec run_spec = spec;
      std::unique_ptr<obs::RunTracer> tracer;
      if (with_tracer) {
        tracer = std::make_unique<obs::RunTracer>(path);
        run_spec.observers.push_back(tracer.get());
      }
      const auto start = std::chrono::steady_clock::now();
      api::simulate(run_spec, overhead_txs);
      if (tracer != nullptr) tracer->finish();
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - start;
      best = std::min(best, wall.count());
    }
    return best;
  };
  const double untraced_wall = best_wall(false);
  const double traced_wall = best_wall(true);
  const double overhead = (traced_wall - untraced_wall) / untraced_wall;
  std::printf("\n-- tracer overhead (finish() included, %llu txs) --\n",
              static_cast<unsigned long long>(overhead_n));
  std::printf("untraced %.3fs, traced %.3fs: %+.1f%% (budget %.0f%%)\n",
              untraced_wall, traced_wall, 100.0 * overhead,
              100.0 * max_overhead);
  if (json != nullptr) {
    json->field("untraced_wall_s", untraced_wall)
        .field("traced_wall_s", traced_wall)
        .field("tracer_overhead", overhead)
        .field("max_overhead", max_overhead);
  }
  if (overhead > max_overhead) {
    std::fprintf(stderr,
                 "observability: tracer overhead %.1f%% exceeds the %.0f%% "
                 "budget\n",
                 100.0 * overhead, 100.0 * max_overhead);
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------- trace (custom)

int run_trace(const Flags& flags, JsonWriter* json) {
  // The dataset is named by --trace= (a container built with
  // `optchain-trace import` — the CI path). Without one the scenario stays
  // self-contained: it snapshots a generated workload into the temp dir
  // once (keyed by seed and size, so repeated runs and the sweep's cells
  // all replay the same import) and replays that.
  std::string path = flags.get_string("trace", "");
  if (path.empty()) {
    const std::uint64_t n = sized(flags, 1'000'000, 20'000);
    const std::uint64_t seed = seed_of(flags);
    path = (std::filesystem::temp_directory_path() /
            ("optchain_bench_trace_s" + std::to_string(seed) + "_n" +
             std::to_string(n) + ".optx"))
               .string();
    // Reuse a previous run's snapshot only if it actually opens: a killed
    // import leaves a trailerless file, and exists() alone would let it
    // poison every future run. The import itself goes to a unique name and
    // is renamed into place atomically, so concurrent runs at the same
    // (seed, n) never see each other's half-written bytes.
    bool usable = false;
    if (std::filesystem::exists(path)) {
      try {
        trace::TraceReader probe(path);
        usable = probe.size() == n;
      } catch (const std::exception&) {
        usable = false;
      }
    }
    if (!usable) {
      const std::string staging =
          path + ".tmp." +
          std::to_string(static_cast<unsigned long long>(
              std::chrono::steady_clock::now().time_since_epoch().count()));
      workload::GeneratorTxSource source({}, seed, n);
      trace::import_source(source, staging);
      std::filesystem::rename(staging, path);
    }
    std::printf("(no --trace=; replaying generated snapshot %s)\n\n",
                path.c_str());
  }

  api::ScenarioSpec spec;
  spec.name = "trace";
  spec.title = "cross-TX placement over an imported trace";
  spec.paper_ref = "§V.A replay method (real-dataset placement)";
  spec.mode = api::RunMode::kPlace;
  spec.workload = api::WorkloadKind::kTrace;
  spec.trace.path = path;
  spec.trace.begin = static_cast<std::uint64_t>(flags.get_int("begin", 0));
  spec.trace.end = static_cast<std::uint64_t>(flags.get_int("end", 0));
  // --txs caps the replayed window; --smoke keeps CI at seconds. 0 = the
  // whole window.
  spec.txs = flags.has("txs")
                 ? static_cast<std::uint64_t>(flags.get_int("txs", 0))
                 : (smoke(flags) ? 20'000 : 0);
  // The streaming lineup (Metis/Static need a materialized stream and are
  // exactly what a trace replay avoids).
  spec.methods = method_axis(
      flags, {"OptChain", "T2S", "Greedy", "OmniLedger", "LeastLoaded"});
  spec.shards = shard_axis(flags, {16});
  spec.seeds = {seed_of(flags)};
  spec.replicas =
      static_cast<std::uint32_t>(flags.get_int("replicas", 1));

  api::SweepOptions options;
  options.jobs = static_cast<unsigned>(
      std::max<std::int64_t>(0, flags.get_int("jobs", 1)));
  const api::SweepReport report = api::SweepRunner(options).run(spec);
  report.to_table().print();
  maybe_save_csv(flags, "trace_place", report.to_table());
  if (json != nullptr) {
    json->begin_object(report.scenario);
    report.write_json(*json);
    json->end_object();
  }
  return 0;
}

// ----------------------------------------------------- sweep spec builders

api::ScenarioSpec fig3_spec(const Flags& flags) {
  api::ScenarioSpec spec = sim_spec(flags, 60.0);
  spec.name = "fig3";
  spec.rates = rate_axis(flags, {2000, 4000, 6000});
  spec.shards = shard_axis(flags, {4, 8, 12, 16});
  return spec;
}

api::ScenarioSpec fig4_spec(const Flags& flags) {
  api::ScenarioSpec spec = sim_spec(flags, 120.0);
  spec.name = "fig4";
  spec.rates = rate_axis(flags, {2000, 3000, 4000, 5000, 6000});
  spec.shards = {static_cast<std::uint32_t>(flags.get_int("k", 16))};
  return spec;
}

/// One (rate, k) operating point with the whole method line-up — the Figs.
/// 5/6/7/10 shape; they differ only in which SimResult series they render.
api::ScenarioSpec stressed_point_spec(const Flags& flags, const char* name) {
  api::ScenarioSpec spec = sim_spec(flags, 90.0);
  spec.name = name;
  spec.rates = {static_cast<double>(flags.get_int("rate", 6000))};
  spec.shards = {static_cast<std::uint32_t>(flags.get_int("k", 16))};
  return spec;
}

api::ScenarioSpec fig5_spec(const Flags& flags) {
  api::ScenarioSpec spec = stressed_point_spec(flags, "fig5");
  // Paper uses 50 s windows over a 1667 s run; scale the window to the run.
  const double issue_s = spec.txs > 0 ? static_cast<double>(spec.txs) /
                                            spec.rates[0]
                                      : spec.issue_seconds;
  spec.commit_window_s =
      flags.get_double("window", std::max(5.0, issue_s / 12.0));
  return spec;
}

api::ScenarioSpec fig8a_spec(const Flags& flags) {
  api::ScenarioSpec spec = sim_spec(flags, 90.0);
  spec.name = "fig8a";
  spec.rates = rate_axis(flags, {2000, 3000, 4000, 5000, 6000});
  spec.shards = {static_cast<std::uint32_t>(flags.get_int("k", 16))};
  return spec;
}

api::ScenarioSpec fig8b_spec(const Flags& flags) {
  api::ScenarioSpec spec = sim_spec(flags, 90.0);
  spec.name = "fig8b";
  spec.pairings = paper_pairings();
  return spec;
}

api::ScenarioSpec table1_spec(const Flags& flags) {
  api::ScenarioSpec spec;
  spec.name = "table1";
  spec.mode = api::RunMode::kPlace;
  spec.methods = method_axis(flags, {"Metis", "Greedy", "OmniLedger", "T2S"});
  spec.shards = shard_axis(flags, {4, 8, 16, 32, 64});
  spec.seeds = {seed_of(flags)};
  spec.txs = sized(flags, 200'000, 10'000);
  return spec;
}

api::ScenarioSpec table2_spec(const Flags& flags) {
  api::ScenarioSpec spec;
  spec.name = "table2";
  spec.mode = api::RunMode::kPlace;
  spec.methods = method_axis(flags, {"Greedy", "OmniLedger", "T2S"});
  spec.shards = shard_axis(flags, {4, 8, 16, 32, 64});
  spec.seeds = {seed_of(flags)};
  spec.txs = sized(flags, 20'000, 1'000);  // the "next 1M", scaled
  // The paper warms with the first 30M transactions before placing 1M.
  spec.warm_ratio =
      static_cast<std::uint32_t>(flags.get_int("warm_ratio", 30));
  return spec;
}

api::ScenarioSpec ablation_main_spec(const Flags& flags) {
  api::ScenarioSpec spec = sim_spec(flags, 60.0);
  spec.name = "ablation";
  spec.methods = {"OptChain",       "T2S",
                  "OptChain-w0.1",  "OptChain-outdiv",
                  "Greedy",         "Greedy-smallties",
                  "LeastLoaded"};
  spec.rates = {static_cast<double>(flags.get_int("rate", 4000))};
  spec.shards = {static_cast<std::uint32_t>(flags.get_int("k", 8))};
  return spec;
}

api::ScenarioSpec ablation_rapidchain_spec(const Flags& flags) {
  api::ScenarioSpec spec = ablation_main_spec(flags);
  spec.name = "ablation-rapidchain";
  spec.methods = {"OptChain"};
  spec.protocol = sim::ProtocolMode::kRapidChain;
  return spec;
}

api::ScenarioSpec ablation_slowdown_spec(const Flags& flags) {
  api::ScenarioSpec spec = ablation_main_spec(flags);
  spec.name = "ablation-slowdown";
  spec.methods = {"OptChain", "OmniLedger"};
  spec.shard_slowdown = {flags.get_double("slow_factor", 6.0)};
  return spec;
}

api::ScenarioSpec account_place_spec(const Flags& flags) {
  api::ScenarioSpec spec;
  spec.name = "account-place";
  spec.mode = api::RunMode::kPlace;
  spec.workload = api::WorkloadKind::kAccount;
  if (flags.get_bool("receiver_dep", false)) {
    spec.account_workload.dependency =
        workload::AccountDependency::kSenderAndReceiver;
  }
  spec.methods = {"T2S", "Greedy", "OmniLedger"};
  spec.shards = shard_axis(flags, {4, 8, 16, 32, 64});
  spec.seeds = {seed_of(flags)};
  spec.txs = sized(flags, 200'000, 10'000);
  return spec;
}

api::ScenarioSpec account_sim_spec(const Flags& flags) {
  api::ScenarioSpec spec = account_place_spec(flags);
  spec.name = "account-sim";
  spec.mode = api::RunMode::kSimulate;
  spec.methods = {"OptChain", "OmniLedger"};
  spec.shards = {8};
  spec.rates = {3000.0};
  spec.commit_window_s = 10.0;
  return spec;
}

// --------------------------------------- dynamic-workload spec builders

/// The dynamic-workload method line-up: the paper's online strategies plus
/// the Shard Scheduler-style affinity baseline. Metis is deliberately absent
/// (an offline oracle cannot follow a moving workload, and injecting
/// profiles never materialize the emitted stream).
std::vector<std::string> dynamic_lineup(const Flags& flags) {
  return method_axis(flags,
                     {"OptChain", "OmniLedger", "Greedy", "ShardScheduler"});
}

/// `dynamic`: one operating point under a four-act rate wave — calm,
/// linear ramp to 2x, flash crowd spiking to 3x, diurnal tail — sized so
/// the acts partition the nominal issue window.
api::ScenarioSpec dynamic_spec(const Flags& flags) {
  api::ScenarioSpec spec;
  spec.name = "dynamic";
  spec.mode = api::RunMode::kSimulate;
  spec.methods = dynamic_lineup(flags);
  spec.seeds = {seed_of(flags)};
  spec.replicas = static_cast<std::uint32_t>(flags.get_int("replicas", 1));
  spec.commit_window_s = 10.0;
  const auto base = static_cast<double>(flags.get_int("rate", 3000));
  spec.rates = {base};
  spec.shards = {static_cast<std::uint32_t>(flags.get_int("k", 16))};
  spec.issue_seconds = issue_window(flags, 60.0);
  spec.txs = static_cast<std::uint64_t>(flags.get_int("txs", 0));
  // The acts partition the *effective* issue window — a --txs override
  // shrinks the wave with the stream, so the whole curve always executes.
  const double w = spec.txs > 0
                       ? static_cast<double>(spec.txs) / base
                       : spec.issue_seconds;
  spec.dynamic.rate.constant(base, 0.25 * w)
      .ramp(base, 2.0 * base, 0.25 * w)
      .flash_crowd(base, 3.0 * base, 0.05 * w, 0.25 * w)
      .diurnal(base, 0.5 * base, 0.5 * w, 0.25 * w);
  return spec;
}

/// `hotspot`: Zipfian rotating-hot-set injection plus a mid-stream
/// consolidation-spam burst (parent fan-out 24) at a fixed operating point.
api::ScenarioSpec hotspot_spec(const Flags& flags) {
  api::ScenarioSpec spec;
  spec.name = "hotspot";
  spec.mode = api::RunMode::kSimulate;
  spec.methods = dynamic_lineup(flags);
  spec.seeds = {seed_of(flags)};
  spec.replicas = static_cast<std::uint32_t>(flags.get_int("replicas", 1));
  spec.commit_window_s = 10.0;
  spec.rates = {static_cast<double>(flags.get_int("rate", 3000))};
  spec.shards = {static_cast<std::uint32_t>(flags.get_int("k", 16))};
  spec.issue_seconds = issue_window(flags, 60.0);
  spec.txs = static_cast<std::uint64_t>(flags.get_int("txs", 0));

  workload::HotspotConfig& hotspot = spec.dynamic.hotspot;
  hotspot.injection_fraction = flags.get_double("hot_fraction", 0.10);
  hotspot.zipf_s = flags.get_double("zipf", 1.2);
  hotspot.hot_set_size = 32;
  hotspot.fanout_inputs = 2;
  const std::uint64_t n = spec.stream_length(spec.rates[0]);
  hotspot.rotation_interval = std::max<std::uint64_t>(1, n / 10);
  // DoS episode over the middle tenth of the stream: injection doubles and
  // injected transactions consolidate 24 hot parents each (Fig. 2c's flood
  // shape, aimed at the hot set).
  spec.dynamic.bursts = {{n / 2, n / 2 + std::max<std::uint64_t>(1, n / 10),
                          0.5, 24}};
  return spec;
}

/// `churn`: the shard set changes mid-run — the largest shard retires at
/// 25% of the issue window (bulk handoff to the least-loaded survivor) and
/// two fresh shards join at 50% / 70%.
api::ScenarioSpec churn_spec(const Flags& flags) {
  api::ScenarioSpec spec;
  spec.name = "churn";
  spec.mode = api::RunMode::kSimulate;
  spec.methods = dynamic_lineup(flags);
  spec.seeds = {seed_of(flags)};
  spec.replicas = static_cast<std::uint32_t>(flags.get_int("replicas", 1));
  spec.commit_window_s = 10.0;
  spec.rates = {static_cast<double>(flags.get_int("rate", 3000))};
  spec.shards = {static_cast<std::uint32_t>(flags.get_int("k", 12))};
  spec.issue_seconds = issue_window(flags, 60.0);
  spec.txs = static_cast<std::uint64_t>(flags.get_int("txs", 0));
  const double w = spec.txs > 0
                       ? static_cast<double>(spec.txs) / spec.rates[0]
                       : spec.issue_seconds;
  spec.churn.events = {
      {0.25 * w, sim::ChurnKind::kRemoveShard,
       sim::ShardChurnEvent::kAutoShard},
      {0.50 * w, sim::ChurnKind::kAddShard, 0},
      {0.70 * w, sim::ChurnKind::kAddShard, 0},
  };
  return spec;
}

/// One `repartition` grid part: the online lineup (OptChain, Greedy, plus
/// the Fennel streaming baseline) under the periodic Metis re-partition
/// controller (sim/repartition.hpp) ticking every `interval_fraction` of
/// the issue window, optionally under the churn plan of churn_spec. The
/// --repartition_budget/--repartition_window flags cap the per-event
/// migration and the TaN snapshot (defaults: a tenth of the stream per
/// event — small enough that deferral shows up — and the whole graph).
api::ScenarioSpec repartition_spec(const Flags& flags, std::string name,
                                   double interval_fraction,
                                   bool with_churn) {
  api::ScenarioSpec spec;
  spec.name = std::move(name);
  spec.mode = api::RunMode::kSimulate;
  spec.methods = method_axis(flags, {"OptChain", "Greedy", "Fennel"});
  spec.seeds = {seed_of(flags)};
  spec.replicas = static_cast<std::uint32_t>(flags.get_int("replicas", 1));
  spec.commit_window_s = 10.0;
  spec.rates = {static_cast<double>(flags.get_int("rate", 3000))};
  spec.shards = {static_cast<std::uint32_t>(flags.get_int("k", 12))};
  spec.issue_seconds = issue_window(flags, 60.0);
  spec.txs = static_cast<std::uint64_t>(flags.get_int("txs", 0));
  const double w = spec.txs > 0
                       ? static_cast<double>(spec.txs) / spec.rates[0]
                       : spec.issue_seconds;
  const std::uint64_t n = spec.stream_length(spec.rates[0]);
  spec.repartition.interval_s = interval_fraction * w;
  spec.repartition.budget = static_cast<std::uint64_t>(flags.get_int(
      "repartition_budget", static_cast<std::int64_t>(n / 10)));
  spec.repartition.window = static_cast<std::uint64_t>(
      flags.get_int("repartition_window", 0));
  if (with_churn) {
    spec.churn.events = {
        {0.25 * w, sim::ChurnKind::kRemoveShard,
         sim::ShardChurnEvent::kAutoShard},
        {0.50 * w, sim::ChurnKind::kAddShard, 0},
        {0.70 * w, sim::ChurnKind::kAddShard, 0},
    };
  }
  return spec;
}

// ------------------------------------------------------------------ shapes

void shape_fig3(std::span<const api::ScenarioSpec> specs,
                std::span<const api::SweepReport> reports,
                const Flags& /*flags*/) {
  const api::ScenarioSpec& spec = specs[0];
  for (const std::string& method : spec.methods) {
    std::printf("-- %s --\n", method.c_str());
    TextTable table({"rate(tps)", "shards", "avg latency(s)",
                     "max latency(s)", "throughput(tps)", "healthy"});
    for (const double rate : spec.rates) {
      for (const std::uint32_t k : spec.shards) {
        const api::CellReport* cell = reports[0].find(method, k, rate);
        if (cell == nullptr) continue;
        // "Healthy" = the system keeps up with the input rate: everything
        // drains shortly after the last transaction is issued.
        const double issue_window_s =
            static_cast<double>(cell->txs) / rate;
        const bool healthy = cell->completed &&
                             cell->duration_s.max <= issue_window_s + 30.0;
        table.add_row({TextTable::fmt_int(static_cast<long long>(rate)),
                       std::to_string(k),
                       TextTable::fmt(cell->avg_latency_s.mean, 1),
                       TextTable::fmt(cell->max_latency_s.mean, 1),
                       TextTable::fmt(cell->throughput_tps.mean, 0),
                       healthy ? "yes" : "no"});
      }
    }
    table.print();
    std::printf("\n");
  }
}

void shape_fig4(std::span<const api::ScenarioSpec> specs,
                std::span<const api::SweepReport> reports,
                const Flags& flags) {
  const api::ScenarioSpec& spec = specs[0];
  const std::uint32_t k = spec.shards[0];

  std::printf("-- Fig. 4a: throughput vs rate at %u shards --\n", k);
  TextTable table_a =
      rate_method_table(reports[0], spec.methods, spec.rates, k,
                        &api::CellReport::throughput_tps, 0);
  table_a.print();
  maybe_save_csv(flags, "fig4a_throughput", table_a);

  std::printf("\n-- Fig. 4b: maximum throughput at %u shards --\n", k);
  std::vector<double> best(spec.methods.size(), 0.0);
  for (std::size_t m = 0; m < spec.methods.size(); ++m) {
    for (const double rate : spec.rates) {
      const api::CellReport* cell = reports[0].find(spec.methods[m], k, rate);
      if (cell != nullptr) {
        best[m] = std::max(best[m], cell->throughput_tps.mean);
      }
    }
  }
  TextTable table_b({"method", "max throughput(tps)", "OptChain gain"});
  for (std::size_t m = 0; m < spec.methods.size(); ++m) {
    // Signed gain: negative means this baseline beat OptChain on this run
    // (possible at reduced scale), and the sign must say so.
    const double gain = best[m] > 0.0 ? (best[0] - best[m]) / best[m] : 0.0;
    table_b.add_row({spec.methods[m], TextTable::fmt(best[m], 0),
                     m == 0 ? "-"
                            : TextTable::fmt_signed_percent(gain, 1)});
  }
  table_b.print();
  maybe_save_csv(flags, "fig4b_max_throughput", table_b);
  std::printf("\npaper: OptChain's 16-shard maximum is +34.4%% vs OmniLedger, "
              "+30.5%% vs Metis, +16.6%% vs Greedy\n");
}

void shape_fig5(std::span<const api::ScenarioSpec> specs,
                std::span<const api::SweepReport> reports,
                const Flags& flags) {
  const api::ScenarioSpec& spec = specs[0];
  const double window_s = spec.commit_window_s;
  std::printf("window = %.0f s (paper: 50 s)\n\n", window_s);

  std::vector<std::vector<std::uint64_t>> series;
  std::size_t max_windows = 0;
  for (const std::string& method : spec.methods) {
    const api::CellReport* cell =
        reports[0].find(method, spec.shards[0], spec.rates[0]);
    series.push_back(cell != nullptr
                         ? cell->first().sim->commits_per_window.counts()
                         : std::vector<std::uint64_t>{});
    max_windows = std::max(max_windows, series.back().size());
  }

  std::vector<std::string> header{"window"};
  header.insert(header.end(), spec.methods.begin(), spec.methods.end());
  TextTable table(std::move(header));
  for (std::size_t w = 0; w < max_windows; ++w) {
    std::vector<std::string> row{
        TextTable::fmt(static_cast<double>(w) * window_s, 0) + "s"};
    for (const auto& counts : series) {
      row.push_back(TextTable::fmt_int(
          w < counts.size() ? static_cast<long long>(counts[w]) : 0));
    }
    table.add_row(std::move(row));
  }
  table.print();
  maybe_save_csv(flags, "fig5_commit_timeline", table);
}

void shape_fig6(std::span<const api::ScenarioSpec> specs,
                std::span<const api::SweepReport> reports,
                const Flags& /*flags*/) {
  const api::ScenarioSpec& spec = specs[0];
  for (const std::string& method : spec.methods) {
    const api::CellReport* cell =
        reports[0].find(method, spec.shards[0], spec.rates[0]);
    if (cell == nullptr) continue;
    const auto& tracker = cell->first().sim->queue_tracker;
    std::printf("-- %s (worst max queue %llu; paper: OptChain ~44k, Metis "
                "~507k, Greedy ~230k, OmniLedger ~499k at full scale) --\n",
                method.c_str(),
                static_cast<unsigned long long>(tracker.global_max()));
    TextTable table({"time(s)", "max queue", "min queue"});
    const auto& snapshots = tracker.snapshots();
    // Print ~16 evenly spaced snapshots.
    const std::size_t step = std::max<std::size_t>(1, snapshots.size() / 16);
    for (std::size_t i = 0; i < snapshots.size(); i += step) {
      table.add_row(
          {TextTable::fmt(snapshots[i].time, 0),
           TextTable::fmt_int(static_cast<long long>(snapshots[i].max_queue)),
           TextTable::fmt_int(
               static_cast<long long>(snapshots[i].min_queue))});
    }
    table.print();
    std::printf("\n");
  }
}

void shape_fig7(std::span<const api::ScenarioSpec> specs,
                std::span<const api::SweepReport> reports,
                const Flags& /*flags*/) {
  const api::ScenarioSpec& spec = specs[0];
  std::vector<const stats::QueueTracker*> trackers;
  std::size_t max_len = 0;
  for (const std::string& method : spec.methods) {
    const api::CellReport* cell =
        reports[0].find(method, spec.shards[0], spec.rates[0]);
    trackers.push_back(cell != nullptr
                           ? &cell->first().sim->queue_tracker
                           : nullptr);
    if (trackers.back() != nullptr) {
      max_len = std::max(max_len, trackers.back()->snapshots().size());
    }
  }

  std::vector<std::string> header{"time(s)"};
  header.insert(header.end(), spec.methods.begin(), spec.methods.end());
  TextTable table(std::move(header));
  const std::size_t step = std::max<std::size_t>(1, max_len / 20);
  for (std::size_t i = 0; i < max_len; i += step) {
    std::vector<std::string> row;
    row.push_back(TextTable::fmt(
        trackers[0] != nullptr && i < trackers[0]->snapshots().size()
            ? trackers[0]->snapshots()[i].time
            : static_cast<double>(i),
        0));
    for (const stats::QueueTracker* tracker : trackers) {
      row.push_back(tracker != nullptr && i < tracker->snapshots().size()
                        ? TextTable::fmt(tracker->snapshots()[i].ratio(), 1)
                        : "-");
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nworst ratio:  ");
  for (std::size_t m = 0; m < spec.methods.size(); ++m) {
    std::printf("%s=%.1f  ", spec.methods[m].c_str(),
                trackers[m] != nullptr ? trackers[m]->worst_ratio() : 0.0);
  }
  std::printf("\npaper shape: Metis and Greedy orders of magnitude above "
              "OptChain/OmniLedger\n");
}

void shape_latency_figure(std::span<const api::ScenarioSpec> specs,
                          std::span<const api::SweepReport> reports,
                          const Flags& flags, const char* figure,
                          api::Aggregate api::CellReport::*metric,
                          const char* csv_prefix) {
  const api::ScenarioSpec& spec_a = specs[0];
  const std::uint32_t k = spec_a.shards[0];
  std::printf("-- Fig. %sa: latency (s) vs rate at %u shards --\n", figure,
              k);
  TextTable table_a =
      rate_method_table(reports[0], spec_a.methods, spec_a.rates, k, metric,
                        1);
  table_a.print();
  maybe_save_csv(flags, std::string(csv_prefix) + "a", table_a);

  std::printf("\n-- Fig. %sb: latency (s) at (rate, #shards) pairings --\n",
              figure);
  TextTable table_b = pairing_method_table(reports[1], specs[1].methods,
                                           specs[1].pairings, metric, 1);
  table_b.print();
  maybe_save_csv(flags, std::string(csv_prefix) + "b", table_b);
}

void shape_fig10(std::span<const api::ScenarioSpec> specs,
                 std::span<const api::SweepReport> reports,
                 const Flags& flags) {
  const api::ScenarioSpec& spec = specs[0];
  const std::vector<double> thresholds = {2,  4,  6,  8,  10, 15, 20,
                                          30, 40, 60, 90, 120};
  std::vector<std::vector<double>> cdfs;
  for (const std::string& method : spec.methods) {
    const api::CellReport* cell =
        reports[0].find(method, spec.shards[0], spec.rates[0]);
    cdfs.push_back(cell != nullptr
                       ? cell->first().sim->latencies.cdf_at(thresholds)
                       : std::vector<double>(thresholds.size(), 0.0));
  }

  std::vector<std::string> header{"latency <= (s)"};
  header.insert(header.end(), spec.methods.begin(), spec.methods.end());
  TextTable table(std::move(header));
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    std::vector<std::string> row{TextTable::fmt(thresholds[i], 0)};
    for (const auto& cdf : cdfs) {
      row.push_back(TextTable::fmt_percent(cdf[i], 1));
    }
    table.add_row(std::move(row));
  }
  table.print();
  maybe_save_csv(flags, "fig10_latency_cdf", table);
  std::printf("\npaper at 10 s: OptChain 70%%, Greedy 41.2%%, OmniLedger "
              "7.9%%, Metis 2.4%%\n");
}

void shape_table1(std::span<const api::ScenarioSpec> specs,
                  std::span<const api::SweepReport> reports,
                  const Flags& flags) {
  const api::ScenarioSpec& spec = specs[0];
  TextTable table({"k", "Metis", "Greedy", "Omniledger", "T2S-based"});
  for (const std::uint32_t k : spec.shards) {
    std::vector<std::string> row{std::to_string(k)};
    for (const std::string& method : spec.methods) {
      const api::CellReport* cell =
          reports[0].find(method, k, spec.rates[0]);
      row.push_back(TextTable::fmt_percent(
          cell != nullptr ? cell->cross_fraction.mean : 0.0));
    }
    table.add_row(std::move(row));
  }
  table.print();
  maybe_save_csv(flags, "table1_cross_shard", table);
}

void shape_table2(std::span<const api::ScenarioSpec> specs,
                  std::span<const api::SweepReport> reports,
                  const Flags& flags) {
  const api::ScenarioSpec& spec = specs[0];
  std::printf("scale: warm %llu + placed %llu (paper: 30M + 1M) — override "
              "with --warm_ratio/--txs\n\n",
              static_cast<unsigned long long>(
                  static_cast<std::uint64_t>(spec.warm_ratio) * spec.txs),
              static_cast<unsigned long long>(spec.txs));
  TextTable table({"k", "Greedy", "Omniledger", "T2S-based", "Greedy %",
                   "Omniledger %", "T2S %"});
  for (const std::uint32_t k : spec.shards) {
    std::vector<std::string> row{std::to_string(k)};
    std::vector<std::string> percent_cells;
    for (const std::string& method : spec.methods) {
      const api::CellReport* cell =
          reports[0].find(method, k, spec.rates[0]);
      row.push_back(TextTable::fmt(
          cell != nullptr ? cell->cross_txs.mean : 0.0, 0));
      percent_cells.push_back(TextTable::fmt_percent(
          cell != nullptr ? cell->cross_fraction.mean : 0.0));
    }
    for (auto& cell : percent_cells) row.push_back(std::move(cell));
    table.add_row(std::move(row));
  }
  table.print();
  maybe_save_csv(flags, "table2_warm_start", table);
}

void shape_ablation(std::span<const api::ScenarioSpec> specs,
                    std::span<const api::SweepReport> reports,
                    const Flags& flags) {
  const api::ScenarioSpec& spec = specs[0];
  std::printf("operating point: %u shards, %.0f tps\n\n", spec.shards[0],
              spec.rates[0]);

  TextTable table({"variant", "cross-TX", "avg latency(s)", "max latency(s)",
                   "throughput(tps)"});
  const auto add_cells = [&table](const api::SweepReport& report,
                                  const char* suffix) {
    for (const api::CellReport& cell : report.cells) {
      table.add_row({cell.method + suffix,
                     TextTable::fmt_percent(cell.cross_fraction.mean, 1),
                     TextTable::fmt(cell.avg_latency_s.mean, 1),
                     TextTable::fmt(cell.max_latency_s.mean, 1),
                     TextTable::fmt(cell.throughput_tps.mean, 0)});
    }
  };
  add_cells(reports[0], "");
  add_cells(reports[1], " (RapidChain yanking)");
  table.print();
  maybe_save_csv(flags, "ablation", table);

  // Fault injection: a chronically slow shard, with and without OptChain's
  // L2S routing (hash placement cannot react).
  std::printf("\n-- failure injection: shard 0 running %.0fx slow --\n",
              specs[2].shard_slowdown[0]);
  TextTable fault_table({"variant", "share of txs in slow shard",
                         "avg latency(s)", "throughput(tps)"});
  for (const api::CellReport& cell : reports[2].cells) {
    const auto& sizes = cell.first().shard_sizes;
    std::uint64_t placed = 0;
    for (const std::uint64_t size : sizes) placed += size;
    const double share = placed == 0 ? 0.0
                                     : static_cast<double>(sizes[0]) /
                                           static_cast<double>(placed);
    fault_table.add_row({cell.method, TextTable::fmt_percent(share, 1),
                         TextTable::fmt(cell.avg_latency_s.mean, 1),
                         TextTable::fmt(cell.throughput_tps.mean, 0)});
  }
  fault_table.print();
  std::printf("(uniform share would be %.1f %%)\n", 100.0 / spec.shards[0]);
}

void shape_account(std::span<const api::ScenarioSpec> specs,
                   std::span<const api::SweepReport> reports,
                   const Flags& flags) {
  const api::ScenarioSpec& spec = specs[0];
  TextTable table({"k", "OptChain(T2S)", "Greedy", "Omniledger"});
  for (const std::uint32_t k : spec.shards) {
    std::vector<std::string> row{std::to_string(k)};
    for (const std::string& method : spec.methods) {
      const api::CellReport* cell =
          reports[0].find(method, k, spec.rates[0]);
      row.push_back(TextTable::fmt_percent(
          cell != nullptr ? cell->cross_fraction.mean : 0.0));
    }
    table.add_row(std::move(row));
  }
  table.print();
  maybe_save_csv(flags, "account_model", table);

  std::printf("\n-- simulation at 8 shards, 3000 tps --\n");
  TextTable sim_table(
      {"method", "cross-TX", "avg latency(s)", "throughput(tps)"});
  for (const api::CellReport& cell : reports[1].cells) {
    sim_table.add_row({cell.method,
                       TextTable::fmt_percent(cell.cross_fraction.mean),
                       TextTable::fmt(cell.avg_latency_s.mean, 1),
                       TextTable::fmt(cell.throughput_tps.mean, 0)});
  }
  sim_table.print();
}

/// Per-method summary of a one-operating-point dynamic scenario, plus a
/// commits-per-window timeline that makes the wave/burst visible.
void shape_dynamic(std::span<const api::ScenarioSpec> specs,
                   std::span<const api::SweepReport> reports,
                   const Flags& flags, const char* csv_name,
                   bool show_timeline) {
  const api::ScenarioSpec& spec = specs[0];
  std::printf("operating point: %u shards, %.0f tps nominal\n\n",
              spec.shards[0], spec.rates[0]);

  TextTable table({"method", "cross-TX", "throughput(tps)", "avg lat(s)",
                   "max lat(s)", "aborted", "completed"});
  for (const std::string& method : spec.methods) {
    const api::CellReport* cell =
        reports[0].find(method, spec.shards[0], spec.rates[0]);
    if (cell == nullptr) continue;
    table.add_row({method, TextTable::fmt_percent(cell->cross_fraction.mean),
                   TextTable::fmt(cell->throughput_tps.mean, 0),
                   TextTable::fmt(cell->avg_latency_s.mean, 1),
                   TextTable::fmt(cell->max_latency_s.mean, 1),
                   TextTable::fmt(cell->aborted.mean, 0),
                   cell->completed ? "yes" : "no"});
  }
  table.print();
  maybe_save_csv(flags, csv_name, table);
  if (!show_timeline) return;

  std::printf("\n-- commits per %.0f s window (the wave) --\n",
              spec.commit_window_s);
  std::vector<std::vector<std::uint64_t>> series;
  std::size_t max_windows = 0;
  for (const std::string& method : spec.methods) {
    const api::CellReport* cell =
        reports[0].find(method, spec.shards[0], spec.rates[0]);
    series.push_back(cell != nullptr
                         ? cell->first().sim->commits_per_window.counts()
                         : std::vector<std::uint64_t>{});
    max_windows = std::max(max_windows, series.back().size());
  }
  std::vector<std::string> header{"window"};
  header.insert(header.end(), spec.methods.begin(), spec.methods.end());
  TextTable timeline(std::move(header));
  for (std::size_t w = 0; w < max_windows; ++w) {
    std::vector<std::string> row{
        TextTable::fmt(static_cast<double>(w) * spec.commit_window_s, 0) +
        "s"};
    for (const auto& counts : series) {
      row.push_back(TextTable::fmt_int(
          w < counts.size() ? static_cast<long long>(counts[w]) : 0));
    }
    timeline.add_row(std::move(row));
  }
  timeline.print();
}

void shape_churn(std::span<const api::ScenarioSpec> specs,
                 std::span<const api::SweepReport> reports,
                 const Flags& flags) {
  const api::ScenarioSpec& spec = specs[0];
  std::printf("churn plan: %zu events over a %u-shard start "
              "(remove @25%%, add @50%%, add @70%% of the issue window)\n\n",
              spec.churn.events.size(), spec.shards[0]);
  TextTable table({"method", "cross-TX", "throughput(tps)", "avg lat(s)",
                   "shard changes", "migrated txs", "migrated UTXOs",
                   "completed"});
  for (const std::string& method : spec.methods) {
    const api::CellReport* cell =
        reports[0].find(method, spec.shards[0], spec.rates[0]);
    if (cell == nullptr) continue;
    table.add_row({method, TextTable::fmt_percent(cell->cross_fraction.mean),
                   TextTable::fmt(cell->throughput_tps.mean, 0),
                   TextTable::fmt(cell->avg_latency_s.mean, 1),
                   TextTable::fmt(cell->shard_changes.mean, 0),
                   TextTable::fmt(cell->migrated_txs.mean, 0),
                   TextTable::fmt(cell->migrated_utxos.mean, 0),
                   cell->completed ? "yes" : "no"});
  }
  table.print();
  maybe_save_csv(flags, "churn", table);
}

void shape_repartition(std::span<const api::ScenarioSpec> specs,
                       std::span<const api::SweepReport> reports,
                       const Flags& flags) {
  TextTable table({"part", "method", "cross-TX", "throughput(tps)",
                   "avg lat(s)", "repart events", "moved txs", "moved UTXOs",
                   "deferred", "completed"});
  for (std::size_t part = 0; part < specs.size(); ++part) {
    const api::ScenarioSpec& spec = specs[part];
    for (const std::string& method : spec.methods) {
      const api::CellReport* cell =
          reports[part].find(method, spec.shards[0], spec.rates[0]);
      if (cell == nullptr) continue;
      table.add_row(
          {spec.name, method,
           TextTable::fmt_percent(cell->cross_fraction.mean),
           TextTable::fmt(cell->throughput_tps.mean, 0),
           TextTable::fmt(cell->avg_latency_s.mean, 1),
           TextTable::fmt(cell->repartition_events.mean, 0),
           TextTable::fmt(cell->repartition_migrated_txs.mean, 0),
           TextTable::fmt(cell->repartition_migrated_utxos.mean, 0),
           TextTable::fmt(cell->repartition_deferred_txs.mean, 0),
           cell->completed ? "yes" : "no"});
    }
  }
  table.print();
  maybe_save_csv(flags, "repartition", table);
}

// ---------------------------------------------------------------- registry

std::vector<Scenario> build_registry() {
  std::vector<Scenario> registry;

  registry.push_back({"fig2", "TaN network statistics",
                      "Fig. 2a/2b/2c of the paper (§IV.A)", {}, nullptr,
                      run_fig2});
  registry.push_back({"fig3",
                      "latency & throughput over the (method x rate x "
                      "shards) grid",
                      "Fig. 3a-3d of the paper (§V.B)",
                      {fig3_spec},
                      shape_fig3,
                      nullptr});
  registry.push_back({"fig4", "system throughput vs rate, max throughput",
                      "Fig. 4a/4b of the paper (§V.B.1)",
                      {fig4_spec},
                      shape_fig4,
                      nullptr});
  registry.push_back({"fig5", "committed transactions per time window",
                      "Fig. 5 of the paper (§V.B.1); 6000 tps, 16 shards",
                      {fig5_spec},
                      shape_fig5,
                      nullptr});
  registry.push_back(
      {"fig6", "max/min shard queue sizes over time",
       "Fig. 6a-6d of the paper (§V.B.1); 6000 tps, 16 shards",
       {[](const Flags& flags) { return stressed_point_spec(flags, "fig6"); }},
       shape_fig6,
       nullptr});
  registry.push_back(
      {"fig7", "max/min queue-size ratio over time",
       "Fig. 7 of the paper (§V.B.1); 6000 tps, 16 shards",
       {[](const Flags& flags) { return stressed_point_spec(flags, "fig7"); }},
       shape_fig7,
       nullptr});
  registry.push_back(
      {"fig8", "average transaction latency",
       "Fig. 8a (k=16) and Fig. 8b of the paper (§V.B.2)",
       {fig8a_spec, fig8b_spec},
       [](std::span<const api::ScenarioSpec> specs,
          std::span<const api::SweepReport> reports, const Flags& flags) {
         shape_latency_figure(specs, reports, flags, "8",
                              &api::CellReport::avg_latency_s, "fig8");
         std::printf("\npaper: OptChain's highest average across these "
                     "pairings is 10.5 s; OmniLedger reaches 346.2 s at "
                     "6000/16\n");
       },
       nullptr});
  registry.push_back(
      {"fig9", "maximum transaction latency",
       "Fig. 9a (k=16) and Fig. 9b of the paper (§V.B.2)",
       {[](const Flags& flags) {
          api::ScenarioSpec spec = fig8a_spec(flags);
          spec.name = "fig9a";
          return spec;
        },
        [](const Flags& flags) {
          api::ScenarioSpec spec = fig8b_spec(flags);
          spec.name = "fig9b";
          return spec;
        }},
       [](std::span<const api::ScenarioSpec> specs,
          std::span<const api::SweepReport> reports, const Flags& flags) {
         shape_latency_figure(specs, reports, flags, "9",
                              &api::CellReport::max_latency_s, "fig9");
       },
       nullptr});
  registry.push_back(
      {"fig10", "confirmation-latency CDF",
       "Fig. 10 of the paper (§V.B.2); 6000 tps, 16 shards",
       {[](const Flags& flags) {
          return stressed_point_spec(flags, "fig10");
        }},
       shape_fig10,
       nullptr});
  registry.push_back({"fig11", "OptChain scalability (max sustainable rate)",
                      "Fig. 11 of the paper (§V.C)", {}, nullptr, run_fig11});
  registry.push_back({"table1", "cross-TX percentage, from scratch",
                      "Table I of the paper (§IV.B)",
                      {table1_spec},
                      shape_table1,
                      nullptr});
  registry.push_back({"table2", "cross-TXs from a warm-started system",
                      "Table II of the paper (§IV.B)",
                      {table2_spec},
                      shape_table2,
                      nullptr});
  registry.push_back({"ablation", "OptChain design-choice ablation",
                      "design-choice ablation (not a paper figure)",
                      {ablation_main_spec, ablation_rapidchain_spec,
                       ablation_slowdown_spec},
                      shape_ablation,
                      nullptr});
  registry.push_back({"account",
                      "account-model (Ethereum-style) placement study",
                      "extension (paper §II related work)",
                      {account_place_spec, account_sim_spec},
                      shape_account,
                      nullptr});
  registry.push_back(
      {"dynamic", "rate waves: ramp, flash crowd, diurnal cycle",
       "extension (dynamic workloads; cf. Shard Scheduler, AFT 2021)",
       {dynamic_spec},
       [](std::span<const api::ScenarioSpec> specs,
          std::span<const api::SweepReport> reports, const Flags& flags) {
         shape_dynamic(specs, reports, flags, "dynamic",
                       /*show_timeline=*/true);
       },
       nullptr});
  registry.push_back(
      {"hotspot", "Zipfian rotating hot set + consolidation-spam burst",
       "extension (dynamic workloads; cf. Fig. 2c flood episode)",
       {hotspot_spec},
       [](std::span<const api::ScenarioSpec> specs,
          std::span<const api::SweepReport> reports, const Flags& flags) {
         shape_dynamic(specs, reports, flags, "hotspot",
                       /*show_timeline=*/false);
       },
       nullptr});
  registry.push_back({"churn",
                      "shards leaving/joining mid-run, migration accounting",
                      "extension (dynamic shard sets; cf. OmniLedger epochs)",
                      {churn_spec},
                      shape_churn,
                      nullptr});
  registry.push_back(
      {"repartition",
       "online Metis re-partitioning under a migration budget, two cadences "
       "x churn on/off, Fennel streaming baseline",
       "extension (online repartitioning; cf. Fennel WSDM'14, Metis)",
       {[](const Flags& flags) {
          return repartition_spec(flags, "repartition_fast", 0.20, false);
        },
        [](const Flags& flags) {
          return repartition_spec(flags, "repartition_slow", 0.45, false);
        },
        [](const Flags& flags) {
          return repartition_spec(flags, "repartition_fast_churn", 0.20,
                                  true);
        },
        [](const Flags& flags) {
          return repartition_spec(flags, "repartition_slow_churn", 0.45,
                                  true);
        }},
       shape_repartition,
       nullptr});
  registry.push_back({"observability",
                      "run-telemetry layer: trace + Perfetto export, "
                      "tracer overhead budget (--max_overhead= --reps= "
                      "--trace_out=)",
                      "engineering benchmark (src/obs; determinism rule 9)",
                      {},
                      nullptr,
                      run_observability,
                      /*exclude_from_all=*/true});
  registry.push_back({"network",
                      "placement lineup under link-level topologies "
                      "(--topology=flat,wan,congested --inter_scale=1,2 "
                      "--k= --rate=)",
                      "extension (link-level fabric; sim/fabric/)",
                      {},
                      nullptr,
                      run_network_bench});
  registry.push_back({"trace",
                      "placement lineup replayed from an imported .optx "
                      "trace (--trace=; see optchain-trace)",
                      "§V.A replay method (real-dataset placement)",
                      {},
                      nullptr,
                      run_trace});
  return registry;
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kRegistry = build_registry();
  return kRegistry;
}

const Scenario* find_scenario(std::string_view name) {
  for (const Scenario& scenario : scenarios()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

void register_bench_placers() {
  static const bool registered = [] {
    api::PlacerRegistry& registry = api::PlacerRegistry::instance();
    registry.register_placer(
        "OptChain-w0.1", [](const api::PlacerContext& context) {
          core::OptChainConfig config;
          config.l2s_weight = 0.1;
          return std::make_unique<core::OptChainPlacer>(context.dag, config,
                                                        "OptChain-w0.1");
        });
    registry.register_placer(
        "OptChain-outdiv", [](const api::PlacerContext& context) {
          if (context.stream.empty()) {
            throw std::invalid_argument(
                "OptChain-outdiv needs a materialized stream (declared-"
                "outputs divisor)");
          }
          core::OptChainConfig config;
          config.t2s.divisor = core::DivisorPolicy::kDeclaredOutputs;
          const std::span<const tx::Transaction> stream = context.stream;
          return std::make_unique<core::OptChainPlacer>(
              context.dag, config, "OptChain-outdiv",
              [stream](tx::TxIndex index) {
                return static_cast<std::uint32_t>(
                    stream[index].outputs.size());
              });
        });
    registry.register_placer(
        "Greedy-smallties", [](const api::PlacerContext& context) {
          return std::make_unique<placement::GreedyPlacer>(
              context.stream_size_hint(), 0.1,
              placement::GreedyTieBreak::kSmallestShard);
        });
    return true;
  }();
  (void)registered;
}

int run_scenario(const Scenario& scenario, const Flags& flags,
                 JsonWriter* json) {
  print_header(scenario.name + " — " + scenario.title,
               scenario.paper_ref,
               smoke(flags) ? "--smoke (CI-sized streams)"
                            : "flag-controlled (--txs / --issue_seconds)");
  if (json != nullptr) json->begin_object(scenario.name);
  int exit_code = 0;
  if (scenario.custom) {
    exit_code = scenario.custom(flags, json);
  } else {
    api::SweepOptions options;
    options.jobs =
        static_cast<unsigned>(std::max<std::int64_t>(0,
                                                     flags.get_int("jobs",
                                                                   1)));
    const api::SweepRunner runner(options);
    std::vector<api::ScenarioSpec> specs;
    std::vector<api::SweepReport> reports;
    specs.reserve(scenario.parts.size());
    reports.reserve(scenario.parts.size());
    for (const auto& part : scenario.parts) {
      specs.push_back(part(flags));
      reports.push_back(runner.run(specs.back()));
    }
    if (json != nullptr) {
      for (const api::SweepReport& report : reports) {
        json->begin_object(report.scenario);
        report.write_json(*json);
        json->end_object();
      }
    }
    if (scenario.shape) {
      scenario.shape(specs, reports, flags);
    } else {
      for (const api::SweepReport& report : reports) {
        report.to_table().print();
      }
    }
  }
  if (json != nullptr) json->end_object();
  std::printf("\n");
  return exit_code;
}

}  // namespace optchain::bench
