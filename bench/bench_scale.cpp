// bench_scale — the million-transaction engine benchmark.
//
// Streams a paper-scale generated workload (default 1M transactions;
// the paper's headline runs use the first 10M of the MIT Bitcoin dataset,
// §V.A) through two paths and emits a machine-readable BENCH_scale.json so
// the perf trajectory accumulates per PR:
//
//   1. placement-only: a pre-generated stream through one PlacementPipeline
//      in kBatchTxs-transaction span slices, each place_stream() call timed
//      as one batch
//   2. full-sim: a (smaller, default 100k) streamed run through the typed
//      POD event engine and the OmniLedger cross-shard protocol
//
// Flags:
//   --txs=N         placement stream length   (default 1,000,000)
//   --sim_txs=N     full-sim stream length    (default 100,000)
//   --shards=K      shard count               (default 16)
//   --rate=TPS      sim issue rate            (default 4000)
//   --seed=S        workload seed             (default 1)
//   --method=M      placement strategy        (default OptChain)
//   --out=PATH      JSON output path          (default BENCH_scale.json)
//   --smoke         CI smoke mode: 20k placement / 4k sim transactions,
//                   each timed 32 times (once otherwise)
//
// Any other flag, or a malformed one, exits 2 naming it.
//
// With repetitions the headline rates ("placement" tx_per_s, "simulation"
// events_per_s and sim_tx_per_s) are medians over the repetitions, with the
// slowest rep (_min) and the median absolute deviation (_mad) beside them;
// every repetition must reproduce the first one's outcome. A "host" object
// records the core count, compiler and build flags the rates came from.
//
// Since the batch-pipeline PR the placement stream is materialized before
// the clock starts and workload generation is timed separately
// ("workload_gen"): earlier BENCH_scale.json placement numbers include
// generator time in the placement rate, so compare like with like
// (placement-only rates are higher than the old combined rates on
// unchanged code).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "api/placement_pipeline.hpp"
#include "bench_common.hpp"
#include "common/histogram.hpp"
#include "sim/simulation.hpp"
#include "workload/tx_source.hpp"

namespace optchain::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Transactions per timed place_stream() call: the batch that
/// batch_p50_us / batch_p99_us describe.
constexpr std::size_t kBatchTxs = 512;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set size of this process, in MiB (Linux ru_maxrss is KiB).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Build flags for the JSON's "host" object (the fields perfbench's host
// record carries).
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Median, minimum and median absolute deviation of repeated measurements.
struct RepStats {
  double median = 0.0;
  double min = 0.0;
  double mad = 0.0;
};

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

RepStats rep_stats(const std::vector<double>& values) {
  RepStats stats;
  stats.median = median_of(values);
  stats.min = *std::min_element(values.begin(), values.end());
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double value : values) {
    deviations.push_back(std::abs(value - stats.median));
  }
  stats.mad = median_of(std::move(deviations));
  return stats;
}

[[noreturn]] void diverged(const char* what, std::uint32_t rep) {
  std::fprintf(stderr, "bench_scale: %s rep %u DIVERGED from rep 0\n", what,
               rep);
  std::exit(1);
}

/// The flags bench_scale reads; Flags::reject_unknown refuses any other.
constexpr std::string_view kScaleFlags[] = {
    "smoke", "txs", "sim_txs", "shards", "rate", "seed", "method", "out"};

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  flags.reject_unknown({kScaleFlags});
  const bool smoke = flags.get_bool("smoke", false);
  const auto txs =
      static_cast<std::uint64_t>(flags.get_int("txs", smoke ? 20'000
                                                            : 1'000'000));
  const auto sim_txs =
      static_cast<std::uint64_t>(flags.get_int("sim_txs", smoke ? 4'000
                                                                : 100'000));
  const auto shards = static_cast<std::uint32_t>(flags.get_int("shards", 16));
  const double rate = flags.get_double("rate", 4000.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string method = flags.get_string("method", "OptChain");
  const std::string out_path = flags.get_string("out", "BENCH_scale.json");
  // Smoke reps bring each timed region to ~0.2 s in total, so the medians
  // the CI gate compares are not at the mercy of one scheduler hiccup.
  const std::uint32_t reps = smoke ? 32 : 1;

  print_header("bench_scale — million-transaction engine",
               "engine scaling (paper §V.A runs 10M-tx streams)",
               std::to_string(txs) + " placement txs + " +
                   std::to_string(sim_txs) + " simulated txs, k=" +
                   std::to_string(shards));

  JsonWriter json;
  json.field("bench", "bench_scale");
  json.begin_object("config")
      .field("txs", txs)
      .field("sim_txs", sim_txs)
      .field("shards", shards)
      .field("rate_tps", rate)
      .field("seed", seed)
      .field("method", method)
      .field("batch", kBatchTxs)
      .field("reps", reps)
      .field("smoke", smoke)
      .end_object();
  json.begin_object("host")
      .field("nproc", std::thread::hardware_concurrency())
      .field("compiler", __VERSION__)
      .field("ndebug", kNdebug)
      .field("optimized", kOptimized)
      .end_object();

  // ---- workload generation (timed separately, not placement) -----------
  std::vector<tx::Transaction> stream;
  {
    stream.reserve(txs);
    workload::GeneratorTxSource source({}, seed, txs);
    tx::Transaction transaction;
    const auto start = Clock::now();
    while (source.next(transaction)) stream.push_back(std::move(transaction));
    const double elapsed = seconds_since(start);
    std::printf("generation: %llu txs in %.2f s  (%.0f tx/s)\n",
                static_cast<unsigned long long>(txs), elapsed,
                static_cast<double>(txs) / elapsed);
    json.begin_object("workload_gen")
        .field("txs", txs)
        .field("seconds", elapsed)
        .field("tx_per_s", static_cast<double>(txs) / elapsed)
        .end_object();
  }

  // ---- placement-only path ---------------------------------------------
  // A fresh pipeline per repetition, fed the stream in kBatchTxs slices.
  {
    std::vector<double> seconds;
    std::vector<double> rates;
    std::vector<double> batch_p50;
    std::vector<double> batch_p99;
    api::StreamOutcome placed;
    std::uint64_t tan_edges = 0;
    const std::span<const tx::Transaction> all(stream);
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      api::PlacementPipeline pipeline =
          api::make_pipeline(method, shards, {}, seed, {}, txs);
      SampleStats batch_us;
      const auto start = Clock::now();
      for (std::size_t begin = 0; begin < all.size(); begin += kBatchTxs) {
        const auto batch_start = Clock::now();
        pipeline.place_stream(
            all.subspan(begin, std::min(kBatchTxs, all.size() - begin)));
        batch_us.add(std::chrono::duration<double, std::micro>(
                         Clock::now() - batch_start)
                         .count());
      }
      const double elapsed = seconds_since(start);
      api::StreamOutcome outcome;
      outcome.total = pipeline.cross_counter().total();
      outcome.cross = pipeline.cross_counter().cross();
      outcome.shard_sizes = pipeline.assignment().sizes();
      if (rep == 0) {
        placed = outcome;
        tan_edges = pipeline.dag().num_edges();
      } else if (outcome.cross != placed.cross ||
                 outcome.shard_sizes != placed.shard_sizes) {
        diverged("placement", rep);
      }
      seconds.push_back(elapsed);
      rates.push_back(static_cast<double>(txs) / elapsed);
      batch_p50.push_back(batch_us.count() == 0 ? 0.0 : batch_us.p50());
      batch_p99.push_back(batch_us.count() == 0 ? 0.0 : batch_us.p99());
    }
    const RepStats rate = rep_stats(rates);
    const double p50_us = median_of(batch_p50);
    const double p99_us = median_of(batch_p99);

    std::printf(
        "placement : %llu txs in %.2f s  (%.0f tx/s median of %u, min %.0f, "
        "cross %.2f%%, batch=%zu, batch p50 %.0f us p99 %.0f us)\n",
        static_cast<unsigned long long>(txs), median_of(seconds), rate.median,
        reps, rate.min, 100.0 * placed.fraction(), kBatchTxs, p50_us,
        p99_us);
    json.begin_object("placement")
        .field("txs", txs)
        .field("reps", reps)
        .field("seconds", median_of(seconds))
        .field("tx_per_s", rate.median)
        .field("tx_per_s_min", rate.min)
        .field("tx_per_s_mad", rate.mad)
        .field("cross_fraction", placed.fraction())
        .field("tan_edges", tan_edges)
        .field("batch", kBatchTxs)
        .field("batch_p50_us", p50_us)
        .field("batch_p99_us", p99_us)
        .end_object();
  }

  // ---- full-sim streaming path -----------------------------------------
  {
    sim::SimConfig config;
    config.num_shards = shards;
    config.tx_rate_tps = rate;
    config.seed = seed;
    config.commit_window_s = 10.0;
    sim::SimResult result;
    std::vector<double> seconds;
    std::vector<double> event_rates;
    std::vector<double> tx_rates;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      workload::GeneratorTxSource source({}, seed, sim_txs);
      api::PlacementPipeline pipeline =
          api::make_pipeline(method, shards, {}, seed, {}, sim_txs);
      sim::Simulation simulation(config);
      const auto start = Clock::now();
      sim::SimResult current = simulation.run(source, pipeline);
      const double elapsed = seconds_since(start);
      if (rep == 0) {
        result = std::move(current);
      } else if (current.total_events != result.total_events ||
                 current.committed_txs != result.committed_txs ||
                 current.cross_fraction() != result.cross_fraction()) {
        diverged("simulation", rep);
      }
      seconds.push_back(elapsed);
      event_rates.push_back(static_cast<double>(result.total_events) /
                            elapsed);
      tx_rates.push_back(static_cast<double>(sim_txs) / elapsed);
    }
    const RepStats events = rep_stats(event_rates);
    const double sim_tx_per_s = median_of(tx_rates);

    std::printf(
        "simulation: %llu txs, %llu events in %.2f s  (%.0f events/s median "
        "of %u, min %.0f, %.0f sim-tx/s, cross %.2f%%, heap peak %llu)\n",
        static_cast<unsigned long long>(sim_txs),
        static_cast<unsigned long long>(result.total_events),
        median_of(seconds), events.median, reps, events.min, sim_tx_per_s,
        100.0 * result.cross_fraction(),
        static_cast<unsigned long long>(result.event_heap_peak));
    // Event-memory shape: the deepest the event heap got, plus the
    // shard-addressed event counts as one CSV string (JsonWriter has no
    // arrays; the counts are diagnostics, not a sweep axis).
    std::string shard_events;
    for (const std::uint64_t count : result.shard_event_counts) {
      if (!shard_events.empty()) shard_events += ',';
      shard_events += std::to_string(count);
    }
    json.begin_object("simulation")
        .field("txs", sim_txs)
        .field("reps", reps)
        .field("events", result.total_events)
        .field("seconds", median_of(seconds))
        .field("events_per_s", events.median)
        .field("events_per_s_min", events.min)
        .field("events_per_s_mad", events.mad)
        .field("sim_tx_per_s", sim_tx_per_s)
        .field("committed", result.committed_txs)
        .field("aborted", result.aborted_txs)
        .field("completed", result.completed)
        .field("cross_fraction", result.cross_fraction())
        .field("avg_latency_s", result.avg_latency_s)
        .field("throughput_tps", result.throughput_tps)
        .field("event_heap_peak", result.event_heap_peak)
        .field("shard_event_counts", shard_events)
        .end_object();
  }

  const double rss_mib = peak_rss_mib();
  json.field("peak_rss_mib", rss_mib);
  std::printf("peak RSS  : %.1f MiB\n", rss_mib);
  json.save(out_path);
  std::printf("(wrote %s)\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace optchain::bench

int main(int argc, char** argv) {
  try {
    return optchain::bench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_scale: %s\n", error.what());
    return 2;
  }
}
