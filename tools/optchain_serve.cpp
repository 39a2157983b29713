// optchain-serve — placement-as-a-service throughput daemon.
//
// Replays an imported OPTX trace (optchain-trace containers) through the
// placement pipeline in a loop, and reports the sustained placement rate
// plus per-batch latency percentiles — "placement as a service" measured
// end to end instead of extrapolated from a one-shot bench.
//
//   optchain-serve --trace=snapshot.optx --duration=5s --out=BENCH_serve.json
//
// Each pass decodes nothing: the trace window is materialized once at
// startup (use --stream to re-decode from disk every pass instead, which
// measures the container read path too, one kBatchTxs buffer at a time),
// then every pass builds a fresh pipeline and places the window through it
// one kBatchTxs-transaction batch per place_stream() call; each call is one
// batch-latency sample. --duration=0 serves until SIGINT/SIGTERM; any
// duration also stops early on a signal, then still writes the JSON report
// for whatever completed.
//
// Flags:
//   --trace=PATH       OPTX container to replay (required)
//   --begin=N --end=N  window [begin, end) of the trace (default: all)
//   --method=NAME      PlacerRegistry strategy (default OptChain)
//   --shards=K         shard count (default 16)
//   --seed=S           method seed (default 1)
//   --duration=SECS    serving time budget; 0 = until signal (default 5)
//   --stream           re-decode the trace from disk on every pass
//   --snapshot=SECS    emit a Prometheus-text metrics snapshot every SECS
//                      seconds while serving (0 = off, default 0)
//   --out=PATH         JSON report path (default BENCH_serve.json)
//
// Any other flag exits 2 naming it, like every other error.
//
// All counters, rates and latency percentiles flow through one
// obs::MetricsRegistry — the final BENCH_serve.json and the periodic
// --snapshot exposition read the same instruments.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "common/flags.hpp"
#include "common/json_writer.hpp"
#include "obs/metrics_registry.hpp"
#include "trace/trace_source.hpp"

namespace {

/// Transactions per timed place_stream() call — the batch the latency
/// percentiles describe (perfbench's placement workloads use the same size).
constexpr std::size_t kBatchTxs = 512;

/// The flags the daemon reads; Flags::reject_unknown refuses any other.
constexpr std::string_view kServeFlags[] = {
    "trace", "begin", "end", "method", "shards",
    "seed", "duration", "stream", "snapshot", "out"};

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using clock = std::chrono::steady_clock;
  try {
    const optchain::Flags flags(argc, argv);
    flags.reject_unknown({kServeFlags});
    const std::string trace_path = flags.get_string("trace", "");
    if (trace_path.empty()) {
      std::fprintf(stderr,
                   "usage: optchain-serve --trace=PATH [--duration=SECS] "
                   "[--method=NAME] [--shards=K] [--begin=N] [--end=N] "
                   "[--stream] [--snapshot=SECS] [--out=PATH]\n");
      return 2;
    }
    const auto begin = static_cast<std::uint64_t>(flags.get_int("begin", 0));
    const auto end = static_cast<std::uint64_t>(flags.get_int(
        "end",
        static_cast<std::int64_t>(optchain::trace::TraceTxSource::kToEnd)));
    const std::string method = flags.get_string("method", "OptChain");
    const auto shards =
        static_cast<std::uint32_t>(flags.get_int("shards", 16));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const double duration_s = flags.get_double("duration", 5.0);
    const bool stream_from_disk = flags.get_bool("stream", false);
    const double snapshot_s = flags.get_double("snapshot", 0.0);
    const std::string out_path =
        flags.get_string("out", "BENCH_serve.json");

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    // Open the window; materialize it unless --stream asked for the
    // decode-every-pass mode.
    optchain::trace::TraceTxSource trace_source(trace_path, begin, end);
    std::vector<optchain::tx::Transaction> window;
    if (!stream_from_disk) {
      window.reserve(static_cast<std::size_t>(
          trace_source.size_hint().value_or(0)));
      optchain::tx::Transaction transaction;
      while (trace_source.next(transaction)) window.push_back(transaction);
    }
    const std::uint64_t window_txs = stream_from_disk
                                         ? trace_source.size_hint().value_or(0)
                                         : window.size();
    if (window_txs == 0) {
      std::fprintf(stderr, "optchain-serve: empty trace window\n");
      return 2;
    }
    std::printf(
        "optchain-serve: %llu txs/window, method=%s shards=%u batch=%zu "
        "duration=%s\n",
        static_cast<unsigned long long>(window_txs), method.c_str(), shards,
        kBatchTxs,
        duration_s <= 0.0 ? "until-signal"
                          : (std::to_string(duration_s) + "s").c_str());

    // Every number the daemon reports lives in this registry; the pass loop
    // writes, the snapshot emitter and the final JSON read.
    optchain::obs::MetricsRegistry registry;
    optchain::obs::Counter& passes_counter =
        registry.counter("serve.passes");
    optchain::obs::Counter& txs_counter =
        registry.counter("serve.txs_placed");
    optchain::obs::Histogram& batch_latency =
        registry.histogram("serve.batch_latency_us");
    optchain::obs::Gauge& cross_gauge =
        registry.gauge("serve.cross_fraction");
    optchain::obs::Gauge& sustained_gauge =
        registry.gauge("serve.sustained_tx_per_s");
    registry.gauge("serve.window_txs")
        .set(static_cast<double>(window_txs));

    std::vector<optchain::tx::Transaction> buffer(
        stream_from_disk ? kBatchTxs : 0);  // --stream's decode buffer
    double placement_seconds = 0.0;
    const clock::time_point serve_start = clock::now();
    clock::time_point last_snapshot = serve_start;
    while (g_stop == 0) {
      if (duration_s > 0.0 &&
          std::chrono::duration<double>(clock::now() - serve_start).count() >=
              duration_s) {
        break;
      }
      optchain::api::PlacementPipeline pipeline = optchain::api::make_pipeline(
          method, shards, window, seed, {}, window_txs);
      const auto timed_place =
          [&](std::span<const optchain::tx::Transaction> batch) {
            const clock::time_point start = clock::now();
            pipeline.place_stream(batch);
            batch_latency.observe(
                std::chrono::duration<double, std::micro>(clock::now() -
                                                          start)
                    .count());
          };
      const clock::time_point pass_start = clock::now();
      if (stream_from_disk) {
        if (passes_counter.value() > 0) trace_source.rewind();
        std::size_t count = kBatchTxs;
        while (count == kBatchTxs) {
          count = 0;
          while (count < kBatchTxs && trace_source.next(buffer[count])) {
            ++count;
          }
          if (count > 0) timed_place(std::span(buffer).first(count));
        }
      } else {
        const std::span<const optchain::tx::Transaction> all(window);
        for (std::size_t begin = 0; begin < all.size(); begin += kBatchTxs) {
          timed_place(all.subspan(
              begin, std::min(kBatchTxs, all.size() - begin)));
        }
      }
      const double pass_s =
          std::chrono::duration<double>(clock::now() - pass_start).count();
      placement_seconds += pass_s;
      txs_counter.inc(window_txs);
      cross_gauge.set(pipeline.cross_counter().fraction());
      passes_counter.inc();
      sustained_gauge.set(static_cast<double>(txs_counter.value()) /
                          placement_seconds);
      std::printf("  pass %llu: %.0f tx/s (%.3fs, cross %.2f%%)\n",
                  static_cast<unsigned long long>(passes_counter.value()),
                  static_cast<double>(window_txs) / pass_s, pass_s,
                  100.0 * cross_gauge.value());
      std::fflush(stdout);
      if (snapshot_s > 0.0 &&
          std::chrono::duration<double>(clock::now() - last_snapshot)
                  .count() >= snapshot_s) {
        last_snapshot = clock::now();
        std::printf("--- metrics snapshot ---\n%s--- end snapshot ---\n",
                    registry.prometheus_text().c_str());
        std::fflush(stdout);
      }
    }
    const std::uint64_t passes = passes_counter.value();
    if (passes == 0) {
      std::fprintf(stderr,
                   "optchain-serve: no pass completed inside the budget\n");
      return 1;
    }

    const double sustained_tps = sustained_gauge.value();
    std::printf(
        "sustained %.0f tx/s over %llu passes (%llu txs, %.2fs placement); "
        "batch latency p50 %.1f us, p99 %.1f us\n",
        sustained_tps, static_cast<unsigned long long>(passes),
        static_cast<unsigned long long>(txs_counter.value()),
        placement_seconds, batch_latency.p50(), batch_latency.p99());

    optchain::JsonWriter json;
    json.field("tool", "optchain-serve")
        .field("trace", trace_path)
        .field("method", method)
        .field("shards", shards)
        .field("batch", kBatchTxs)
        .field("stream_from_disk", stream_from_disk)
        .field("window_txs", window_txs)
        .field("passes", passes)
        .field("total_txs", txs_counter.value())
        .field("placement_seconds", placement_seconds)
        .field("sustained_tx_per_s", sustained_tps)
        .field("cross_fraction", cross_gauge.value())
        .field("batches", batch_latency.count())
        .field("batch_p50_us", batch_latency.p50())
        .field("batch_p99_us", batch_latency.p99())
        .field("batch_max_us", batch_latency.max());
    registry.write_json(json, "metrics");
    json.save(out_path);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optchain-serve: %s\n", error.what());
    return 2;
  }
}
