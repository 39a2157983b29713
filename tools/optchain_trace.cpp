// optchain-trace — manage OPTX trace containers (src/trace): import real or
// generated datasets once, inspect them, slice windows, dump them as text.
//
//   optchain-trace import --in=FILE --out=trace.optx
//                         [--format=auto|optx|tan|csv] [--chunk=65536]
//   optchain-trace import --gen=bitcoin|account --txs=N [--seed=S]
//                         --out=trace.optx [--chunk=65536]
//   optchain-trace info   --in=trace.optx [--begin=A --end=B]
//   optchain-trace slice  --in=trace.optx --out=sub.optx --begin=A --end=B
//   optchain-trace cat    --in=trace.optx [--begin=A --end=B] [--limit=N]
//
// `import` accepts existing OPTX v1/v2 containers (re-chunked), the text
// TaN edge-list format, and the CSV inputs/outputs dump documented in
// src/trace/trace_import.hpp — or snapshots a generator (--gen) directly.
// `info` prints the container layout plus streamed degree and
// parent-distance statistics of the (windowed) transaction stream.
// `slice` re-exports a window as a standalone trace (out-of-window parents
// become external funding — the src/trace/trace_source.hpp boundary
// policy). `cat` prints one line per transaction for eyeballing/diffing.
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.hpp"
#include "common/histogram.hpp"
#include "common/table.hpp"
#include "trace/trace_import.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_source.hpp"
#include "workload/tx_source.hpp"

namespace {

using namespace optchain;

// The flags each command reads; Flags::reject_unknown refuses any other.
constexpr std::string_view kImportFlags[] = {"in",  "out",  "format", "gen",
                                             "txs", "seed", "chunk"};
constexpr std::string_view kWindowFlags[] = {"in", "begin", "end"};
constexpr std::string_view kSliceFlags[] = {"out", "chunk"};
constexpr std::string_view kCatFlags[] = {"limit"};

int usage() {
  std::fprintf(
      stderr,
      "usage: optchain-trace <import|info|slice|cat> [--flags]\n"
      "  import --in=FILE [--format=auto|optx|tan|csv] --out=trace.optx\n"
      "  import --gen=bitcoin|account --txs=N [--seed=S] --out=trace.optx\n"
      "  info   --in=trace.optx [--begin=A --end=B]\n"
      "  slice  --in=trace.optx --out=sub.optx --begin=A --end=B\n"
      "  cat    --in=trace.optx [--begin=A --end=B] [--limit=N]\n");
  return 2;
}

std::string required(const Flags& flags, const std::string& name) {
  const std::string value = flags.get_string(name, "");
  if (value.empty()) {
    throw std::runtime_error("--" + name + "= is required");
  }
  return value;
}

trace::TraceWriterOptions writer_options(const Flags& flags) {
  trace::TraceWriterOptions options;
  options.chunk_capacity = static_cast<std::uint32_t>(
      flags.get_int("chunk", trace::kDefaultChunkCapacity));
  return options;
}

/// --end=0 (or absent) means "to the end of the trace", matching
/// ScenarioSpec::trace's window convention.
trace::TraceTxSource open_window(const Flags& flags) {
  const auto begin = static_cast<std::uint64_t>(flags.get_int("begin", 0));
  const auto end = static_cast<std::uint64_t>(flags.get_int("end", 0));
  return trace::TraceTxSource(required(flags, "in"), begin,
                              end == 0 ? trace::TraceTxSource::kToEnd : end);
}

int cmd_import(const Flags& flags) {
  flags.reject_unknown({kImportFlags});
  const std::string out = required(flags, "out");
  const std::string gen = flags.get_string("gen", "");
  trace::ImportResult result;
  if (!gen.empty()) {
    const auto n = static_cast<std::uint64_t>(flags.get_int("txs", 100000));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    if (gen == "account") {
      workload::AccountGeneratorTxSource source({}, seed, n);
      result = trace::import_source(source, out, writer_options(flags));
    } else if (gen == "bitcoin") {
      workload::GeneratorTxSource source({}, seed, n);
      result = trace::import_source(source, out, writer_options(flags));
    } else {
      throw std::runtime_error("--gen must be bitcoin or account");
    }
  } else {
    const std::string format_name = flags.get_string("format", "auto");
    trace::ImportFormat format = trace::ImportFormat::kAuto;
    if (format_name == "optx") {
      format = trace::ImportFormat::kOptx;
    } else if (format_name == "tan") {
      format = trace::ImportFormat::kEdgeList;
    } else if (format_name == "csv") {
      format = trace::ImportFormat::kCsv;
    } else if (format_name != "auto") {
      throw std::runtime_error("--format must be auto, optx, tan or csv");
    }
    result = trace::import_file(required(flags, "in"), out, format,
                                writer_options(flags));
  }
  std::printf("imported %llu transactions into %s (%llu bytes)\n",
              static_cast<unsigned long long>(result.txs), out.c_str(),
              static_cast<unsigned long long>(
                  std::filesystem::file_size(out)));
  return 0;
}

int cmd_info(const Flags& flags) {
  flags.reject_unknown({kWindowFlags});
  const std::string path = required(flags, "in");
  trace::TraceTxSource source = open_window(flags);
  const trace::TraceReader& reader = source.reader();
  const std::uint64_t file_bytes = std::filesystem::file_size(path);

  TextTable layout({"container", "value"});
  layout.add_row({"version", std::to_string(reader.version())});
  layout.add_row({"transactions", TextTable::fmt_int(static_cast<long long>(
                                      reader.size()))});
  layout.add_row({"chunks", TextTable::fmt_int(static_cast<long long>(
                                reader.num_chunks()))});
  layout.add_row({"chunk capacity",
                  TextTable::fmt_int(static_cast<long long>(
                      reader.chunk_capacity()))});
  layout.add_row({"file bytes", TextTable::fmt_int(static_cast<long long>(
                                    file_bytes))});
  if (reader.size() > 0) {
    layout.add_row({"bytes / tx",
                    TextTable::fmt(static_cast<double>(file_bytes) /
                                       static_cast<double>(reader.size()),
                                   2)});
  }
  layout.print();

  // Streamed window statistics, one pass, nothing materialized. A window's
  // out-of-window parents were already dropped by the boundary policy, so
  // the numbers describe exactly the stream a placement run would consume.
  std::uint64_t txs = 0;
  std::uint64_t coinbase = 0;
  std::uint64_t inputs = 0;
  std::uint64_t outputs = 0;
  IntHistogram degrees;   // distinct in-window parents per transaction
  SampleStats distances;  // index - parent index, in-window spends
  std::vector<tx::TxIndex> parents;
  tx::Transaction transaction;
  while (source.next(transaction)) {
    ++txs;
    if (transaction.is_coinbase()) ++coinbase;
    inputs += transaction.inputs.size();
    outputs += transaction.outputs.size();
    transaction.distinct_input_txs(parents);
    degrees.add(parents.size());
    for (const tx::TxIndex parent : parents) {
      distances.add(static_cast<double>(transaction.index - parent));
    }
  }

  std::printf("\n");
  TextTable stats({"window stream", "value"});
  stats.add_row({"transactions", TextTable::fmt_int(static_cast<long long>(
                                     txs))});
  stats.add_row({"coinbase / external-root txs",
                 TextTable::fmt_int(static_cast<long long>(coinbase))});
  stats.add_row({"inputs", TextTable::fmt_int(static_cast<long long>(
                               inputs))});
  stats.add_row({"outputs", TextTable::fmt_int(static_cast<long long>(
                                outputs))});
  if (txs > 0) {
    stats.add_row({"avg TaN in-degree",
                   TextTable::fmt(static_cast<double>(distances.count()) /
                                      static_cast<double>(txs),
                                  3)});
    stats.add_row({"in-degree < 3 (Fig. 2b)",
                   TextTable::fmt_percent(degrees.fraction_below(3))});
  }
  if (distances.count() > 0) {
    stats.add_row({"parent distance mean",
                   TextTable::fmt(distances.mean(), 1)});
    stats.add_row({"parent distance p50",
                   TextTable::fmt(distances.quantile(0.5), 0)});
    stats.add_row({"parent distance p90",
                   TextTable::fmt(distances.quantile(0.9), 0)});
    stats.add_row({"parent distance max",
                   TextTable::fmt(distances.max(), 0)});
  }
  stats.print();
  return 0;
}

int cmd_slice(const Flags& flags) {
  flags.reject_unknown({kWindowFlags, kSliceFlags});
  const std::string out = required(flags, "out");
  trace::TraceTxSource source = open_window(flags);
  const trace::ImportResult result =
      trace::import_source(source, out, writer_options(flags));
  std::printf("sliced [%llu, %llu) -> %s (%llu transactions)\n",
              static_cast<unsigned long long>(source.window_begin()),
              static_cast<unsigned long long>(source.window_end()),
              out.c_str(), static_cast<unsigned long long>(result.txs));
  return 0;
}

int cmd_cat(const Flags& flags) {
  flags.reject_unknown({kWindowFlags, kCatFlags});
  trace::TraceTxSource source = open_window(flags);
  const auto limit = static_cast<std::uint64_t>(
      flags.get_int("limit", std::numeric_limits<std::int64_t>::max()));
  tx::Transaction transaction;
  std::uint64_t printed = 0;
  while (printed < limit && source.next(transaction)) {
    std::printf("%u:", transaction.index);
    for (const tx::OutPoint& in : transaction.inputs) {
      std::printf(" %u:%u", in.tx, in.vout);
    }
    std::printf(" |");
    for (const tx::TxOut& txo : transaction.outputs) {
      std::printf(" %lld:%u", static_cast<long long>(txo.value), txo.owner);
    }
    std::printf("\n");
    ++printed;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Flags flags(argc - 1, argv + 1);
    if (command == "import") return cmd_import(flags);
    if (command == "info") return cmd_info(flags);
    if (command == "slice") return cmd_slice(flags);
    if (command == "cat") return cmd_cat(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optchain-trace %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
  return usage();
}
