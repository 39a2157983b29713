// optchain-obs — inspect and export .otrace run-trace containers.
//
// The companion tool of obs::RunTracer (src/obs/run_tracer.hpp): a recorded
// run's lifecycle trace can be rendered for ui.perfetto.dev, summarized on
// the terminal, or compared record-by-record against another trace (the
// determinism contract's rule 9 check, runnable by hand).
//
//   optchain-obs export --in=run.otrace --out=run.perfetto.json
//   optchain-obs summarize --in=run.otrace
//   optchain-obs diff --a=seq.otrace --b=par.otrace
//
// Commands:
//   export     write the Chrome trace-event JSON (chrome://tracing and
//              ui.perfetto.dev load it directly)
//   summarize  print record counts, the commit/abort split, and the time
//              span of the trace
//   diff       decode both traces in lockstep and report the first
//              diverging record; exit 0 when identical, 1 when not
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "common/flags.hpp"
#include "obs/chrome_export.hpp"
#include "obs/otrace_reader.hpp"

namespace {

using optchain::obs::OtraceReader;
using optchain::obs::TraceRecord;
using optchain::obs::TraceRecordType;
using optchain::obs::TraceSummary;

// The flags each command reads; Flags::reject_unknown refuses any other.
constexpr std::string_view kExportFlags[] = {"in", "out"};
constexpr std::string_view kSummarizeFlags[] = {"in"};
constexpr std::string_view kDiffFlags[] = {"a", "b"};

int usage() {
  std::fprintf(stderr,
               "usage: optchain-obs export --in=PATH --out=PATH\n"
               "       optchain-obs summarize --in=PATH\n"
               "       optchain-obs diff --a=PATH --b=PATH\n");
  return 2;
}

const char* type_name(TraceRecordType type) {
  switch (type) {
    case TraceRecordType::kIssue: return "issue";
    case TraceRecordType::kCommit: return "commit";
    case TraceRecordType::kAbort: return "abort";
    case TraceRecordType::kBlock: return "block";
    case TraceRecordType::kQueueSample: return "queue-sample";
    case TraceRecordType::kLinkSample: return "link-sample";
    case TraceRecordType::kShardChange: return "shard-change";
    case TraceRecordType::kRepartition: return "repartition";
  }
  return "?";
}

bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  if (a.type != b.type || a.time != b.time || a.tx != b.tx ||
      a.shard != b.shard || a.latency_s != b.latency_s || a.cross != b.cross ||
      a.joined != b.joined || a.migrated_txs != b.migrated_txs ||
      a.migrated_utxos != b.migrated_utxos ||
      a.deferred_txs != b.deferred_txs || a.queues != b.queues ||
      a.links.size() != b.links.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    if (a.links[i].endpoint != b.links[i].endpoint ||
        a.links[i].backlog_s != b.links[i].backlog_s ||
        a.links[i].drops != b.links[i].drops) {
      return false;
    }
  }
  return true;
}

int run_export(const optchain::Flags& flags) {
  flags.reject_unknown({kExportFlags});
  const std::string in = flags.get_string("in", "");
  const std::string out = flags.get_string("out", "");
  if (in.empty() || out.empty()) return usage();
  const std::uint64_t events = optchain::obs::export_chrome_trace(in, out);
  std::printf("optchain-obs: wrote %llu trace events to %s\n",
              static_cast<unsigned long long>(events), out.c_str());
  return 0;
}

int run_summarize(const optchain::Flags& flags) {
  flags.reject_unknown({kSummarizeFlags});
  const std::string in = flags.get_string("in", "");
  if (in.empty()) return usage();
  OtraceReader reader(in);
  std::printf("%s: %llu records, %llu chunks (capacity %u)\n", in.c_str(),
              static_cast<unsigned long long>(reader.size()),
              static_cast<unsigned long long>(reader.num_chunks()),
              reader.chunk_capacity());
  const TraceSummary s = reader.summarize();
  std::printf("  issues        %llu (%llu cross-shard)\n",
              static_cast<unsigned long long>(s.issues),
              static_cast<unsigned long long>(s.cross_issues));
  std::printf("  commits       %llu\n",
              static_cast<unsigned long long>(s.commits));
  std::printf("  aborts        %llu\n",
              static_cast<unsigned long long>(s.aborts));
  std::printf("  blocks        %llu\n",
              static_cast<unsigned long long>(s.blocks));
  std::printf("  queue samples %llu\n",
              static_cast<unsigned long long>(s.queue_samples));
  std::printf("  link samples  %llu\n",
              static_cast<unsigned long long>(s.link_samples));
  std::printf("  shard changes %llu\n",
              static_cast<unsigned long long>(s.shard_changes));
  std::printf("  repartitions  %llu\n",
              static_cast<unsigned long long>(s.repartitions));
  std::printf("  time span     %.3f s (worst commit latency %.3f s)\n",
              s.max_time_s, s.max_latency_s);
  return 0;
}

int run_diff(const optchain::Flags& flags) {
  flags.reject_unknown({kDiffFlags});
  const std::string path_a = flags.get_string("a", "");
  const std::string path_b = flags.get_string("b", "");
  if (path_a.empty() || path_b.empty()) return usage();
  OtraceReader reader_a(path_a);
  OtraceReader reader_b(path_b);
  TraceRecord rec_a;
  TraceRecord rec_b;
  std::uint64_t index = 0;
  for (;; ++index) {
    const bool has_a = reader_a.next(rec_a);
    const bool has_b = reader_b.next(rec_b);
    if (!has_a && !has_b) break;
    if (has_a != has_b) {
      std::printf(
          "traces differ: %s ends after %llu records, %s after %llu\n",
          path_a.c_str(),
          static_cast<unsigned long long>(has_a ? reader_a.size() : index),
          path_b.c_str(),
          static_cast<unsigned long long>(has_b ? reader_b.size() : index));
      return 1;
    }
    if (!records_equal(rec_a, rec_b)) {
      std::printf(
          "traces differ at record %llu: %s t=%.9f vs %s t=%.9f\n",
          static_cast<unsigned long long>(index), type_name(rec_a.type),
          rec_a.time, type_name(rec_b.type), rec_b.time);
      return 1;
    }
  }
  std::printf("traces identical: %llu records\n",
              static_cast<unsigned long long>(index));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const optchain::Flags flags(argc - 1, argv + 1);
    if (command == "export") return run_export(flags);
    if (command == "summarize") return run_summarize(flags);
    if (command == "diff") return run_diff(flags);
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optchain-obs: %s\n", error.what());
    return 2;
  }
}
