// Tests for the observability layer (src/obs): RunTracer's .otrace
// container (chunk round-trip, corruption rejection), the Chrome/Perfetto
// export golden, span nesting over a real simulated run, MetricsRegistry
// snapshot math (counters/gauges/histograms, JSON + Prometheus exposition),
// and histogram merge/p999 equivalence with the sorted-vector path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/run_spec.hpp"
#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "common/json_writer.hpp"
#include "obs/chrome_export.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/otrace_format.hpp"
#include "obs/otrace_reader.hpp"
#include "obs/run_tracer.hpp"
#include "txmodel/serialization.hpp"
#include "workload/bitcoin_like_generator.hpp"

namespace optchain {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Decodes every record of `path`; throws on any corruption en route.
std::uint64_t drain(const std::string& path) {
  obs::OtraceReader reader(path);
  obs::TraceRecord record;
  std::uint64_t n = 0;
  while (reader.next(record)) ++n;
  return n;
}

// ------------------------------------------------------------- RunTracer

TEST(RunTracerTest, ChunkRoundTrip) {
  const std::string path = temp_path("roundtrip.otrace");
  obs::RunTracerOptions options;
  options.chunk_capacity = 7;  // tiny: 100 records span 15 chunks
  obs::RunTracer tracer(path, options);
  for (std::uint32_t i = 0; i < 100; ++i) {
    tracer.on_issue(i, 0.001 * i, i % 3 == 0);
  }
  EXPECT_EQ(tracer.total(), 100u);
  EXPECT_EQ(tracer.finish(), 100u);
  EXPECT_EQ(tracer.finish(), 100u);  // idempotent

  obs::OtraceReader reader(path);
  EXPECT_EQ(reader.size(), 100u);
  EXPECT_EQ(reader.num_chunks(), 15u);
  EXPECT_EQ(reader.chunk_capacity(), 7u);
  obs::TraceRecord record;
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(reader.next(record)) << "record " << i;
    EXPECT_EQ(record.type, obs::TraceRecordType::kIssue);
    EXPECT_EQ(record.tx, i);
    EXPECT_DOUBLE_EQ(record.time, 0.001 * i);
    EXPECT_EQ(record.cross, i % 3 == 0);
  }
  EXPECT_FALSE(reader.next(record));

  const obs::TraceSummary summary = obs::OtraceReader(path).summarize();
  EXPECT_EQ(summary.records, 100u);
  EXPECT_EQ(summary.issues, 100u);
  EXPECT_EQ(summary.cross_issues, 34u);  // i % 3 == 0 in [0, 100)
  EXPECT_DOUBLE_EQ(summary.max_time_s, 0.099);
}

TEST(RunTracerTest, EveryRecordTypeRoundTrips) {
  const std::string path = temp_path("alltypes.otrace");
  obs::RunTracer tracer(path);
  tracer.on_issue(7, 1.0, true);
  tracer.on_commit(7, 1.5, 0.5);
  tracer.on_abort(8, 2.25);
  const std::vector<std::uint64_t> queues = {2, 5};
  tracer.on_queue_sample(3.0, queues);
  tracer.on_block_commit(3, 2.5);
  const std::vector<sim::LinkSample> links = {{0, 0.25, 2}};
  tracer.on_link_sample(3.5, links);
  tracer.on_shard_change(2, 4.0, false, 10, 20);
  tracer.on_repartition(5.0, 1, 2, 3);
  EXPECT_EQ(tracer.finish(), 8u);

  obs::OtraceReader reader(path);
  obs::TraceRecord r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.type, obs::TraceRecordType::kIssue);
  EXPECT_EQ(r.tx, 7u);
  EXPECT_TRUE(r.cross);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.type, obs::TraceRecordType::kCommit);
  EXPECT_DOUBLE_EQ(r.latency_s, 0.5);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.type, obs::TraceRecordType::kAbort);
  EXPECT_EQ(r.tx, 8u);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.type, obs::TraceRecordType::kQueueSample);
  EXPECT_EQ(r.queues, queues);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.type, obs::TraceRecordType::kBlock);
  EXPECT_EQ(r.shard, 3u);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.type, obs::TraceRecordType::kLinkSample);
  ASSERT_EQ(r.links.size(), 1u);
  EXPECT_EQ(r.links[0].endpoint, 0u);
  EXPECT_DOUBLE_EQ(r.links[0].backlog_s, 0.25);
  EXPECT_EQ(r.links[0].drops, 2u);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.type, obs::TraceRecordType::kShardChange);
  EXPECT_FALSE(r.joined);
  EXPECT_EQ(r.migrated_txs, 10u);
  EXPECT_EQ(r.migrated_utxos, 20u);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.type, obs::TraceRecordType::kRepartition);
  EXPECT_EQ(r.deferred_txs, 3u);
  EXPECT_FALSE(reader.next(r));
}

TEST(RunTracerTest, RecordingAfterFinishThrows) {
  const std::string path = temp_path("finished.otrace");
  obs::RunTracer tracer(path);
  tracer.on_issue(0, 0.0, false);
  tracer.finish();
  EXPECT_THROW(tracer.on_issue(1, 1.0, false), std::runtime_error);
}

TEST(OtraceReaderTest, RejectsCorruptTraces) {
  // Not a trace at all.
  const std::string garbage = temp_path("garbage.otrace");
  spit(garbage, "definitely not an OTRC container");
  EXPECT_THROW(obs::OtraceReader{garbage}, std::runtime_error);

  // A valid trace to mutilate.
  const std::string valid = temp_path("victim.otrace");
  {
    obs::RunTracerOptions options;
    options.chunk_capacity = 8;
    obs::RunTracer tracer(valid, options);
    for (std::uint32_t i = 0; i < 64; ++i) tracer.on_issue(i, 0.1 * i, false);
    tracer.finish();
  }
  const std::string bytes = slurp(valid);
  ASSERT_EQ(drain(valid), 64u);  // sanity: intact trace decodes clean

  // Truncation: the fixed trailer is gone.
  const std::string truncated = temp_path("truncated.otrace");
  spit(truncated, bytes.substr(0, bytes.size() - 5));
  EXPECT_THROW(obs::OtraceReader{truncated}, std::runtime_error);

  // A single flipped payload byte must fail the chunk checksum (or the
  // frame parse) — never decode silently.
  const std::string flipped = temp_path("flipped.otrace");
  std::string mutated = bytes;
  mutated[mutated.size() / 3] ^= 0x40;
  spit(flipped, mutated);
  EXPECT_THROW(drain(flipped), std::runtime_error);
}

// A hand-built OTRC container: header, one chunk frame that claims
// `claimed_payload` bytes but carries `payload`, then a footer whose chunk
// count is `n_chunks` (its one real entry points at the frame).
std::string hand_built_otrace(std::uint64_t claimed_payload,
                              const std::vector<std::uint8_t>& payload,
                              std::uint64_t n_chunks) {
  std::vector<std::uint8_t> bytes(obs::kOtraceMagic, obs::kOtraceMagic + 4);
  tx::write_varint(bytes, obs::kOtraceVersion);
  tx::write_varint(bytes, 8);  // chunk capacity
  const std::uint64_t chunk_offset = bytes.size();
  tx::write_varint(bytes, 1);  // records in the chunk
  tx::write_varint(bytes, claimed_payload);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  tx::write_varint(bytes, fnv1a(payload));
  const std::uint64_t footer_offset = bytes.size();
  tx::write_varint(bytes, n_chunks);
  tx::write_varint(bytes, chunk_offset);
  tx::write_varint(bytes, 0);  // first index
  tx::write_varint(bytes, 1);  // count
  tx::write_varint(bytes, 1);  // total records
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(footer_offset >> shift));
  }
  bytes.insert(bytes.end(), obs::kOtraceTrailerMagic,
               obs::kOtraceTrailerMagic + 4);
  return std::string(bytes.begin(), bytes.end());
}

/// One record payload: `type`, an f64 time of 1.0, then a varint count.
std::vector<std::uint8_t> sample_claiming(obs::TraceRecordType type,
                                          std::uint64_t count) {
  std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(type)};
  const std::uint64_t time_bits = std::bit_cast<std::uint64_t>(1.0);
  for (int shift = 0; shift < 64; shift += 8) {
    payload.push_back(static_cast<std::uint8_t>(time_bits >> shift));
  }
  tx::write_varint(payload, count);
  return payload;
}

TEST(OtraceReaderTest, HandBuiltTraceIsReadable) {
  // Guards the builder the hostile cases below start from: one queue
  // sample with two shards decodes.
  std::vector<std::uint8_t> payload =
      sample_claiming(obs::TraceRecordType::kQueueSample, 2);
  payload.push_back(3);
  payload.push_back(4);
  const std::string path = temp_path("hand_built.otrace");
  spit(path, hand_built_otrace(payload.size(), payload, 1));
  obs::OtraceReader reader(path);
  obs::TraceRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.type, obs::TraceRecordType::kQueueSample);
  EXPECT_EQ(record.time, 1.0);
  EXPECT_EQ(record.queues, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_FALSE(reader.next(record));
}

// Sizes read from a file are bounded by the bytes that can back them, so a
// hostile file raises the reader's error instead of a huge allocation.
TEST(OtraceReaderTest, FooterChunkCountLargerThanFooterThrows) {
  const std::string path = temp_path("huge_chunk_count.otrace");
  spit(path, hand_built_otrace(0, {}, 1ULL << 40));
  try {
    obs::OtraceReader reader(path);
    ADD_FAILURE() << "opened";
  } catch (const std::runtime_error& error) {
    // Refused by the bound, not by a failed reservation.
    EXPECT_NE(std::string(error.what()).find("chunk count"),
              std::string::npos)
        << error.what();
  }
}

TEST(OtraceReaderTest, PayloadSizePastFooterThrows) {
  const std::string path = temp_path("huge_payload.otrace");
  spit(path, hand_built_otrace(1ULL << 40, {}, 1));
  obs::OtraceReader reader(path);
  obs::TraceRecord record;
  EXPECT_THROW(reader.next(record), std::runtime_error);
}

TEST(OtraceReaderTest, QueueCountLargerThanChunkThrows) {
  const std::vector<std::uint8_t> payload =
      sample_claiming(obs::TraceRecordType::kQueueSample, 1ULL << 40);
  const std::string path = temp_path("huge_queue_count.otrace");
  spit(path, hand_built_otrace(payload.size(), payload, 1));
  obs::OtraceReader reader(path);
  obs::TraceRecord record;
  EXPECT_THROW(reader.next(record), std::runtime_error);
}

TEST(OtraceReaderTest, LinkCountLargerThanChunkThrows) {
  // Nine bytes follow the count: room for one byte per entry, but not for
  // one 10-byte link entry.
  std::vector<std::uint8_t> payload =
      sample_claiming(obs::TraceRecordType::kLinkSample, 1ULL << 40);
  payload.insert(payload.end(), 9, 0);
  const std::string path = temp_path("huge_link_count.otrace");
  spit(path, hand_built_otrace(payload.size(), payload, 1));
  obs::OtraceReader reader(path);
  obs::TraceRecord record;
  EXPECT_THROW(reader.next(record), std::runtime_error);
}

// ---------------------------------------------------------- Chrome export

TEST(ChromeExportTest, GoldenExport) {
  const std::string path = temp_path("golden.otrace");
  {
    obs::RunTracerOptions options;
    options.chunk_capacity = 3;  // exercise multi-chunk reads in the export
    obs::RunTracer tracer(path, options);
    tracer.on_issue(7, 1.0, true);
    tracer.on_commit(7, 1.5, 0.5);
    tracer.on_issue(8, 2.0, false);
    tracer.on_abort(8, 2.25);
    tracer.on_block_commit(3, 2.5);
    const std::vector<std::uint64_t> queues = {2, 5};
    tracer.on_queue_sample(3.0, queues);
    const std::vector<sim::LinkSample> links = {{0, 0.25, 2}};
    tracer.on_link_sample(3.5, links);
    tracer.on_shard_change(2, 4.0, false, 10, 20);
    tracer.on_repartition(5.0, 1, 2, 3);
    tracer.finish();
  }
  obs::OtraceReader reader(path);
  std::ostringstream out;
  const std::uint64_t events = obs::write_chrome_trace(reader, out);
  EXPECT_EQ(events, 11u);  // 9 records + 2 process_name metadata events

  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"transaction lifecycle\"}},\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
      "\"args\":{\"name\":\"shards\"}},\n"
      "{\"cat\":\"tx\",\"name\":\"tx\",\"ph\":\"b\",\"id\":7,\"pid\":1,"
      "\"tid\":0,\"ts\":1000000,\"args\":{\"cross\":1}},\n"
      "{\"cat\":\"tx\",\"name\":\"tx\",\"ph\":\"e\",\"id\":7,\"pid\":1,"
      "\"tid\":0,\"ts\":1500000,\"args\":{\"outcome\":\"commit\","
      "\"latency_us\":500000}},\n"
      "{\"cat\":\"tx\",\"name\":\"tx\",\"ph\":\"b\",\"id\":8,\"pid\":1,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"cross\":0}},\n"
      "{\"cat\":\"tx\",\"name\":\"tx\",\"ph\":\"e\",\"id\":8,\"pid\":1,"
      "\"tid\":0,\"ts\":2250000,\"args\":{\"outcome\":\"abort\"}},\n"
      "{\"cat\":\"shard\",\"name\":\"block\",\"ph\":\"i\",\"s\":\"t\","
      "\"pid\":2,\"tid\":3,\"ts\":2500000},\n"
      "{\"name\":\"queue\",\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":3000000,"
      "\"args\":{\"s0\":2,\"s1\":5}},\n"
      "{\"name\":\"link_backlog_s\",\"ph\":\"C\",\"pid\":2,\"tid\":0,"
      "\"ts\":3500000,\"args\":{\"e0\":0.25}},\n"
      "{\"cat\":\"churn\",\"name\":\"shard retire\",\"ph\":\"i\",\"s\":\"g\","
      "\"pid\":2,\"tid\":2,\"ts\":4000000,\"args\":{\"migrated_txs\":10,"
      "\"migrated_utxos\":20}},\n"
      "{\"cat\":\"repartition\",\"name\":\"repartition\",\"ph\":\"i\","
      "\"s\":\"g\",\"pid\":2,\"tid\":0,\"ts\":5000000,"
      "\"args\":{\"migrated_txs\":1,\"migrated_utxos\":2,"
      "\"deferred_txs\":3}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(out.str(), expected);

  // The export is a pure function of the trace bytes.
  const std::string json_a = temp_path("golden_a.json");
  const std::string json_b = temp_path("golden_b.json");
  EXPECT_EQ(obs::export_chrome_trace(path, json_a), 11u);
  EXPECT_EQ(obs::export_chrome_trace(path, json_b), 11u);
  EXPECT_EQ(slurp(json_a), slurp(json_b));
}

// ----------------------------------------------- traced simulation run

TEST(RunTracerTest, SimulatedRunProducesWellNestedSpans) {
  workload::BitcoinLikeGenerator generator({}, 11);
  const std::vector<tx::Transaction> txs = generator.generate(400);

  const std::string path = temp_path("simrun.otrace");
  obs::RunTracer tracer(path);
  api::RunSpec spec;
  spec.method = "OptChain";
  spec.num_shards = 4;
  spec.rate_tps = 400.0;
  spec.commit_window_s = 5.0;
  spec.observers = {&tracer};
  const api::RunReport report = api::simulate(spec, txs);
  ASSERT_TRUE(report.sim.has_value());
  const std::uint64_t records = tracer.finish();
  EXPECT_GT(records, 0u);

  // Spans nest: every terminal (commit/abort) closes a previously opened
  // issue, exactly once; timestamps never run backwards (hooks fire in
  // simulated-time order).
  obs::OtraceReader reader(path);
  obs::TraceRecord record;
  std::set<std::uint32_t> open;
  std::uint64_t commits = 0, aborts = 0, issues = 0;
  double last_time = 0.0;
  while (reader.next(record)) {
    EXPECT_GE(record.time, last_time);
    last_time = record.time;
    switch (record.type) {
      case obs::TraceRecordType::kIssue:
        EXPECT_TRUE(open.insert(record.tx).second)
            << "tx " << record.tx << " issued twice";
        ++issues;
        break;
      case obs::TraceRecordType::kCommit:
        EXPECT_EQ(open.erase(record.tx), 1u)
            << "commit without open span for tx " << record.tx;
        ++commits;
        break;
      case obs::TraceRecordType::kAbort:
        EXPECT_EQ(open.erase(record.tx), 1u)
            << "abort without open span for tx " << record.tx;
        ++aborts;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(issues, report.sim->total_txs);
  EXPECT_EQ(commits, report.sim->committed_txs);
  EXPECT_EQ(aborts, report.sim->aborted_txs);
  EXPECT_TRUE(open.empty()) << open.size() << " spans never closed";

  // And the exported JSON covers every record (+ 2 metadata events).
  const std::string json_path = temp_path("simrun.json");
  EXPECT_EQ(obs::export_chrome_trace(path, json_path), records + 2);
}

// -------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, SnapshotMath) {
  obs::MetricsRegistry registry;
  registry.counter("serve.passes").inc(2);
  registry.gauge("serve.rate").set(1.5);
  obs::Histogram& histogram = registry.histogram("lat");
  for (int i = 1; i <= 1000; ++i) histogram.observe(i);

  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_DOUBLE_EQ(histogram.p50(), 500.0);
  EXPECT_DOUBLE_EQ(histogram.p99(), 990.0);
  EXPECT_DOUBLE_EQ(histogram.p999(), 999.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1000.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 500.5);

  // Stable addresses: a second lookup is the same instrument.
  registry.counter("serve.passes").inc();
  EXPECT_EQ(registry.counter("serve.passes").value(), 3u);

  JsonWriter json;
  registry.write_json(json, "metrics");
  const std::string doc = json.finish();
  EXPECT_NE(doc.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"serve.passes\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"lat\":{\"count\":1000"), std::string::npos);

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE serve_passes counter\nserve_passes 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_rate gauge\nserve_rate 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat{quantile=\"0.5\"} 500\n"), std::string::npos);
  EXPECT_NE(text.find("lat{quantile=\"0.999\"} 999\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1000\n"), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyHistogramIsZero) {
  obs::Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.p50(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.p999(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
}

TEST(MetricsRegistryTest, HistogramBucketsAndMerge) {
  obs::Histogram evens, odds, combined;
  for (int i = 1; i <= 1000; ++i) {
    (i % 2 == 0 ? evens : odds).observe(i);
    combined.observe(i);
  }
  evens.merge(odds);
  EXPECT_EQ(evens.count(), combined.count());
  EXPECT_DOUBLE_EQ(evens.sum(), combined.sum());
  // Quantiles of the merged histogram are exact over the union.
  EXPECT_DOUBLE_EQ(evens.p50(), combined.p50());
  EXPECT_DOUBLE_EQ(evens.p99(), combined.p99());
  EXPECT_DOUBLE_EQ(evens.p999(), combined.p999());
  EXPECT_EQ(evens.buckets(), combined.buckets());

  // Log-bucket layout: bucket 0 holds sub-unit values, bucket b holds
  // [2^(b-1), 2^b).
  obs::Histogram layout;
  layout.observe(0.5);
  layout.observe(1.0);
  layout.observe(1024.0);
  EXPECT_EQ(layout.buckets()[0], 1u);
  EXPECT_EQ(layout.buckets()[1], 1u);
  EXPECT_EQ(layout.buckets()[11], 1u);
}

// ------------------------------------------------------- common/histogram

TEST(SampleStatsTest, MergeMatchesCombinedAdds) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(0.0, 5000.0);
  SampleStats a, b, combined;
  std::vector<double> sorted;
  for (int i = 0; i < 4000; ++i) {
    const double value = dist(rng);
    (i % 2 == 0 ? a : b).add(value);
    combined.add(value);
    sorted.push_back(value);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Sums differ only by FP accumulation order; quantiles are exact (the
  // merged store holds the identical sample multiset).
  EXPECT_NEAR(a.sum(), combined.sum(), 1e-6 * combined.sum());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  EXPECT_DOUBLE_EQ(a.p999(), combined.p999());

  // Golden pin vs the sorted-vector nearest-rank path the serve daemon and
  // batch pipeline used before migrating onto SampleStats.
  std::sort(sorted.begin(), sorted.end());
  const auto nearest_rank = [&sorted](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[rank == 0 ? 0 : rank - 1];
  };
  EXPECT_DOUBLE_EQ(combined.p50(), nearest_rank(0.50));
  EXPECT_DOUBLE_EQ(combined.p99(), nearest_rank(0.99));
  EXPECT_DOUBLE_EQ(combined.p999(), nearest_rank(0.999));
}

TEST(IntHistogramTest, MergeAddsCounts) {
  IntHistogram a, b;
  a.add(1, 3);
  a.add(2, 1);
  b.add(2, 2);
  b.add(5, 4);
  a.merge(b);
  EXPECT_EQ(a.total(), 10u);
  EXPECT_EQ(a.count_of(1), 3u);
  EXPECT_EQ(a.count_of(2), 3u);
  EXPECT_EQ(a.count_of(5), 4u);
  EXPECT_EQ(a.max_value(), 5u);
}

}  // namespace
}  // namespace optchain
