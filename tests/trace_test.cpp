// Tests for the trace subsystem (src/trace): writer/reader round-trips,
// corruption detection, the windowed boundary policy, index-backed seeks
// that skip the prefix, importer formats, and streamed-trace vs
// direct-generator equivalence through placement, simulation and sweeps.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "api/run_spec.hpp"
#include "api/scenario_spec.hpp"
#include "api/sweep_runner.hpp"
#include "common/hash.hpp"
#include "trace/trace_import.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_source.hpp"
#include "trace/trace_writer.hpp"
#include "txmodel/serialization.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/dataset_loader.hpp"
#include "workload/tan_builder.hpp"
#include "workload/tx_source.hpp"

namespace optchain::trace {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<tx::Transaction> bitcoin_stream(std::size_t n,
                                            std::uint64_t seed) {
  workload::BitcoinLikeGenerator generator({}, seed);
  return generator.generate(n);
}

/// Writes `txs` into a v2 trace with the given chunk capacity.
std::string write_trace(const std::vector<tx::Transaction>& txs,
                        const std::string& name,
                        std::uint32_t chunk_capacity) {
  const std::string path = temp_path(name);
  TraceWriter writer(path, {.chunk_capacity = chunk_capacity});
  for (const tx::Transaction& transaction : txs) writer.append(transaction);
  EXPECT_EQ(writer.finish(), txs.size());
  return path;
}

void expect_same_tx(const tx::Transaction& a, const tx::Transaction& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.inputs, b.inputs);
  EXPECT_EQ(a.outputs, b.outputs);
}

TEST(TraceRoundTripTest, MultiChunkRoundTrip) {
  const auto txs = bitcoin_stream(5000, 41);
  const std::string path = write_trace(txs, "roundtrip.optx", 256);

  TraceReader reader(path);
  EXPECT_EQ(reader.version(), 2u);
  EXPECT_EQ(reader.size(), txs.size());
  EXPECT_EQ(reader.chunk_capacity(), 256u);
  EXPECT_EQ(reader.num_chunks(), (txs.size() + 255) / 256);

  tx::Transaction transaction;
  for (const tx::Transaction& expected : txs) {
    ASSERT_TRUE(reader.next(transaction)) << "tx " << expected.index;
    expect_same_tx(transaction, expected);
  }
  EXPECT_FALSE(reader.next(transaction));
  EXPECT_FALSE(reader.next(transaction));  // stays exhausted
  std::remove(path.c_str());
}

TEST(TraceRoundTripTest, MultiChunkBytesArePinned) {
  // A generated stream over 30 frames of 100 transactions. The digest was
  // captured before the framing moved into the shared chunk container;
  // the container must keep writing exactly these bytes.
  const auto txs = bitcoin_stream(3000, 63);
  const std::string path = write_trace(txs, "pinned.optx", 100);
  EXPECT_EQ(TraceReader(path).num_chunks(), 30u);
  std::ifstream file(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.size(), 46677u);
  EXPECT_EQ(fnv1a(bytes), 0xf55fbd37da5f9baaULL) << std::hex << fnv1a(bytes);
  std::remove(path.c_str());
}

TEST(TraceRoundTripTest, EmptyTrace) {
  const std::string path = write_trace({}, "empty.optx", 64);
  TraceReader reader(path);
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.num_chunks(), 0u);
  tx::Transaction transaction;
  EXPECT_FALSE(reader.next(transaction));
  std::remove(path.c_str());
}

TEST(TraceRoundTripTest, WriterRejectsMalformedStreams) {
  const std::string path = temp_path("bad_writer.optx");
  {
    TraceWriter writer(path);
    tx::Transaction transaction;
    transaction.index = 3;  // non-dense
    EXPECT_THROW(writer.append(transaction), std::runtime_error);
  }
  {
    TraceWriter writer(path);
    tx::Transaction transaction;
    transaction.index = 0;
    transaction.inputs.push_back({0, 0});  // self reference
    EXPECT_THROW(writer.append(transaction), std::runtime_error);
  }
  EXPECT_THROW(TraceWriter(path, {.chunk_capacity = 0}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCorruptionTest, BadMagicThrows) {
  const std::string path = temp_path("badmagic.optx");
  std::ofstream(path, std::ios::binary) << "NOPE....";
  EXPECT_THROW(TraceReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCorruptionTest, MissingFileThrows) {
  EXPECT_THROW(TraceReader{"/nonexistent/trace.optx"}, std::runtime_error);
}

TEST(TraceCorruptionTest, TruncationThrows) {
  const auto txs = bitcoin_stream(1000, 43);
  const std::string path = write_trace(txs, "truncated.optx", 128);
  // Chop the trailer (and some footer) off: the reader must refuse the
  // whole file rather than replay a silently shortened stream.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<char> bytes(size - 20);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  std::ofstream(path, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(TraceReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCorruptionTest, ChecksumCatchesPayloadFlip) {
  const auto txs = bitcoin_stream(1000, 45);
  const std::string path = write_trace(txs, "bitflip.optx", 128);

  TraceReader clean(path);
  ASSERT_GE(clean.num_chunks(), 3u);
  // Flip one byte in the middle of chunk 1's frame (past the two frame
  // varints, inside the payload).
  const std::uint64_t victim = clean.chunks()[1].offset + 8;
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(victim));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(victim));
    file.write(&byte, 1);
  }

  // Decoding through the damaged chunk throws...
  TraceReader reader(path);
  tx::Transaction transaction;
  EXPECT_THROW(
      {
        while (reader.next(transaction)) {
        }
      },
      std::runtime_error);

  // ...but a window that starts past it never reads the damaged bytes:
  // chunk-indexed seeks skip the prefix instead of decoding it.
  const std::uint64_t begin = TraceReader(path).chunks()[2].first_index;
  TraceTxSource window(path, begin);
  std::uint64_t streamed = 0;
  while (window.next(transaction)) ++streamed;
  EXPECT_EQ(streamed, txs.size() - begin);
  std::remove(path.c_str());
}

/// Writes raw bytes to a temp file; returns its path.
std::string write_bytes(const std::string& name,
                        const std::vector<std::uint8_t>& bytes) {
  const std::string path = temp_path(name);
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// The footer index of a hand-built file, as a writer would lay it out;
/// a test edits it to make the file hostile.
struct HandBuiltFooter {
  /// One index entry.
  struct Entry {
    std::uint64_t offset = 0;
    std::uint64_t first_index = 0;
    std::uint64_t count = 0;
  };
  std::vector<Entry> entries;          ///< one per frame
  std::uint64_t total = 0;             ///< the sum of the counts
  std::vector<std::uint8_t> gap;       ///< bytes between frames and footer
  std::vector<std::uint8_t> trailing;  ///< bytes after the total
};

/// A hand-built v2 file: header (chunk capacity 64), `frames` copies of one
/// chunk frame holding `count` and `payload_bytes` as given followed by
/// `payload`, a footer whose chunk count is `n_chunks` with one entry per
/// frame (after `edit` has changed it), and the trailer.
std::vector<std::uint8_t> hand_built_v2(
    std::uint64_t count, std::uint64_t payload_bytes,
    const std::vector<std::uint8_t>& payload, std::uint64_t n_chunks,
    std::uint64_t frames = 1,
    const std::function<void(HandBuiltFooter&)>& edit = {}) {
  std::vector<std::uint8_t> bytes = {'O', 'P', 'T', 'X'};
  tx::write_varint(bytes, kTraceVersion);
  tx::write_varint(bytes, 64);
  HandBuiltFooter footer;
  for (std::uint64_t i = 0; i < frames; ++i) {
    footer.entries.push_back({bytes.size(), footer.total, count});
    footer.total += count;
    tx::write_varint(bytes, count);
    tx::write_varint(bytes, payload_bytes);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    tx::write_varint(bytes, fnv1a(payload));
  }
  if (edit) edit(footer);
  bytes.insert(bytes.end(), footer.gap.begin(), footer.gap.end());
  const std::uint64_t footer_offset = bytes.size();
  tx::write_varint(bytes, n_chunks);
  for (const HandBuiltFooter::Entry& entry : footer.entries) {
    tx::write_varint(bytes, entry.offset);
    tx::write_varint(bytes, entry.first_index);
    tx::write_varint(bytes, entry.count);
  }
  tx::write_varint(bytes, footer.total);
  bytes.insert(bytes.end(), footer.trailing.begin(), footer.trailing.end());
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(footer_offset >> shift));
  }
  for (const std::uint8_t byte : kTrailerMagic) bytes.push_back(byte);
  return bytes;
}

TEST(TraceCorruptionTest, HandBuiltFileIsReadable) {
  // Guards the builder the hostile cases below start from: one coinbase
  // transaction (no inputs, no outputs) reads back.
  const std::string path = write_bytes(
      "hand_built.optx", hand_built_v2(1, 2, {0, 0}, /*n_chunks=*/1));
  TraceReader reader(path);
  EXPECT_EQ(reader.size(), 1u);
  tx::Transaction transaction;
  ASSERT_TRUE(reader.next(transaction));
  EXPECT_TRUE(transaction.inputs.empty());
  EXPECT_FALSE(reader.next(transaction));
  std::remove(path.c_str());
}

TEST(TraceCorruptionTest, FooterChunkCountLargerThanFooterThrows) {
  const std::string path = write_bytes(
      "huge_chunk_count.optx", hand_built_v2(1, 2, {0, 0}, 1ULL << 40));
  EXPECT_THROW(TraceReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCorruptionTest, PayloadSizePastFooterThrows) {
  const std::string path = write_bytes(
      "huge_payload.optx", hand_built_v2(1, 1ULL << 40, {0, 0}, 1));
  TraceReader reader(path);
  tx::Transaction transaction;
  EXPECT_THROW(reader.next(transaction), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCorruptionTest, ChunkTransactionWithHugeInputCountThrows) {
  // A checksummed chunk whose one transaction claims 2^35 inputs: the body
  // codec must refuse the count before reserving for it.
  std::vector<std::uint8_t> payload;
  tx::write_varint(payload, 1ULL << 35);
  const std::string path = write_bytes(
      "huge_inputs.optx", hand_built_v2(1, payload.size(), payload, 1));
  TraceReader reader(path);
  tx::Transaction transaction;
  EXPECT_THROW(reader.next(transaction), std::runtime_error);
  std::remove(path.c_str());
}

// The footer rules of the shared chunk container (obs_test holds .otrace
// files to the same cases). Each hand-built file has three frames of one
// coinbase transaction each.
TEST(TraceCorruptionTest, HostileFootersAreRefused) {
  const auto build = [](const std::function<void(HandBuiltFooter&)>& edit) {
    return write_bytes("hostile_footer.optx",
                       hand_built_v2(1, 2, {0, 0}, 3, 3, edit));
  };
  {
    // Unedited, the file reads back whole.
    const std::string path = build({});
    TraceReader reader(path);
    tx::Transaction transaction;
    std::uint64_t decoded = 0;
    while (reader.next(transaction)) ++decoded;
    EXPECT_EQ(decoded, 3u);
  }
  using Edit = std::function<void(HandBuiltFooter&)>;
  const std::pair<const char*, Edit> at_open[] = {
      {"total below the sum of the counts",
       [](HandBuiltFooter& footer) { footer.total = 1; }},
      {"trailing footer bytes",
       [](HandBuiltFooter& footer) { footer.trailing = {0, 0, 0}; }},
      {"first_index not dense",
       [](HandBuiltFooter& footer) { footer.entries[1].first_index = 2; }},
      {"zero count",
       [](HandBuiltFooter& footer) { footer.entries[1].count = 0; }},
      {"offsets go backwards",
       [](HandBuiltFooter& footer) {
         std::swap(footer.entries[1].offset, footer.entries[2].offset);
       }},
      {"repeated offset",
       [](HandBuiltFooter& footer) {
         footer.entries[1].offset = footer.entries[0].offset;
       }},
  };
  for (const auto& [what, edit] : at_open) {
    const std::string path = build(edit);
    EXPECT_THROW(TraceReader{path}, std::runtime_error) << what;
    std::remove(path.c_str());
  }
  // Bytes between the last frame and the footer: the index opens, but the
  // last frame does not end where the footer begins.
  const std::string path =
      build([](HandBuiltFooter& footer) { footer.gap = {0}; });
  TraceReader reader(path);
  tx::Transaction transaction;
  EXPECT_THROW(
      {
        while (reader.next(transaction)) {
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceCorruptionTest, FlatCountLargerThanFileThrows) {
  // A flat v1 header announcing 2^40 transactions with no body.
  std::vector<std::uint8_t> bytes = {'O', 'P', 'T', 'X'};
  tx::write_varint(bytes, 1);
  tx::write_varint(bytes, 1ULL << 40);
  const std::string path = write_bytes("huge_v1_count.optx", bytes);
  EXPECT_THROW(TraceReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceSeekTest, WindowedSeekLoadsOnlyWindowChunks) {
  const auto txs = bitcoin_stream(4000, 47);
  const std::string path = write_trace(txs, "seek.optx", 100);

  TraceReader reader(path);
  ASSERT_EQ(reader.num_chunks(), 40u);
  reader.seek(2500);
  tx::Transaction transaction;
  for (std::uint64_t i = 2500; i < 2600; ++i) {
    ASSERT_TRUE(reader.next(transaction));
    expect_same_tx(transaction, txs[static_cast<std::size_t>(i)]);
  }
  // 100 transactions starting chunk-aligned at 2500 span exactly one chunk.
  EXPECT_EQ(reader.chunks_loaded(), 1u);

  // Mid-chunk target: one chunk load, prefix skipped inside the buffer.
  reader.seek(1234);
  ASSERT_TRUE(reader.next(transaction));
  expect_same_tx(transaction, txs[1234]);
  EXPECT_EQ(reader.chunks_loaded(), 2u);

  // seek to end is valid and yields nothing.
  reader.seek(txs.size());
  EXPECT_FALSE(reader.next(transaction));
  EXPECT_THROW(reader.seek(txs.size() + 1), std::out_of_range);
  std::remove(path.c_str());
}

TEST(TraceSourceTest, WindowBoundaryPolicy) {
  // Handmade stream: 0 (coinbase, 2 outputs), 1 spends 0:0, 2 spends 0:1
  // and 1:0, 3 spends 2:0.
  std::vector<tx::Transaction> txs(4);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    txs[i].index = static_cast<tx::TxIndex>(i);
  }
  txs[0].outputs = {{50, 0}, {50, 1}};
  txs[1].inputs = {{0, 0}};
  txs[1].outputs = {{50, 2}};
  txs[2].inputs = {{0, 1}, {1, 0}};
  txs[2].outputs = {{100, 3}};
  txs[3].inputs = {{2, 0}};
  txs[3].outputs = {{100, 4}};
  const std::string path = write_trace(txs, "window.optx", 2);

  TraceTxSource window(path, 2, 4);
  ASSERT_TRUE(window.size_hint().has_value());
  EXPECT_EQ(*window.size_hint(), 2u);

  tx::Transaction transaction;
  // Absolute tx 2 → local 0: both parents (0, 1) precede the window, so
  // they become external funding and the transaction replays as a root.
  ASSERT_TRUE(window.next(transaction));
  EXPECT_EQ(transaction.index, 0u);
  EXPECT_TRUE(transaction.inputs.empty());
  EXPECT_EQ(transaction.outputs, txs[2].outputs);
  // Absolute tx 3 → local 1: its parent 2 is inside the window and is
  // re-indexed to local 0 with the vout preserved.
  ASSERT_TRUE(window.next(transaction));
  EXPECT_EQ(transaction.index, 1u);
  ASSERT_EQ(transaction.inputs.size(), 1u);
  EXPECT_EQ(transaction.inputs[0], (tx::OutPoint{0, 0}));
  EXPECT_FALSE(window.next(transaction));

  // Degenerate windows are rejected loudly.
  EXPECT_THROW(TraceTxSource(path, 3, 2), std::invalid_argument);
  EXPECT_THROW(TraceTxSource(path, 9, TraceTxSource::kToEnd),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(TraceSourceTest, FullWindowIsBitIdenticalAndRewinds) {
  const auto txs = bitcoin_stream(1500, 49);
  const std::string path = write_trace(txs, "full.optx", 128);

  TraceTxSource source(path);
  for (int pass = 0; pass < 2; ++pass) {
    const auto replayed = workload::materialize(source);
    ASSERT_EQ(replayed.size(), txs.size()) << "pass " << pass;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      expect_same_tx(replayed[i], txs[i]);
    }
    source.rewind();  // replica r+1 replays the same window, same file
  }
  std::remove(path.c_str());
}

TEST(TraceSourceTest, WindowedTanIsInducedSubgraph) {
  const auto txs = bitcoin_stream(2000, 51);
  const std::string path = write_trace(txs, "induced.optx", 256);
  constexpr std::uint64_t kBegin = 700;
  constexpr std::uint64_t kEnd = 1400;

  TraceTxSource window(path, kBegin, kEnd);
  const auto replayed = workload::materialize(window);
  const graph::TanDag windowed = workload::build_tan(replayed);
  const graph::TanDag full = workload::build_tan(txs);

  ASSERT_EQ(windowed.num_nodes(), kEnd - kBegin);
  for (graph::NodeId u = 0; u < windowed.num_nodes(); ++u) {
    // Expected in-neighborhood: the full TaN's edges restricted to the
    // window, re-indexed.
    std::vector<graph::NodeId> expected;
    for (const graph::NodeId v : full.inputs(u + kBegin)) {
      if (v >= kBegin) expected.push_back(v - kBegin);
    }
    const auto actual = windowed.inputs(u);
    EXPECT_EQ(std::vector<graph::NodeId>(actual.begin(), actual.end()),
              expected)
        << "node " << u;
  }
  std::remove(path.c_str());
}

TEST(TraceEquivalenceTest, StreamedTraceMatchesDirectGeneratorPlacement) {
  constexpr std::uint64_t kSeed = 53;
  constexpr std::uint64_t kCount = 3000;
  const std::string path = temp_path("equiv_place.optx");
  {
    workload::GeneratorTxSource generator({}, kSeed, kCount);
    const ImportResult imported =
        import_source(generator, path, {.chunk_capacity = 512});
    EXPECT_EQ(imported.txs, kCount);
  }

  workload::GeneratorTxSource direct({}, kSeed, kCount);
  api::PlacementPipeline expected =
      api::make_pipeline("OptChain", 8, {}, 1, {}, kCount);
  const api::StreamOutcome expected_outcome = expected.place_stream(direct);

  TraceTxSource replay(path);
  api::PlacementPipeline streamed =
      api::make_pipeline("OptChain", 8, {}, 1, {}, kCount);
  const api::StreamOutcome outcome = streamed.place_stream(replay);

  EXPECT_EQ(outcome.total, expected_outcome.total);
  EXPECT_EQ(outcome.cross, expected_outcome.cross);
  EXPECT_EQ(outcome.shard_sizes, expected_outcome.shard_sizes);
  for (tx::TxIndex i = 0; i < kCount; ++i) {
    ASSERT_EQ(streamed.assignment().shard_of(i),
              expected.assignment().shard_of(i))
        << "tx " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceEquivalenceTest, StreamedTraceMatchesDirectGeneratorSimulation) {
  constexpr std::uint64_t kSeed = 55;
  constexpr std::uint64_t kCount = 1500;
  const std::string path = temp_path("equiv_sim.optx");
  {
    workload::GeneratorTxSource generator({}, kSeed, kCount);
    import_source(generator, path, {.chunk_capacity = 256});
  }

  api::RunSpec spec;
  spec.method = "OptChain";
  spec.num_shards = 4;
  spec.rate_tps = 500.0;

  workload::GeneratorTxSource direct({}, kSeed, kCount);
  const api::RunReport expected = api::simulate(spec, direct);

  TraceTxSource replay(path);
  const api::RunReport report = api::simulate(spec, replay);

  ASSERT_TRUE(report.sim.has_value());
  ASSERT_TRUE(expected.sim.has_value());
  EXPECT_EQ(report.total, expected.total);
  EXPECT_EQ(report.cross, expected.cross);
  EXPECT_EQ(report.sim->committed_txs, expected.sim->committed_txs);
  EXPECT_EQ(report.sim->total_events, expected.sim->total_events);
  EXPECT_DOUBLE_EQ(report.sim->duration_s, expected.sim->duration_s);
  EXPECT_DOUBLE_EQ(report.sim->avg_latency_s, expected.sim->avg_latency_s);
  std::remove(path.c_str());
}

TEST(TraceScenarioTest, TraceSweepReplaysOneImportAcrossCells) {
  constexpr std::uint64_t kSeed = 57;
  constexpr std::uint64_t kCount = 2000;
  const std::string path = temp_path("sweep.optx");
  {
    workload::GeneratorTxSource generator({}, kSeed, kCount);
    import_source(generator, path, {.chunk_capacity = 256});
  }

  api::ScenarioSpec spec;
  spec.name = "trace_sweep";
  spec.mode = api::RunMode::kPlace;
  spec.workload = api::WorkloadKind::kTrace;
  spec.trace.path = path;
  spec.methods = {"OptChain", "Greedy"};
  spec.shards = {4, 8};
  spec.rates = {2000.0};
  spec.seeds = {1};

  const api::Sweep sweep = spec.expand();
  ASSERT_EQ(sweep.cells.size(), 4u);
  for (const api::SweepCell& cell : sweep.cells) {
    EXPECT_EQ(cell.trace.path, path);   // every cell replays the one import
    EXPECT_EQ(cell.trace.begin, 0u);
    EXPECT_EQ(cell.trace.end, kCount);  // 0 = "to end" resolved at expand
    EXPECT_EQ(cell.stream_txs, kCount);
  }

  const api::SweepReport report = api::SweepRunner({.jobs = 2}).run(sweep);
  ASSERT_EQ(report.cells.size(), 4u);
  // Each cell must equal the direct streamed run of the same method/shards.
  for (const api::CellReport& cell : report.cells) {
    api::RunSpec run;
    run.method = cell.method;
    run.num_shards = cell.num_shards;
    workload::GeneratorTxSource direct({}, kSeed, kCount);
    const api::RunReport expected = api::place(run, direct);
    EXPECT_DOUBLE_EQ(cell.cross_txs.mean,
                     static_cast<double>(expected.cross))
        << cell.method << " k=" << cell.num_shards;
  }

  // Windowed trace cells open mid-stream; warm starts are rejected.
  spec.trace.begin = 500;
  spec.trace.end = 1500;
  for (const api::SweepCell& cell : spec.expand().cells) {
    EXPECT_EQ(cell.stream_txs, 1000u);
  }
  spec.warm_ratio = 2;
  EXPECT_THROW(spec.expand(), std::invalid_argument);
  spec.warm_ratio = 0;
  spec.trace.path.clear();
  EXPECT_THROW(spec.expand(), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(TraceImportTest, EdgeListImportRoundTrip) {
  const auto txs = bitcoin_stream(600, 59);
  const std::string tan_path = temp_path("import.tan");
  workload::save_tan_edge_list(workload::build_tan(txs), tan_path);
  const std::string trace_path = temp_path("import_tan.optx");

  const ImportResult result = import_file(tan_path, trace_path);
  EXPECT_EQ(result.txs, txs.size());

  // The trace replays the exact stream the edge-list source synthesizes.
  workload::EdgeListFileTxSource direct(tan_path);
  TraceTxSource replay(trace_path);
  tx::Transaction expected, actual;
  while (direct.next(expected)) {
    ASSERT_TRUE(replay.next(actual));
    expect_same_tx(actual, expected);
  }
  EXPECT_FALSE(replay.next(actual));
  std::remove(tan_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(TraceImportTest, CsvImportParsesInputsAndOutputs) {
  const std::string csv_path = temp_path("import.csv");
  {
    std::ofstream csv(csv_path);
    csv << "# bring-your-own Bitcoin dump\n"
        << "index,inputs,outputs\n"
        << "0,,5000000000:7\n"
        << "1,0:0,2500000000:1 2499990000:2\n"
        << "2,1:0 1:1,4999980000:3\n";
  }
  const std::string trace_path = temp_path("import_csv.optx");
  const ImportResult result = import_file(csv_path, trace_path);
  EXPECT_EQ(result.txs, 3u);

  TraceTxSource replay(trace_path);
  const auto txs = workload::materialize(replay);
  ASSERT_EQ(txs.size(), 3u);
  EXPECT_TRUE(txs[0].is_coinbase());
  EXPECT_EQ(txs[0].outputs,
            (std::vector<tx::TxOut>{{5000000000, 7}}));
  ASSERT_EQ(txs[1].inputs.size(), 1u);
  EXPECT_EQ(txs[1].inputs[0], (tx::OutPoint{0, 0}));
  ASSERT_EQ(txs[1].outputs.size(), 2u);
  EXPECT_EQ(txs[2].inputs,
            (std::vector<tx::OutPoint>{{1, 0}, {1, 1}}));

  // Malformed dumps fail loudly.
  {
    std::ofstream csv(csv_path);
    csv << "0,,1:0\n2,,1:0\n";  // non-dense
  }
  EXPECT_THROW(import_file(csv_path, trace_path, ImportFormat::kCsv),
               std::runtime_error);
  {
    std::ofstream csv(csv_path);
    csv << "0,,1:0\n1,1:0,1:0\n";  // self reference
  }
  EXPECT_THROW(import_file(csv_path, trace_path, ImportFormat::kCsv),
               std::runtime_error);
  std::remove(csv_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(TraceImportTest, CsvImportRejectsOutOfRangeFields) {
  // A vout or owner must fit 32 bits and a value 63: the ranges the OPTX
  // codec stores. Past them the importer fails with its line number rather
  // than truncating the field or tripping the encoder.
  const std::string csv_path = temp_path("range.csv");
  const std::string trace_path = temp_path("range.optx");
  const char* const dumps[] = {
      "0,,18446744073709551615:0\n",  // value >= 2^63
      "0,,5:0\n1,0:4294967296,5:0\n",  // vout >= 2^32
      "0,,5:4294967297\n",              // owner >= 2^32
  };
  for (const char* dump : dumps) {
    std::ofstream(csv_path) << dump;
    try {
      import_file(csv_path, trace_path, ImportFormat::kCsv);
      ADD_FAILURE() << "imported " << dump;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("csv import: "),
                std::string::npos)
          << error.what();
    }
  }

  // The largest in-range values import exactly.
  std::ofstream(csv_path) << "0,,9223372036854775807:4294967295\n"
                          << "1,0:4294967295,1:0\n";
  ASSERT_EQ(import_file(csv_path, trace_path, ImportFormat::kCsv).txs, 2u);
  TraceTxSource replay(trace_path);
  const auto txs = workload::materialize(replay);
  ASSERT_EQ(txs.size(), 2u);
  EXPECT_EQ(txs[0].outputs,
            (std::vector<tx::TxOut>{{9223372036854775807, 4294967295u}}));
  EXPECT_EQ(txs[1].inputs, (std::vector<tx::OutPoint>{{0, 4294967295u}}));
  std::remove(csv_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(TraceImportTest, SliceEqualsWindowedReplay) {
  const auto txs = bitcoin_stream(1200, 61);
  const std::string path = write_trace(txs, "slice_src.optx", 128);
  const std::string sliced = temp_path("slice_out.optx");

  // Re-export a window as a standalone trace (what `optchain-trace slice`
  // does), then replay it whole: must equal the windowed replay of the
  // original.
  {
    TraceTxSource window(path, 300, 900);
    const ImportResult result = import_source(window, sliced);
    EXPECT_EQ(result.txs, 600u);
  }
  TraceTxSource window(path, 300, 900);
  TraceTxSource standalone(sliced);
  tx::Transaction expected, actual;
  while (window.next(expected)) {
    ASSERT_TRUE(standalone.next(actual));
    expect_same_tx(actual, expected);
  }
  EXPECT_FALSE(standalone.next(actual));
  std::remove(path.c_str());
  std::remove(sliced.c_str());
}

}  // namespace
}  // namespace optchain::trace
