// One seeded mutation test over every decoder of bytes that come from
// outside the program: OPTX v2 traces, flat OPTX v1 streams, OTRC run
// traces, and the CSV and TaN edge-list importers.
//
// Each format's seed file is mutated many times from a fixed seed: bit
// flips, truncation, inserted 0xff runs (overlong varints), inserted digit
// runs (the text formats), and counts or footer offsets patched to point
// past the end of the file (the binary formats). Every mutant must either
// decode or throw std::runtime_error. Any other exception fails the test:
// std::bad_alloc or std::length_error from a size read off the file,
// std::out_of_range, a logic_error. The suite is labelled `unit`, so the
// ASan+UBSan job runs it too and turns an out-of-bounds read or undefined
// behaviour on any mutant into a failure.
//
// Two targeted re-sealed mutants pin refusals that random damage rarely
// reaches: bytes after a chunk's last record, and an OTRC tx or shard id
// past 32 bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "obs/otrace_reader.hpp"
#include "obs/run_tracer.hpp"
#include "trace/trace_import.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "txmodel/serialization.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/dataset_loader.hpp"
#include "workload/tan_builder.hpp"

namespace optchain {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Mutants per format; the whole suite takes about a second in Release.
constexpr int kMutants = 1000;
/// Failures reported in full per format; the rest are only counted.
constexpr int kReported = 5;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/mutation_" + name;
}

Bytes slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(file),
               std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const Bytes& bytes) {
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

std::vector<tx::Transaction> seed_stream() {
  workload::BitcoinLikeGenerator generator({}, 71);
  return generator.generate(300);
}

/// One format under test: its seed bytes, how to decode a file of it, and
/// where its counts and offsets sit (the positions a patch may target).
struct Format {
  const char* name = "";
  Bytes seed;
  bool text = false;
  std::vector<std::size_t> count_sites;
  /// Chunked formats: the container and the seed's chunk payloads, which a
  /// mutant may alter and re-seal with fresh checksums so that the record
  /// codec, not the checksum, meets the damage.
  const ChunkFormat* container = nullptr;
  std::uint32_t capacity = 0;
  std::vector<Bytes> payloads;
  std::vector<std::uint64_t> counts;
  std::function<void(const std::string&)> decode;
};

/// Fills a chunked format's container fields from its clean seed file: the
/// chunk payloads, and the positions of the frame counts, payload sizes and
/// footer varints.
void describe_container(Format& format, const std::string& path,
                        const ChunkFormat& container) {
  format.seed = slurp(path);
  format.container = &container;
  ChunkReader reader(path, container, "mutation seed");
  format.capacity = reader.chunk_capacity();
  for (std::size_t chunk = 0; chunk < reader.chunks().size(); ++chunk) {
    const std::span<const std::uint8_t> payload = reader.load(chunk);
    format.payloads.emplace_back(payload.begin(), payload.end());
    format.counts.push_back(reader.chunks()[chunk].count);
    std::size_t cursor =
        static_cast<std::size_t>(reader.chunks()[chunk].offset);
    format.count_sites.push_back(cursor);  // frame count
    tx::read_varint(format.seed, cursor);
    format.count_sites.push_back(cursor);  // payload size
  }
  const Bytes& bytes = format.seed;
  std::uint64_t footer_offset = 0;
  for (int i = 7; i >= 0; --i) {
    footer_offset = (footer_offset << 8) |
                    bytes[bytes.size() - 12 + static_cast<std::size_t>(i)];
  }
  for (std::size_t at = footer_offset; at < bytes.size() - 12; ++at) {
    format.count_sites.push_back(at);  // n_chunks, index entries, total
  }
}

/// The format's seed container with chunk `chunk`'s payload replaced, framed
/// and checksummed by the chunk writer.
Bytes reseal(const Format& format, std::size_t chunk, const Bytes& payload) {
  const std::string path = temp_path("resealed");
  {
    ChunkWriter writer(path, *format.container, format.capacity, "mutation");
    for (std::size_t i = 0; i < format.payloads.size(); ++i) {
      const Bytes& body = i == chunk ? payload : format.payloads[i];
      writer.payload().insert(writer.payload().end(), body.begin(),
                              body.end());
      for (std::uint64_t record = 0; record < format.counts[i]; ++record) {
        writer.end_record();
      }
    }
    writer.finish();
  }
  return slurp(path);
}

Format optx_v2() {
  const std::string path = temp_path("seed_v2.optx");
  {
    trace::TraceWriter writer(path, {.chunk_capacity = 16});
    for (const tx::Transaction& transaction : seed_stream()) {
      writer.append(transaction);
    }
    writer.finish();
  }
  Format format;
  format.name = "OPTX v2";
  describe_container(format, path, trace::kTraceFormat);
  format.decode = [](const std::string& file) {
    trace::TraceReader reader(file);
    tx::Transaction transaction;
    while (reader.next(transaction)) {
    }
    reader.seek(reader.size() / 2);
    reader.next(transaction);
  };
  return format;
}

Format optx_v1() {
  const std::string path = temp_path("seed_v1.optx");
  tx::save_transactions(seed_stream(), path);
  Format format;
  format.name = "OPTX v1";
  format.seed = slurp(path);
  format.count_sites = {5};  // the transaction count after magic + version
  format.decode = [](const std::string& file) {
    trace::TraceReader reader(file);
    tx::Transaction transaction;
    while (reader.next(transaction)) {
    }
    reader.seek(reader.size() / 2);
    tx::decode_transactions(slurp(file));
  };
  return format;
}

Format otrace() {
  const std::string path = temp_path("seed.otrace");
  {
    obs::RunTracer tracer(path, {.chunk_capacity = 8});
    for (std::uint32_t i = 0; i < 12; ++i) {
      const double time = 0.5 * i;
      tracer.on_issue(i, time, i % 3 == 0);
      tracer.on_commit(i, time + 1.0, 1.0);
      tracer.on_abort(i + 50, time);
      tracer.on_block_commit(i % 4, time);
      const std::vector<std::uint64_t> queues = {i, 2 * i, 400};
      tracer.on_queue_sample(time, queues);
      const std::vector<sim::LinkSample> links = {{0, 0.5, i}, {i, 0.0, 7}};
      tracer.on_link_sample(time, links);
      tracer.on_shard_change(i % 4, time, i % 2 == 0, i, 3 * i);
      tracer.on_repartition(time, i, i + 1, i + 2);
    }
    tracer.finish();
  }
  Format format;
  format.name = "OTRC";
  describe_container(format, path, obs::kOtraceFormat);
  format.decode = [](const std::string& file) {
    obs::OtraceReader(file).summarize();
  };
  return format;
}

/// Imports `file` as `kind` into a temporary OPTX trace: the importer parses
/// and the trace writer re-encodes every transaction it yields.
std::function<void(const std::string&)> importer(trace::ImportFormat kind) {
  return [kind](const std::string& file) {
    trace::import_file(file, temp_path("imported.optx"), kind);
  };
}

Format csv() {
  std::string text = "index,inputs,outputs\n";
  for (const tx::Transaction& transaction : seed_stream()) {
    text += std::to_string(transaction.index) + ",";
    for (std::size_t i = 0; i < transaction.inputs.size(); ++i) {
      text += (i > 0 ? " " : "") + std::to_string(transaction.inputs[i].tx) +
              ":" + std::to_string(transaction.inputs[i].vout);
    }
    text += ",";
    for (std::size_t i = 0; i < transaction.outputs.size(); ++i) {
      text += (i > 0 ? " " : "") +
              std::to_string(transaction.outputs[i].value) + ":" +
              std::to_string(transaction.outputs[i].owner);
    }
    text += "\n";
  }
  Format format;
  format.name = "CSV";
  format.seed.assign(text.begin(), text.end());
  format.text = true;
  format.decode = importer(trace::ImportFormat::kCsv);
  return format;
}

Format edge_list() {
  const std::string path = temp_path("seed.tan");
  workload::save_tan_edge_list(workload::build_tan(seed_stream()), path);
  Format format;
  format.name = "edge list";
  format.seed = slurp(path);
  format.text = true;
  format.decode = importer(trace::ImportFormat::kEdgeList);
  return format;
}

/// Draws seeded mutants of a format's seed file.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// A chunked format's mutant is, half the time, its seed with one chunk
  /// payload damaged and re-sealed; otherwise the whole file is damaged.
  Bytes mutate(const Format& format) {
    if (format.container != nullptr && below(2) == 0) {
      const std::size_t chunk = below(format.payloads.size());
      Bytes payload = format.payloads[chunk];
      scramble(payload, [this](Bytes& bytes) {
        write_varint_at(bytes, below(bytes.size() + 1),
                        bytes.size() + below(1ULL << 40));
      });
      return reseal(format, chunk, payload);
    }
    Bytes bytes = format.seed;
    scramble(bytes, [this, &format](Bytes& damaged) {
      if (format.text) {
        insert_digits(damaged);
      } else {
        patch_count(format, damaged);
      }
    });
    return bytes;
  }

 private:
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : rng_() % n; }

  /// One to three rounds of bit flips, truncation, an inserted run of 0xff
  /// (an overlong varint), or the format's own damage `special`.
  void scramble(Bytes& bytes, const std::function<void(Bytes&)>& special) {
    for (std::uint64_t round = 1 + below(3); round > 0; --round) {
      switch (below(4)) {
        case 0:
          for (std::uint64_t i = 1 + below(4); i > 0 && !bytes.empty(); --i) {
            bytes[below(bytes.size())] ^=
                static_cast<std::uint8_t>(1u << below(8));
          }
          break;
        case 1:
          bytes.resize(below(bytes.size() + 1));
          break;
        case 2:
          bytes.insert(bytes.begin() + below(bytes.size() + 1), 1 + below(12),
                       0xff);
          break;
        default:
          special(bytes);
          break;
      }
    }
  }

  void insert_digits(Bytes& bytes) {
    Bytes digits(1 + below(24));
    for (std::uint8_t& digit : digits) {
      digit = static_cast<std::uint8_t>('0' + below(10));
    }
    bytes.insert(bytes.begin() + below(bytes.size() + 1), digits.begin(),
                 digits.end());
  }

  /// Points a count, size or offset past the end of the file: the trailer's
  /// footer offset, or a LEB128 value written over a count site.
  void patch_count(const Format& format, Bytes& bytes) {
    const std::uint64_t past_end = bytes.size() + below(1ULL << 40);
    if (format.container != nullptr && below(4) == 0 && bytes.size() >= 12) {
      for (int i = 0; i < 8; ++i) {
        bytes[bytes.size() - 12 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(past_end >> (8 * i));
      }
      return;
    }
    const std::vector<std::size_t>& sites = format.count_sites;
    write_varint_at(bytes, sites[below(sites.size())], past_end);
  }

  /// Overwrites bytes from `at` with the LEB128 encoding of `value`,
  /// growing the buffer when it runs past the end.
  static void write_varint_at(Bytes& bytes, std::size_t at,
                              std::uint64_t value) {
    Bytes encoded;
    tx::write_varint(encoded, value);
    bytes.resize(std::max(bytes.size(), at + encoded.size()));
    std::copy(encoded.begin(), encoded.end(), bytes.begin() + at);
  }

  std::mt19937_64 rng_;
};

TEST(DecoderMutationTest, EveryMutantDecodesOrThrowsRuntimeError) {
  const Format formats[] = {optx_v2(), optx_v1(), otrace(), csv(),
                            edge_list()};
  Mutator mutator(20261019);
  const std::string path = temp_path("mutant");
  for (const Format& format : formats) {
    // The seed itself decodes.
    spit(path, format.seed);
    ASSERT_NO_THROW(format.decode(path)) << format.name;

    int decoded = 0;
    int refused = 0;
    int failed = 0;
    for (int mutant = 0; mutant < kMutants; ++mutant) {
      spit(path, mutator.mutate(format));
      std::string failure;
      try {
        format.decode(path);
        ++decoded;
      } catch (const std::runtime_error&) {
        ++refused;
      } catch (const std::exception& error) {
        failure = std::string(typeid(error).name()) + ": " + error.what();
      } catch (...) {
        failure = "a non-std exception";
      }
      if (!failure.empty() && ++failed <= kReported) {
        ADD_FAILURE() << format.name << " mutant " << mutant << " threw "
                      << failure;
      }
    }
    EXPECT_EQ(failed, 0) << format.name;
    // Both outcomes occur: the mutations reach past the first check, and
    // re-sealed payloads reach the record codecs behind the checksums.
    EXPECT_GT(decoded, 0) << format.name;
    EXPECT_GT(refused, 0) << format.name;
    std::printf("%-9s %d mutants: %d decoded, %d refused\n", format.name,
                kMutants, decoded, refused);
  }
  std::remove(path.c_str());
}

// A chunk payload with one byte after its `count` records, re-sealed so the
// frame and checksum hold: OPTX v2 and OTRC refuse it as flat v1 refuses
// bytes after its body. Damage to the first chunk and to the last.
TEST(DecoderMutationTest, TrailingPayloadBytesAreRefused) {
  const std::string path = temp_path("trailing");
  for (const Format& format : {optx_v2(), otrace()}) {
    ASSERT_GT(format.payloads.size(), 1u) << format.name;
    const std::size_t last = format.payloads.size() - 1;
    for (const std::size_t chunk : {std::size_t{0}, last}) {
      Bytes payload = format.payloads[chunk];
      payload.push_back(0);
      spit(path, reseal(format, chunk, payload));
      EXPECT_THROW(format.decode(path), std::runtime_error)
          << format.name << " chunk " << chunk;
    }
  }
  std::remove(path.c_str());
}

/// A one-record OTRC file: `type`, the varint `id` (a tx or a shard), then
/// `tail` zero bytes for the record's remaining fields, framed and
/// checksummed by the chunk writer.
Bytes sealed_otrace_record(obs::TraceRecordType type, std::uint64_t id,
                           std::size_t tail) {
  Bytes record = {static_cast<std::uint8_t>(type)};
  tx::write_varint(record, id);
  record.resize(record.size() + tail, 0);
  const std::string path = temp_path("sealed.otrace");
  {
    ChunkWriter writer(path, obs::kOtraceFormat, 8, "mutation");
    writer.payload() = record;
    writer.end_record();
    writer.finish();
  }
  return slurp(path);
}

// OTRC tx and shard ids are 32-bit. A varint past 2^32 is refused, not
// narrowed: tx 2^32 + 5 used to read back as tx 5.
TEST(DecoderMutationTest, OutOfRangeOtraceIdsAreRefused) {
  using obs::TraceRecordType;
  struct Site {
    TraceRecordType type;
    std::size_t tail;  // bytes after the id: f64s, flags, zero varints
  };
  const Site sites[] = {
      {TraceRecordType::kIssue, 9},       {TraceRecordType::kCommit, 16},
      {TraceRecordType::kAbort, 8},       {TraceRecordType::kBlock, 8},
      {TraceRecordType::kShardChange, 11},
  };
  const std::string path = temp_path("narrowed.otrace");
  for (const Site& site : sites) {
    const auto type = static_cast<unsigned>(site.type);
    // In range, the same record decodes to the id it carries.
    spit(path, sealed_otrace_record(site.type, 5, site.tail));
    obs::OtraceReader reader(path);
    obs::TraceRecord record;
    ASSERT_TRUE(reader.next(record)) << type;
    EXPECT_EQ(record.type, site.type);
    EXPECT_EQ(record.tx + record.shard, 5u) << type;
    EXPECT_FALSE(reader.next(record)) << type;

    for (const std::uint64_t id : {1ULL << 32, (1ULL << 32) + 5}) {
      spit(path, sealed_otrace_record(site.type, id, site.tail));
      EXPECT_THROW(obs::OtraceReader(path).summarize(), std::runtime_error)
          << "type " << type << ", id " << id;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace optchain
