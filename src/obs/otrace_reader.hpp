// Streaming reader for .otrace run-trace containers (obs/otrace_format.hpp).
//
// Opens in O(1) (header + footer index via the fixed trailer), then decodes
// one chunk at a time as next() walks the record stream, verifying each
// chunk's FNV-1a checksum before a single record escapes — corruption is
// rejected with std::runtime_error, never silently decoded. The consumers:
// obs::write_chrome_trace (Perfetto export), the optchain-obs tool
// (export / summarize / diff), and the obs test suite.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/otrace_format.hpp"

namespace optchain::obs {

/// One decoded .otrace record. `type` selects which fields are meaningful
/// (the rest keep their zero defaults) — a fat flat struct instead of a
/// variant, mirroring the observer callback arguments one-to-one.
struct TraceRecord {
  TraceRecordType type = TraceRecordType::kIssue;  ///< record discriminator
  double time = 0.0;                 ///< simulated seconds (every type)
  std::uint32_t tx = 0;              ///< issue/commit/abort
  std::uint32_t shard = 0;           ///< block/shard-change
  double latency_s = 0.0;            ///< commit
  bool cross = false;                ///< issue
  bool joined = false;               ///< shard-change
  std::uint64_t migrated_txs = 0;    ///< shard-change/repartition
  std::uint64_t migrated_utxos = 0;  ///< shard-change/repartition
  std::uint64_t deferred_txs = 0;    ///< repartition
  std::vector<std::uint64_t> queues;  ///< queue-sample per-shard sizes
  /// One sampled fabric endpoint (link-sample records).
  struct Link {
    std::uint64_t endpoint = 0;  ///< 0 = client, 1 + s = shard s
    double backlog_s = 0.0;      ///< queued serialization seconds
    std::uint64_t drops = 0;     ///< cumulative tail drops
  };
  std::vector<Link> links;  ///< link-sample per-endpoint samples
};

/// Aggregate counts of a whole trace (the `optchain-obs summarize` view).
struct TraceSummary {
  std::uint64_t records = 0;       ///< total records
  std::uint64_t issues = 0;        ///< kIssue records
  std::uint64_t cross_issues = 0;  ///< kIssue records with cross set
  std::uint64_t commits = 0;       ///< kCommit records
  std::uint64_t aborts = 0;        ///< kAbort records
  std::uint64_t blocks = 0;        ///< kBlock records
  std::uint64_t queue_samples = 0;  ///< kQueueSample records
  std::uint64_t link_samples = 0;   ///< kLinkSample records
  std::uint64_t shard_changes = 0;  ///< kShardChange records
  std::uint64_t repartitions = 0;   ///< kRepartition records
  double max_time_s = 0.0;          ///< latest record timestamp
  double max_latency_s = 0.0;       ///< worst commit latency
};

/// Streaming decoder over an on-disk .otrace container.
class OtraceReader {
 public:
  /// Opens and validates `path` (magic, version, trailer, footer index;
  /// see ChunkReader). Throws std::runtime_error on I/O failure or a
  /// malformed container.
  explicit OtraceReader(const std::string& path);

  /// Total records in the trace (from the footer).
  std::uint64_t size() const noexcept { return container_.size(); }
  /// Chunk count.
  std::uint64_t num_chunks() const noexcept {
    return container_.chunks().size();
  }
  /// Nominal records per chunk (from the header).
  std::uint32_t chunk_capacity() const noexcept {
    return container_.chunk_capacity();
  }

  /// Decodes the next record. Returns false at end of trace. Throws
  /// std::runtime_error on a damaged chunk frame (see ChunkReader::load) or
  /// a truncated or unknown record.
  bool next(TraceRecord& out);

  /// Decodes the remaining records into one aggregate summary.
  TraceSummary summarize();

 private:
  void decode(TraceRecord& out);
  std::uint8_t read_u8();
  std::uint64_t read_varint();
  double read_f64();

  ChunkReader container_;
  std::span<const std::uint8_t> payload_;  ///< the loaded chunk's payload
  std::size_t cursor_ = 0;
  std::uint64_t chunk_end_ = 0;  ///< one past the loaded chunk's last record
  std::size_t next_chunk_ = 0;
  std::uint64_t next_index_ = 0;
};

}  // namespace optchain::obs
