// Streaming reader for OPTX trace containers — chunk-indexed v2 natively,
// flat v1 for backward compatibility.
//
// v2 files open in O(1): the reader parses the header and the footer chunk
// index, then loads (and checksum-verifies) one chunk at a time as next()
// walks the stream. seek(index) binary-searches the chunk index and decodes
// only the target chunk's prefix — opening a window at transaction 500k of
// a 10M-transaction trace never reads the first 499k-ish transactions, let
// alone decodes them.
//
// v1 files (txmodel/serialization.hpp's flat OPTX stream) have no index;
// the reader slurps the raw bytes (~16 B per transaction — an order of
// magnitude below materializing std::vector<Transaction>) and decodes
// incrementally; seek() is a decode-skip.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/trace_format.hpp"
#include "txmodel/transaction.hpp"

namespace optchain::trace {

/// Streaming decoder over an on-disk OPTX trace (v1 or v2); see the file
/// comment for the version-specific costs.
class TraceReader {
 public:
  /// Opens and validates `path` (header, and for v2 the trailer + footer
  /// index; see ChunkReader). Throws std::runtime_error on I/O failure, bad
  /// magic, an unsupported version, a corrupt footer, or a transaction or
  /// chunk count larger than the file can hold.
  explicit TraceReader(const std::string& path);

  /// Container version: 1 (flat) or 2 (chunk-indexed).
  std::uint32_t version() const noexcept { return container_.version(); }
  /// Total transactions in the trace.
  std::uint64_t size() const noexcept { return total_; }
  /// Chunk count (v1: 0 — the flat stream has no frames).
  std::uint64_t num_chunks() const noexcept {
    return container_.chunks().size();
  }
  /// The footer chunk index (v1: empty).
  const std::vector<ChunkInfo>& chunks() const noexcept {
    return container_.chunks();
  }
  /// Nominal transactions per chunk (v1: 0).
  std::uint32_t chunk_capacity() const noexcept {
    return container_.chunk_capacity();
  }
  /// Absolute index the next next() call will yield.
  std::uint64_t position() const noexcept { return next_index_; }
  /// Chunks loaded + checksum-verified so far — the observable cost of a
  /// read pattern (tests pin that windowed seeks skip the prefix).
  std::uint64_t chunks_loaded() const noexcept {
    return container_.chunks_loaded();
  }

  /// Decodes the next transaction (absolute indices; parent references are
  /// absolute too). Returns false at end of trace. Throws
  /// std::runtime_error on a damaged chunk frame (see ChunkReader::load),
  /// or a transaction the body codec rejects (tx::decode_transaction).
  bool next(tx::Transaction& out);

  /// Repositions the cursor so the next next() yields `index` (== size()
  /// positions at end). v2: one chunk-index binary search + one chunk load;
  /// v1: decode-skip from the closest earlier position. Throws
  /// std::out_of_range past the end.
  void seek(std::uint64_t index);

 private:
  bool next_slow(tx::Transaction& out);
  void decode(tx::Transaction& out);
  void skip_to(std::uint64_t index);

  ChunkReader container_;
  std::uint64_t total_ = 0;

  // Decode cursor over payload_: for v2 the loaded chunk's payload, whose
  // transactions are [chunk_first_, chunk_first_ + chunk_count_); for v1 the
  // whole body, with chunk_count_ == 0 so every next() takes next_slow().
  std::span<const std::uint8_t> payload_;
  std::size_t cursor_ = 0;
  std::uint64_t chunk_first_ = 0;
  std::uint64_t chunk_count_ = 0;
  std::uint64_t next_index_ = 0;
  tx::Transaction skip_scratch_;  ///< decode target for seek's skips
};

}  // namespace optchain::trace
