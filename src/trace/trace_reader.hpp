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
#include <fstream>
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
  /// index). Throws std::runtime_error on I/O failure, bad magic, an
  /// unsupported version, a corrupt footer, or a transaction or chunk count
  /// larger than the file can hold.
  explicit TraceReader(const std::string& path);

  /// Container version: 1 (flat) or 2 (chunk-indexed).
  std::uint32_t version() const noexcept { return version_; }
  /// Total transactions in the trace.
  std::uint64_t size() const noexcept { return total_; }
  /// Chunk count (v1: 0 — the flat stream has no frames).
  std::uint64_t num_chunks() const noexcept { return chunks_.size(); }
  /// The footer chunk index (v1: empty).
  const std::vector<ChunkInfo>& chunks() const noexcept { return chunks_; }
  /// Nominal transactions per chunk (v1: 0).
  std::uint32_t chunk_capacity() const noexcept { return chunk_capacity_; }
  /// Absolute index the next next() call will yield.
  std::uint64_t position() const noexcept { return next_index_; }
  /// Chunks loaded + checksum-verified so far — the observable cost of a
  /// read pattern (tests pin that windowed seeks skip the prefix).
  std::uint64_t chunks_loaded() const noexcept { return chunks_loaded_; }

  /// Decodes the next transaction (absolute indices; parent references are
  /// absolute too). Returns false at end of trace. Throws
  /// std::runtime_error on truncation, a chunk frame that runs past the
  /// footer, a chunk checksum mismatch, or a transaction the body codec
  /// rejects (tx::decode_transaction).
  bool next(tx::Transaction& out);

  /// Repositions the cursor so the next next() yields `index` (== size()
  /// positions at end). v2: one chunk-index binary search + one chunk load;
  /// v1: decode-skip from the closest earlier position. Throws
  /// std::out_of_range past the end.
  void seek(std::uint64_t index);

 private:
  void load_chunk(std::size_t chunk);
  std::uint64_t read_varint_stream();
  void parse_footer(std::uint64_t file_size);

  std::ifstream file_;
  std::string path_;
  std::uint32_t version_ = 0;
  std::uint32_t chunk_capacity_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t footer_offset_ = 0;  ///< v2: chunk frames end here
  std::vector<ChunkInfo> chunks_;

  // Decode cursor. For v2, buffer_ holds the current chunk's payload; for
  // v1 it holds the whole body (raw bytes, not Transactions).
  std::vector<std::uint8_t> buffer_;
  std::size_t buffer_offset_ = 0;
  std::size_t current_chunk_ = SIZE_MAX;  ///< v2: chunk in buffer_
  std::uint64_t next_index_ = 0;
  std::uint64_t chunks_loaded_ = 0;
  tx::Transaction skip_scratch_;  ///< decode target for seek's skips
};

}  // namespace optchain::trace
