// The chunked container framing under OPTX v2 traces (src/trace) and OTRC
// .otrace run traces (src/obs): one streaming writer and one validating,
// seekable reader. Each format supplies its magics and version (a
// ChunkFormat) and a record codec; the framing is the same bytes for both.
//
// Layout (all varints LEB128, as written by tx::write_varint):
//
//   header   4-byte magic, varint version, varint chunk_capacity
//   chunk*   varint count            records in this chunk (>= 1)
//            varint payload_bytes
//            payload                 `count` records in the format's codec
//            varint checksum         FNV-1a 64 (optchain::fnv1a) over the
//                                    payload bytes
//   footer   varint n_chunks, then per chunk
//            { varint file_offset, varint first_index, varint count },
//            varint total_records
//   trailer  u64 LE footer file offset, the reversed magic   (12 bytes)
//
// The writer lays the frames out back to back: the first starts where the
// header ends and each ends where the next begins (the last one where the
// footer begins). The reader holds every file to that, so each byte between
// the header and the trailer belongs to exactly one frame or to the footer.
//
// The reader opens in O(1) (header, trailer, footer index), validates the
// whole index before handing out a single record, and checksums each chunk
// as it loads it. Every size it reads from the file is bounded by the bytes
// that can back it before anything is allocated for it, so a hostile file
// raises the reader's std::runtime_error, never a huge allocation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

namespace optchain {

/// What one chunked format fixes: its magics and its version numbers.
struct ChunkFormat {
  std::span<const std::uint8_t, 4> magic;          ///< header magic
  std::span<const std::uint8_t, 4> trailer_magic;  ///< closes the trailer
  std::uint32_t version = 0;  ///< the framed version the writer emits
  /// An older version under the same magic whose body is not framed (flat
  /// OPTX v1); the reader opens it and hands out flat_body(). 0 = none.
  std::uint32_t flat_version = 0;
};

/// One footer-index entry: where a chunk's frame starts and which records
/// it holds.
struct ChunkInfo {
  std::uint64_t offset = 0;       ///< file offset of the chunk frame
  std::uint64_t first_index = 0;  ///< absolute index of its first record
  std::uint64_t count = 0;        ///< records in the chunk
};

/// Streams records into a chunked container. A record codec appends each
/// record's bytes to payload() and then calls end_record(); the writer
/// frames and flushes the chunk once it holds chunk_capacity records, and
/// writes the footer index and trailer on finish().
class ChunkWriter {
 public:
  /// Opens `path` for writing and emits the header. `context` prefixes
  /// every error message (e.g. "trace writer"). Throws std::runtime_error on
  /// I/O failure or chunk_capacity == 0.
  ChunkWriter(const std::string& path, const ChunkFormat& format,
              std::uint32_t chunk_capacity, std::string context);

  /// finish()es an unfinished writer, swallowing errors — call finish()
  /// explicitly to observe them.
  ~ChunkWriter();

  /// Not copyable (owns the output stream and the in-flight chunk).
  ChunkWriter(const ChunkWriter&) = delete;
  /// Not copy-assignable.
  ChunkWriter& operator=(const ChunkWriter&) = delete;

  /// The in-flight chunk's payload; the codec appends one record's bytes.
  std::vector<std::uint8_t>& payload() noexcept { return payload_; }

  /// Counts the record just appended to payload() and flushes the chunk
  /// when it is full.
  void end_record() {
    ++total_;
    if (++chunk_count_ >= chunk_capacity_) flush_chunk();
  }

  /// Flushes the tail chunk, writes the footer index and trailer, and
  /// closes the file. Returns the total record count. Idempotent.
  std::uint64_t finish();

  /// True once finish() has sealed the file.
  bool finished() const noexcept { return finished_; }
  /// Records written so far.
  std::uint64_t total() const noexcept { return total_; }
  /// Chunk frames written so far (after finish(): in the file).
  std::uint64_t num_chunks() const noexcept { return chunks_.size(); }

  /// Throws std::runtime_error("<context>: <path>: <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void flush_chunk();
  void write(std::span<const std::uint8_t> bytes);

  std::ofstream file_;
  std::string path_;
  std::string context_;
  std::array<std::uint8_t, 4> trailer_magic_{};
  std::uint32_t chunk_capacity_;
  std::vector<std::uint8_t> payload_;  ///< in-flight chunk payload
  std::uint64_t chunk_count_ = 0;      ///< records in payload_
  std::uint64_t total_ = 0;            ///< records written overall
  std::vector<ChunkInfo> chunks_;      ///< footer index under way
  std::uint64_t offset_ = 0;           ///< bytes written so far
  bool finished_ = false;
};

/// Opens and validates a chunked container, then loads one chunk at a time.
///
/// At open it checks the magic, the version, the trailer, and the whole
/// footer index: first indices are dense from 0, no chunk is empty, frame
/// offsets rise strictly from the end of the header and stay before the
/// footer, the frames hold no more records than bytes (a record takes at
/// least one), the total equals the sum of the counts, and no bytes follow
/// the total. load() then checks the chunk's frame against its index entry:
/// the count matches, the payload fits the frame, the checksum matches, and
/// the frame ends exactly where the next chunk (or the footer) begins.
class ChunkReader {
 public:
  /// Opens and validates `path` (see the class comment). `context`
  /// prefixes every error message (e.g. "trace reader"). Throws
  /// std::runtime_error on I/O failure or a malformed container.
  ChunkReader(const std::string& path, const ChunkFormat& format,
              std::string context);

  /// The header's version: the format's framed version or its
  /// flat_version.
  std::uint32_t version() const noexcept { return version_; }
  /// True when the file is the format's flat version (no chunks; read
  /// flat_body()).
  bool flat() const noexcept { return flat_; }
  /// Nominal records per chunk, from the header (flat: 0).
  std::uint32_t chunk_capacity() const noexcept { return chunk_capacity_; }
  /// Total records, from the footer (flat: 0; the flat codec counts).
  std::uint64_t size() const noexcept { return total_; }
  /// The validated footer index (flat: empty).
  const std::vector<ChunkInfo>& chunks() const noexcept { return chunks_; }
  /// Chunks loaded so far — the observable cost of a read pattern.
  std::uint64_t chunks_loaded() const noexcept { return chunks_loaded_; }

  /// The chunk holding record `index`, by binary search over the index.
  /// Precondition: index < size().
  std::size_t find(std::uint64_t index) const noexcept;

  /// Reads chunk `chunk`'s frame, checks it (see the class comment) and
  /// returns its payload. The span stays valid until the next load().
  /// Throws std::runtime_error on a bad frame or a checksum mismatch.
  std::span<const std::uint8_t> load(std::size_t chunk);

  /// A flat file's bytes after the header's version varint.
  std::span<const std::uint8_t> flat_body() const noexcept {
    return buffer_;
  }

  /// Throws std::runtime_error("<context>: <path>: <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void read_at(std::uint64_t offset, std::size_t bytes);
  void parse_footer(std::uint64_t header_end, std::uint64_t file_size);
  std::uint64_t read_varint(std::span<const std::uint8_t> data,
                            std::size_t& cursor,
                            const std::string& where) const;

  std::ifstream file_;
  std::string path_;
  std::string context_;
  std::uint32_t version_ = 0;
  bool flat_ = false;
  std::uint32_t chunk_capacity_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t footer_offset_ = 0;  ///< the last frame ends here
  std::vector<ChunkInfo> chunks_;
  std::vector<std::uint8_t> buffer_;  ///< the loaded frame, or a flat body
  std::uint64_t chunks_loaded_ = 0;
};

}  // namespace optchain
