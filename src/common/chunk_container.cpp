#include "common/chunk_container.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/hash.hpp"
#include "txmodel/serialization.hpp"

namespace optchain {
namespace {

/// Trailer size: u64 LE footer offset + 4-byte trailer magic.
constexpr std::size_t kTrailerBytes = 12;
/// The longest header: magic + two varints of at most 10 bytes each.
constexpr std::size_t kMaxHeaderBytes = 24;

}  // namespace

// ---------------------------------------------------------------- writer

ChunkWriter::ChunkWriter(const std::string& path, const ChunkFormat& format,
                         std::uint32_t chunk_capacity, std::string context)
    : file_(path, std::ios::binary),
      path_(path),
      context_(std::move(context)),
      chunk_capacity_(chunk_capacity) {
  std::copy(format.trailer_magic.begin(), format.trailer_magic.end(),
            trailer_magic_.begin());
  if (chunk_capacity_ == 0) fail("chunk_capacity must be > 0");
  if (!file_) fail("cannot open for writing");
  std::vector<std::uint8_t> header(format.magic.begin(), format.magic.end());
  tx::write_varint(header, format.version);
  tx::write_varint(header, chunk_capacity_);
  write(header);
  if (!file_) fail("header write failed");
}

ChunkWriter::~ChunkWriter() {
  if (finished_) return;
  try {
    finish();
  } catch (...) {
    // Destruction must not throw; an unreadable tail is caught by the
    // reader's trailer/checksum validation.
  }
}

void ChunkWriter::fail(const std::string& what) const {
  throw std::runtime_error(context_ + ": " + path_ + ": " + what);
}

void ChunkWriter::write(std::span<const std::uint8_t> bytes) {
  file_.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  offset_ += bytes.size();
}

void ChunkWriter::flush_chunk() {
  if (chunk_count_ == 0) return;
  chunks_.push_back({offset_, total_ - chunk_count_, chunk_count_});
  // Head (count + size) and tail (checksum) bracket the payload, which is
  // written straight from the accumulation buffer — no per-chunk copy.
  std::vector<std::uint8_t> head;
  tx::write_varint(head, chunk_count_);
  tx::write_varint(head, payload_.size());
  std::vector<std::uint8_t> tail;
  tx::write_varint(tail, fnv1a(payload_));
  write(head);
  write(payload_);
  write(tail);
  if (!file_) fail("chunk write failed");
  payload_.clear();
  chunk_count_ = 0;
}

std::uint64_t ChunkWriter::finish() {
  if (finished_) return total_;
  flush_chunk();
  const std::uint64_t footer_offset = offset_;
  std::vector<std::uint8_t> footer;
  tx::write_varint(footer, chunks_.size());
  for (const ChunkInfo& chunk : chunks_) {
    tx::write_varint(footer, chunk.offset);
    tx::write_varint(footer, chunk.first_index);
    tx::write_varint(footer, chunk.count);
  }
  tx::write_varint(footer, total_);
  // Fixed-size trailer: u64 LE footer offset + trailer magic, so a reader
  // finds the footer from the file's end without parsing anything else.
  for (int shift = 0; shift < 64; shift += 8) {
    footer.push_back(static_cast<std::uint8_t>(footer_offset >> shift));
  }
  footer.insert(footer.end(), trailer_magic_.begin(), trailer_magic_.end());
  write(footer);
  file_.close();
  if (!file_) fail("footer write failed");
  finished_ = true;
  return total_;
}

// ---------------------------------------------------------------- reader

ChunkReader::ChunkReader(const std::string& path, const ChunkFormat& format,
                         std::string context)
    : file_(path, std::ios::binary), path_(path), context_(std::move(context)) {
  if (!file_) fail("cannot open for reading");
  file_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(file_.tellg());

  read_at(0, static_cast<std::size_t>(
                 std::min<std::uint64_t>(file_size, kMaxHeaderBytes)));
  if (buffer_.size() < 4 ||
      !std::equal(format.magic.begin(), format.magic.end(), buffer_.begin())) {
    fail("bad magic");
  }
  std::size_t cursor = 4;
  const std::uint64_t version = read_varint(buffer_, cursor, "corrupt header");
  if (format.flat_version != 0 && version == format.flat_version) {
    version_ = format.flat_version;
    flat_ = true;
    read_at(cursor, static_cast<std::size_t>(file_size - cursor));
    return;
  }
  if (version != format.version) {
    fail("unsupported version " + std::to_string(version));
  }
  version_ = format.version;
  const std::uint64_t capacity =
      read_varint(buffer_, cursor, "corrupt header");
  if (capacity == 0 || capacity > std::numeric_limits<std::uint32_t>::max()) {
    fail("corrupt header: chunk_capacity " + std::to_string(capacity));
  }
  chunk_capacity_ = static_cast<std::uint32_t>(capacity);

  if (file_size < cursor + kTrailerBytes) fail("truncated: no trailer");
  read_at(file_size - kTrailerBytes, kTrailerBytes);
  if (!std::equal(format.trailer_magic.begin(), format.trailer_magic.end(),
                  buffer_.begin() + 8)) {
    fail("bad trailer magic (truncated or not a finished file)");
  }
  parse_footer(cursor, file_size);
}

void ChunkReader::fail(const std::string& what) const {
  throw std::runtime_error(context_ + ": " + path_ + ": " + what);
}

std::uint64_t ChunkReader::read_varint(std::span<const std::uint8_t> data,
                                       std::size_t& cursor,
                                       const std::string& where) const {
  try {
    return tx::read_varint(data, cursor);
  } catch (const std::runtime_error& error) {
    fail(where + ": " + error.what());
  }
}

void ChunkReader::read_at(std::uint64_t offset, std::size_t bytes) {
  buffer_.resize(bytes);
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(offset));
  file_.read(reinterpret_cast<char*>(buffer_.data()),
             static_cast<std::streamsize>(bytes));
  if (!file_) fail("read failed");
}

void ChunkReader::parse_footer(std::uint64_t header_end,
                               std::uint64_t file_size) {
  std::uint64_t footer_offset = 0;
  for (int i = 7; i >= 0; --i) {
    footer_offset = (footer_offset << 8) | buffer_[static_cast<std::size_t>(i)];
  }
  if (footer_offset < header_end ||
      footer_offset >= file_size - kTrailerBytes) {
    fail("corrupt trailer: footer offset out of range");
  }
  footer_offset_ = footer_offset;
  read_at(footer_offset, static_cast<std::size_t>(file_size - kTrailerBytes -
                                                  footer_offset));
  const std::span<const std::uint8_t> footer = buffer_;

  std::size_t cursor = 0;
  const std::uint64_t n_chunks = read_varint(footer, cursor, "corrupt footer");
  // Each index entry is three varints, at least one byte each.
  if (n_chunks > (footer.size() - cursor) / 3) {
    fail("corrupt footer: chunk count exceeds footer size");
  }
  chunks_.reserve(static_cast<std::size_t>(n_chunks));
  std::uint64_t previous_offset = 0;
  for (std::uint64_t i = 0; i < n_chunks; ++i) {
    ChunkInfo chunk;
    chunk.offset = read_varint(footer, cursor, "corrupt footer");
    chunk.first_index = read_varint(footer, cursor, "corrupt footer");
    chunk.count = read_varint(footer, cursor, "corrupt footer");
    // The first frame starts where the header ends and each later one
    // strictly past its predecessor; load() checks that each frame ends
    // exactly where the next begins. Every record takes at least one
    // payload byte, so the frames hold at most one record per byte between
    // the header and the footer (which also keeps total_ from wrapping).
    const bool placed = i == 0 ? chunk.offset == header_end
                               : chunk.offset > previous_offset;
    if (!placed || chunk.offset >= footer_offset ||
        chunk.first_index != total_ || chunk.count == 0 ||
        chunk.count > footer_offset - header_end - total_) {
      fail("corrupt footer: inconsistent chunk index at entry " +
           std::to_string(i));
    }
    total_ += chunk.count;
    previous_offset = chunk.offset;
    chunks_.push_back(chunk);
  }
  if (n_chunks == 0 && footer_offset != header_end) {
    fail("corrupt footer: bytes between the header and an empty index");
  }
  if (read_varint(footer, cursor, "corrupt footer") != total_) {
    fail("corrupt footer: total does not match chunk index");
  }
  if (cursor != footer.size()) fail("corrupt footer: trailing bytes");
}

std::size_t ChunkReader::find(std::uint64_t index) const noexcept {
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), index,
      [](std::uint64_t target, const ChunkInfo& chunk) {
        return target < chunk.first_index;
      });
  return static_cast<std::size_t>(it - chunks_.begin()) - 1;
}

std::span<const std::uint8_t> ChunkReader::load(std::size_t chunk) {
  const ChunkInfo& info = chunks_[chunk];
  const std::uint64_t frame_end =
      chunk + 1 < chunks_.size() ? chunks_[chunk + 1].offset : footer_offset_;
  // The index bounds the frame by the file, so reading it whole allocates
  // no more than the file holds, whatever sizes the frame claims.
  read_at(info.offset, static_cast<std::size_t>(frame_end - info.offset));
  const std::span<const std::uint8_t> frame = buffer_;
  const std::string where = "chunk " + std::to_string(chunk);

  std::size_t cursor = 0;
  if (read_varint(frame, cursor, where) != info.count) {
    fail(where + ": frame count does not match footer index");
  }
  const std::uint64_t payload_bytes = read_varint(frame, cursor, where);
  if (payload_bytes > frame.size() - cursor) {
    fail(where + ": payload size runs past the frame");
  }
  const std::span<const std::uint8_t> payload =
      frame.subspan(cursor, static_cast<std::size_t>(payload_bytes));
  cursor += payload.size();
  if (read_varint(frame, cursor, where) != fnv1a(payload)) {
    fail(where + ": checksum mismatch");
  }
  if (cursor != frame.size()) {
    fail(where + ": frame does not end where the next chunk begins");
  }
  ++chunks_loaded_;
  return payload;
}

}  // namespace optchain
