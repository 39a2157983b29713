#include "trace/trace_reader.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "txmodel/serialization.hpp"

namespace optchain::trace {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("trace reader: " + path + ": " + what);
}

}  // namespace

std::uint64_t TraceReader::read_varint_stream() {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    const int byte = file_.get();
    if (byte == std::char_traits<char>::eof()) {
      fail(path_, "truncated varint");
    }
    if (shift >= 64) fail(path_, "varint overflow");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

TraceReader::TraceReader(const std::string& path)
    : file_(path, std::ios::binary), path_(path) {
  if (!file_) fail(path_, "cannot open for reading");

  std::uint8_t magic[4] = {};
  file_.read(reinterpret_cast<char*>(magic), 4);
  if (!file_ || std::memcmp(magic, kMagic, 4) != 0) fail(path_, "bad magic");
  version_ = static_cast<std::uint32_t>(read_varint_stream());

  if (version_ == 1) {
    // Flat v1 stream: varint count, then the body. Slurp the raw bytes and
    // decode incrementally — compact (~16 B/tx) and sequential by nature.
    total_ = read_varint_stream();
    const std::streampos body_start = file_.tellg();
    file_.seekg(0, std::ios::end);
    const std::streampos end = file_.tellg();
    file_.seekg(body_start);
    buffer_.resize(static_cast<std::size_t>(end - body_start));
    file_.read(reinterpret_cast<char*>(buffer_.data()),
               static_cast<std::streamsize>(buffer_.size()));
    if (!file_) fail(path_, "read failed");
    // Each transaction encodes as at least two bytes.
    if (total_ > buffer_.size() / 2) {
      fail(path_, "corrupt header: transaction count exceeds file size");
    }
    return;
  }
  if (version_ != kTraceVersion) {
    fail(path_, "unsupported version " + std::to_string(version_));
  }

  chunk_capacity_ = static_cast<std::uint32_t>(read_varint_stream());
  if (chunk_capacity_ == 0) fail(path_, "corrupt header: chunk_capacity 0");
  file_.seekg(0, std::ios::end);
  parse_footer(static_cast<std::uint64_t>(file_.tellg()));
}

void TraceReader::parse_footer(std::uint64_t file_size) {
  if (file_size < kTrailerBytes) fail(path_, "truncated: no trailer");
  std::uint8_t trailer[kTrailerBytes] = {};
  file_.seekg(static_cast<std::streamoff>(file_size - kTrailerBytes));
  file_.read(reinterpret_cast<char*>(trailer), kTrailerBytes);
  if (!file_) fail(path_, "trailer read failed");
  if (std::memcmp(trailer + 8, kTrailerMagic, 4) != 0) {
    fail(path_, "bad trailer magic (truncated or not a finished trace)");
  }
  std::uint64_t footer_offset = 0;
  for (int i = 7; i >= 0; --i) {
    footer_offset = (footer_offset << 8) | trailer[i];
  }
  if (footer_offset >= file_size - kTrailerBytes) {
    fail(path_, "corrupt trailer: footer offset out of range");
  }

  std::vector<std::uint8_t> footer(
      static_cast<std::size_t>(file_size - kTrailerBytes - footer_offset));
  file_.seekg(static_cast<std::streamoff>(footer_offset));
  file_.read(reinterpret_cast<char*>(footer.data()),
             static_cast<std::streamsize>(footer.size()));
  if (!file_) fail(path_, "footer read failed");

  std::size_t offset = 0;
  const std::uint64_t n_chunks = tx::read_varint(footer, offset);
  // Each index entry is three varints, at least one byte each.
  if (n_chunks > (footer.size() - offset) / 3) {
    fail(path_, "corrupt footer: chunk count exceeds footer size");
  }
  footer_offset_ = footer_offset;
  chunks_.reserve(n_chunks);
  std::uint64_t expected_first = 0;
  std::uint64_t previous_end = 0;
  for (std::uint64_t i = 0; i < n_chunks; ++i) {
    ChunkInfo chunk;
    chunk.offset = tx::read_varint(footer, offset);
    chunk.first_index = tx::read_varint(footer, offset);
    chunk.count = tx::read_varint(footer, offset);
    if (chunk.first_index != expected_first || chunk.count == 0 ||
        chunk.offset < previous_end || chunk.offset >= footer_offset) {
      fail(path_, "corrupt footer: inconsistent chunk index");
    }
    expected_first += chunk.count;
    previous_end = chunk.offset;
    chunks_.push_back(chunk);
  }
  total_ = tx::read_varint(footer, offset);
  if (total_ != expected_first) {
    fail(path_, "corrupt footer: total does not match chunk index");
  }
  if (offset != footer.size()) fail(path_, "corrupt footer: trailing bytes");
}

void TraceReader::load_chunk(std::size_t chunk) {
  const ChunkInfo& info = chunks_[chunk];
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(info.offset));
  const std::uint64_t count = read_varint_stream();
  if (count != info.count) {
    fail(path_, "chunk " + std::to_string(chunk) +
                    ": frame count does not match footer index");
  }
  const std::uint64_t payload_bytes = read_varint_stream();
  // Frames end before the footer: a size past it is corrupt, and must fail
  // before the resize commits that much memory.
  const auto payload_start = static_cast<std::uint64_t>(file_.tellg());
  if (payload_start > footer_offset_ ||
      payload_bytes > footer_offset_ - payload_start) {
    fail(path_, "chunk " + std::to_string(chunk) +
                    ": payload size runs past the footer");
  }
  buffer_.resize(static_cast<std::size_t>(payload_bytes));
  file_.read(reinterpret_cast<char*>(buffer_.data()),
             static_cast<std::streamsize>(buffer_.size()));
  if (!file_) fail(path_, "chunk " + std::to_string(chunk) + ": read failed");
  const std::uint64_t checksum = read_varint_stream();
  if (checksum != fnv1a64(buffer_)) {
    fail(path_, "chunk " + std::to_string(chunk) + ": checksum mismatch");
  }
  buffer_offset_ = 0;
  current_chunk_ = chunk;
  ++chunks_loaded_;
}

bool TraceReader::next(tx::Transaction& out) {
  if (next_index_ >= total_) return false;

  if (version_ == 1) {
    std::size_t offset = buffer_offset_;
    tx::decode_transaction(buffer_, offset,
                           static_cast<tx::TxIndex>(next_index_), out);
    buffer_offset_ = offset;
    ++next_index_;
    // The flat stream has no checksums; the one integrity check v1 offers
    // is that the body is exactly `total_` transactions long. Keep
    // decode_transactions' trailing-bytes guarantee: a bit-rotted count or
    // appended garbage must fail loudly, not replay silently truncated.
    if (next_index_ == total_ && buffer_offset_ != buffer_.size()) {
      fail(path_, "trailing bytes after final transaction");
    }
    return true;
  }

  // v2: hop to the chunk holding next_index_ when the cursor leaves the
  // loaded one (sequential reads land on current_chunk_ + 1; a fresh seek
  // may land anywhere).
  if (current_chunk_ == SIZE_MAX ||
      next_index_ >= chunks_[current_chunk_].first_index +
                         chunks_[current_chunk_].count ||
      next_index_ < chunks_[current_chunk_].first_index) {
    const auto it = std::upper_bound(
        chunks_.begin(), chunks_.end(), next_index_,
        [](std::uint64_t index, const ChunkInfo& chunk) {
          return index < chunk.first_index;
        });
    load_chunk(static_cast<std::size_t>(it - chunks_.begin()) - 1);
    // A seek may target mid-chunk: skip the intra-chunk prefix.
    for (std::uint64_t i = chunks_[current_chunk_].first_index;
         i < next_index_; ++i) {
      std::size_t offset = buffer_offset_;
      tx::decode_transaction(buffer_, offset, static_cast<tx::TxIndex>(i),
                             skip_scratch_);
      buffer_offset_ = offset;
    }
  }

  std::size_t offset = buffer_offset_;
  tx::decode_transaction(buffer_, offset,
                         static_cast<tx::TxIndex>(next_index_), out);
  buffer_offset_ = offset;
  ++next_index_;
  return true;
}

void TraceReader::seek(std::uint64_t index) {
  if (index > total_) {
    throw std::out_of_range("trace reader: " + path_ + ": seek(" +
                            std::to_string(index) + ") past end (" +
                            std::to_string(total_) + " txs)");
  }
  if (version_ == 1) {
    if (index < next_index_) {
      buffer_offset_ = 0;
      next_index_ = 0;
    }
    while (next_index_ < index) {
      std::size_t offset = buffer_offset_;
      tx::decode_transaction(buffer_, offset,
                             static_cast<tx::TxIndex>(next_index_),
                             skip_scratch_);
      buffer_offset_ = offset;
      ++next_index_;
    }
    return;
  }
  // v2: reposition the intra-chunk cursor when the target stays inside the
  // loaded chunk (backwards restarts the chunk decode, forwards skips from
  // the current cursor); otherwise just invalidate — next() binary-searches
  // the chunk index and loads exactly the target chunk.
  if (current_chunk_ != SIZE_MAX &&
      index >= chunks_[current_chunk_].first_index &&
      index < chunks_[current_chunk_].first_index +
                  chunks_[current_chunk_].count) {
    std::uint64_t from = next_index_;
    if (index < next_index_) {
      buffer_offset_ = 0;
      from = chunks_[current_chunk_].first_index;
    }
    for (std::uint64_t i = from; i < index; ++i) {
      std::size_t offset = buffer_offset_;
      tx::decode_transaction(buffer_, offset, static_cast<tx::TxIndex>(i),
                             skip_scratch_);
      buffer_offset_ = offset;
    }
  } else {
    current_chunk_ = SIZE_MAX;
  }
  next_index_ = index;
}

}  // namespace optchain::trace
