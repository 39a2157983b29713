#include "obs/otrace_reader.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "txmodel/serialization.hpp"

namespace optchain::obs {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("otrace reader: " + path + ": " + what);
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t hash = 14695981039346656037ull;
  for (const std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

OtraceReader::OtraceReader(const std::string& path)
    : file_(path, std::ios::binary), path_(path) {
  if (!file_) fail(path_, "cannot open");

  file_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(file_.tellg());

  // Header: magic + version + chunk capacity.
  std::uint8_t magic[4] = {};
  file_.seekg(0, std::ios::beg);
  file_.read(reinterpret_cast<char*>(magic), 4);
  if (!file_ || !std::equal(magic, magic + 4, kOtraceMagic)) {
    fail(path_, "bad magic (not a .otrace file)");
  }
  // The header varints are tiny; 32 bytes covers any encodable pair.
  std::uint8_t header[32] = {};
  const std::size_t header_bytes = static_cast<std::size_t>(
      std::min<std::uint64_t>(sizeof(header), file_size - 4));
  file_.read(reinterpret_cast<char*>(header), header_bytes);
  std::span<const std::uint8_t> header_span(header, header_bytes);
  std::size_t offset = 0;
  const std::uint64_t version = tx::read_varint(header_span, offset);
  if (version != kOtraceVersion) {
    fail(path_, "unsupported version " + std::to_string(version));
  }
  chunk_capacity_ =
      static_cast<std::uint32_t>(tx::read_varint(header_span, offset));
  if (chunk_capacity_ == 0) fail(path_, "corrupt header (chunk_capacity 0)");

  // Trailer → footer → chunk index.
  if (file_size < 4 + kOtraceTrailerBytes) fail(path_, "truncated file");
  std::uint8_t trailer[kOtraceTrailerBytes] = {};
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(file_size - kOtraceTrailerBytes),
              std::ios::beg);
  file_.read(reinterpret_cast<char*>(trailer), kOtraceTrailerBytes);
  if (!file_ || !std::equal(trailer + 8, trailer + 12, kOtraceTrailerMagic)) {
    fail(path_, "bad trailer (unfinished or corrupt trace)");
  }
  std::uint64_t footer_offset = 0;
  for (int i = 7; i >= 0; --i) {
    footer_offset = (footer_offset << 8) | trailer[i];
  }
  if (footer_offset >= file_size - kOtraceTrailerBytes) {
    fail(path_, "corrupt trailer (footer offset past file end)");
  }

  const std::size_t footer_bytes =
      static_cast<std::size_t>(file_size - kOtraceTrailerBytes - footer_offset);
  std::vector<std::uint8_t> footer(footer_bytes);
  file_.seekg(static_cast<std::streamoff>(footer_offset), std::ios::beg);
  file_.read(reinterpret_cast<char*>(footer.data()),
             static_cast<std::streamsize>(footer_bytes));
  if (!file_) fail(path_, "footer read failed");
  footer_offset_ = footer_offset;
  std::size_t cursor = 0;
  std::uint64_t n_chunks = 0;
  try {
    n_chunks = tx::read_varint(footer, cursor);
  } catch (const std::exception&) {
    fail(path_, "corrupt footer index");
  }
  // Each index entry is three varints, at least one byte each.
  if (n_chunks > (footer.size() - cursor) / 3) {
    fail(path_, "corrupt footer: chunk count exceeds footer size");
  }
  chunks_.reserve(static_cast<std::size_t>(n_chunks));
  try {
    for (std::uint64_t c = 0; c < n_chunks; ++c) {
      OtraceChunkInfo info;
      info.offset = tx::read_varint(footer, cursor);
      info.first_index = tx::read_varint(footer, cursor);
      info.count = tx::read_varint(footer, cursor);
      chunks_.push_back(info);
    }
    total_ = tx::read_varint(footer, cursor);
  } catch (const std::exception&) {
    fail(path_, "corrupt footer index");
  }
  for (const OtraceChunkInfo& info : chunks_) {
    if (info.offset >= footer_offset) {
      fail(path_, "corrupt footer: chunk offset past the footer");
    }
  }
}

void OtraceReader::load_chunk(std::size_t chunk) {
  const OtraceChunkInfo& info = chunks_[chunk];
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(info.offset), std::ios::beg);

  // Frame prefix: varint count + varint payload_bytes (≤ 20 bytes).
  std::uint8_t prefix[20] = {};
  file_.read(reinterpret_cast<char*>(prefix), sizeof(prefix));
  const auto prefix_read = static_cast<std::size_t>(file_.gcount());
  std::span<const std::uint8_t> prefix_span(prefix, prefix_read);
  std::size_t cursor = 0;
  std::uint64_t count = 0;
  std::uint64_t payload_bytes = 0;
  try {
    count = tx::read_varint(prefix_span, cursor);
    payload_bytes = tx::read_varint(prefix_span, cursor);
  } catch (const std::exception&) {
    fail(path_, "corrupt chunk frame");
  }
  if (count != info.count) fail(path_, "chunk count mismatch vs footer");
  // The payload must end before the footer, so a corrupt size cannot make
  // the buffer larger than the file. (The footer parse checked that the
  // frame starts before the footer.)
  const std::uint64_t payload_start = info.offset + cursor;
  if (payload_start > footer_offset_ ||
      payload_bytes > footer_offset_ - payload_start) {
    fail(path_, "corrupt chunk frame: payload runs past the footer");
  }

  buffer_.resize(static_cast<std::size_t>(payload_bytes));
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(info.offset + cursor),
              std::ios::beg);
  file_.read(reinterpret_cast<char*>(buffer_.data()),
             static_cast<std::streamsize>(payload_bytes));
  if (static_cast<std::uint64_t>(file_.gcount()) != payload_bytes) {
    fail(path_, "truncated chunk payload");
  }

  // Checksum frame tail, then verify before any record escapes.
  std::uint8_t checksum_buf[10] = {};
  file_.read(reinterpret_cast<char*>(checksum_buf), sizeof(checksum_buf));
  const auto checksum_read = static_cast<std::size_t>(file_.gcount());
  std::span<const std::uint8_t> checksum_span(checksum_buf, checksum_read);
  std::size_t checksum_cursor = 0;
  std::uint64_t stored = 0;
  try {
    stored = tx::read_varint(checksum_span, checksum_cursor);
  } catch (const std::exception&) {
    fail(path_, "corrupt chunk checksum");
  }
  if (stored != fnv1a64(buffer_)) {
    fail(path_, "chunk checksum mismatch (corrupt trace)");
  }

  buffer_offset_ = 0;
  current_chunk_ = chunk;
}

std::uint64_t OtraceReader::read_payload_varint() {
  return tx::read_varint(buffer_, buffer_offset_);
}

double OtraceReader::read_payload_f64() {
  if (buffer_offset_ + 8 > buffer_.size()) {
    fail(path_, "truncated record (f64)");
  }
  std::uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) {
    bits = (bits << 8) |
           buffer_[buffer_offset_ + static_cast<std::size_t>(i)];
  }
  buffer_offset_ += 8;
  return std::bit_cast<double>(bits);
}

bool OtraceReader::next(TraceRecord& out) {
  if (next_index_ >= total_) return false;

  // Locate the chunk holding next_index_ (records decode in order, so this
  // is almost always the current chunk or the one after it).
  if (current_chunk_ == SIZE_MAX ||
      next_index_ >=
          chunks_[current_chunk_].first_index + chunks_[current_chunk_].count) {
    const std::size_t target =
        current_chunk_ == SIZE_MAX ? 0 : current_chunk_ + 1;
    if (target >= chunks_.size()) fail(path_, "footer/total mismatch");
    load_chunk(target);
  }

  out = TraceRecord{};
  try {
    const auto type = static_cast<TraceRecordType>(buffer_.at(buffer_offset_));
    ++buffer_offset_;
    out.type = type;
    switch (type) {
      case TraceRecordType::kIssue:
        out.tx = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        out.cross = buffer_.at(buffer_offset_++) != 0;
        break;
      case TraceRecordType::kCommit:
        out.tx = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        out.latency_s = read_payload_f64();
        break;
      case TraceRecordType::kAbort:
        out.tx = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        break;
      case TraceRecordType::kBlock:
        out.shard = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        break;
      case TraceRecordType::kQueueSample: {
        out.time = read_payload_f64();
        const std::uint64_t n = read_payload_varint();
        // Each queue size is a varint of at least one byte.
        if (n > buffer_.size() - buffer_offset_) {
          fail(path_, "truncated record (queue count exceeds chunk)");
        }
        out.queues.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          out.queues.push_back(read_payload_varint());
        }
        break;
      }
      case TraceRecordType::kLinkSample: {
        out.time = read_payload_f64();
        const std::uint64_t n = read_payload_varint();
        // Each link entry is two varints and an f64: at least 10 bytes.
        if (n > (buffer_.size() - buffer_offset_) / 10) {
          fail(path_, "truncated record (link count exceeds chunk)");
        }
        out.links.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          TraceRecord::Link link;
          link.endpoint = read_payload_varint();
          link.backlog_s = read_payload_f64();
          link.drops = read_payload_varint();
          out.links.push_back(link);
        }
        break;
      }
      case TraceRecordType::kShardChange:
        out.shard = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        out.joined = buffer_.at(buffer_offset_++) != 0;
        out.migrated_txs = read_payload_varint();
        out.migrated_utxos = read_payload_varint();
        break;
      case TraceRecordType::kRepartition:
        out.time = read_payload_f64();
        out.migrated_txs = read_payload_varint();
        out.migrated_utxos = read_payload_varint();
        out.deferred_txs = read_payload_varint();
        break;
      default:
        fail(path_, "unknown record type " +
                        std::to_string(static_cast<unsigned>(type)));
    }
  } catch (const std::out_of_range&) {
    fail(path_, "truncated record");
  }
  ++next_index_;
  return true;
}

TraceSummary OtraceReader::summarize() {
  TraceSummary summary;
  TraceRecord record;
  while (next(record)) {
    ++summary.records;
    summary.max_time_s = std::max(summary.max_time_s, record.time);
    switch (record.type) {
      case TraceRecordType::kIssue:
        ++summary.issues;
        if (record.cross) ++summary.cross_issues;
        break;
      case TraceRecordType::kCommit:
        ++summary.commits;
        summary.max_latency_s =
            std::max(summary.max_latency_s, record.latency_s);
        break;
      case TraceRecordType::kAbort:
        ++summary.aborts;
        break;
      case TraceRecordType::kBlock:
        ++summary.blocks;
        break;
      case TraceRecordType::kQueueSample:
        ++summary.queue_samples;
        break;
      case TraceRecordType::kLinkSample:
        ++summary.link_samples;
        break;
      case TraceRecordType::kShardChange:
        ++summary.shard_changes;
        break;
      case TraceRecordType::kRepartition:
        ++summary.repartitions;
        break;
    }
  }
  return summary;
}

}  // namespace optchain::obs
