#include "obs/otrace_reader.hpp"

#include <algorithm>
#include <bit>

#include "txmodel/serialization.hpp"

namespace optchain::obs {

OtraceReader::OtraceReader(const std::string& path)
    : container_(path, kOtraceFormat, "otrace reader") {}

std::uint8_t OtraceReader::read_u8() {
  if (cursor_ >= payload_.size()) container_.fail("truncated record");
  return payload_[cursor_++];
}

std::uint64_t OtraceReader::read_varint() {
  return tx::read_varint(payload_, cursor_);
}

double OtraceReader::read_f64() {
  if (payload_.size() - cursor_ < 8) {
    container_.fail("truncated record (f64)");
  }
  std::uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) {
    bits = (bits << 8) | payload_[cursor_ + static_cast<std::size_t>(i)];
  }
  cursor_ += 8;
  return std::bit_cast<double>(bits);
}

bool OtraceReader::next(TraceRecord& out) {
  if (next_index_ >= container_.size()) return false;
  // Records decode in order, so the next record is in the loaded chunk or
  // the first of the one after it (the validated index is dense).
  if (next_index_ >= chunk_end_) {
    const std::size_t chunk = next_chunk_++;
    payload_ = container_.load(chunk);
    cursor_ = 0;
    chunk_end_ = next_index_ + container_.chunks()[chunk].count;
  }
  decode(out);
  ++next_index_;
  return true;
}

void OtraceReader::decode(TraceRecord& out) {
  out = TraceRecord{};
  const auto type = static_cast<TraceRecordType>(read_u8());
  out.type = type;
  switch (type) {
    case TraceRecordType::kIssue:
      out.tx = static_cast<std::uint32_t>(read_varint());
      out.time = read_f64();
      out.cross = read_u8() != 0;
      break;
    case TraceRecordType::kCommit:
      out.tx = static_cast<std::uint32_t>(read_varint());
      out.time = read_f64();
      out.latency_s = read_f64();
      break;
    case TraceRecordType::kAbort:
      out.tx = static_cast<std::uint32_t>(read_varint());
      out.time = read_f64();
      break;
    case TraceRecordType::kBlock:
      out.shard = static_cast<std::uint32_t>(read_varint());
      out.time = read_f64();
      break;
    case TraceRecordType::kQueueSample: {
      out.time = read_f64();
      const std::uint64_t n = read_varint();
      // Each queue size is a varint of at least one byte.
      if (n > payload_.size() - cursor_) {
        container_.fail("truncated record (queue count exceeds chunk)");
      }
      out.queues.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        out.queues.push_back(read_varint());
      }
      break;
    }
    case TraceRecordType::kLinkSample: {
      out.time = read_f64();
      const std::uint64_t n = read_varint();
      // Each link entry is two varints and an f64: at least 10 bytes.
      if (n > (payload_.size() - cursor_) / 10) {
        container_.fail("truncated record (link count exceeds chunk)");
      }
      out.links.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        TraceRecord::Link link;
        link.endpoint = read_varint();
        link.backlog_s = read_f64();
        link.drops = read_varint();
        out.links.push_back(link);
      }
      break;
    }
    case TraceRecordType::kShardChange:
      out.shard = static_cast<std::uint32_t>(read_varint());
      out.time = read_f64();
      out.joined = read_u8() != 0;
      out.migrated_txs = read_varint();
      out.migrated_utxos = read_varint();
      break;
    case TraceRecordType::kRepartition:
      out.time = read_f64();
      out.migrated_txs = read_varint();
      out.migrated_utxos = read_varint();
      out.deferred_txs = read_varint();
      break;
    default:
      container_.fail("unknown record type " +
                      std::to_string(static_cast<unsigned>(type)));
  }
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
