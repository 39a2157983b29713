#include "obs/run_tracer.hpp"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace optchain::obs {
namespace {

constexpr std::size_t kVarintMax = 10;  // LEB128 bytes of a 64-bit value
constexpr std::size_t kF64 = 8;

// Stores one record's fields, through a pointer, into the room
// begin_record() reserved: LEB128 varints and little-endian doubles, as the
// OTRC codec specifies (obs/otrace_format.hpp).
class FieldWriter {
 public:
  explicit FieldWriter(std::uint8_t* out) : out_(out) {}

  void u8(bool value) { *out_++ = value ? 1 : 0; }

  void varint(std::uint64_t value) {
    while (value >= 0x80) {
      *out_++ = static_cast<std::uint8_t>(value) | 0x80;
      value >>= 7;
    }
    *out_++ = static_cast<std::uint8_t>(value);
  }

  void f64(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < kF64; ++i) {
      out_[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
    out_ += kF64;
  }

  /// One past the last byte written.
  std::uint8_t* end() const { return out_; }

 private:
  std::uint8_t* out_;
};

}  // namespace

RunTracer::RunTracer(const std::string& path, RunTracerOptions options)
    : writer_(path, kOtraceFormat, options.chunk_capacity, "run tracer") {}

// Each callback grows the chunk writer's payload once, to its record's
// largest encoding, writes the fields through a FieldWriter, and trims the
// payload to the bytes used.
std::uint8_t* RunTracer::begin_record(TraceRecordType type,
                                      std::size_t max_body_bytes) {
  if (writer_.finished()) writer_.fail("record after finish()");
  std::vector<std::uint8_t>& payload = writer_.payload();
  const std::size_t start = payload.size();
  payload.resize(start + 1 + max_body_bytes);
  payload[start] = static_cast<std::uint8_t>(type);
  return payload.data() + start + 1;
}

void RunTracer::end_record(const std::uint8_t* end) {
  std::vector<std::uint8_t>& payload = writer_.payload();
  payload.resize(static_cast<std::size_t>(end - payload.data()));
  writer_.end_record();
}

void RunTracer::on_issue(std::uint32_t tx, double time, bool cross) {
  FieldWriter out(
      begin_record(TraceRecordType::kIssue, kVarintMax + kF64 + 1));
  out.varint(tx);
  out.f64(time);
  out.u8(cross);
  end_record(out.end());
}

void RunTracer::on_commit(std::uint32_t tx, double time, double latency_s) {
  FieldWriter out(
      begin_record(TraceRecordType::kCommit, kVarintMax + 2 * kF64));
  out.varint(tx);
  out.f64(time);
  out.f64(latency_s);
  end_record(out.end());
}

void RunTracer::on_abort(std::uint32_t tx, double time) {
  FieldWriter out(begin_record(TraceRecordType::kAbort, kVarintMax + kF64));
  out.varint(tx);
  out.f64(time);
  end_record(out.end());
}

void RunTracer::on_queue_sample(double time,
                                std::span<const std::uint64_t> queue_sizes) {
  FieldWriter out(
      begin_record(TraceRecordType::kQueueSample,
                   kF64 + kVarintMax * (1 + queue_sizes.size())));
  out.f64(time);
  out.varint(queue_sizes.size());
  for (const std::uint64_t size : queue_sizes) {
    out.varint(size);
  }
  end_record(out.end());
}

void RunTracer::on_block_commit(std::uint32_t shard, double time) {
  FieldWriter out(begin_record(TraceRecordType::kBlock, kVarintMax + kF64));
  out.varint(shard);
  out.f64(time);
  end_record(out.end());
}

void RunTracer::on_link_sample(double time,
                               std::span<const sim::LinkSample> links) {
  FieldWriter out(begin_record(
      TraceRecordType::kLinkSample,
      kF64 + kVarintMax + links.size() * (2 * kVarintMax + kF64)));
  out.f64(time);
  out.varint(links.size());
  for (const sim::LinkSample& link : links) {
    out.varint(link.endpoint);
    out.f64(link.backlog_s);
    out.varint(link.drops);
  }
  end_record(out.end());
}

void RunTracer::on_shard_change(std::uint32_t shard, double time, bool joined,
                                std::uint64_t migrated_txs,
                                std::uint64_t migrated_utxos) {
  FieldWriter out(begin_record(TraceRecordType::kShardChange,
                               3 * kVarintMax + kF64 + 1));
  out.varint(shard);
  out.f64(time);
  out.u8(joined);
  out.varint(migrated_txs);
  out.varint(migrated_utxos);
  end_record(out.end());
}

void RunTracer::on_repartition(double time, std::uint64_t migrated_txs,
                               std::uint64_t migrated_utxos,
                               std::uint64_t deferred_txs) {
  FieldWriter out(
      begin_record(TraceRecordType::kRepartition, kF64 + 3 * kVarintMax));
  out.f64(time);
  out.varint(migrated_txs);
  out.varint(migrated_utxos);
  out.varint(deferred_txs);
  end_record(out.end());
}

}  // namespace optchain::obs
