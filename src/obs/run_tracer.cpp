#include "obs/run_tracer.hpp"

#include <bit>

#include "txmodel/serialization.hpp"

namespace optchain::obs {
namespace {

void write_f64(std::vector<std::uint8_t>& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
}

}  // namespace

RunTracer::RunTracer(const std::string& path, RunTracerOptions options)
    : writer_(path, kOtraceFormat, options.chunk_capacity, "run tracer") {}

// Each callback appends its record straight into the chunk writer's
// payload buffer, then counts it with the inline end_record().
std::vector<std::uint8_t>& RunTracer::begin_record(TraceRecordType type) {
  if (writer_.finished()) writer_.fail("record after finish()");
  std::vector<std::uint8_t>& out = writer_.payload();
  out.push_back(static_cast<std::uint8_t>(type));
  return out;
}

void RunTracer::on_issue(std::uint32_t tx, double time, bool cross) {
  std::vector<std::uint8_t>& out = begin_record(TraceRecordType::kIssue);
  tx::write_varint(out, tx);
  write_f64(out, time);
  out.push_back(cross ? 1 : 0);
  writer_.end_record();
}

void RunTracer::on_commit(std::uint32_t tx, double time, double latency_s) {
  std::vector<std::uint8_t>& out = begin_record(TraceRecordType::kCommit);
  tx::write_varint(out, tx);
  write_f64(out, time);
  write_f64(out, latency_s);
  writer_.end_record();
}

void RunTracer::on_abort(std::uint32_t tx, double time) {
  std::vector<std::uint8_t>& out = begin_record(TraceRecordType::kAbort);
  tx::write_varint(out, tx);
  write_f64(out, time);
  writer_.end_record();
}

void RunTracer::on_queue_sample(double time,
                                std::span<const std::uint64_t> queue_sizes) {
  std::vector<std::uint8_t>& out = begin_record(TraceRecordType::kQueueSample);
  write_f64(out, time);
  tx::write_varint(out, queue_sizes.size());
  for (const std::uint64_t size : queue_sizes) {
    tx::write_varint(out, size);
  }
  writer_.end_record();
}

void RunTracer::on_block_commit(std::uint32_t shard, double time) {
  std::vector<std::uint8_t>& out = begin_record(TraceRecordType::kBlock);
  tx::write_varint(out, shard);
  write_f64(out, time);
  writer_.end_record();
}

void RunTracer::on_link_sample(double time,
                               std::span<const sim::LinkSample> links) {
  std::vector<std::uint8_t>& out = begin_record(TraceRecordType::kLinkSample);
  write_f64(out, time);
  tx::write_varint(out, links.size());
  for (const sim::LinkSample& link : links) {
    tx::write_varint(out, link.endpoint);
    write_f64(out, link.backlog_s);
    tx::write_varint(out, link.drops);
  }
  writer_.end_record();
}

void RunTracer::on_shard_change(std::uint32_t shard, double time, bool joined,
                                std::uint64_t migrated_txs,
                                std::uint64_t migrated_utxos) {
  std::vector<std::uint8_t>& out = begin_record(TraceRecordType::kShardChange);
  tx::write_varint(out, shard);
  write_f64(out, time);
  out.push_back(joined ? 1 : 0);
  tx::write_varint(out, migrated_txs);
  tx::write_varint(out, migrated_utxos);
  writer_.end_record();
}

void RunTracer::on_repartition(double time, std::uint64_t migrated_txs,
                               std::uint64_t migrated_utxos,
                               std::uint64_t deferred_txs) {
  std::vector<std::uint8_t>& out = begin_record(TraceRecordType::kRepartition);
  write_f64(out, time);
  tx::write_varint(out, migrated_txs);
  tx::write_varint(out, migrated_utxos);
  tx::write_varint(out, deferred_txs);
  writer_.end_record();
}

}  // namespace optchain::obs
