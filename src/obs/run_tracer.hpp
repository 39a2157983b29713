// obs::RunTracer — per-run lifecycle tracing as a sim::SimObserver.
//
// Attach one through api::RunSpec::observers (or SimConfig::observers) and
// every observer callback of the run streams into a chunk-indexed .otrace
// container (obs/otrace_format.hpp): per-transaction lifecycle spans
// (issue → commit/abort with latency), per-shard block timelines, queue and
// link samples, churn and re-partition events — O(chunk) memory however
// long the run.
//
//   obs::RunTracer tracer("run.otrace");
//   spec.observers.push_back(&tracer);
//   api::RunReport report = api::simulate(spec, txs);
//   tracer.finish();
//
// Observer callbacks fire in event dispatch order and carry only
// simulated-time data, so the produced byte stream is a pure function of the
// run's seeds — determinism rule 9, pinned by the .otrace digests in
// tests/sim_fingerprint_test.cpp. Export with optchain-obs or
// obs::write_chrome_trace (obs/chrome_export.hpp) to open a run in
// ui.perfetto.dev.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/otrace_format.hpp"
#include "sim/sim_observer.hpp"

namespace optchain::obs {

/// Knobs of a trace capture.
struct RunTracerOptions {
  /// Nominal records per chunk (flush granularity). Must be > 0.
  std::uint32_t chunk_capacity = kOtraceDefaultChunkCapacity;
};

/// Streams a run's observer callbacks into a .otrace file. The tracer must
/// outlive the run (observers are borrowed) and must be finish()ed before
/// the file is read — the footer index is written on finish(). An
/// unfinished tracer finish()es on destruction, swallowing errors — call
/// finish() explicitly to observe them.
class RunTracer final : public sim::SimObserver {
 public:
  /// Opens `path` for writing and emits the header. Throws
  /// std::runtime_error on I/O failure or chunk_capacity == 0.
  explicit RunTracer(const std::string& path, RunTracerOptions options = {});

  /// Records a transaction-issued span open.
  void on_issue(std::uint32_t tx, double time, bool cross) override;
  /// Records a commit span close (with the confirmation latency).
  void on_commit(std::uint32_t tx, double time, double latency_s) override;
  /// Records an abort span close.
  void on_abort(std::uint32_t tx, double time) override;
  /// Records a periodic per-shard queue-size sample.
  void on_queue_sample(double time,
                       std::span<const std::uint64_t> queue_sizes) override;
  /// Records a per-shard block commit.
  void on_block_commit(std::uint32_t shard, double time) override;
  /// Records a fabric link sample (fabric-enabled runs only).
  void on_link_sample(double time,
                      std::span<const sim::LinkSample> links) override;
  /// Records a churn event (shard joined or retired).
  void on_shard_change(std::uint32_t shard, double time, bool joined,
                       std::uint64_t migrated_txs,
                       std::uint64_t migrated_utxos) override;
  /// Records an applied re-partition tick.
  void on_repartition(double time, std::uint64_t migrated_txs,
                      std::uint64_t migrated_utxos,
                      std::uint64_t deferred_txs) override;

  /// Flushes the tail chunk, writes the footer index and trailer, and
  /// closes the file. Returns the total record count. Idempotent;
  /// recording after finish() throws.
  std::uint64_t finish() { return writer_.finish(); }

  /// Records written so far.
  std::uint64_t total() const noexcept { return writer_.total(); }

 private:
  /// Reserves room for a record of at most 1 + `max_body_bytes` bytes in
  /// the chunk payload, writes its type tag, and returns where its body
  /// goes. Throws std::runtime_error after finish().
  std::uint8_t* begin_record(TraceRecordType type, std::size_t max_body_bytes);
  /// Trims the payload to end just past the record's body (`end`) and
  /// counts the record.
  void end_record(const std::uint8_t* end);

  ChunkWriter writer_;
};

}  // namespace optchain::obs
