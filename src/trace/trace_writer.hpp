// Streaming writer for the OPTX v2 chunk-indexed trace container.
//
// Appends transactions one at a time — O(chunk) memory, never the whole
// stream — and seals the file with the footer index on finish(). Feed it
// from any workload::TxSource (trace::import_source) or call append()
// directly from a generator loop.
#pragma once

#include <cstdint>
#include <string>

#include "trace/trace_format.hpp"
#include "txmodel/transaction.hpp"

namespace optchain::trace {

/// Knobs of a trace import.
struct TraceWriterOptions {
  /// Nominal transactions per chunk (the seek granularity). Must be > 0.
  std::uint32_t chunk_capacity = kDefaultChunkCapacity;
};

/// Streams transactions into a chunk-indexed .optx trace (see
/// trace_format.hpp for the layout). Usage:
///
///   trace::TraceWriter writer("bitcoin.optx");
///   while (source.next(transaction)) writer.append(transaction);
///   writer.finish();
class TraceWriter {
 public:
  /// Opens `path` for writing and emits the header. Throws
  /// std::runtime_error on I/O failure or chunk_capacity == 0. An
  /// unfinished writer finish()es on destruction, swallowing errors — call
  /// finish() explicitly to observe them.
  explicit TraceWriter(const std::string& path,
                       TraceWriterOptions options = {});

  /// Appends one transaction. Indices must be dense (0, 1, 2, ...) and
  /// inputs must reference earlier transactions; violations throw
  /// std::runtime_error (an importer feeding a malformed dump fails loudly
  /// instead of sealing a corrupt trace).
  void append(const tx::Transaction& transaction);

  /// Flushes the tail chunk, writes the footer index and trailer, and
  /// closes the file. Returns the total transaction count. Idempotent;
  /// append() after finish() throws.
  std::uint64_t finish() { return writer_.finish(); }

  /// Transactions appended so far.
  std::uint64_t total() const noexcept { return writer_.total(); }
  /// Chunk frames written so far (after finish(): in the file).
  std::uint64_t num_chunks() const noexcept { return writer_.num_chunks(); }

 private:
  ChunkWriter writer_;
};

}  // namespace optchain::trace
