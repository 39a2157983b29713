#include "trace/trace_reader.hpp"

#include <stdexcept>

#include "txmodel/serialization.hpp"

namespace optchain::trace {

TraceReader::TraceReader(const std::string& path)
    : container_(path, kTraceFormat, "trace reader") {
  if (!container_.flat()) {
    total_ = container_.size();
    return;
  }
  // Flat v1 stream: varint count, then the body, decoded incrementally from
  // the raw bytes — compact (~16 B/tx) and sequential by nature.
  payload_ = container_.flat_body();
  total_ = tx::read_varint(payload_, cursor_);
  payload_ = payload_.subspan(cursor_);
  cursor_ = 0;
  // Each transaction encodes as at least two bytes.
  if (total_ > payload_.size() / 2) {
    container_.fail("corrupt header: transaction count exceeds file size");
  }
}

bool TraceReader::next(tx::Transaction& out) {
  // One compare per transaction: the cursor stays inside the loaded chunk.
  if (next_index_ - chunk_first_ >= chunk_count_) return next_slow(out);
  decode(out);
  return true;
}

bool TraceReader::next_slow(tx::Transaction& out) {
  if (next_index_ >= total_) return false;
  if (container_.flat()) {
    decode(out);
    // The flat stream has no checksums; the one integrity check v1 offers
    // is that the body is exactly `total_` transactions long. Keep
    // decode_transactions' trailing-bytes guarantee: a bit-rotted count or
    // appended garbage must fail loudly, not replay silently truncated.
    if (next_index_ == total_ && cursor_ != payload_.size()) {
      container_.fail("trailing bytes after final transaction");
    }
    return true;
  }
  // v2: load the chunk holding the target (sequential reads land on the
  // next chunk; a fresh seek may land anywhere) and skip a mid-chunk
  // seek's intra-chunk prefix.
  const std::uint64_t target = next_index_;
  const std::size_t chunk = container_.find(target);
  payload_ = container_.load(chunk);
  cursor_ = 0;
  chunk_first_ = container_.chunks()[chunk].first_index;
  chunk_count_ = container_.chunks()[chunk].count;
  next_index_ = chunk_first_;
  skip_to(target);
  decode(out);
  return true;
}

void TraceReader::decode(tx::Transaction& out) {
  tx::decode_transaction(payload_, cursor_,
                         static_cast<tx::TxIndex>(next_index_), out);
  ++next_index_;
}

void TraceReader::skip_to(std::uint64_t index) {
  while (next_index_ < index) decode(skip_scratch_);
}

void TraceReader::seek(std::uint64_t index) {
  if (index > total_) {
    throw std::out_of_range("trace reader: seek(" + std::to_string(index) +
                            ") past end (" + std::to_string(total_) +
                            " txs)");
  }
  // Inside the loaded bytes (v1's whole body, or v2's loaded chunk): skip
  // forward from the cursor, restarting from the chunk's first transaction
  // when the target lies behind it. Elsewhere, leave the loading to next(),
  // which finds exactly the target chunk.
  if (container_.flat() || index - chunk_first_ < chunk_count_) {
    if (index < next_index_) {
      cursor_ = 0;
      next_index_ = chunk_first_;
    }
    skip_to(index);
    return;
  }
  chunk_count_ = 0;
  next_index_ = index;
}

}  // namespace optchain::trace
