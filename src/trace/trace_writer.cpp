#include "trace/trace_writer.hpp"

#include "txmodel/serialization.hpp"

namespace optchain::trace {

TraceWriter::TraceWriter(const std::string& path, TraceWriterOptions options)
    : writer_(path, kTraceFormat, options.chunk_capacity, "trace writer") {}

void TraceWriter::append(const tx::Transaction& transaction) {
  if (writer_.finished()) writer_.fail("append after finish()");
  if (transaction.index != writer_.total()) {
    writer_.fail("non-dense transaction index " +
                 std::to_string(transaction.index) + " (expected " +
                 std::to_string(writer_.total()) + ")");
  }
  for (const tx::OutPoint& in : transaction.inputs) {
    if (in.tx >= transaction.index) {
      writer_.fail("tx " + std::to_string(transaction.index) +
                   ": forward/self input reference " + std::to_string(in.tx));
    }
  }
  tx::encode_transaction(writer_.payload(), transaction);
  writer_.end_record();
}

}  // namespace optchain::trace
