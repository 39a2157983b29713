// Importers feeding the OPTX v2 trace container — import once, replay from
// disk forever.
//
// Three ways in:
//   - import_source: any workload::TxSource (generator snapshots, dynamic
//     decorators, another trace's window — anything behind the seam).
//   - the TaN edge-list format (workload::EdgeListFileTxSource), the text
//     interchange format of the paper's datasets.
//   - a CSV inputs/outputs dump (CsvFileTxSource), the bring-your-own-
//     Bitcoin-data format:
//         <index>,<inputs>,<outputs>
//     where <inputs> is space-separated "tx:vout" pairs (empty = coinbase)
//     and <outputs> is space-separated "value:owner" pairs. A vout or owner
//     must be below 2^32 and a value below 2^63 (the ranges the OPTX codec
//     stores). Lines starting with '#' and a leading "index,inputs,outputs"
//     header are skipped.
//     Example:
//         0,,5000000000:0
//         1,0:0,2500000000:1 2499990000:0
// import_file dispatches between them (and re-chunks existing OPTX v1/v2
// files) by magic and extension.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace_writer.hpp"
#include "workload/tx_source.hpp"

namespace optchain::trace {

/// What a finished import produced.
struct ImportResult {
  std::uint64_t txs = 0;     ///< transactions written
  std::uint64_t chunks = 0;  ///< chunk frames in the container
};

/// Drains `source` into a fresh chunk-indexed trace at `out_path`. Throws
/// std::runtime_error on I/O failure or a malformed source stream.
ImportResult import_source(workload::TxSource& source,
                           const std::string& out_path,
                           TraceWriterOptions options = {});

/// Input kinds import_file understands.
enum class ImportFormat : std::uint8_t {
  kAuto,      ///< sniff: OPTX magic → optx; ".csv" → csv; else edge list
  kOptx,      ///< an existing OPTX v1/v2 container (re-chunked)
  kEdgeList,  ///< text TaN edge list (dataset_loader.hpp format)
  kCsv,       ///< CSV inputs/outputs dump (see the file comment)
};

/// Imports `in_path` into a chunk-indexed trace at `out_path`. Throws
/// std::runtime_error on I/O failure or malformed input.
ImportResult import_file(const std::string& in_path,
                         const std::string& out_path,
                         ImportFormat format = ImportFormat::kAuto,
                         TraceWriterOptions options = {});

/// Streams a CSV inputs/outputs dump (see the file comment for the format)
/// as transactions. Throws std::runtime_error on I/O failure or malformed
/// input (non-dense indices, forward references, a field that is not a
/// number or lies outside its range: vout and owner below 2^32, value below
/// 2^63).
class CsvFileTxSource final : public workload::TxSource {
 public:
  /// Opens `path` (throws std::runtime_error on I/O failure).
  explicit CsvFileTxSource(const std::string& path);

  bool next(tx::Transaction& out) override;

 private:
  std::ifstream file_;
  std::string path_;
  std::string line_;
  std::size_t line_no_ = 0;
  tx::TxIndex next_index_ = 0;
};

}  // namespace optchain::trace
