#include "trace/trace_import.hpp"

#include <charconv>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "trace/trace_format.hpp"
#include "trace/trace_source.hpp"

namespace optchain::trace {
namespace {

[[noreturn]] void fail_csv(const std::string& path, std::size_t line_no,
                           const std::string& what) {
  throw std::runtime_error("csv import: " + path + ":" +
                           std::to_string(line_no) + ": " + what);
}

/// Parses "a:b" pairs separated by spaces from [cursor, end).
template <typename Emit>
void parse_pairs(const char* cursor, const char* end, const Emit& emit,
                 const std::string& path, std::size_t line_no) {
  while (cursor < end) {
    while (cursor < end && *cursor == ' ') ++cursor;
    if (cursor == end) break;
    std::uint64_t first = 0;
    auto [p1, e1] = std::from_chars(cursor, end, first);
    if (e1 != std::errc{} || p1 == end || *p1 != ':') {
      fail_csv(path, line_no, "expected \"a:b\" pair");
    }
    std::uint64_t second = 0;
    auto [p2, e2] = std::from_chars(p1 + 1, end, second);
    if (e2 != std::errc{}) fail_csv(path, line_no, "expected \"a:b\" pair");
    emit(first, second);
    cursor = p2;
  }
}

bool has_suffix(const std::string& text, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return text.size() >= n && text.compare(text.size() - n, n, suffix) == 0;
}

ImportFormat sniff_format(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) throw std::runtime_error("cannot open for import: " + path);
  std::uint8_t magic[4] = {};
  probe.read(reinterpret_cast<char*>(magic), 4);
  if (probe.gcount() == 4 && std::memcmp(magic, kMagic, 4) == 0) {
    return ImportFormat::kOptx;
  }
  return has_suffix(path, ".csv") ? ImportFormat::kCsv
                                  : ImportFormat::kEdgeList;
}

}  // namespace

CsvFileTxSource::CsvFileTxSource(const std::string& path)
    : file_(path), path_(path) {
  if (!file_) throw std::runtime_error("cannot open CSV dump: " + path);
}

bool CsvFileTxSource::next(tx::Transaction& out) {
  while (std::getline(file_, line_)) {
    ++line_no_;
    if (line_.empty() || line_[0] == '#') continue;
    // Skip a spreadsheet-style header once, wherever the dump put it.
    if (line_.rfind("index,", 0) == 0) continue;

    const std::size_t comma1 = line_.find(',');
    const std::size_t comma2 =
        comma1 == std::string::npos ? std::string::npos
                                    : line_.find(',', comma1 + 1);
    if (comma2 == std::string::npos) {
      fail_csv(path_, line_no_, "expected <index>,<inputs>,<outputs>");
    }

    std::uint32_t index = 0;
    const auto [iptr, iec] =
        std::from_chars(line_.data(), line_.data() + comma1, index);
    if (iec != std::errc{} || iptr != line_.data() + comma1) {
      fail_csv(path_, line_no_, "bad transaction index");
    }
    if (index != next_index_) {
      fail_csv(path_, line_no_, "non-dense transaction index " +
                                    std::to_string(index) + " (expected " +
                                    std::to_string(next_index_) + ")");
    }

    out.index = index;
    out.inputs.clear();
    out.outputs.clear();
    parse_pairs(line_.data() + comma1 + 1, line_.data() + comma2,
                [&](std::uint64_t tx, std::uint64_t vout) {
                  if (tx >= index) {
                    fail_csv(path_, line_no_, "forward/self input reference");
                  }
                  if (vout > std::numeric_limits<std::uint32_t>::max()) {
                    fail_csv(path_, line_no_, "vout out of range (>= 2^32)");
                  }
                  out.inputs.push_back({static_cast<tx::TxIndex>(tx),
                                        static_cast<std::uint32_t>(vout)});
                },
                path_, line_no_);
    parse_pairs(line_.data() + comma2 + 1, line_.data() + line_.size(),
                [&](std::uint64_t value, std::uint64_t owner) {
                  if (value > static_cast<std::uint64_t>(
                                  std::numeric_limits<tx::Amount>::max())) {
                    fail_csv(path_, line_no_, "value out of range (>= 2^63)");
                  }
                  if (owner > std::numeric_limits<tx::WalletId>::max()) {
                    fail_csv(path_, line_no_, "owner out of range (>= 2^32)");
                  }
                  out.outputs.push_back(
                      {static_cast<tx::Amount>(value),
                       static_cast<tx::WalletId>(owner)});
                },
                path_, line_no_);
    ++next_index_;
    return true;
  }
  if (file_.bad()) throw std::runtime_error("read failed: " + path_);
  return false;
}

ImportResult import_source(workload::TxSource& source,
                           const std::string& out_path,
                           TraceWriterOptions options) {
  TraceWriter writer(out_path, options);
  tx::Transaction transaction;
  while (source.next(transaction)) writer.append(transaction);
  ImportResult result;
  result.txs = writer.finish();
  result.chunks = writer.num_chunks();
  return result;
}

ImportResult import_file(const std::string& in_path,
                         const std::string& out_path, ImportFormat format,
                         TraceWriterOptions options) {
  if (format == ImportFormat::kAuto) format = sniff_format(in_path);
  switch (format) {
    case ImportFormat::kOptx: {
      TraceTxSource source(in_path);
      return import_source(source, out_path, options);
    }
    case ImportFormat::kEdgeList: {
      workload::EdgeListFileTxSource source(in_path);
      return import_source(source, out_path, options);
    }
    case ImportFormat::kCsv: {
      CsvFileTxSource source(in_path);
      return import_source(source, out_path, options);
    }
    case ImportFormat::kAuto:
      break;
  }
  throw std::logic_error("unreachable import format");
}

}  // namespace optchain::trace
