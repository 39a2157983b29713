// Binary serialization for transaction streams.
//
// A compact varint-based codec so generated workloads can be stored and
// replayed without regeneration (the binary form is ~6x smaller than the
// text TaN edge list and keeps amounts/owners, which the TaN format drops).
//
// Format: magic "OPTX", u32 version, varint count, then per transaction
// (dense indices implied):
//   varint n_inputs  { varint tx, varint vout }*
//   varint n_outputs { varint value, varint owner }*
// All varints are LEB128. Amounts are non-negative by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "txmodel/transaction.hpp"

namespace optchain::tx {

/// Appends the LEB128 encoding of `value` to `out`.
void write_varint(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Reads a LEB128 varint from data[offset...]; advances offset. Throws
/// std::runtime_error on truncation or >64-bit encodings.
std::uint64_t read_varint(std::span<const std::uint8_t> data,
                          std::size_t& offset);

/// Appends the per-transaction encoding (varint n_inputs {tx, vout}*,
/// varint n_outputs {value, owner}*) to `out`. The transaction's index is
/// implied by stream position, never stored. This is the shared body codec
/// of the flat OPTX v1 stream and the chunked OPTX v2 trace container
/// (src/trace).
void encode_transaction(std::vector<std::uint8_t>& out,
                        const Transaction& transaction);

/// Decodes one transaction from data[offset...] into `out`, assigning it
/// `index` and advancing `offset`. Throws std::runtime_error on truncation,
/// a forward/self input reference (inputs must name transactions with a
/// smaller index), an input or output count larger than the remaining bytes
/// can hold, or a vout, value or owner outside its field's range.
void decode_transaction(std::span<const std::uint8_t> data,
                        std::size_t& offset, TxIndex index, Transaction& out);

/// Serializes the stream (indices must be dense, 0..n-1).
std::vector<std::uint8_t> encode_transactions(
    std::span<const Transaction> transactions);

/// Parses a stream produced by encode_transactions. Throws
/// std::runtime_error on malformed input (bad magic/version, truncation,
/// forward references, counts or fields out of range); allocation stays
/// bounded by the input's size.
std::vector<Transaction> decode_transactions(
    std::span<const std::uint8_t> data);

/// File convenience wrappers.
void save_transactions(std::span<const Transaction> transactions,
                       const std::string& path);
std::vector<Transaction> load_transactions(const std::string& path);

}  // namespace optchain::tx
