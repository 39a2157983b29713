#include "txmodel/serialization.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/assert.hpp"

namespace optchain::tx {
namespace {

constexpr std::uint8_t kMagic[4] = {'O', 'P', 'T', 'X'};
constexpr std::uint32_t kVersion = 1;

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("transaction codec: ") + what);
}

// Every input, output and transaction encodes as at least two one-byte
// varints, so a count read from the data can never exceed the bytes left
// divided by two. Checking that before reserving bounds every allocation by
// the input's size.
std::uint64_t read_count(std::span<const std::uint8_t> data,
                         std::size_t& offset, const char* what) {
  const std::uint64_t count = read_varint(data, offset);
  if (count > (data.size() - offset) / 2) fail(what);
  return count;
}

}  // namespace

void write_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t read_varint(std::span<const std::uint8_t> data,
                          std::size_t& offset) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (offset >= data.size()) fail("truncated varint");
    if (shift >= 64) fail("varint overflow");
    const std::uint8_t byte = data[offset++];
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

void encode_transaction(std::vector<std::uint8_t>& out,
                        const Transaction& transaction) {
  write_varint(out, transaction.inputs.size());
  for (const OutPoint& in : transaction.inputs) {
    write_varint(out, in.tx);
    write_varint(out, in.vout);
  }
  write_varint(out, transaction.outputs.size());
  for (const TxOut& txo : transaction.outputs) {
    OPTCHAIN_EXPECTS(txo.value >= 0);
    write_varint(out, static_cast<std::uint64_t>(txo.value));
    write_varint(out, txo.owner);
  }
}

void decode_transaction(std::span<const std::uint8_t> data,
                        std::size_t& offset, TxIndex index, Transaction& out) {
  out.index = index;
  out.inputs.clear();
  out.outputs.clear();
  const std::uint64_t n_inputs =
      read_count(data, offset, "input count exceeds remaining bytes");
  out.inputs.reserve(n_inputs);
  for (std::uint64_t j = 0; j < n_inputs; ++j) {
    OutPoint point;
    const std::uint64_t referenced = read_varint(data, offset);
    if (referenced >= index) fail("forward/self input reference");
    point.tx = static_cast<TxIndex>(referenced);
    const std::uint64_t vout = read_varint(data, offset);
    if (vout > std::numeric_limits<std::uint32_t>::max()) {
      fail("output index out of range");
    }
    point.vout = static_cast<std::uint32_t>(vout);
    out.inputs.push_back(point);
  }
  const std::uint64_t n_outputs =
      read_count(data, offset, "output count exceeds remaining bytes");
  out.outputs.reserve(n_outputs);
  for (std::uint64_t j = 0; j < n_outputs; ++j) {
    TxOut txo;
    const std::uint64_t value = read_varint(data, offset);
    if (value >
        static_cast<std::uint64_t>(std::numeric_limits<Amount>::max())) {
      fail("output value out of range");
    }
    txo.value = static_cast<Amount>(value);
    const std::uint64_t owner = read_varint(data, offset);
    if (owner > std::numeric_limits<WalletId>::max()) {
      fail("output owner out of range");
    }
    txo.owner = static_cast<WalletId>(owner);
    out.outputs.push_back(txo);
  }
}

std::vector<std::uint8_t> encode_transactions(
    std::span<const Transaction> transactions) {
  std::vector<std::uint8_t> out;
  out.reserve(transactions.size() * 16 + 16);
  // Byte-wise append (not range insert): GCC 12's -O2 stringop-overflow
  // analysis false-positives on inserting a 4-byte array here.
  for (const std::uint8_t byte : kMagic) out.push_back(byte);
  write_varint(out, kVersion);
  write_varint(out, transactions.size());
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    const Transaction& transaction = transactions[i];
    OPTCHAIN_EXPECTS(transaction.index == i);  // dense
    encode_transaction(out, transaction);
  }
  return out;
}

std::vector<Transaction> decode_transactions(
    std::span<const std::uint8_t> data) {
  if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0) {
    fail("bad magic");
  }
  std::size_t offset = 4;
  if (read_varint(data, offset) != kVersion) fail("unsupported version");
  const std::uint64_t count =
      read_count(data, offset, "transaction count exceeds remaining bytes");

  std::vector<Transaction> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Transaction transaction;
    decode_transaction(data, offset, static_cast<TxIndex>(i), transaction);
    out.push_back(std::move(transaction));
  }
  if (offset != data.size()) fail("trailing bytes");
  return out;
}

void save_transactions(std::span<const Transaction> transactions,
                       const std::string& path) {
  const std::vector<std::uint8_t> encoded = encode_transactions(transactions);
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open file for writing");
  out.write(reinterpret_cast<const char*>(encoded.data()),
            static_cast<std::streamsize>(encoded.size()));
  if (!out) fail("write failed");
}

std::vector<Transaction> load_transactions(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail("cannot open file for reading");
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) fail("read failed");
  return decode_transactions(data);
}

}  // namespace optchain::tx
