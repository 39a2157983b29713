// Tests for the binary transaction-stream codec, including the OPTX v1 →
// v2 migration contract: flat v1 files written by save_transactions stay
// readable through the streaming trace::TraceReader / trace::TraceTxSource
// path that replaced the fully-materializing decode in the CLI.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "trace/trace_reader.hpp"
#include "trace/trace_source.hpp"
#include "txmodel/serialization.hpp"
#include "workload/account_workload.hpp"
#include "workload/bitcoin_like_generator.hpp"
#include "workload/tx_source.hpp"

namespace optchain::tx {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  for (const std::uint64_t value :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xffffffffULL,
        0xffffffffffffffffULL}) {
    std::vector<std::uint8_t> buffer;
    write_varint(buffer, value);
    std::size_t offset = 0;
    EXPECT_EQ(read_varint(buffer, offset), value);
    EXPECT_EQ(offset, buffer.size());
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> buffer;
  write_varint(buffer, 100);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(VarintTest, TruncationThrows) {
  std::vector<std::uint8_t> buffer;
  write_varint(buffer, 1ULL << 40);
  buffer.pop_back();
  std::size_t offset = 0;
  EXPECT_THROW(read_varint(buffer, offset), std::runtime_error);
}

TEST(SerializationTest, RoundTripGeneratedStream) {
  workload::BitcoinLikeGenerator generator({}, 21);
  const auto original = generator.generate(5000);
  const auto encoded = encode_transactions(original);
  const auto decoded = decode_transactions(encoded);
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i].index, original[i].index);
    EXPECT_EQ(decoded[i].inputs, original[i].inputs);
    EXPECT_EQ(decoded[i].outputs, original[i].outputs);
    EXPECT_EQ(decoded[i].txid(), original[i].txid());
  }
}

TEST(SerializationTest, RoundTripAccountStream) {
  workload::AccountWorkloadGenerator generator({}, 23);
  const auto original = generator.generate(3000);
  const auto decoded = decode_transactions(encode_transactions(original));
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i].txid(), original[i].txid());
  }
}

TEST(SerializationTest, EmptyStream) {
  const auto decoded =
      decode_transactions(encode_transactions(std::vector<Transaction>{}));
  EXPECT_TRUE(decoded.empty());
}

TEST(SerializationTest, BadMagicThrows) {
  std::vector<std::uint8_t> bogus = {'N', 'O', 'P', 'E', 1, 0};
  EXPECT_THROW(decode_transactions(bogus), std::runtime_error);
}

TEST(SerializationTest, TruncatedPayloadThrows) {
  workload::BitcoinLikeGenerator generator({}, 25);
  auto encoded = encode_transactions(generator.generate(100));
  encoded.resize(encoded.size() / 2);
  EXPECT_THROW(decode_transactions(encoded), std::runtime_error);
}

TEST(SerializationTest, TrailingBytesThrow) {
  workload::BitcoinLikeGenerator generator({}, 27);
  auto encoded = encode_transactions(generator.generate(50));
  encoded.push_back(0);
  EXPECT_THROW(decode_transactions(encoded), std::runtime_error);
}

TEST(SerializationTest, ForwardReferenceRejected) {
  // Hand-build: 1 transaction whose input references itself.
  std::vector<std::uint8_t> data = {'O', 'P', 'T', 'X'};
  write_varint(data, 1);  // version
  write_varint(data, 1);  // count
  write_varint(data, 1);  // n_inputs
  write_varint(data, 0);  // input tx 0 == own index -> invalid
  write_varint(data, 0);  // vout
  write_varint(data, 0);  // n_outputs
  EXPECT_THROW(decode_transactions(data), std::runtime_error);
}

// Hostile sizes: every count read from the data is bounded by the bytes
// left before anything is reserved, and every field that is narrowed must
// fit its type. Each case throws the codec's std::runtime_error — not
// std::bad_alloc or std::length_error, and not a silent truncation.

TEST(SerializationHostileInputTest, InputCountLargerThanDataThrows) {
  for (const std::uint64_t n_inputs : {1ULL << 35, 1ULL << 62}) {
    std::vector<std::uint8_t> data;
    write_varint(data, n_inputs);  // 6 and 9 bytes, nothing after
    std::size_t offset = 0;
    Transaction out;
    EXPECT_THROW(decode_transaction(data, offset, 1, out), std::runtime_error)
        << n_inputs;
  }
}

TEST(SerializationHostileInputTest, OutputCountLargerThanDataThrows) {
  std::vector<std::uint8_t> data;
  write_varint(data, 0);  // n_inputs
  write_varint(data, 1ULL << 35);
  std::size_t offset = 0;
  Transaction out;
  EXPECT_THROW(decode_transaction(data, offset, 0, out), std::runtime_error);
}

TEST(SerializationHostileInputTest, TransactionCountLargerThanFileThrows) {
  std::vector<std::uint8_t> data = {'O', 'P', 'T', 'X'};
  write_varint(data, 1);          // version
  write_varint(data, 1ULL << 40);  // count; the 11-byte file ends here
  ASSERT_EQ(data.size(), 11u);
  EXPECT_THROW(decode_transactions(data), std::runtime_error);
}

TEST(SerializationHostileInputTest, OutOfRangeFieldsThrow) {
  const auto one_tx = [](std::uint64_t vout, std::uint64_t value,
                         std::uint64_t owner) {
    std::vector<std::uint8_t> data;
    write_varint(data, 1);  // n_inputs
    write_varint(data, 0);  // input tx
    write_varint(data, vout);
    write_varint(data, 1);  // n_outputs
    write_varint(data, value);
    write_varint(data, owner);
    return data;
  };
  const auto decode = [](const std::vector<std::uint8_t>& data) {
    std::size_t offset = 0;
    Transaction out;
    decode_transaction(data, offset, 1, out);
    return out;
  };
  // The largest in-range values still decode exactly.
  const Transaction max_fields =
      decode(one_tx(0xffffffffULL, (1ULL << 63) - 1, 0xffffffffULL));
  EXPECT_EQ(max_fields.inputs[0].vout, 0xffffffffu);
  EXPECT_EQ(max_fields.outputs[0].value, std::numeric_limits<Amount>::max());
  EXPECT_EQ(max_fields.outputs[0].owner, 0xffffffffu);

  EXPECT_THROW(decode(one_tx((1ULL << 32) + 1, 5, 7)), std::runtime_error);
  EXPECT_THROW(decode(one_tx(0, 1ULL << 63, 7)), std::runtime_error);
  EXPECT_THROW(decode(one_tx(0, 5, 1ULL << 32)), std::runtime_error);
}

class SerializationFileTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       "optchain_codec_test.bin")
                          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializationFileTest, SaveAndLoad) {
  workload::BitcoinLikeGenerator generator({}, 29);
  const auto original = generator.generate(2000);
  save_transactions(original, path_);
  const auto loaded = load_transactions(path_);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].txid(), original[i].txid());
  }
}

TEST_F(SerializationFileTest, MissingFileThrows) {
  EXPECT_THROW(load_transactions("/nonexistent/stream.bin"),
               std::runtime_error);
}

TEST_F(SerializationFileTest, V1FileStreamsThroughTraceReader) {
  // Migration: a flat OPTX v1 file is readable through the streaming trace
  // layer and yields the exact decode_transactions stream.
  workload::BitcoinLikeGenerator generator({}, 33);
  const auto original = generator.generate(1500);
  save_transactions(original, path_);

  trace::TraceReader reader(path_);
  EXPECT_EQ(reader.version(), 1u);
  EXPECT_EQ(reader.size(), original.size());
  EXPECT_EQ(reader.num_chunks(), 0u);  // flat stream: no chunk index
  Transaction transaction;
  for (const Transaction& expected : original) {
    ASSERT_TRUE(reader.next(transaction)) << "tx " << expected.index;
    EXPECT_EQ(transaction.index, expected.index);
    EXPECT_EQ(transaction.inputs, expected.inputs);
    EXPECT_EQ(transaction.outputs, expected.outputs);
  }
  EXPECT_FALSE(reader.next(transaction));
}

TEST_F(SerializationFileTest, V1TrailingGarbageFailsStreamedReplay) {
  // decode_transactions rejects trailing bytes; the streaming reader must
  // keep that guarantee — a bit-rotted count or appended garbage fails
  // loudly instead of replaying a silently truncated stream.
  workload::BitcoinLikeGenerator generator({}, 37);
  const auto original = generator.generate(100);
  save_transactions(original, path_);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  trace::TraceReader reader(path_);
  Transaction transaction;
  EXPECT_THROW(
      {
        while (reader.next(transaction)) {
        }
      },
      std::runtime_error);
}

TEST_F(SerializationFileTest, V1WindowedReplayDecodeSkips) {
  // v1 has no index, so a window costs a decode-skip — but it must land on
  // exactly the same boundary-policy stream a v2 window produces.
  workload::BitcoinLikeGenerator generator({}, 35);
  const auto original = generator.generate(800);
  save_transactions(original, path_);

  trace::TraceTxSource window(path_, 300, 500);
  ASSERT_TRUE(window.size_hint().has_value());
  EXPECT_EQ(*window.size_hint(), 200u);
  const auto replayed = workload::materialize(window);
  ASSERT_EQ(replayed.size(), 200u);
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const Transaction& full = original[300 + i];
    EXPECT_EQ(replayed[i].index, i);
    EXPECT_EQ(replayed[i].outputs, full.outputs);
    for (const OutPoint& in : replayed[i].inputs) {
      EXPECT_LT(in.tx, replayed[i].index);  // re-indexed, in-window only
    }
  }
}

TEST(SerializationTest, CompactnessVsText) {
  // The binary form should be a small multiple of the information content:
  // well under 20 bytes per transaction for typical streams.
  workload::BitcoinLikeGenerator generator({}, 31);
  const auto txs = generator.generate(10000);
  const auto encoded = encode_transactions(txs);
  EXPECT_LT(encoded.size(), txs.size() * 24);
}

}  // namespace
}  // namespace optchain::tx
