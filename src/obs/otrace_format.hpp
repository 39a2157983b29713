// OTRC v1 — the chunk-indexed binary run-trace container (src/obs).
//
// A .otrace file is the per-run lifecycle record stream obs::RunTracer
// writes: every SimObserver callback of a run (issue, commit, abort, block
// commit, queue/link samples, churn, re-partition), in simulated-time
// dispatch order, encoded one record at a time. The container framing is
// the OPTX v2 idiom (src/trace/trace_format.hpp) applied to records instead
// of transactions: LEB128 varints, independently-checksummed chunk frames,
// a footer index, and a fixed 12-byte trailer — O(chunk) memory at both
// ends and per-chunk corruption detection.
//
// Layout (all varints LEB128; f64 = 8-byte little-endian IEEE-754 bits):
//
//   header   "OTRC" magic, varint version = 1, varint chunk_capacity
//   chunk*   varint count            records in this chunk (>= 1)
//            varint payload_bytes
//            payload                 `count` records (codec below)
//            varint checksum         FNV-1a 64 over the payload bytes
//   footer   varint n_chunks, then per chunk
//            { varint file_offset, varint first_index, varint count },
//            varint total_records
//   trailer  u64 LE footer file offset, "CRTO" magic   (12 bytes, fixed)
//
// Record codec — u8 type tag, then per type:
//
//   kIssue        varint tx, f64 time, u8 cross
//   kCommit       varint tx, f64 time, f64 latency_s
//   kAbort        varint tx, f64 time
//   kBlock        varint shard, f64 time
//   kQueueSample  f64 time, varint n, varint queue[n]
//   kLinkSample   f64 time, varint n,
//                 { varint endpoint, f64 backlog_s, varint drops }[n]
//   kShardChange  varint shard, f64 time, u8 joined,
//                 varint migrated_txs, varint migrated_utxos
//   kRepartition  f64 time, varint migrated_txs, varint migrated_utxos,
//                 varint deferred_txs
//
// Every field is simulated-time data: trace content is a pure function of
// the run's seeds (determinism rule 9). No wall-clock value is ever encoded.
#pragma once

#include <cstddef>
#include <cstdint>

namespace optchain::obs {

/// File magic of every .otrace container ("OTRC").
inline constexpr std::uint8_t kOtraceMagic[4] = {'O', 'T', 'R', 'C'};
/// Magic closing the fixed-size trailer ("CRTO" — OTRC reversed).
inline constexpr std::uint8_t kOtraceTrailerMagic[4] = {'C', 'R', 'T', 'O'};
/// The container version this module writes.
inline constexpr std::uint32_t kOtraceVersion = 1;
/// Trailer size: u64 LE footer offset + 4-byte trailer magic.
inline constexpr std::size_t kOtraceTrailerBytes = 12;
/// Default records per chunk: small records (~10-25 B), so 64k records keep
/// chunks around a megabyte and the footer index negligible.
inline constexpr std::uint32_t kOtraceDefaultChunkCapacity = 65536;

/// Record type tags (the codec's u8 discriminator). Values are part of the
/// on-disk format — append only, never renumber.
enum class TraceRecordType : std::uint8_t {
  kIssue = 1,        ///< transaction entered the system
  kCommit = 2,       ///< transaction committed (span close)
  kAbort = 3,        ///< transaction aborted (span close)
  kBlock = 4,        ///< one shard committed a block
  kQueueSample = 5,  ///< periodic per-shard queue sizes
  kLinkSample = 6,   ///< periodic per-endpoint fabric backlog/drops
  kShardChange = 7,  ///< churn: shard joined or retired
  kRepartition = 8,  ///< online re-partition tick applied
};

/// One footer-index entry: where a chunk lives and what it holds.
struct OtraceChunkInfo {
  std::uint64_t offset = 0;       ///< file offset of the chunk frame
  std::uint64_t first_index = 0;  ///< absolute index of the first record
  std::uint64_t count = 0;        ///< records in the chunk
};

}  // namespace optchain::obs
