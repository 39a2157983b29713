// OTRC v1 — the chunk-indexed binary run-trace container (src/obs).
//
// A .otrace file is the per-run lifecycle record stream obs::RunTracer
// writes: every SimObserver callback of a run (issue, commit, abort, block
// commit, queue/link samples, churn, re-partition), in simulated-time
// dispatch order, encoded one record at a time. The framing — header,
// independently-checksummed chunk frames, footer index, fixed 12-byte
// trailer — is the shared chunk container (common/chunk_container.hpp)
// that OPTX v2 traces use too: O(chunk) memory at both ends and per-chunk
// corruption detection. What is OTRC's own: the magic "OTRC", the trailer
// magic "CRTO", version 1, and the record codec below (all varints LEB128;
// f64 = 8-byte little-endian IEEE-754 bits).
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

#include <cstdint>

#include "common/chunk_container.hpp"

namespace optchain::obs {

/// File magic of every .otrace container ("OTRC").
inline constexpr std::uint8_t kOtraceMagic[4] = {'O', 'T', 'R', 'C'};
/// Magic closing the fixed-size trailer ("CRTO" — OTRC reversed).
inline constexpr std::uint8_t kOtraceTrailerMagic[4] = {'C', 'R', 'T', 'O'};
/// The container version this module writes.
inline constexpr std::uint32_t kOtraceVersion = 1;
/// Default records per chunk: small records (~10-25 B), so 64k records keep
/// chunks around a megabyte and the footer index negligible.
inline constexpr std::uint32_t kOtraceDefaultChunkCapacity = 65536;
/// OTRC as a chunked format (no flat predecessor).
inline constexpr ChunkFormat kOtraceFormat{kOtraceMagic, kOtraceTrailerMagic,
                                           kOtraceVersion};

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

}  // namespace optchain::obs
