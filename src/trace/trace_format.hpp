// OPTX v2 — the chunk-indexed binary trace container (src/trace).
//
// The flat OPTX v1 stream (txmodel/serialization.hpp) must be decoded front
// to back and materialized whole; v2 keeps the same per-transaction body
// codec but frames it into independently-decodable chunks and appends a
// footer index, so any window of a multi-million-transaction trace opens in
// O(1) seeks without touching the prefix.
//
// The framing — header, checksummed chunk frames, footer index, 12-byte
// trailer — is the shared chunk container (common/chunk_container.hpp),
// which .otrace run traces use too. What is OPTX's own:
//
//   magic    "OPTX" (shared with flat v1), trailer magic "XTPO"
//   version  2 (a version-1 file is the flat v1 stream)
//   record   one transaction in the v1 per-tx body codec
//            (tx::encode_transaction); indices are implied dense from the
//            chunk's first_index, parent references are absolute trace
//            indices
//
// A reader binary-searches the chunk index for any transaction index and
// verifies each chunk's checksum as it loads — corruption anywhere in a
// chunk is caught before a single damaged transaction escapes, and
// corruption outside the replayed window is never even read.
#pragma once

#include <cstdint>

#include "common/chunk_container.hpp"

namespace optchain::trace {

/// Shared file magic of every OPTX container ("OPTX", v1 and v2 alike).
inline constexpr std::uint8_t kMagic[4] = {'O', 'P', 'T', 'X'};
/// Magic closing the fixed-size v2 trailer ("XTPO" — OPTX reversed).
inline constexpr std::uint8_t kTrailerMagic[4] = {'X', 'T', 'P', 'O'};
/// The chunk-indexed container version this module writes.
inline constexpr std::uint32_t kTraceVersion = 2;
/// Default transactions per chunk: large enough that the footer index is
/// negligible (~24 B per 64k transactions), small enough that a windowed
/// seek decodes at most one unwanted chunk prefix.
inline constexpr std::uint32_t kDefaultChunkCapacity = 65536;
/// OPTX as a chunked format: v2 framed, v1 flat under the same magic.
inline constexpr ChunkFormat kTraceFormat{kMagic, kTrailerMagic,
                                          kTraceVersion, /*flat_version=*/1};

}  // namespace optchain::trace
