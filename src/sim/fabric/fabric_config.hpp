// FabricConfig — declarative description of a link-level network fabric.
//
// The paper's evaluation (§V.A) models the network as one flat latency plus
// a single shared bandwidth figure; sim::NetworkModel is exactly that. The
// fabric generalizes the model to geo-region topologies (every endpoint is
// assigned a region; intra- and inter-region links carry different base
// latencies), per-access-link bandwidth with a finite FIFO queue (concurrent
// senders genuinely congest a shared uplink; overflow is tail-dropped and
// retransmitted), bounded per-link jitter, and optional straggler endpoints.
// The degenerate configuration — one region whose tier latency equals the
// flat base latency, an unconstrained (queue_bytes == 0) link at the flat
// bandwidth, zero jitter, no stragglers — is bit-identical to NetworkModel,
// and `enabled == false` (the default) bypasses the fabric entirely, so
// every historical golden is reproduced untouched.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/network.hpp"

namespace optchain::sim {

/// Per-access-link properties: the bandwidth cap of an endpoint's uplink and
/// the byte capacity of its FIFO send queue.
struct LinkConfig {
  /// Serialization bandwidth of every access link (bits per second). Must be
  /// positive; FabricConfig::validate() rejects anything else.
  double bandwidth_bps = 20e6;
  /// FIFO queue capacity in bytes. 0 = unconstrained: serialization is paid
  /// but concurrent sends never queue behind each other (the stateless
  /// NetworkModel behaviour, kept for the bit-identical flat configuration).
  /// > 0 = real contention: a send finding more than `queue_bytes` of
  /// earlier traffic still waiting is tail-dropped and retransmitted after
  /// FabricConfig::retransmit_timeout_s.
  std::uint64_t queue_bytes = 0;
};

/// The whole fabric description. Plain aggregate — fill the fields (or start
/// from fabric_preset()) and hand it to api::RunSpec::fabric /
/// sim::SimConfig::fabric. See the file comment for the model.
struct FabricConfig {
  /// Master switch. false (the default) routes every delivery through the
  /// flat sim::NetworkModel unchanged — the fabric adds no state, no extra
  /// draws, and no new observer callbacks.
  bool enabled = false;

  /// Number of geo-regions. Every endpoint (the client and each shard
  /// leader) is assigned a region as a pure function of (sim_seed,
  /// endpoint id) — spawn-order independent.
  std::uint32_t regions = 1;
  /// Base one-way latency of links within one region (seconds).
  double intra_region_latency_s = 0.100;
  /// Base one-way latency of links crossing regions (seconds). Unused when
  /// regions == 1.
  double inter_region_latency_s = 0.150;
  /// Distance-dependent extra latency, corner-to-corner on the unit square —
  /// the same normalization as NetworkConfig::max_distance_latency_s.
  double max_distance_latency_s = 0.050;

  /// Upper bound of the uniform per-message jitter (seconds). Each directed
  /// endpoint pair owns a counter-based RNG stream seeded from (sim_seed,
  /// pair), advanced once per delivered message in dispatch order, so the
  /// draws are a pure function of the seeds. 0 = no jitter (and no draws).
  double max_jitter_s = 0.0;

  /// Access-link bandwidth and queueing (see LinkConfig).
  LinkConfig link;

  /// Fraction of endpoints designated stragglers — again a pure function of
  /// (sim_seed, endpoint id). Every message touching a straggler endpoint
  /// pays `straggler_extra_s` more propagation per straggler end.
  double straggler_fraction = 0.0;
  /// Extra one-way propagation paid per straggler endpoint on a link.
  double straggler_extra_s = 0.0;

  /// Retransmit back-off after a tail drop (seconds). A dropped send retries
  /// from `send time + retransmit_timeout_s`; each wait drains
  /// timeout × bandwidth / 8 bytes of backlog, so delivery always
  /// terminates. Must be positive when link.queue_bytes > 0.
  double retransmit_timeout_s = 1.0;

  /// Rejects non-physical configurations with std::invalid_argument:
  /// non-positive (or NaN) link bandwidth, zero regions, negative (or NaN)
  /// latency / jitter / straggler terms, a straggler fraction outside
  /// [0, 1], or a finite queue without a positive retransmit timeout. A
  /// disabled config is checked too, so a nonsense knob is reported rather
  /// than silently ignored. The flat NetworkModel applies the same
  /// bandwidth check at construction.
  void validate() const;
};

/// Named fabric shapes, the CLI/bench vocabulary:
///   "off" (or "")  disabled fabric — the flat NetworkModel path.
///   "flat"         enabled but degenerate: one region at the flat 100 ms /
///                  50 ms / 20 Mbps operating point, unconstrained queue,
///                  zero jitter — bit-identical to "off" (pinned in
///                  tests/fabric_test.cpp).
///   "wan"          4 regions, 30 ms intra / 180 ms inter, 20 Mbps uplinks
///                  with 256 KiB queues, 10 ms jitter.
///   "congested"    4 regions, 30 ms intra / 180 ms inter, 5 Mbps uplinks
///                  with 64 KiB queues, 10 ms jitter, 10 % stragglers
///                  +100 ms.
/// Throws std::invalid_argument for any other name.
FabricConfig fabric_preset(std::string_view name);

}  // namespace optchain::sim
