// LinkFabric — the runtime behind FabricConfig: per-endpoint access links
// with busy-until serialization state, geo-region propagation tiers,
// deterministic jitter streams and tail-drop/retransmit accounting.
//
// Model. Every protocol participant is an *endpoint* (the simulators use
// endpoint 0 for the client and 1 + s for shard s's leader; the tree-gossip
// validator builds one endpoint per tree node). Each endpoint owns an uplink
// with `LinkConfig::bandwidth_bps` of serialization capacity and, when
// `queue_bytes > 0`, a finite FIFO measured by the bytes still waiting to
// serialize. Delivering a message of b bytes sent at time t:
//
//   wait  = max(0, uplink busy-until − t)         (queueing behind earlier
//                                                  sends on the same uplink)
//   drop  if wait × bandwidth / 8 > queue_bytes:  tail drop; retry the whole
//                                                  computation at
//                                                  t + retransmit_timeout_s
//   ser   = b × 8 / bandwidth                     (serialization)
//   prop  = region-tier base + distance term      (+ straggler extras)
//   jit   = uniform draw from the directed pair's counter stream
//   delay = wait + ser + prop + jit               (and busy-until ← t + wait
//                                                  + ser)
//
// Determinism. All mutable state (busy-until, jitter counters, counters in
// Stats) advances only inside message_delay(), which the engine calls in
// event dispatch order, so a fabric run is a pure function of its seeds.
// Region and straggler membership are pure functions of (sim_seed, endpoint
// id), never of spawn order. propagation_delay() is stateless and draw-free:
// the placement pipeline's timing view reads it without perturbing delivery.
//
// Flat identity. A disabled fabric delegates wholly to the borrowed flat
// NetworkModel. An *enabled* degenerate fabric (one region at the flat
// operating point, queue_bytes == 0, zero jitter, no stragglers) computes
// its delays through an internal NetworkModel configured with the tier
// latency — the same code path, hence bit-identical doubles; adding the
// zero-valued jitter/straggler terms is exact in IEEE arithmetic.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/fabric/fabric_config.hpp"
#include "sim/network.hpp"
#include "sim/sim_observer.hpp"

namespace optchain::sim {

/// The link-level fabric runtime; see the file comment for the model and the
/// determinism contract.
class LinkFabric {
 public:
  /// Cumulative delivery accounting, copied into SimResult at run end.
  struct Stats {
    std::uint64_t messages = 0;     ///< deliveries (successful sends)
    std::uint64_t bytes = 0;        ///< payload bytes delivered
    std::uint64_t drops = 0;        ///< tail drops (each later retransmitted)
    double queue_delay_s = 0.0;     ///< total time spent queued (drops incl.)
    double peak_backlog_s = 0.0;    ///< deepest uplink backlog ever, seconds
  };

  /// `flat` is the borrowed flat model (delegation target when disabled; it
  /// must outlive the fabric). `sim_seed` seeds region/straggler membership
  /// and the per-pair jitter streams. Throws std::invalid_argument on an
  /// invalid config (FabricConfig::validate()).
  LinkFabric(const FabricConfig& config, const NetworkModel& flat,
             std::uint64_t sim_seed);

  /// Registers the next endpoint; ids are dense from 0 in call order.
  std::uint32_t add_endpoint();

  bool enabled() const noexcept { return config_.enabled; }
  std::uint32_t num_endpoints() const noexcept {
    return static_cast<std::uint32_t>(endpoints_.size());
  }

  /// Stateful delivery delay of `bytes` from endpoint `from` (at position
  /// `from_pos`) to endpoint `to` (at `to_pos`), sent at time `now`.
  /// Advances the sender's uplink and the pair's jitter stream — call in
  /// dispatch order only.
  double message_delay(double now, std::uint32_t from, std::uint32_t to,
                       const Position& from_pos, const Position& to_pos,
                       std::uint64_t bytes);

  /// Stateless one-way propagation between two endpoints: region-tier base +
  /// distance term + straggler extras. No jitter, no queueing, no draws —
  /// the client's timing view (placement L2S term) reads this.
  double propagation_delay(std::uint32_t from, std::uint32_t to,
                           const Position& from_pos,
                           const Position& to_pos) const;

  /// Region of endpoint `ep`: mix64-derived from (sim_seed, ep), uniform
  /// over [0, regions).
  std::uint32_t region_of(std::uint32_t ep) const noexcept;
  /// Straggler membership of endpoint `ep`, same derivation scheme.
  bool is_straggler(std::uint32_t ep) const noexcept;

  const Stats& stats() const noexcept { return stats_; }

  /// Appends one LinkSample per endpoint (uplink backlog at `now`,
  /// cumulative drops) — the payload of SimObserver::on_link_sample.
  void sample_links(double now, std::vector<LinkSample>& out) const;

  /// Clears all per-run state (busy-until, jitter counters, stats); endpoint
  /// registrations survive. Engines call this at the top of run().
  void reset_state();

 private:
  struct Endpoint {
    double busy_until = 0.0;   ///< uplink serialization frontier
    std::uint64_t drops = 0;   ///< cumulative tail drops on this uplink
  };

  double jitter(std::uint32_t from, std::uint32_t to);

  FabricConfig config_;
  const NetworkModel* flat_;
  std::uint64_t sim_seed_;
  /// Tier models: the same NetworkModel arithmetic as the flat path, with
  /// the tier latency as base — what makes the degenerate fabric
  /// bit-identical to the flat model (see the file comment).
  NetworkModel intra_;
  NetworkModel inter_;
  std::vector<Endpoint> endpoints_;
  /// Per-directed-pair jitter stream positions, keyed (from << 32) | to.
  std::unordered_map<std::uint64_t, std::uint64_t> jitter_counters_;
  Stats stats_;
};

}  // namespace optchain::sim
