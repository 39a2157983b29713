// Per-shard deterministic spawn streams.
//
// Creating a shard samples randomness twice: the leader's position and the
// committee geography behind its ConsensusModel. Historically both draws
// came from the simulation's one shared Rng, which made every shard's
// timing depend on the *global draw order* — a latent trap for any change
// that reorders spawns. Each shard now owns a derived stream: seed =
// mix64(sim_seed ⊕ mix64(salt + shard_id)), so shard s's geography is a
// pure function of (sim_seed, s) no matter which churn schedule creates it.
// The streams stay because the goldens and the fingerprints in
// tests/sim_fingerprint_test.cpp pin the draws they produce.
//
// The client's own position stays on the undivided Rng(sim_seed) stream:
// there is exactly one client, drawn before any shard.
#pragma once

#include <cstdint>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "sim/consensus.hpp"
#include "sim/network.hpp"

namespace optchain::sim {

/// Seed of shard `shard`'s private spawn stream under simulation seed
/// `sim_seed`. The double mix decorrelates neighbouring shard ids and keeps
/// the stream disjoint from the client stream (raw Rng(sim_seed)) and the
/// per-shard fault streams (ShardNode's 0x51a4d0000-salted mix).
inline std::uint64_t shard_spawn_seed(std::uint64_t sim_seed,
                                      std::uint32_t shard) noexcept {
  constexpr std::uint64_t kSpawnSalt = 0x5a17c0deULL;
  return mix64(sim_seed ^ mix64(kSpawnSalt + shard));
}

/// Everything a spawn samples: the leader's position and the consensus
/// timing model built around it.
struct SpawnedShard {
  Position leader_position;
  ConsensusModel model;
};

/// Samples shard `shard`'s leader position and consensus model from its
/// private spawn stream (see the file comment). A positive
/// `bandwidth_override_bps` makes block dissemination pay that access-link
/// rate instead of the network model's bandwidth (the fabric hook — see
/// ConsensusModel); 0 keeps the historical term. The override is pure
/// config, so it adds no draw.
inline SpawnedShard spawn_shard(const ConsensusConfig& consensus,
                                const NetworkModel& network,
                                std::uint64_t sim_seed, std::uint32_t shard,
                                double bandwidth_override_bps = 0.0) {
  Rng rng(shard_spawn_seed(sim_seed, shard));
  const Position leader = network.random_position(rng);
  ConsensusModel model(consensus, network, leader, rng,
                       bandwidth_override_bps);
  return SpawnedShard{leader, std::move(model)};
}

}  // namespace optchain::sim
