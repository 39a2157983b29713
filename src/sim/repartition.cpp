#include "sim/repartition.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "common/assert.hpp"
#include "graph/csr.hpp"
#include "graph/dag.hpp"
#include "metis/kway_partitioner.hpp"
#include "placement/shard_assignment.hpp"

namespace optchain::sim {

void RepartitionConfig::validate() const {
  if (!(interval_s >= 0.0)) {
    throw std::invalid_argument(
        "repartition: interval_s must be >= 0 (0 disables)");
  }
}

RepartitionController::RepartitionController(const RepartitionConfig& config)
    : config_(config) {
  config_.validate();
  OPTCHAIN_EXPECTS(config_.enabled());
}

void RepartitionController::compute_plan(
    const api::PlacementPipeline& pipeline) {
  plan_.clear();
  cursor_ = 0;
  const placement::ShardAssignment& assignment = pipeline.assignment();
  const graph::TanDag& dag = pipeline.dag();
  const std::uint64_t total = assignment.total();
  const std::uint32_t parts_k = assignment.active_count();
  if (parts_k < 2 || total < 2) return;
  const std::uint64_t begin =
      (config_.window == 0 || total <= config_.window) ? 0
                                                       : total - config_.window;
  const std::uint64_t count = total - begin;
  if (count < 2) return;

  // The snapshot graph: the undirected TaN restricted to [begin, total).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint64_t u = begin; u < total; ++u) {
    for (const std::uint32_t v : dag.inputs(static_cast<std::uint32_t>(u))) {
      if (v < begin) continue;
      const auto lu = static_cast<std::uint32_t>(u - begin);
      const auto lv = static_cast<std::uint32_t>(v - begin);
      edges.emplace_back(lu, lv);
      edges.emplace_back(lv, lu);
    }
  }
  const graph::Csr csr =
      graph::Csr::from_edges(static_cast<std::size_t>(count), edges);

  metis::PartitionConfig metis_config;
  metis_config.k = parts_k;
  metis_config.seed = config_.seed;
  const std::vector<std::uint32_t> parts =
      metis::partition_kway(csr, metis_config);

  // Relabel: give each Metis part the active shard it overlaps most. Greedy
  // maximum matching, deterministic ties (the strict > keeps the lowest
  // part, then the lowest shard). parts_k == active_count, so the matching
  // is perfect.
  const std::uint32_t k = assignment.k();
  std::vector<std::vector<std::uint64_t>> overlap(
      parts_k, std::vector<std::uint64_t>(k, 0));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto tx = static_cast<std::uint32_t>(begin + i);
    ++overlap[parts[i]][assignment.shard_of(tx)];
  }
  std::vector<std::uint32_t> part_to_shard(parts_k, placement::kUnplaced);
  std::vector<std::uint8_t> shard_taken(k, 0);
  for (std::uint32_t round = 0; round < parts_k; ++round) {
    std::uint64_t best = 0;
    std::uint32_t best_part = 0;
    std::uint32_t best_shard = 0;
    bool found = false;
    for (std::uint32_t p = 0; p < parts_k; ++p) {
      if (part_to_shard[p] != placement::kUnplaced) continue;
      for (std::uint32_t s = 0; s < k; ++s) {
        if (!assignment.is_active(s) || shard_taken[s] != 0) continue;
        if (!found || overlap[p][s] > best) {
          best = overlap[p][s];
          best_part = p;
          best_shard = s;
          found = true;
        }
      }
    }
    OPTCHAIN_ASSERT(found);
    part_to_shard[best_part] = best_shard;
    shard_taken[best_shard] = 1;
  }

  for (std::uint64_t i = 0; i < count; ++i) {
    const auto tx = static_cast<std::uint32_t>(begin + i);
    const std::uint32_t target = part_to_shard[parts[i]];
    if (target != assignment.shard_of(tx)) plan_.emplace_back(tx, target);
  }
}

RepartitionOutcome RepartitionController::step(
    api::PlacementPipeline& pipeline) {
  if (cursor_ >= plan_.size()) compute_plan(pipeline);
  RepartitionOutcome outcome;
  const placement::ShardAssignment& assignment = pipeline.assignment();
  while (cursor_ < plan_.size()) {
    if (config_.budget != 0 && outcome.applied.size() >= config_.budget) break;
    const auto [tx, target] = plan_[cursor_++];
    // Entries staled since planning (target retired by churn, or the record
    // already migrated there) are skipped without consuming budget.
    if (!assignment.is_active(target)) continue;
    const std::uint32_t from = assignment.shard_of(tx);
    if (from == target) continue;
    pipeline.reassign(tx, target);
    outcome.applied.push_back({tx, from, target});
  }
  outcome.deferred = pending();
  return outcome;
}

}  // namespace optchain::sim
