// Offline multilevel k-way graph partitioner, built from scratch in the
// style of Metis (Karypis & Kumar) — the paper's strongest cross-TX baseline
// ("Metis k-way", §IV.B discussion and §V experiments).
//
// Pipeline:
//   1. Coarsening: repeated heavy-edge matching merges strongly connected
//      vertex pairs until the graph is small.
//   2. Initial partitioning: greedy graph growing (BFS region growing) on the
//      coarsest graph, balanced to ceil(total_weight / k).
//   3. Uncoarsening: the partition is projected back level by level and
//      improved with greedy boundary Kernighan–Lin/Fiduccia–Mattheyses-style
//      refinement under the (1 + imbalance) balance constraint.
//
// The objective is the classic balanced edge-cut minimization — which, as the
// paper shows (Tables I-II vs Figs. 3-10), minimizes cross-shard transactions
// but destroys temporal balance, because consecutive transactions land in the
// same part. Reproducing that failure mode is the point of this module.
//
// Determinism: the result is a pure function of the graph and the config.
// Matching, region growing and refinement break ties by the coarse
// adjacency order, which is the iteration order of the std::unordered_map
// that collapses each coarse row's parallel edges. A standard library whose
// unordered_map iterates differently therefore moves every partition, and
// the pins in tests/metis_test.cpp with it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace optchain::metis {

struct PartitionConfig {
  std::uint32_t k = 2;
  /// Allowed relative imbalance ε: every part's vertex weight stays below
  /// (1 + ε) · ceil(total / k). The paper uses ε = 0.1.
  double imbalance = 0.1;
  /// Coarsening stops at max(coarsen_target, 100k) vertices.
  std::uint32_t coarsen_target = 2000;
  /// Refinement passes per uncoarsening level.
  std::uint32_t refine_passes = 4;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument naming the first nonsensical field: k = 0,
  /// or an imbalance that is negative, NaN or infinite. partition_kway()
  /// calls it first.
  void validate() const;
};

/// Partitions the undirected graph into k parts; returns part id per vertex.
/// Isolated vertices are spread round-robin (they do not affect the cut).
/// Throws std::invalid_argument when `config` fails validate().
std::vector<std::uint32_t> partition_kway(const graph::Csr& graph,
                                          const PartitionConfig& config);

/// Number of edges whose endpoints lie in different parts. `graph` is the
/// undirected CSR (each edge appears twice); the result counts each edge once.
std::uint64_t edge_cut(const graph::Csr& graph,
                       std::span<const std::uint32_t> parts);

/// Largest part weight divided by average part weight (1.0 = perfect).
double balance_factor(std::span<const std::uint32_t> parts, std::uint32_t k);

}  // namespace optchain::metis
