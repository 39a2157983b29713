// Test oracle for the incremental T2S scorer (core/t2s_scorer.hpp): the
// O(k(|V|+|E|)) full recomputation the paper's incremental scheme avoids
// (§IV.B). It lives outside optchain_lib because no shipped binary needs
// it; the tests and bench_micro link it from optchain_test_support.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/t2s_scorer.hpp"
#include "graph/dag.hpp"
#include "placement/shard_assignment.hpp"

namespace optchain::core {

/// Recomputes every p' vector from scratch by propagating along the DAG in
/// topological (arrival) order, given the final placement; returns one
/// dense k-vector per node. `declared_outputs` is consulted only under
/// DivisorPolicy::kDeclaredOutputs.
std::vector<std::vector<double>> recompute_all_scores_dense(
    const graph::TanDag& dag, const placement::ShardAssignment& assignment,
    const T2sConfig& config,
    const std::function<std::uint32_t(tx::TxIndex)>& declared_outputs =
        nullptr);

}  // namespace optchain::core
