// Transaction-to-Shard (T2S) scoring — paper §IV.B.
//
// Each placed transaction v carries an unnormalized fitness vector p'(v):
//
//   p'(u) = (1 − α) · Σ_{v ∈ Nin(u)} p'(v) / |Nout(v)|       (on arrival)
//   p'(u)[S(u)] += α                                          (after placement)
//
// The normalized T2S score of an arriving u against shard i is
// p(u)[i] = p'(u)[i] / |S_i|. The incremental scheme works because p'(v) is
// *final* once v has been placed (the shard-size normalization is applied at
// read time), turning the O(k(|V|+|E|)) full PageRank recomputation into
// O(k·|Nin(u)|) per arrival — the paper's key computational trick.
//
// p' vectors are stored sparsely (mass decays by (1 − α) per hop, so only a
// handful of shards carry non-negligible weight); entries below
// prune_threshold × total are dropped, bounding memory by a small constant
// per node in practice. Finality is also a storage gift: vectors live in an
// append-only paged slab (core::ScorePool) — one handle per node, one heap
// allocation per 65k entries — and score() runs entirely on reused scratch
// buffers, so the steady-state scoring loop allocates nothing.
//
// The gather (the fold of the parents' p' into p'(u)) is one kernel: each
// parent entry's value / |Nout(v)| is added into a per-shard bin that
// starts at +0.0, and the shard's bit is set in a ceil(k/64)-word mask; the
// set bits are then walked in ascending shard order to emit bin × (1 − α)
// and sum the total, re-zeroing each bin and mask word on the way out. So
// each shard's partial sum is a left fold in parent push order (the order
// of dag.inputs(u)), and the total is summed in ascending shard order.
// There is no sort: the output comes out shard-sorted from the mask.
//
// The sort-merge gather this kernel replaced sorted the weighted entries by
// shard and folded adjacent runs. Because +0.0 + w == w, the two agree bit
// for bit on every gather of at most 16 entries, where libstdc++'s
// std::sort is an insertion sort and so keeps push order within a shard.
// That covers every gather at k ≤ 16, since one of more than k entries
// took a push-order scatter path instead of the sort. At k ≥ 17 a gather of
// 17 or more entries went through introsort, which is not stable, so
// same-shard entries could be summed in another order and p' differs there
// by a few ulps; placement decisions did not move on the streams checked.
//
// |Nout(v)| — the out-neighborhood size of v — grows as later transactions
// spend v's outputs. The divisor policy selects the online reading:
//   kCurrentSpenders  — spenders observed so far, including u (paper-literal:
//                       the TaN in-degree of v at the time u arrives);
//   kDeclaredOutputs  — v's declared UTXO count (each output is spent at most
//                       once, so this upper-bounds the final |Nout(v)|).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/score_pool.hpp"
#include "graph/dag.hpp"
#include "placement/shard_assignment.hpp"

namespace optchain::core {

enum class DivisorPolicy : std::uint8_t {
  kCurrentSpenders,
  kDeclaredOutputs,
};

struct T2sConfig {
  double alpha = 0.5;  // paper's experiments use α = 0.5
  DivisorPolicy divisor = DivisorPolicy::kCurrentSpenders;
  /// Sparse entries below prune_threshold × (vector total) are dropped.
  double prune_threshold = 1e-7;
};

class T2sScorer {
 public:
  /// `declared_outputs(v)` is consulted only under kDeclaredOutputs; it must
  /// return v's output count (≥ 1).
  explicit T2sScorer(T2sConfig config = {},
                     std::function<std::uint32_t(tx::TxIndex)>
                         declared_outputs = nullptr);

  /// Computes p'(u) for the arriving node u (already inserted into `dag`,
  /// edges included) and caches it. Fills `normalized` with the dense T2S
  /// score vector p(u): p'(u)[i] / |S_i| (zero for empty shards). The output
  /// buffer is assign()ed, so a caller that reuses one across calls pays no
  /// allocation.
  void score(const graph::TanDag& dag, tx::TxIndex u,
             const placement::ShardAssignment& assignment,
             std::vector<double>& normalized);

  /// Convenience overload returning a fresh vector.
  std::vector<double> score(const graph::TanDag& dag, tx::TxIndex u,
                            const placement::ShardAssignment& assignment) {
    std::vector<double> normalized;
    score(dag, u, assignment, normalized);
    return normalized;
  }

  /// Finalizes u after placement into `shard`: p'(u)[shard] += α. Only valid
  /// for the most recently scored node (vectors are final after that).
  void commit(tx::TxIndex u, std::uint32_t shard);

  /// Pre-sizes the score store for an expected stream length.
  void reserve(std::size_t expected_txs) { pool_.reserve(expected_txs); }

  /// Sparse unnormalized vector of a placed (or scored) node.
  std::span<const ScoreEntry> raw_vector(tx::TxIndex u) const {
    return pool_.vector_of(u);
  }

  double alpha() const noexcept { return config_.alpha; }
  const T2sConfig& config() const noexcept { return config_; }

  /// Number of sparse entries across all nodes (memory telemetry).
  std::size_t total_entries() const noexcept { return pool_.total_entries(); }

  /// The underlying score slab (slot-accounting telemetry).
  const ScorePool& pool() const noexcept { return pool_; }

 private:
  /// Reusable scratch state of gather(): all zero between calls.
  struct ScoreScratch {
    std::vector<double> bins;          // per-shard partial sums
    std::vector<std::uint64_t> mask;   // bit s set: bins[s] was touched
  };

  /// The |Nout(v)| divisor for parent v under this scorer's policy, given
  /// v's observed spender count (including the arriving spender).
  double parent_divisor(tx::TxIndex v, std::uint32_t spenders) const {
    return config_.divisor == DivisorPolicy::kCurrentSpenders
               ? static_cast<double>(spenders)
               : static_cast<double>(
                     std::max<std::uint32_t>(1, declared_outputs_(v)));
  }

  /// The gather kernel: fills `merged` with the shard-sorted, pruned sparse
  /// vector (1 − α) Σ_i p'(parents[i]) / divisors[i] — the pre-commit p'(u)
  /// that score() caches — summing each shard in `parents` order (see the
  /// file comment). Reads only final pool vectors. `k` is the shard count
  /// (bin width).
  void gather(std::span<const tx::TxIndex> parents,
              std::span<const double> divisors, std::uint32_t k,
              ScoreScratch& scratch, std::vector<ScoreEntry>& merged) const;

  /// Fills `normalized` with p(u)[i] = merged[i] / |S_i| (zero for empty
  /// shards) — the read-time normalization.
  void normalize(std::span<const ScoreEntry> merged,
                 const placement::ShardAssignment& assignment,
                 std::vector<double>& normalized) const;

  T2sConfig config_;
  std::function<std::uint32_t(tx::TxIndex)> declared_outputs_;
  ScorePool pool_;                        // p' vectors, indexed by TxIndex
  ScoreScratch scratch_;                  // scratch for gather()
  std::vector<ScoreEntry> merged_;        // scratch: merged/pruned p'(u)
  std::vector<double> divisors_;          // scratch: per-parent divisors
};

}  // namespace optchain::core
