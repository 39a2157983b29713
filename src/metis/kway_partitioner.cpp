#include "metis/kway_partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <memory_resource>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace optchain::metis {
namespace {

constexpr std::uint32_t kUnassigned = static_cast<std::uint32_t>(-1);

/// Memory for coarsen()'s row map. Each freed block of the first size and
/// alignment asked for (the map's node) goes on a free list and serves the
/// next such request, so the nodes one row's clear() frees come straight
/// back for the next row instead of going through the heap. Other requests
/// (the bucket arrays) go to the heap. Where nodes live does not affect the
/// map's iteration order. (std::pmr::unsynchronized_pool_resource measured
/// slower here than plain operator new.)
class NodeRecycler final : public std::pmr::memory_resource {
 public:
  NodeRecycler() = default;
  NodeRecycler(const NodeRecycler&) = delete;
  NodeRecycler& operator=(const NodeRecycler&) = delete;
  ~NodeRecycler() override {
    while (free_ != nullptr) {
      Block* block = free_;
      free_ = block->next;
      heap()->deallocate(block, block_bytes_, block_align_);
    }
  }

 private:
  struct Block {
    Block* next;
  };

  static std::pmr::memory_resource* heap() {
    return std::pmr::new_delete_resource();
  }

  bool recycles(std::size_t bytes, std::size_t align) const noexcept {
    return bytes == block_bytes_ && align == block_align_;
  }

  void* do_allocate(std::size_t bytes, std::size_t align) override {
    if (block_bytes_ == 0 && bytes >= sizeof(Block) &&
        align >= alignof(Block)) {
      block_bytes_ = bytes;
      block_align_ = align;
    }
    if (!recycles(bytes, align) || free_ == nullptr) {
      return heap()->allocate(bytes, align);
    }
    Block* block = free_;
    free_ = block->next;
    return block;
  }

  void do_deallocate(void* p, std::size_t bytes, std::size_t align) override {
    if (!recycles(bytes, align)) return heap()->deallocate(p, bytes, align);
    free_ = ::new (p) Block{free_};
  }

  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }

  std::size_t block_bytes_ = 0;
  std::size_t block_align_ = 0;
  Block* free_ = nullptr;
};

/// Weighted graph level used during coarsening. Adjacency is CSR with
/// parallel edge weights; vertex weights count how many original vertices a
/// coarse vertex represents.
struct Level {
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> targets;
  std::vector<std::uint64_t> eweights;
  std::vector<std::uint64_t> vweights;
  std::vector<std::uint32_t> coarse_map;  // fine vertex -> coarse vertex

  std::size_t num_nodes() const noexcept { return vweights.size(); }
};

Level from_csr(const graph::Csr& graph) {
  Level level;
  const std::size_t n = graph.num_nodes();
  level.offsets.resize(n + 1);
  level.targets.resize(graph.num_entries());
  level.eweights.assign(graph.num_entries(), 1);
  level.vweights.assign(n, 1);
  level.offsets[0] = 0;
  std::size_t cursor = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const std::uint32_t v : graph.neighbors(u)) {
      level.targets[cursor++] = v;
    }
    level.offsets[u + 1] = cursor;
  }
  return level;
}

/// Heavy-edge matching: visit vertices in random order; match each unmatched
/// vertex with its unmatched neighbor of maximum edge weight.
std::vector<std::uint32_t> heavy_edge_matching(const Level& level, Rng& rng) {
  const std::size_t n = level.num_nodes();
  std::vector<std::uint32_t> match(n, kUnassigned);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  for (const std::uint32_t u : order) {
    if (match[u] != kUnassigned) continue;
    std::uint32_t best = kUnassigned;
    std::uint64_t best_weight = 0;
    for (std::uint64_t e = level.offsets[u]; e < level.offsets[u + 1]; ++e) {
      const std::uint32_t v = level.targets[e];
      if (v == u || match[v] != kUnassigned) continue;
      if (level.eweights[e] > best_weight) {
        best_weight = level.eweights[e];
        best = v;
      }
    }
    if (best != kUnassigned) {
      match[u] = best;
      match[best] = u;
    } else {
      match[u] = u;  // stays single
    }
  }
  return match;
}

/// Contracts matched pairs into a coarser level.
Level coarsen(Level& fine, const std::vector<std::uint32_t>& match) {
  const std::size_t n = fine.num_nodes();
  fine.coarse_map.assign(n, kUnassigned);
  std::uint32_t next = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (fine.coarse_map[u] != kUnassigned) continue;
    fine.coarse_map[u] = next;
    if (match[u] != u) fine.coarse_map[match[u]] = next;
    ++next;
  }

  Level coarse;
  coarse.vweights.assign(next, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    coarse.vweights[fine.coarse_map[u]] += fine.vweights[u];
  }

  // Aggregate adjacency; a scratch map keyed by coarse target collapses
  // parallel edges, dropping self-loops. Its iteration order is the coarse
  // adjacency order, which every later tie-break follows, so one map serves
  // every row, cleared in between: a fresh or reserved map would iterate in
  // another order.
  coarse.offsets.assign(1, 0);
  NodeRecycler nodes;
  std::pmr::unordered_map<std::uint32_t, std::uint64_t> row(&nodes);
  const auto add_edges = [&](std::uint32_t u, std::uint32_t cu) {
    for (std::uint64_t e = fine.offsets[u]; e < fine.offsets[u + 1]; ++e) {
      const std::uint32_t cv = fine.coarse_map[fine.targets[e]];
      if (cv == cu) continue;
      row[cv] += fine.eweights[e];
    }
  };
  // Coarse vertices were numbered in ascending order of their smaller
  // member, so walking u upwards and skipping each pair's larger member
  // visits them in order, each as {u, match[u]}.
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t partner = match[u];
    if (partner < u) continue;
    const std::uint32_t cu = fine.coarse_map[u];
    row.clear();
    add_edges(u, cu);
    if (partner != u) add_edges(partner, cu);
    for (const auto& [cv, w] : row) {
      coarse.targets.push_back(cv);
      coarse.eweights.push_back(w);
    }
    coarse.offsets.push_back(coarse.targets.size());
  }
  return coarse;
}

/// Greedy graph growing on the coarsest level: each of the k regions grows
/// by BFS until it holds ~1/k of the total vertex weight. TaN graphs have
/// many connected components (independent coinbase chains), so whenever a
/// region's frontier dries up before reaching its weight target it is
/// re-seeded from the next unassigned vertex.
std::vector<std::uint32_t> initial_partition(const Level& level,
                                             std::uint32_t k, Rng& rng) {
  const std::size_t n = level.num_nodes();
  const std::uint64_t total =
      std::accumulate(level.vweights.begin(), level.vweights.end(),
                      std::uint64_t{0});
  const std::uint64_t target = (total + k - 1) / k;

  std::vector<std::uint32_t> part(n, kUnassigned);
  std::vector<std::uint64_t> load(k, 0);
  std::vector<std::uint32_t> frontier;
  std::uint32_t scan = 0;  // next-unassigned-seed scan pointer

  const auto next_seed = [&]() -> std::uint32_t {
    // Try a few random probes first (spreads seeds), then scan.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto candidate = static_cast<std::uint32_t>(rng.below(n));
      if (part[candidate] == kUnassigned) return candidate;
    }
    while (scan < n && part[scan] != kUnassigned) ++scan;
    return scan < n ? scan : kUnassigned;
  };

  for (std::uint32_t p = 0; p < k; ++p) {
    frontier.clear();
    std::size_t cursor = 0;
    while (load[p] < target) {
      if (cursor == frontier.size()) {  // frontier dry: re-seed
        const std::uint32_t seed = next_seed();
        if (seed == kUnassigned) break;  // no vertices left anywhere
        part[seed] = p;
        load[p] += level.vweights[seed];
        frontier.push_back(seed);
        continue;
      }
      const std::uint32_t u = frontier[cursor++];
      for (std::uint64_t e = level.offsets[u]; e < level.offsets[u + 1]; ++e) {
        const std::uint32_t v = level.targets[e];
        if (part[v] != kUnassigned) continue;
        part[v] = p;
        load[p] += level.vweights[v];
        frontier.push_back(v);
        if (load[p] >= target) break;
      }
    }
  }
  // Anything still unassigned (only when every part hit its target early)
  // joins the least-loaded part.
  for (std::uint32_t u = 0; u < n; ++u) {
    if (part[u] == kUnassigned) {
      const auto lightest = static_cast<std::uint32_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      part[u] = lightest;
      load[lightest] += level.vweights[u];
    }
  }
  return part;
}

/// Forces every part under the balance bound by evicting vertices from
/// overloaded parts into the lightest part, preferring the evictions that
/// hurt the cut least. Run at the finest level, where all weights are 1 and
/// an exact rebalance is always possible.
void force_balance(const Level& level, std::uint32_t k,
                   std::uint64_t max_part_weight,
                   std::vector<std::uint32_t>& part,
                   std::vector<std::uint64_t>& load) {
  for (std::uint32_t from = 0; from < k; ++from) {
    if (load[from] <= max_part_weight) continue;
    // Cheapest-first eviction: vertices with the least internal connectivity
    // to `from` leave first.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> candidates;
    for (std::uint32_t u = 0; u < level.num_nodes(); ++u) {
      if (part[u] != from) continue;
      std::uint64_t internal = 0;
      for (std::uint64_t e = level.offsets[u]; e < level.offsets[u + 1]; ++e) {
        if (part[level.targets[e]] == from) internal += level.eweights[e];
      }
      candidates.emplace_back(internal, u);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [internal, u] : candidates) {
      if (load[from] <= max_part_weight) break;
      const auto to = static_cast<std::uint32_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      if (to == from) break;
      part[u] = to;
      load[from] -= level.vweights[u];
      load[to] += level.vweights[u];
    }
  }
}

/// The balance bound (1 + imbalance) · ceil(total / k), saturated at the
/// total vertex weight: no part can outgrow the total, so any larger bound
/// acts the same, and a huge imbalance never overflows the conversion.
std::uint64_t balance_cap(const Level& level, std::uint32_t k,
                          double imbalance) {
  const std::uint64_t total =
      std::accumulate(level.vweights.begin(), level.vweights.end(),
                      std::uint64_t{0});
  const double bound =
      static_cast<double>((total + k - 1) / k) * (1.0 + imbalance);
  return bound >= static_cast<double>(total)
             ? total
             : static_cast<std::uint64_t>(bound);
}

/// One pass of greedy boundary refinement: move vertices to the neighboring
/// part with the highest positive gain, respecting the balance bound.
/// Returns the number of moves made.
std::size_t refine_pass(const Level& level, std::uint32_t k,
                        std::uint64_t max_part_weight,
                        std::vector<std::uint32_t>& part,
                        std::vector<std::uint64_t>& load,
                        std::vector<std::uint64_t>& scratch) {
  const std::size_t n = level.num_nodes();
  std::size_t moves = 0;
  scratch.assign(k, 0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t from = part[u];
    // Connectivity of u to each part.
    bool boundary = false;
    touched.clear();
    for (std::uint64_t e = level.offsets[u]; e < level.offsets[u + 1]; ++e) {
      const std::uint32_t p = part[level.targets[e]];
      if (scratch[p] == 0) touched.push_back(p);
      scratch[p] += level.eweights[e];
      if (p != from) boundary = true;
    }
    if (boundary) {
      const std::uint64_t internal = scratch[from];
      std::uint32_t best = from;
      std::uint64_t best_external = internal;  // require strict gain
      for (const std::uint32_t p : touched) {
        if (p == from) continue;
        if (scratch[p] > best_external &&
            load[p] + level.vweights[u] <= max_part_weight) {
          best_external = scratch[p];
          best = p;
        }
      }
      if (best != from) {
        part[u] = best;
        load[from] -= level.vweights[u];
        load[best] += level.vweights[u];
        ++moves;
      }
    }
    for (const std::uint32_t p : touched) scratch[p] = 0;
  }
  return moves;
}

void refine(const Level& level, std::uint32_t k, double imbalance,
            std::uint32_t passes, std::vector<std::uint32_t>& part) {
  const std::uint64_t max_part_weight = balance_cap(level, k, imbalance);
  std::vector<std::uint64_t> load(k, 0);
  for (std::uint32_t u = 0; u < level.num_nodes(); ++u) {
    load[part[u]] += level.vweights[u];
  }
  std::vector<std::uint64_t> scratch;
  for (std::uint32_t pass = 0; pass < passes; ++pass) {
    if (refine_pass(level, k, max_part_weight, part, load, scratch) == 0) {
      break;
    }
  }
}

}  // namespace

void PartitionConfig::validate() const {
  const auto reject = [](const std::string& field, const std::string& rule,
                         const std::string& got) {
    throw std::invalid_argument("PartitionConfig: " + field + " must be " +
                                rule + " (got " + got + ")");
  };
  if (k == 0) reject("k", ">= 1", "0");
  if (!(imbalance >= 0.0 && std::isfinite(imbalance))) {
    reject("imbalance", "non-negative and finite", std::to_string(imbalance));
  }
}

std::vector<std::uint32_t> partition_kway(const graph::Csr& graph,
                                          const PartitionConfig& config) {
  config.validate();
  const std::size_t n = graph.num_nodes();
  if (n == 0) return {};
  if (config.k == 1) return std::vector<std::uint32_t>(n, 0);

  Rng rng(config.seed);

  // Phase 1: coarsen. The coarsest graph must keep enough vertices per part
  // for the greedy growing to have room to work (~100 vertices/part).
  std::vector<Level> levels;
  levels.push_back(from_csr(graph));
  const std::size_t stop_at =
      std::max<std::size_t>(config.coarsen_target, 100ULL * config.k);
  while (levels.back().num_nodes() > stop_at) {
    Level& fine = levels.back();
    const auto match = heavy_edge_matching(fine, rng);
    Level coarse = coarsen(fine, match);
    // Matching can stall on star-like graphs; stop if reduction is < 10%.
    if (coarse.num_nodes() >
        fine.num_nodes() - fine.num_nodes() / 10) {
      break;
    }
    levels.push_back(std::move(coarse));
  }

  // Phase 2: initial partition on the coarsest level.
  std::vector<std::uint32_t> part =
      initial_partition(levels.back(), config.k, rng);
  refine(levels.back(), config.k, config.imbalance, config.refine_passes,
         part);

  // Phase 3: project back and refine each level.
  for (std::size_t i = levels.size() - 1; i-- > 0;) {
    const Level& fine = levels[i];
    std::vector<std::uint32_t> fine_part(fine.num_nodes());
    for (std::uint32_t u = 0; u < fine.num_nodes(); ++u) {
      fine_part[u] = part[fine.coarse_map[u]];
    }
    part = std::move(fine_part);
    refine(fine, config.k, config.imbalance, config.refine_passes, part);
  }

  // Final hard rebalance at unit weights, then one more refinement sweep to
  // recover any cut quality the evictions cost.
  {
    const Level& finest = levels.front();
    const std::uint64_t max_part_weight =
        balance_cap(finest, config.k, config.imbalance);
    std::vector<std::uint64_t> load(config.k, 0);
    for (std::uint32_t u = 0; u < finest.num_nodes(); ++u) {
      load[part[u]] += finest.vweights[u];
    }
    force_balance(finest, config.k, max_part_weight, part, load);
    std::vector<std::uint64_t> scratch;
    refine_pass(finest, config.k, max_part_weight, part, load, scratch);
  }

  OPTCHAIN_ENSURES(part.size() == n);
  return part;
}

std::uint64_t edge_cut(const graph::Csr& graph,
                       std::span<const std::uint32_t> parts) {
  OPTCHAIN_EXPECTS(parts.size() == graph.num_nodes());
  std::uint64_t cut = 0;
  for (std::uint32_t u = 0; u < graph.num_nodes(); ++u) {
    for (const std::uint32_t v : graph.neighbors(u)) {
      if (parts[u] != parts[v]) ++cut;
    }
  }
  return cut / 2;  // undirected CSR stores each edge twice
}

double balance_factor(std::span<const std::uint32_t> parts, std::uint32_t k) {
  OPTCHAIN_EXPECTS(k >= 1);
  if (parts.empty()) return 1.0;
  std::vector<std::uint64_t> load(k, 0);
  for (const std::uint32_t p : parts) {
    OPTCHAIN_EXPECTS(p < k);
    ++load[p];
  }
  const std::uint64_t max_load = *std::max_element(load.begin(), load.end());
  const double average =
      static_cast<double>(parts.size()) / static_cast<double>(k);
  return static_cast<double>(max_load) / average;
}

}  // namespace optchain::metis
