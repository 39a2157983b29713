#include "api/scenario_spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "trace/trace_reader.hpp"

namespace optchain::api {

const char* to_string(RunMode mode) noexcept {
  return mode == RunMode::kPlace ? "place" : "simulate";
}

std::size_t ScenarioSpec::num_cells() const noexcept {
  const std::size_t points =
      pairings.empty() ? shards.size() * rates.size() : pairings.size();
  return methods.size() * points * seeds.size();
}

std::uint64_t ScenarioSpec::stream_length(double rate_tps) const noexcept {
  if (txs > 0) return txs;
  const double sized = rate_tps * issue_seconds;
  return sized < 1.0 ? 1 : static_cast<std::uint64_t>(sized);
}

void ScenarioSpec::validate() const {
  const auto reject = [](const std::string& field, const std::string& rule,
                         const std::string& got) {
    throw std::invalid_argument("ScenarioSpec: " + field + " must be " +
                                rule + " (got " + got + ")");
  };
  const auto positive = [](double value) {
    return value > 0.0 && std::isfinite(value);
  };
  using std::to_string;
  if (methods.empty()) reject("methods", "non-empty", "none");
  if (seeds.empty()) reject("seeds", "non-empty", "none");
  if (replicas == 0) reject("replicas", ">= 1", "0");
  if (pairings.empty()) {
    if (shards.empty()) reject("shards", "non-empty", "none");
    if (rates.empty()) reject("rates", "non-empty", "none");
  }
  for (const std::uint32_t k : shards) {
    if (k == 0) reject("shards", ">= 1 each", "0");
  }
  for (const double rate : rates) {
    if (!positive(rate)) reject("rates", "positive and finite", to_string(rate));
  }
  for (const OperatingPoint& point : pairings) {
    if (point.shards == 0) reject("pairings.shards", ">= 1", "0");
    if (!positive(point.rate_tps)) {
      reject("pairings.rate_tps", "positive and finite",
             to_string(point.rate_tps));
    }
  }
  if (!positive(issue_seconds)) {
    reject("issue_seconds", "positive and finite", to_string(issue_seconds));
  }
  constexpr std::uint64_t kMaxTxs = std::uint64_t{1} << 32;  // 32-bit TxIndex
  if (txs >= kMaxTxs) {
    reject("txs", "below 2^32 (transaction indices are 32-bit)",
           to_string(txs));
  }
  // Without `txs`, each generated cell streams rate × issue_seconds
  // transactions (stream_length), under the same bound.
  if (txs == 0 && workload != WorkloadKind::kTrace) {
    double fastest = 0.0;
    for (const double rate : rates) fastest = std::max(fastest, rate);
    for (const OperatingPoint& point : pairings) {
      fastest = std::max(fastest, point.rate_tps);
    }
    if (fastest * issue_seconds >= static_cast<double>(kMaxTxs)) {
      reject("issue_seconds",
             "short enough that rate * issue_seconds stays below 2^32 "
             "transactions",
             to_string(issue_seconds));
    }
  }
  if (!churn.empty() && mode == RunMode::kPlace) {
    throw std::invalid_argument(
        "ScenarioSpec: shard churn needs the simulator (mode = kSimulate)");
  }
  if (repartition.enabled() && mode == RunMode::kPlace) {
    throw std::invalid_argument(
        "ScenarioSpec: re-partitioning needs the simulator (mode = "
        "kSimulate)");
  }
  if (repartition.enabled() && warm_ratio > 0) {
    throw std::invalid_argument(
        "ScenarioSpec: re-partitioning cannot be combined with a Metis warm "
        "prefix (warm_ratio > 0) — the warm prefix assumes a static "
        "assignment");
  }
  repartition.validate();
  if (dynamic.active() && warm_ratio > 0) {
    throw std::invalid_argument(
        "ScenarioSpec: a dynamic profile cannot be combined with a Metis "
        "warm prefix (warm_ratio > 0)");
  }
  dynamic.validate();
  fabric.validate();
  if (workload == WorkloadKind::kTrace) {
    if (trace.path.empty()) {
      throw std::invalid_argument(
          "ScenarioSpec: workload kTrace needs trace.path (import one with "
          "`optchain-trace import`)");
    }
    if (warm_ratio > 0) {
      throw std::invalid_argument(
          "ScenarioSpec: a Metis warm prefix (warm_ratio > 0) needs a "
          "materialized generator stream, not a trace replay");
    }
  }
}

Sweep ScenarioSpec::expand() const {
  validate();  // reject a broken grid before any cell is built or run

  // Trace replay: resolve the window against the container once — the
  // import happened offline, exactly once, and every cell and replica below
  // shares the same file. Opening a v2 trace reads only the header and the
  // footer index (O(1) in the trace length).
  TraceReplay window = trace;
  if (workload == WorkloadKind::kTrace) {
    trace::TraceReader reader(trace.path);
    window.end = trace.end == 0 ? reader.size() : trace.end;
    if (window.end > reader.size() || window.begin >= window.end) {
      throw std::invalid_argument(
          "ScenarioSpec: trace window [" + std::to_string(window.begin) +
          ", " + std::to_string(window.end) + ") outside trace \"" +
          trace.path + "\" (" + std::to_string(reader.size()) + " txs)");
    }
    // `txs` caps the replayed window length (the bench --smoke convention);
    // issue_seconds never sizes a trace — the stream is what was captured.
    if (txs > 0) {
      window.end = std::min(window.end, window.begin + txs);
    }
  }

  // Materialize the operating points once; the explicit pairing list wins.
  std::vector<OperatingPoint> points = pairings;
  if (points.empty()) {
    points.reserve(shards.size() * rates.size());
    for (const std::uint32_t k : shards) {
      for (const double rate : rates) points.push_back({rate, k});
    }
  }

  Sweep sweep;
  sweep.scenario = name;
  sweep.title = title;
  sweep.paper_ref = paper_ref;
  sweep.mode = mode;
  sweep.replicas = replicas;
  sweep.cells.reserve(num_cells() * replicas);

  std::size_t cell_id = 0;
  for (const std::string& method : methods) {
    for (const OperatingPoint& point : points) {
      for (const std::uint64_t seed : seeds) {
        for (std::uint32_t replica = 0; replica < replicas; ++replica) {
          SweepCell cell;
          cell.cell = cell_id;
          cell.replica = replica;
          cell.mode = mode;
          cell.stream_txs = workload == WorkloadKind::kTrace
                                ? window.end - window.begin
                                : stream_length(point.rate_tps);
          cell.trace = window;
          cell.warm_txs =
              mode == RunMode::kPlace
                  ? static_cast<std::uint64_t>(warm_ratio) * cell.stream_txs
                  : 0;
          cell.workload_seed = seed;
          cell.workload = workload;
          cell.bitcoin_workload = bitcoin_workload;
          cell.account_workload = account_workload;
          cell.dynamic = dynamic;

          RunSpec& spec = cell.spec;
          spec.method = method;
          spec.num_shards = point.shards;
          spec.seed = seed;
          // Replicas re-roll only the simulator's stochastic sampling
          // (network positions, leader faults), never the workload or the
          // placement method — the paper's "same stream, repeated runs"
          // replication model.
          spec.sim_seed = kBaseSimSeed + replica;
          spec.rate_tps = point.rate_tps;
          spec.protocol = protocol;
          spec.commit_window_s = commit_window_s;
          spec.queue_sample_interval_s = queue_sample_interval_s;
          spec.leader_fault_rate = leader_fault_rate;
          spec.shard_slowdown = shard_slowdown;
          spec.fabric = fabric;
          spec.churn = churn;
          spec.repartition = repartition;
          sweep.cells.push_back(std::move(cell));
        }
        ++cell_id;
      }
    }
  }
  return sweep;
}

}  // namespace optchain::api
