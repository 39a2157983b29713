// perfbench driver — runs one benchmark workload, checks its outputs and
// prints its metrics.
//
//   perfbench_driver --workload=NAME --seed=S --seconds=T --trace=0|1
//                    [--workdir=DIR] [--out=PATH]
//
// Set-up (building the workload's inputs from the seed through repo code)
// runs five times; its median is setup_s. One untimed warm-up pass
// follows, and then passes run back to back until T seconds have passed
// (at least three); timings are medians over them. With --trace=0 no probe
// is installed and the end-to-end metrics are reported; with --trace=1
// plain and probed passes alternate
// (see probes.hpp) and the per-layer split is reported. Every pass must
// reproduce the warm-up pass's outputs exactly. Files the workload writes go
// to --workdir. The last line of stdout is the JSON result; the exit code is
// 0 when every check passed, 1 when one failed, and 2 on a usage or I/O
// error (no result is printed then).
//
// perfbench/README.md says why each workload exists and which end-to-end
// metric each layer metric should move.
#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "api/run_spec.hpp"
#include "common/flags.hpp"
#include "obs/run_tracer.hpp"
#include "probes.hpp"
#include "sim/fabric/fabric_config.hpp"
#include "stats.hpp"
#include "trace/trace_import.hpp"
#include "trace/trace_source.hpp"
#include "workload/conflict_injector.hpp"
#include "workload/tx_source.hpp"

namespace perfbench {
namespace {

namespace api = optchain::api;
namespace tx = optchain::tx;
namespace workload = optchain::workload;

constexpr int kSetupReps = 5;
constexpr std::size_t kMinPasses = 3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A sub-seed for one role of one workload (splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a over 64-bit words: the fingerprint of a pass's outputs.
class Fingerprint {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((word >> (8 * byte)) & 0xFF)) * 0x100000001B3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::vector<std::uint64_t>& words) {
    add(static_cast<std::uint64_t>(words.size()));
    for (const std::uint64_t word : words) add(word);
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// Failed output checks; any failure makes the run incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  bool passed() const noexcept { return failures_ == 0; }

 private:
  int failures_ = 0;
};

/// How a pass is instrumented.
enum class PassKind {
  kPlain,      ///< no probes: what end-to-end metrics measure
  kProbed,     ///< layer probes installed (probes.hpp)
  kRunTracer,  ///< an obs::RunTracer observer attached (simulations only)
};

/// What one pass measured and produced.
struct Pass {
  double seconds = 0.0;          ///< timed wall time
  std::uint64_t txs = 0;         ///< transactions placed or simulated
  std::uint64_t unsettled = 0;   ///< transactions without a final outcome
  std::vector<double> batch_us;  ///< wall time per kBatch transactions
  std::uint64_t fingerprint = 0; ///< hash of every deterministic output
  double cross_fraction = 0.0;
  /// Per-layer metric values (names as in BENCHMARK.json); absent = 0.
  std::map<std::string, double> layer;
};

/// Fills the probe-derived layer split of a probed pass: per-transaction
/// busy time of next(), choose() and notify_placed(), and the remainder of
/// the pass's wall time, attributed to `self_metric`.
void record_layer_split(Pass& pass, const char* self_metric) {
  const double txs = static_cast<double>(pass.txs);
  const Probes& p = probes();
  const double next = p.next.total_ns() / txs;
  const double choose = p.choose.total_ns() / txs;
  const double notify = p.notify.total_ns() / txs;
  pass.layer["source.next_ns_per_tx"] = next;
  pass.layer["core.choose_ns_per_tx"] = choose;
  pass.layer["core.notify_ns_per_tx"] = notify;
  pass.layer[self_metric] = pass.seconds * 1e9 / txs - next - choose - notify;
}

/// The first `count` transactions of the default Bitcoin-like generator.
std::vector<tx::Transaction> generate(std::uint64_t seed, std::uint64_t count) {
  workload::GeneratorTxSource source({}, seed, count);
  std::vector<tx::Transaction> stream;
  stream.reserve(count);
  tx::Transaction transaction;
  while (source.next(transaction)) stream.push_back(std::move(transaction));
  return stream;
}

/// Method name for a pass kind: probed passes go through the timed wrapper.
std::string method_for(PassKind kind) {
  return kind == PassKind::kProbed ? std::string(kTimedOptChain) : "OptChain";
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed through repo code (timed as setup_s).
  virtual void setup() = 0;
  /// One pass over the inputs. `deep` adds the checks too costly to repeat
  /// on every pass.
  virtual Pass run_pass(PassKind kind, bool deep, Checks& checks) = 0;
  /// Whether kRunTracer passes apply (obs.tracer_overhead_pct).
  virtual bool measures_run_tracer() const { return false; }
};

// ------------------------------------------------------------- placement

/// One closed-loop client: submits each batch `fill` returns (at most
/// kBatch transactions, empty at the end) through place_stream once the
/// previous one has returned.
template <typename Fill>
Pass closed_loop(api::PlacementPipeline& pipeline, Fill&& fill) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (;;) {
    const std::span<const tx::Transaction> batch = fill();
    if (batch.empty()) break;
    pipeline.place_stream(batch);
    const Clock::time_point now = Clock::now();
    pass.batch_us.push_back(nanoseconds(now - last) / 1e3);
    last = now;
  }
  pass.seconds = seconds_between(start, last);
  return pass;
}

/// Fingerprints a finished placement pass: every decision plus the
/// cross-shard counter.
void finish_placement(const api::PlacementPipeline& pipeline, Pass& pass) {
  const auto& assignment = pipeline.assignment();
  Fingerprint fingerprint;
  for (tx::TxIndex i = 0; i < assignment.total(); ++i) {
    fingerprint.add(static_cast<std::uint64_t>(assignment.shard_of(i)));
  }
  fingerprint.add(pipeline.cross_counter().total());
  fingerprint.add(pipeline.cross_counter().cross());
  pass.fingerprint = fingerprint.value();
  pass.txs = assignment.total();
  pass.cross_fraction = pipeline.cross_counter().fraction();
  pass.layer["graph.tan_edges_per_tx"] =
      static_cast<double>(pipeline.dag().num_edges()) /
      static_cast<double>(pass.txs);
}

/// place_btc_k16: the placement kernel alone over a materialized stream.
class PlaceBtc final : public Workload {
 public:
  explicit PlaceBtc(std::uint64_t seed)
      : gen_seed_(derive_seed(seed, 0x101)),
        method_seed_(derive_seed(seed, 0x102)) {}

  void setup() override { stream_ = generate(gen_seed_, kTxs); }

  Pass run_pass(PassKind kind, bool deep, Checks& checks) override {
    probes().reset(kind == PassKind::kProbed);
    api::PlacementPipeline pipeline =
        api::make_pipeline(method_for(kind), kShards, {}, method_seed_, {},
                           stream_.size());
    std::size_t offset = 0;
    Pass pass = closed_loop(pipeline, [&] {
      const std::size_t count = std::min(kBatch, stream_.size() - offset);
      const auto batch = std::span<const tx::Transaction>(stream_).subspan(
          offset, count);
      offset += count;
      return batch;
    });
    finish_placement(pipeline, pass);
    if (kind == PassKind::kProbed) {
      record_layer_split(pass, "api.step_self_ns_per_tx");
    }
    if (deep) check_against_stream(pipeline, checks);
    return pass;
  }

 private:
  static constexpr std::uint64_t kTxs = 1'000'000;
  static constexpr std::uint32_t kShards = 16;

  /// Recounts cross-shard transactions from the stream's inputs and the
  /// final assignment, independently of the pipeline's counter.
  void check_against_stream(const api::PlacementPipeline& pipeline,
                            Checks& checks) const {
    const auto& assignment = pipeline.assignment();
    checks.expect(assignment.total() == stream_.size(),
                  "place_btc_k16: not every transaction was placed");
    std::uint64_t counted = 0;
    std::uint64_t cross = 0;
    for (const tx::Transaction& transaction : stream_) {
      const auto shard = assignment.shard_of(transaction.index);
      checks.expect(shard < kShards, "place_btc_k16: shard id out of range");
      if (transaction.is_coinbase()) continue;
      ++counted;
      for (const tx::OutPoint& input : transaction.inputs) {
        if (assignment.shard_of(input.tx) != shard) {
          ++cross;
          break;
        }
      }
    }
    checks.expect(counted == pipeline.cross_counter().total() &&
                      cross == pipeline.cross_counter().cross(),
                  "place_btc_k16: cross-shard counter disagrees with a "
                  "recount from the assignment");
  }

  std::uint64_t gen_seed_;
  std::uint64_t method_seed_;
  std::vector<tx::Transaction> stream_;
};

/// replay_optx_k64: placement fed by decoding an OPTX trace from disk.
class ReplayOptx final : public Workload {
 public:
  ReplayOptx(std::uint64_t seed, const std::string& workdir)
      : gen_seed_(derive_seed(seed, 0x201)),
        method_seed_(derive_seed(seed, 0x202)),
        path_(workdir + "/replay.optx"),
        buffer_(kBatch) {}

  ~ReplayOptx() override {
    source_.reset();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  void setup() override {
    workload::GeneratorTxSource generator({}, gen_seed_, kTxs);
    optchain::trace::import_source(generator, path_);
    source_ = std::make_unique<optchain::trace::TraceTxSource>(path_);
  }

  Pass run_pass(PassKind kind, bool deep, Checks& checks) override {
    probes().reset(kind == PassKind::kProbed);
    source_->rewind();
    ProbeSource probe(*source_, nullptr);
    workload::TxSource& source =
        kind == PassKind::kProbed ? static_cast<workload::TxSource&>(probe)
                                  : *source_;
    api::PlacementPipeline pipeline = api::make_pipeline(
        method_for(kind), kShards, {}, method_seed_, {}, kTxs);
    Pass pass = closed_loop(pipeline, [&] {
      std::size_t count = 0;
      while (count < kBatch && source.next(buffer_[count])) ++count;
      return std::span<const tx::Transaction>(buffer_.data(), count);
    });
    finish_placement(pipeline, pass);
    checks.expect(pass.txs == kTxs,
                  "replay_optx_k64: the trace did not replay every "
                  "transaction");
    if (kind == PassKind::kProbed) {
      record_layer_split(pass, "api.step_self_ns_per_tx");
      pass.layer["trace.bytes_per_tx"] =
          static_cast<double>(std::filesystem::file_size(path_)) /
          static_cast<double>(kTxs);
    }
    if (deep) check_against_memory(pass, checks);
    return pass;
  }

 private:
  static constexpr std::uint64_t kTxs = 1'000'000;
  static constexpr std::uint32_t kShards = 64;

  /// Decisions from the decoded trace must equal placing the same
  /// generated stream straight from memory.
  void check_against_memory(const Pass& replayed, Checks& checks) const {
    workload::GeneratorTxSource generator({}, gen_seed_, kTxs);
    api::PlacementPipeline pipeline =
        api::make_pipeline("OptChain", kShards, {}, method_seed_, {}, kTxs);
    pipeline.place_stream(generator);
    Pass direct;
    finish_placement(pipeline, direct);
    checks.expect(direct.fingerprint == replayed.fingerprint,
                  "replay_optx_k64: decisions over the decoded trace differ "
                  "from placing the generated stream from memory");
  }

  std::uint64_t gen_seed_;
  std::uint64_t method_seed_;
  std::string path_;
  std::unique_ptr<optchain::trace::TraceTxSource> source_;
  std::vector<tx::Transaction> buffer_;
};

// ------------------------------------------------------------ simulation

/// sim_omniledger_k16 and sim_wan_churn_k16: api::simulate over a
/// materialized stream, differing only in the RunSpec and in whether
/// double spends are injected.
class Simulate final : public Workload {
 public:
  /// `double_spend_rate` > 0 injects conflicts (the abort path).
  Simulate(std::string name, api::RunSpec spec, double double_spend_rate,
           std::uint64_t seed, std::uint64_t salt, std::string workdir)
      : name_(std::move(name)),
        spec_(std::move(spec)),
        double_spend_rate_(double_spend_rate),
        gen_seed_(derive_seed(seed, salt + 1)),
        inject_seed_(derive_seed(seed, salt + 2)),
        tracer_path_(std::move(workdir) + "/run.otrace") {
    spec_.seed = derive_seed(seed, salt + 3);
    spec_.sim_seed = derive_seed(seed, salt + 4);
  }

  ~Simulate() override {
    std::error_code ignored;
    std::filesystem::remove(tracer_path_, ignored);
  }

  void setup() override {
    stream_ = generate(gen_seed_, kTxs);
    if (double_spend_rate_ > 0.0) {
      workload::ConflictStream injected = workload::inject_double_spends(
          std::move(stream_), double_spend_rate_, inject_seed_);
      stream_ = std::move(injected.transactions);
      conflicts_ = injected.num_conflicts;
    }
  }

  bool measures_run_tracer() const override { return double_spend_rate_ > 0; }

  Pass run_pass(PassKind kind, bool /*deep*/, Checks& checks) override {
    probes().reset(kind == PassKind::kProbed);
    api::RunSpec spec = spec_;
    spec.method = method_for(kind);
    std::unique_ptr<optchain::obs::RunTracer> tracer;
    if (kind == PassKind::kRunTracer) {
      tracer = std::make_unique<optchain::obs::RunTracer>(tracer_path_);
      spec.observers.push_back(tracer.get());
    }
    workload::SpanTxSource span(stream_);
    std::vector<Clock::time_point> marks;
    marks.reserve(stream_.size() / kBatch + 1);
    ProbeSource source(span, &marks);

    const Clock::time_point start = Clock::now();
    const api::RunReport report = api::simulate(spec, source);
    if (tracer) tracer->finish();
    const Clock::time_point end = Clock::now();

    Pass pass;
    pass.seconds = seconds_between(start, end);
    for (std::size_t i = 1; i < marks.size(); ++i) {
      pass.batch_us.push_back(nanoseconds(marks[i] - marks[i - 1]) / 1e3);
    }
    const optchain::sim::SimResult& r = *report.sim;
    pass.txs = source.pulled();
    pass.unsettled = pass.txs - std::min(pass.txs, r.committed_txs +
                                                       r.aborted_txs);
    pass.cross_fraction = r.cross_fraction();
    check(r, source.pulled(), checks);
    pass.fingerprint = fingerprint(r);
    record_outcome(r, pass);
    if (kind == PassKind::kProbed) {
      record_layer_split(pass, "sim.engine_self_ns_per_tx");
      pass.layer["sim.engine_ns_per_event"] =
          pass.layer["sim.engine_self_ns_per_tx"] *
          static_cast<double>(pass.txs) /
          static_cast<double>(r.total_events);
    }
    return pass;
  }

 private:
  static constexpr std::uint64_t kTxs = 150'000;

  void check(const optchain::sim::SimResult& r, std::uint64_t issued,
             Checks& checks) const {
    checks.expect(issued == stream_.size() && r.total_txs == issued,
                  name_ + ": not every transaction was issued");
    checks.expect(r.completed, name_ + ": the run did not complete");
    checks.expect(r.committed_txs + r.aborted_txs == issued,
                  name_ + ": committed + aborted != issued");
    // Each injected conflict can abort at most itself and its victim.
    checks.expect(r.aborted_txs <= 2 * conflicts_,
                  name_ + ": more aborts than injected double spends explain");
    const std::uint64_t placed =
        std::accumulate(r.final_shard_sizes.begin(),
                        r.final_shard_sizes.end(), std::uint64_t{0});
    checks.expect(placed == issued,
                  name_ + ": shard sizes do not add up to the stream");
  }

  /// Hash of every SimResult field that is a pure function of the seeds.
  static std::uint64_t fingerprint(const optchain::sim::SimResult& r) {
    Fingerprint f;
    for (const std::uint64_t word :
         {r.total_txs, r.cross_txs, r.committed_txs, r.aborted_txs,
          r.total_blocks, r.total_events, r.event_heap_peak, r.shard_changes,
          r.migrated_txs, r.migrated_utxos, r.repartition_events,
          r.repartition_migrated_txs, r.repartition_migrated_utxos,
          r.repartition_deferred_txs, r.link_messages, r.link_bytes,
          r.link_drops, static_cast<std::uint64_t>(r.completed)}) {
      f.add(word);
    }
    for (const double value :
         {r.duration_s, r.throughput_tps, r.avg_latency_s, r.max_latency_s,
          r.link_queue_delay_s, r.link_peak_backlog_s,
          r.latencies.quantile(0.5), r.latencies.quantile(0.99)}) {
      f.add(value);
    }
    f.add(r.shard_event_counts);
    f.add(r.final_shard_sizes);
    f.add(r.commits_per_window.counts());
    return f.value();
  }

  /// The simulated outcome and engine counts, identical on every pass.
  static void record_outcome(const optchain::sim::SimResult& r, Pass& pass) {
    const double txs = static_cast<double>(r.total_txs);
    auto& m = pass.layer;
    m["sim.throughput_tps"] = r.throughput_tps;
    m["sim.confirm_latency_p50_s"] = r.latencies.quantile(0.5);
    m["sim.confirm_latency_p99_s"] = r.latencies.quantile(0.99);
    m["sim.aborted_fraction"] = static_cast<double>(r.aborted_txs) / txs;
    m["sim.events_per_tx"] = static_cast<double>(r.total_events) / txs;
    m["sim.event_heap_peak"] = static_cast<double>(r.event_heap_peak);
    m["sim.mempool_peak_txs"] =
        static_cast<double>(r.queue_tracker.global_max());
    const auto& counts = r.shard_event_counts;
    const double total = static_cast<double>(std::accumulate(
        counts.begin(), counts.end(), std::uint64_t{0}));
    const double peak = static_cast<double>(
        counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end()));
    m["sim.shard_event_imbalance"] =
        total > 0 ? peak * static_cast<double>(counts.size()) / total : 0.0;
    if (r.link_messages > 0) {
      const double messages = static_cast<double>(r.link_messages);
      m["fabric.messages_per_tx"] = messages / txs;
      m["fabric.drops_per_message"] =
          static_cast<double>(r.link_drops) / messages;
      m["fabric.queue_delay_ms_per_message"] =
          r.link_queue_delay_s * 1e3 / messages;
    }
    m["repartition.migrated_txs"] =
        static_cast<double>(r.repartition_migrated_txs);
    m["repartition.deferred_txs"] =
        static_cast<double>(r.repartition_deferred_txs);
    m["churn.migrated_txs"] = static_cast<double>(r.migrated_txs);
  }

  std::string name_;
  api::RunSpec spec_;
  double double_spend_rate_;
  std::uint64_t gen_seed_;
  std::uint64_t inject_seed_;
  std::string tracer_path_;
  std::vector<tx::Transaction> stream_;
  std::uint64_t conflicts_ = 0;
};

/// The paper's headline operating point: OmniLedger over a flat network,
/// 6000 tps offered to 16 shards, with 0.5% double spends.
std::unique_ptr<Workload> sim_omniledger(std::uint64_t seed,
                                         const std::string& workdir) {
  api::RunSpec spec;
  spec.num_shards = 16;
  spec.rate_tps = 6000.0;
  return std::make_unique<Simulate>("sim_omniledger_k16", spec, 0.005, seed,
                                    0x300, workdir);
}

/// The same protocol over the "wan" fabric preset, with the largest shard
/// retiring at 15 s, a shard joining at 30 s, and Metis re-partitioning
/// every 10 s under a 5000-transaction budget. 1500 tps keeps the uplinks
/// below saturation: past it, which shards congest first depends on the
/// seed, and so do the cross-shard fraction and the work per transaction.
std::unique_ptr<Workload> sim_wan_churn(std::uint64_t seed,
                                        const std::string& workdir) {
  namespace sim = optchain::sim;
  api::RunSpec spec;
  spec.num_shards = 16;
  spec.rate_tps = 1500.0;
  spec.fabric = sim::fabric_preset("wan");
  spec.churn.events = {
      {15.0, sim::ChurnKind::kRemoveShard, sim::ShardChurnEvent::kAutoShard},
      {30.0, sim::ChurnKind::kAddShard, 0},
  };
  spec.repartition.interval_s = 10.0;
  spec.repartition.budget = 5000;
  return std::make_unique<Simulate>("sim_wan_churn_k16", spec, 0.0, seed,
                                    0x400, workdir);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "place_btc_k16") return std::make_unique<PlaceBtc>(seed);
  if (name == "replay_optx_k64") {
    return std::make_unique<ReplayOptx>(seed, workdir);
  }
  if (name == "sim_omniledger_k16") return sim_omniledger(seed, workdir);
  if (name == "sim_wan_churn_k16") return sim_wan_churn(seed, workdir);
  return nullptr;
}

// --------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, reported by every --trace=1 run (0 where a layer is
/// not on the workload's path). Keep in step with BENCHMARK.json.
constexpr MetricDef kLayerMetrics[] = {
    {"source.next_ns_per_tx", "ns/tx"},
    {"trace.bytes_per_tx", "B/tx"},
    {"core.choose_ns_per_tx", "ns/tx"},
    {"core.notify_ns_per_tx", "ns/tx"},
    {"api.step_self_ns_per_tx", "ns/tx"},
    {"graph.tan_edges_per_tx", "count"},
    {"sim.engine_self_ns_per_tx", "ns/tx"},
    {"sim.engine_ns_per_event", "ns"},
    {"sim.events_per_tx", "count"},
    {"sim.event_heap_peak", "count"},
    {"sim.mempool_peak_txs", "count"},
    {"sim.shard_event_imbalance", "ratio"},
    {"sim.throughput_tps", "tx/s"},
    {"sim.confirm_latency_p50_s", "s"},
    {"sim.confirm_latency_p99_s", "s"},
    {"sim.aborted_fraction", "ratio"},
    {"fabric.messages_per_tx", "count"},
    {"fabric.drops_per_message", "ratio"},
    {"fabric.queue_delay_ms_per_message", "ms"},
    {"repartition.migrated_txs", "count"},
    {"repartition.deferred_txs", "count"},
    {"churn.migrated_txs", "count"},
    {"obs.tracer_overhead_pct", "%"},
    {"bench.tracing_overhead_pct", "%"},
    {"batch_latency_p99_us", "us"},
    {"batch_latency_p999_us", "us"},
    {"batch_latency_samples", "count"},
};

struct Metric {
  std::string name;
  std::string unit;
  RepStats stats;
};

/// One metric's value over passes (pass order does not matter).
template <typename Get>
RepStats over(const std::vector<Pass>& passes, Get&& get) {
  std::vector<double> values;
  values.reserve(passes.size());
  for (const Pass& pass : passes) values.push_back(get(pass));
  return rep_stats(std::move(values));
}

RepStats single(double value) { return rep_stats({value}); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Quantile `q` of one pass's batch latencies.
double batch_quantile(const Pass& pass, double q) {
  std::vector<double> sorted = pass.batch_us;
  std::sort(sorted.begin(), sorted.end());
  return sorted_quantile(sorted, q);
}

std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes,
                                       const std::vector<double>& setup_s,
                                       double peak_rss) {
  return {
      {"throughput_tx_per_s", "tx/s",
       over(passes,
            [](const Pass& p) {
              return static_cast<double>(p.txs) / p.seconds;
            })},
      {"batch_latency_p50_us", "us",
       over(passes, [](const Pass& p) { return batch_quantile(p, 0.50); })},
      {"setup_s", "s", rep_stats(setup_s)},
      {"peak_rss_mib", "MiB", single(peak_rss)},
      {"cross_fraction", "ratio",
       over(passes, [](const Pass& p) { return p.cross_fraction; })},
  };
}

/// `plain` and `probed` are the two halves of alternating rounds;
/// `tracer` is empty unless the workload measures the RunTracer.
std::vector<Metric> layer_metrics(const std::vector<Pass>& plain,
                                  const std::vector<Pass>& probed,
                                  const std::vector<Pass>& tracer) {
  auto overhead_pct = [&](const std::vector<Pass>& other) {
    std::vector<double> values;
    for (std::size_t i = 0; i < other.size(); ++i) {
      values.push_back((other[i].seconds / plain[i].seconds - 1.0) * 100.0);
    }
    return rep_stats(std::move(values));
  };
  std::vector<double> pooled;
  for (const Pass& pass : plain) {
    pooled.insert(pooled.end(), pass.batch_us.begin(), pass.batch_us.end());
  }
  std::sort(pooled.begin(), pooled.end());

  std::vector<Metric> metrics;
  for (const MetricDef& def : kLayerMetrics) {
    const std::string name = def.name;
    RepStats stats;
    if (name == "bench.tracing_overhead_pct") {
      stats = overhead_pct(probed);
    } else if (name == "obs.tracer_overhead_pct") {
      stats = tracer.empty() ? single(0.0) : overhead_pct(tracer);
    } else if (name == "batch_latency_p99_us") {
      stats = over(plain,
                   [](const Pass& p) { return batch_quantile(p, 0.99); });
    } else if (name == "batch_latency_p999_us") {
      stats = single(sorted_quantile(pooled, 0.999));
    } else if (name == "batch_latency_samples") {
      stats = single(static_cast<double>(pooled.size()));
    } else {
      stats = over(probed, [&](const Pass& pass) {
        const auto it = pass.layer.find(name);
        return it == pass.layer.end() ? 0.0 : it->second;
      });
    }
    metrics.push_back({name, def.unit, stats});
  }
  return metrics;
}

// ---------------------------------------------------------------- output

void print_metric(const Metric& m) {
  std::printf("  %-36s %14.6g %-6s q1 %-11.6g q3 %-11.6g min %-11.6g "
              "max %-11.6g n %zu\n",
              m.name.c_str(), m.stats.median, m.unit.c_str(), m.stats.q1,
              m.stats.q3, m.stats.min, m.stats.max, m.stats.n);
}

/// The full record: host, configuration, and every metric with its
/// repetition statistics.
void write_detail(const std::string& path, const std::string& workload,
                  std::uint64_t seed, double seconds, bool trace,
                  std::size_t passes, const std::vector<Metric>& metrics,
                  bool correct) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const HostRecord host;
  std::fprintf(out,
               "{\"host\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"ndebug\": %s, \"optimized\": %s},\n",
               host.nproc, host.compiler.c_str(),
               host.ndebug ? "true" : "false",
               host.optimized ? "true" : "false");
  std::fprintf(out,
               " \"config\": {\"workload\": \"%s\", \"seed\": %llu, "
               "\"seconds\": %.17g, \"trace\": %d, \"setup_reps\": %d, "
               "\"passes\": %zu},\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               seconds, trace ? 1 : 0, kSetupReps, passes);
  std::fprintf(out, " \"correct\": %s,\n \"metrics\": {",
               correct ? "true" : "false");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(out,
                 "%s\n  \"%s\": {\"unit\": \"%s\", \"median\": %.17g, "
                 "\"q1\": %.17g, \"q3\": %.17g, \"min\": %.17g, "
                 "\"max\": %.17g, \"n\": %zu}",
                 i == 0 ? "" : ",", m.name.c_str(), m.unit.c_str(),
                 m.stats.median, m.stats.q1, m.stats.q3, m.stats.min,
                 m.stats.max, m.stats.n);
  }
  std::fprintf(out, "\n }\n}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].stats.median, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ------------------------------------------------------------------ main

int run(int argc, char** argv) {
  const optchain::Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 20.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string workdir = flags.get_string("workdir", ".");
  const std::string out_path = flags.get_string("out", "");

  std::unique_ptr<Workload> wl = make_workload(name, seed, workdir);
  if (!wl) {
    std::fprintf(stderr,
                 "unknown --workload=%s (place_btc_k16, replay_optx_k64, "
                 "sim_omniledger_k16, sim_wan_churn_k16)\n",
                 name.c_str());
    return 2;
  }
  register_timed_optchain();
  clock_overhead_ns();

  const HostRecord host;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d | nproc=%u %s%s\n",
              name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, host.nproc, host.compiler.c_str(),
              host.ndebug && host.optimized ? "" : " (NOT an optimized build)");

  // Each repetition starts from a fresh workload, so freeing the previous
  // inputs is neither timed nor counted in the peak RSS.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      wl.reset();
      wl = make_workload(name, seed, workdir);
    }
    const Clock::time_point start = Clock::now();
    wl->setup();
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  Checks checks;
  const Pass warmup = wl->run_pass(PassKind::kPlain, /*deep=*/true, checks);
  // Memory of one setup and one pass; later passes only add allocator
  // churn from repeating the workload in one process.
  const double peak_rss = peak_rss_mib();
  auto check_same = [&](const Pass& pass, const char* what) {
    checks.expect(pass.fingerprint == warmup.fingerprint,
                  name + ": a " + what + " pass's outputs differ from the "
                  "warm-up pass");
  };

  // Plain passes (and, with --trace=1, the probed and tracer passes that
  // alternate with them) until the time budget is spent.
  std::vector<Pass> plain;
  std::vector<Pass> probed;
  std::vector<Pass> tracer;
  const Clock::time_point start = Clock::now();
  while (plain.size() < kMinPasses ||
         seconds_between(start, Clock::now()) < seconds) {
    plain.push_back(wl->run_pass(PassKind::kPlain, false, checks));
    check_same(plain.back(), "plain");
    if (!trace) continue;
    probed.push_back(wl->run_pass(PassKind::kProbed, false, checks));
    check_same(probed.back(), "probed");
    if (wl->measures_run_tracer()) {
      tracer.push_back(wl->run_pass(PassKind::kRunTracer, false, checks));
      check_same(tracer.back(), "RunTracer");
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const std::vector<Pass>* group : {&plain, &probed, &tracer}) {
    for (const Pass& pass : *group) {
      attempted += pass.txs;
      failed += pass.unsettled;
    }
  }

  const std::vector<Metric> metrics =
      trace ? layer_metrics(plain, probed, tracer)
            : end_to_end_metrics(plain, setup_s, peak_rss);
  for (const Metric& metric : metrics) {
    checks.expect(std::isfinite(metric.stats.median),
                  name + ": " + metric.name + " is not finite");
  }
  const bool correct = checks.passed() && failed == 0;
  std::printf("%zu passes%s:\n", plain.size(),
              trace ? " each plain and probed" : "");
  for (const Metric& metric : metrics) print_metric(metric);
  if (!out_path.empty()) {
    write_detail(out_path, name, seed, seconds, trace, plain.size(), metrics,
                 correct);
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
