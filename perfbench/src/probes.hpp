// Layer probes: bench-side decorators that time calls into one layer's
// public functions, so a probed pass splits its wall time by layer without
// any instrumentation inside src/.
//
//   ProbeSource  wraps a workload::TxSource and times next() (OPTX decode,
//                or the in-memory copy of a span source).
//   TimedPlacer  wraps the registry's OptChain placer and times choose()
//                (T2S gather, L2S term, argmax) and notify_placed() (the
//                ScorePool α-append). It is registered with the
//                PlacerRegistry as "bench.timed:OptChain", so it reaches the
//                placer through api::make_pipeline and api::simulate exactly
//                like a user's strategy would.
//
// Timing every call roughly doubles the cost of the cheapest layers, so a
// probe times one call in sixteen, chosen by a hash of the transaction index
// (a plain modulus would line up with the generator's every-100th coinbase),
// and scales the sampled time by calls / sampled.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/placer_registry.hpp"
#include "placement/placer.hpp"
#include "workload/tx_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Transactions per closed-loop submission, and per slice of a simulated
/// stream when timing batch latency.
inline constexpr std::size_t kBatch = 512;

/// The registry name of the timed OptChain wrapper.
inline constexpr std::string_view kTimedOptChain = "bench.timed:OptChain";

inline double nanoseconds(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

/// True for about one transaction index in sixteen (Fibonacci hashing).
inline bool sampled(std::uint64_t index) {
  return (index * 0x9E3779B97F4A7C15ull) >> 60 == 0;
}

/// Median cost of reading the clock; every sampled call pays about one
/// read, which a probe subtracts.
inline double clock_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> deltas(2001);
    for (double& delta : deltas) {
      const auto a = Clock::now();
      delta = nanoseconds(Clock::now() - a);
    }
    std::nth_element(deltas.begin(), deltas.begin() + 1000, deltas.end());
    return deltas[1000];
  }();
  return overhead;
}

/// Call count and sampled busy time of one layer.
struct LayerProbe {
  bool enabled = false;
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  double timed_ns = 0.0;

  /// Estimated busy time over all calls.
  double total_ns() const {
    if (timed == 0) return 0.0;
    return std::max(0.0, timed_ns * static_cast<double>(calls) /
                             static_cast<double>(timed));
  }
};

/// The probes of one pass. Process-wide, because the registry builds the
/// timed placer through a factory that cannot carry per-pass state.
struct Probes {
  LayerProbe next;
  LayerProbe choose;
  LayerProbe notify;

  void reset(bool enabled) {
    *this = Probes{};
    next.enabled = choose.enabled = notify.enabled = enabled;
  }
};

inline Probes& probes() {
  static Probes instance;
  return instance;
}

/// Times the enclosing scope into `probe` when `index` is sampled.
class ProbeSpan {
 public:
  ProbeSpan(LayerProbe& probe, std::uint64_t index)
      : probe_(probe), timed_(probe.enabled && sampled(index)) {
    ++probe_.calls;
    if (timed_) start_ = Clock::now();
  }
  ~ProbeSpan() {
    if (!timed_) return;
    probe_.timed_ns += nanoseconds(Clock::now() - start_) - clock_overhead_ns();
    ++probe_.timed;
  }
  ProbeSpan(const ProbeSpan&) = delete;
  ProbeSpan& operator=(const ProbeSpan&) = delete;

 private:
  LayerProbe& probe_;
  bool timed_;
  Clock::time_point start_;
};

/// Forwards to an inner TxSource, timing next() through probes().next and,
/// when `slice_marks` is set, stamping the clock before every kBatch-th
/// transaction pulled.
class ProbeSource final : public optchain::workload::TxSource {
 public:
  ProbeSource(optchain::workload::TxSource& inner,
              std::vector<Clock::time_point>* slice_marks)
      : inner_(inner), marks_(slice_marks) {}

  bool next(optchain::tx::Transaction& out) override {
    if (marks_ != nullptr && pulled_ % kBatch == 0) {
      marks_->push_back(Clock::now());
    }
    bool ok = false;
    {
      ProbeSpan span(probes().next, pulled_);
      ok = inner_.next(out);
    }
    if (ok) ++pulled_;
    return ok;
  }

  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }

  double issue_time(std::uint64_t index, double nominal_rate_tps) override {
    return inner_.issue_time(index, nominal_rate_tps);
  }

  /// Transactions handed out so far.
  std::uint64_t pulled() const noexcept { return pulled_; }

 private:
  optchain::workload::TxSource& inner_;
  std::vector<Clock::time_point>* marks_;
  std::uint64_t pulled_ = 0;
};

/// Forwards to the wrapped placer, timing choose() and notify_placed().
class TimedPlacer final : public optchain::placement::Placer {
 public:
  explicit TimedPlacer(std::unique_ptr<optchain::placement::Placer> inner)
      : inner_(std::move(inner)) {}

  optchain::placement::ShardId choose(
      const optchain::placement::PlacementRequest& request,
      const optchain::placement::ShardAssignment& assignment) override {
    ProbeSpan span(probes().choose, request.index);
    return inner_->choose(request, assignment);
  }

  void notify_placed(const optchain::placement::PlacementRequest& request,
                     optchain::placement::ShardId shard) override {
    ProbeSpan span(probes().notify, request.index);
    inner_->notify_placed(request, shard);
  }

  void reserve(std::uint64_t expected_txs) override {
    inner_->reserve(expected_txs);
  }

  // The inner name, so a probed run's results compare equal to a plain one.
  std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<optchain::placement::Placer> inner_;
};

/// Registers kTimedOptChain: the registry's own OptChain, wrapped.
inline void register_timed_optchain() {
  auto& registry = optchain::api::PlacerRegistry::instance();
  registry.register_placer(
      std::string(kTimedOptChain),
      [](const optchain::api::PlacerContext& context) {
        return std::make_unique<TimedPlacer>(
            optchain::api::PlacerRegistry::instance().make("OptChain",
                                                           context));
      });
}

}  // namespace perfbench
