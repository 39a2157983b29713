#include "sim/fabric/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace optchain::sim {
namespace {

// Salts of the fabric's mix64-derived streams, disjoint from the shard spawn
// stream (0x5a17c0de, sim/shard_spawn.hpp) and the per-shard fault streams.
constexpr std::uint64_t kRegionSalt = 0xfab51C00ULL;
constexpr std::uint64_t kStragglerSalt = 0xfab51C01ULL;
constexpr std::uint64_t kJitterSalt = 0xfab51C02ULL;

/// Uniform [0, 1) from a mixed 64-bit word (the xoshiro uniform01 mapping:
/// top 53 bits).
double u01(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

void FabricConfig::validate() const {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("FabricConfig: " + what);
  };
  if (!(link.bandwidth_bps > 0.0)) {
    reject("link.bandwidth_bps must be positive (got " +
           std::to_string(link.bandwidth_bps) + ")");
  }
  if (regions == 0) reject("regions must be >= 1");
  if (!(intra_region_latency_s >= 0.0) || !(inter_region_latency_s >= 0.0)) {
    reject("region latencies must be non-negative");
  }
  if (!(max_distance_latency_s >= 0.0)) {
    reject("max_distance_latency_s must be non-negative");
  }
  if (!(max_jitter_s >= 0.0)) reject("max_jitter_s must be non-negative");
  if (!(straggler_fraction >= 0.0 && straggler_fraction <= 1.0)) {
    reject("straggler_fraction must be in [0, 1]");
  }
  if (!(straggler_extra_s >= 0.0)) {
    reject("straggler_extra_s must be non-negative");
  }
  if (link.queue_bytes > 0 && !(retransmit_timeout_s > 0.0)) {
    reject("retransmit_timeout_s must be positive with a finite queue");
  }
}

FabricConfig fabric_preset(std::string_view name) {
  FabricConfig config;
  if (name.empty() || name == "off") return config;
  if (name == "flat") {
    // Degenerate-enabled: the flat operating point expressed as a fabric.
    // Bit-identical to "off" (tests/fabric_test.cpp pins it).
    config.enabled = true;
    return config;
  }
  if (name == "wan") {
    config.enabled = true;
    config.regions = 4;
    config.intra_region_latency_s = 0.030;
    config.inter_region_latency_s = 0.180;
    config.max_jitter_s = 0.010;
    config.link.queue_bytes = 256 * 1024;
    return config;
  }
  if (name == "congested") {
    config.enabled = true;
    config.regions = 4;
    config.intra_region_latency_s = 0.030;
    config.inter_region_latency_s = 0.180;
    config.max_jitter_s = 0.010;
    config.link.bandwidth_bps = 5e6;
    config.link.queue_bytes = 64 * 1024;
    config.straggler_fraction = 0.10;
    config.straggler_extra_s = 0.100;
    return config;
  }
  throw std::invalid_argument("unknown fabric preset: " + std::string(name) +
                              " (try off|flat|wan|congested)");
}

LinkFabric::LinkFabric(const FabricConfig& config, const NetworkModel& flat,
                       std::uint64_t sim_seed)
    : config_(config),
      flat_(&flat),
      sim_seed_(sim_seed),
      intra_(NetworkConfig{config.intra_region_latency_s,
                           config.max_distance_latency_s,
                           config.link.bandwidth_bps}),
      inter_(NetworkConfig{config.inter_region_latency_s,
                           config.max_distance_latency_s,
                           config.link.bandwidth_bps}) {
  config_.validate();
}

std::uint32_t LinkFabric::add_endpoint() {
  const auto id = static_cast<std::uint32_t>(endpoints_.size());
  endpoints_.push_back(Endpoint{});
  return id;
}

std::uint32_t LinkFabric::region_of(std::uint32_t ep) const noexcept {
  if (config_.regions <= 1) return 0;
  return static_cast<std::uint32_t>(
      mix64(sim_seed_ ^ mix64(kRegionSalt + ep)) % config_.regions);
}

bool LinkFabric::is_straggler(std::uint32_t ep) const noexcept {
  if (config_.straggler_fraction <= 0.0) return false;
  return u01(mix64(sim_seed_ ^ mix64(kStragglerSalt + ep))) <
         config_.straggler_fraction;
}

double LinkFabric::propagation_delay(std::uint32_t from, std::uint32_t to,
                                     const Position& from_pos,
                                     const Position& to_pos) const {
  if (!config_.enabled) return flat_->propagation_delay(from_pos, to_pos);
  const NetworkModel& tier =
      region_of(from) == region_of(to) ? intra_ : inter_;
  double delay = tier.propagation_delay(from_pos, to_pos);
  // Straggler extras join after the tier term; both are 0.0 in the
  // degenerate flat configuration, and x + 0.0 == x exactly.
  if (is_straggler(from)) delay += config_.straggler_extra_s;
  if (is_straggler(to)) delay += config_.straggler_extra_s;
  return delay;
}

double LinkFabric::jitter(std::uint32_t from, std::uint32_t to) {
  if (config_.max_jitter_s <= 0.0) return 0.0;
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(from) << 32) | to;
  const std::uint64_t stream = mix64(sim_seed_ ^ mix64(kJitterSalt + pair));
  const std::uint64_t counter = jitter_counters_[pair]++;
  return config_.max_jitter_s * u01(mix64(stream + counter));
}

double LinkFabric::message_delay(double now, std::uint32_t from,
                                 std::uint32_t to, const Position& from_pos,
                                 const Position& to_pos, std::uint64_t bytes) {
  if (!config_.enabled) return flat_->message_delay(from_pos, to_pos, bytes);
  OPTCHAIN_ASSERT(from < endpoints_.size() && to < endpoints_.size());
  ++stats_.messages;
  stats_.bytes += bytes;

  const NetworkModel& tier =
      region_of(from) == region_of(to) ? intra_ : inter_;
  double delay;
  if (config_.link.queue_bytes == 0) {
    // Unconstrained uplink: propagation + serialization, the literal
    // NetworkModel expression — what keeps the degenerate configuration
    // bit-identical to the flat path.
    delay = tier.message_delay(from_pos, to_pos, bytes);
  } else {
    Endpoint& src = endpoints_[from];
    const double ser = tier.transfer_time(bytes);
    // Tail drop + retransmit: each timeout drains timeout × bw / 8 bytes of
    // the (fixed) backlog ahead of us, so the loop always terminates; a
    // send finding an empty queue is always admitted.
    double depart = now;
    while (true) {
      const double wait =
          src.busy_until > depart ? src.busy_until - depart : 0.0;
      const double backlog_bytes =
          wait * config_.link.bandwidth_bps / 8.0;
      if (backlog_bytes > static_cast<double>(config_.link.queue_bytes)) {
        ++stats_.drops;
        ++src.drops;
        depart += config_.retransmit_timeout_s;
        continue;
      }
      stats_.peak_backlog_s = std::max(stats_.peak_backlog_s, wait);
      src.busy_until = depart + wait + ser;
      depart += wait;
      break;
    }
    const double queued = depart - now;  // retransmit waits + queueing
    stats_.queue_delay_s += queued;
    delay = queued + ser + tier.propagation_delay(from_pos, to_pos);
  }
  if (is_straggler(from)) delay += config_.straggler_extra_s;
  if (is_straggler(to)) delay += config_.straggler_extra_s;
  return delay + jitter(from, to);
}

void LinkFabric::sample_links(double now,
                              std::vector<LinkSample>& out) const {
  out.clear();
  out.reserve(endpoints_.size());
  for (std::uint32_t ep = 0; ep < endpoints_.size(); ++ep) {
    const Endpoint& endpoint = endpoints_[ep];
    LinkSample sample;
    sample.endpoint = ep;
    sample.backlog_s =
        endpoint.busy_until > now ? endpoint.busy_until - now : 0.0;
    sample.drops = endpoint.drops;
    out.push_back(sample);
  }
}

void LinkFabric::reset_state() {
  for (Endpoint& endpoint : endpoints_) endpoint = Endpoint{};
  jitter_counters_.clear();
  stats_ = Stats{};
}

}  // namespace optchain::sim
