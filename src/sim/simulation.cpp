#include "sim/simulation.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "sim/shard_spawn.hpp"
#include "workload/dynamic_profile.hpp"

namespace optchain::sim {

Simulation::Simulation(SimConfig config)
    : config_(config),
      network_(config.network),
      fabric_(config.fabric, network_, config.seed),
      rng_(config.seed),
      result_{} {
  OPTCHAIN_EXPECTS(config_.num_shards >= 1);
  OPTCHAIN_EXPECTS(config_.tx_rate_tps > 0.0);
  // The queue sample reschedules itself this far ahead; zero would spin at
  // one instant forever (the comparison also rejects NaN).
  OPTCHAIN_EXPECTS(config_.queue_sample_interval_s > 0.0);
  for (const ShardChurnEvent& change : config_.churn.events) {
    OPTCHAIN_EXPECTS(change.time_s >= 0.0);
  }

  client_position_ = network_.random_position(rng_);
  OPTCHAIN_ASSERT(fabric_.add_endpoint() == kClientEndpoint);
  shards_.reserve(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) spawn_shard_node();
}

void Simulation::spawn_shard_node() {
  const auto s = static_cast<std::uint32_t>(shards_.size());
  // Per-shard spawn stream (sim/shard_spawn.hpp): shard s's geography is a
  // pure function of (sim_seed, s), shared with the parallel engine. An
  // enabled fabric routes consensus block dissemination over the shard's
  // access link (pure config — identical in both engines).
  SpawnedShard spawned = spawn_shard(
      config_.consensus, network_, config_.seed, s,
      config_.fabric.enabled ? config_.fabric.link.bandwidth_bps : 0.0);
  const Position leader = spawned.leader_position;
  ConsensusModel model = std::move(spawned.model);
  ShardFaults faults;
  faults.slowdown =
      s < config_.shard_slowdown.size() ? config_.shard_slowdown[s] : 1.0;
  faults.leader_fault_rate = config_.leader_fault_rate;
  faults.view_change_penalty_s = config_.view_change_penalty_s;
  faults.seed = config_.seed;
  shards_.push_back(std::make_unique<ShardNode>(
      s, leader, std::move(model), events_,
      [this](std::uint32_t shard, const QueueItem& item, SimTime time) {
        on_item_committed(shard, item, time);
      },
      faults));
  OPTCHAIN_ASSERT(fabric_.add_endpoint() == endpoint_of(s));
  // The client's round-trip to the new shard, for the placement timing view.
  // Stateless fabric propagation (= the flat model when disabled) between
  // fixed positions, so it is computed once: the view prices region tiers
  // and stragglers without perturbing delivery state.
  latency::ShardTiming timing;
  timing.mean_comm = 2.0 * fabric_.propagation_delay(kClientEndpoint,
                                                     endpoint_of(s),
                                                     client_position_, leader);
  timings_.push_back(timing);
}

void Simulation::observe_timings() {
  // What a client can see of each shard (paper §IV.C): the round-trip time it
  // samples itself (cached per shard by spawn_shard_node), and a
  // verification-time estimate formed from the shard's recent consensus
  // duration scaled by the mempool backlog.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardNode& shard = *shards_[s];
    const double backlog_blocks =
        static_cast<double>(shard.queue_size()) /
        static_cast<double>(config_.consensus.txs_per_block);
    timings_[s].mean_verify =
        shard.last_round_duration() * (1.0 + backlog_blocks);
  }
}

SimResult Simulation::run(std::span<const tx::Transaction> transactions,
                          api::PlacementPipeline& pipeline) {
  workload::SpanTxSource source(transactions);
  return run(source, pipeline);
}

SimResult Simulation::run(workload::TxSource& source,
                          api::PlacementPipeline& pipeline) {
  OPTCHAIN_EXPECTS(pipeline.k() == config_.num_shards);
  // Fresh pipeline only: nothing placed AND nothing previewed (a stale
  // preview would commit a decision made without the simulator's live
  // timing view).
  OPTCHAIN_EXPECTS(pipeline.total() == 0);
  OPTCHAIN_EXPECTS(pipeline.dag().num_nodes() == 0);

  source_ = &source;
  pipeline_ = &pipeline;
  assignment_ = &pipeline.assignment();
  issued_ = 0;
  outstanding_ = 0;
  committed_ = 0;
  inflight_.clear();
  outpoint_state_.clear();
  successor_of_.resize(shards_.size());
  for (std::uint32_t s = 0; s < successor_of_.size(); ++s) {
    successor_of_[s] = s;
  }
  utxo_records_.assign(churn_enabled() ? shards_.size() : 0, 0);
  live_outputs_.clear();
  repartitioner_.reset();
  if (repartition_enabled()) {
    repartitioner_ =
        std::make_unique<RepartitionController>(config_.repartition);
  }

  result_ = SimResult{};
  result_.placer_name = std::string(pipeline.method_name());
  fabric_.reset_state();

  // All metric collection flows through the observer seam: the engine's own
  // collectors are observers_[0], followed by whatever the caller installed
  // via SimConfig::observers (RunSpec plumbs them through). Hooks fire in
  // this order, synchronously, inside event dispatch.
  metrics_ = stats::MetricsObserver(config_.commit_window_s);
  observers_.clear();
  observers_.push_back(&metrics_);
  for (SimObserver* observer : config_.observers) {
    OPTCHAIN_EXPECTS(observer != nullptr);
    observers_.push_back(observer);
  }

  const auto hint = source.size_hint();
  if (hint.has_value()) {
    // Pre-size everything that scales with the stream so the run never
    // rehashes or reallocates per-transaction state mid-flight: the
    // lock/spend ledger sees ~1.5 entries per transaction on Bitcoin-like
    // workloads (225k for 150k txs), which one entry per transaction at the
    // ledger's half-load ceiling covers, and the pipeline forwards the hint
    // to its dag, assignment and placer (TanDag::reserve /
    // ScorePool::reserve). The in-flight window sizes itself by doubling.
    outpoint_state_.reserve(static_cast<std::size_t>(*hint));
    pipeline.reserve(*hint);
    if (repartition_enabled()) {
      live_outputs_.reserve(static_cast<std::size_t>(*hint));
    }
  }
  // The event heap's working set is O(in-flight messages), not O(stream):
  // size it from the expected-txs hint (capped — bench_scale's
  // event_heap_peak tracks how much is actually used) so steady-state runs
  // never reallocate it mid-flight.
  events_.reserve(event_heap_reserve(hint));
  shard_event_counts_.assign(shards_.size(), 0);

  // The issue chain pulls one transaction ahead: the prefetched transaction
  // is what the pending kTxIssue event will issue, and its existence is what
  // tells us whether to chain another issue event (the stream length need
  // not be known).
  staged_valid_ = source_->next(staged_);
  if (staged_valid_) {
    events_.schedule(0.0, Event::tx_issue(0));
  }
  // Periodic queue sampling (Figs. 6-7); stops once everything committed.
  events_.schedule(0.0, Event::queue_sample());
  // Scripted shard churn fires through the same typed queue; the payload is
  // the plan index (the event record has no room for the full change).
  for (std::uint32_t c = 0; c < config_.churn.events.size(); ++c) {
    events_.schedule(config_.churn.events[c].time_s, Event::shard_change(c));
  }
  // The re-partition cadence chains itself like queue sampling: one pending
  // tick at a time, rescheduled while work remains.
  if (repartition_enabled()) {
    events_.schedule(config_.repartition.interval_s, Event::repartition());
  }

  while (work_remaining() && !events_.empty() &&
         events_.now() <= config_.max_sim_time_s) {
    events_.run_one(*this);
    ++result_.total_events;
  }

  result_.total_txs = hint.has_value() ? *hint : issued_;
  result_.committed_txs = committed_;
  result_.completed = !work_remaining();
  result_.cross_txs = metrics_.cross_counter().cross();
  result_.aborted_txs = metrics_.aborted();
  result_.duration_s = metrics_.duration_s();
  result_.shard_changes = metrics_.shard_changes();
  result_.migrated_txs = metrics_.migrated_txs();
  result_.migrated_utxos = metrics_.migrated_utxos();
  result_.repartition_events = metrics_.repartition_events();
  result_.repartition_migrated_txs = metrics_.repartition_migrated_txs();
  result_.repartition_migrated_utxos = metrics_.repartition_migrated_utxos();
  result_.repartition_deferred_txs = metrics_.repartition_deferred_txs();
  result_.latencies = metrics_.latencies();
  result_.commits_per_window = metrics_.commits_per_window();
  result_.queue_tracker = metrics_.queue_tracker();
  if (result_.latencies.count() > 0) {
    result_.avg_latency_s = result_.latencies.average();
    result_.max_latency_s = result_.latencies.maximum();
  }
  if (result_.duration_s > 0.0) {
    result_.throughput_tps =
        static_cast<double>(result_.committed_txs) / result_.duration_s;
  }
  for (const auto& shard : shards_) {
    result_.total_blocks += shard->blocks_committed();
  }
  result_.event_heap_peak = events_.peak_pending();
  const LinkFabric::Stats& link_stats = fabric_.stats();
  result_.link_messages = link_stats.messages;
  result_.link_bytes = link_stats.bytes;
  result_.link_drops = link_stats.drops;
  result_.link_queue_delay_s = link_stats.queue_delay_s;
  result_.link_peak_backlog_s = link_stats.peak_backlog_s;
  shard_event_counts_.resize(shards_.size(), 0);
  result_.shard_event_counts = shard_event_counts_;
  result_.final_shard_sizes = pipeline.assignment().sizes();
  assignment_ = nullptr;
  pipeline_ = nullptr;
  source_ = nullptr;
  return result_;
}

void Simulation::on_event(const Event& event) {
  // Shard-addressed events feed the per-shard diagnostics; client-side
  // events (issues, samples, churn) have no shard. Counted by the shard the
  // message was *addressed* to (pre-churn-resolution), matching the
  // parallel engine's count at record-merge time.
  if (event.type != EventType::kTxIssue &&
      event.type != EventType::kQueueSample &&
      event.type != EventType::kShardChange &&
      event.type != EventType::kRepartition &&
      event.type != EventType::kGossipHop) {
    if (event.shard >= shard_event_counts_.size()) {
      shard_event_counts_.resize(event.shard + 1, 0);
    }
    ++shard_event_counts_[event.shard];
  }
  switch (event.type) {
    case EventType::kTxIssue:
      issue_transaction(event.tx);
      break;
    // Protocol messages resolve their destination through the churn
    // successor chain at *delivery* time: a message sent to a shard that
    // retired mid-flight lands at the shard that inherited its records
    // (resolve_shard is the identity without churn).
    case EventType::kTxDeliver:
      shards_[resolve_shard(event.shard)]->enqueue(
          QueueItem{event.tx, ItemKind::kSameShard});
      break;
    case EventType::kLockRequest:
      shards_[resolve_shard(event.shard)]->enqueue(
          QueueItem{event.tx, ItemKind::kLock});
      break;
    case EventType::kUnlockCommit:
      shards_[resolve_shard(event.shard)]->enqueue(
          QueueItem{event.tx, ItemKind::kCommit});
      break;
    case EventType::kProof:
      handle_proof(event.tx, event.flag != 0, event.shard);
      break;
    case EventType::kUnlockAbort: {
      release_locks(event.tx, resolve_shard(event.shard));
      Inflight& flight = inflight_.at(event.tx);
      OPTCHAIN_ASSERT(flight.releases_in_flight > 0);
      --flight.releases_in_flight;
      erase_if_settled(event.tx);
      break;
    }
    case EventType::kBlockCommit:
    case EventType::kViewChange:
      shards_[event.shard]->complete_round();
      notify_block_commit(event.shard, events_.now());
      break;
    case EventType::kQueueSample:
      sample_queues();
      if (work_remaining()) {
        events_.schedule_in(config_.queue_sample_interval_s,
                            Event::queue_sample());
      }
      break;
    case EventType::kShardChange:
      apply_churn(config_.churn.events[event.tx]);
      break;
    case EventType::kRepartition:
      apply_repartition();
      break;
    case EventType::kGossipHop:
      OPTCHAIN_ASSERT(false);  // tree gossip runs on its own queue
      break;
  }
}

void Simulation::issue_transaction(std::uint32_t index) {
  OPTCHAIN_ASSERT(staged_valid_);
  OPTCHAIN_ASSERT(staged_.index == index);
  constexpr std::uint64_t kMinPayloadBytes = 512;

  Inflight& flight = inflight_.open(index);
  flight.issue_time = events_.now();

  // Client-side placement with the client's current view of shard timings
  // for the L2S term. The pipeline handles the TaN registration, the
  // decision and the placer bookkeeping.
  observe_timings();
  const api::StepResult placed = pipeline_->step(staged_, timings_);
  const placement::ShardId target = placed.shard;

  // Dispatch into the cross-shard protocol.
  const std::uint64_t payload =
      std::max<std::uint64_t>(staged_.serialized_size(), kMinPayloadBytes);
  if (!placed.cross) {
    events_.schedule_in(
        fabric_.message_delay(events_.now(), kClientEndpoint,
                              endpoint_of(target), client_position_,
                              shards_[target]->leader_position(), payload),
        Event::deliver(EventType::kTxDeliver, target, index));
  } else {
    flight.cross.remaining_locks =
        static_cast<std::uint32_t>(placed.input_shards.size());
    flight.cross.output_shard = target;
    for (const placement::ShardId s : placed.input_shards) {
      events_.schedule_in(
          fabric_.message_delay(events_.now(), kClientEndpoint,
                                endpoint_of(s), client_position_,
                                shards_[s]->leader_position(), payload),
          Event::deliver(EventType::kLockRequest, s, index));
    }
  }

  // Churn runs track the live UTXO ledger per owning shard (outputs of a
  // transaction belong to its shard), so a retirement can report how many
  // records migrate.
  if (churn_enabled()) {
    utxo_records_[target] += staged_.outputs.size();
  }
  // Repartition runs additionally track live outputs per transaction: what
  // one migrated record carries with it.
  if (repartition_enabled()) {
    OPTCHAIN_ASSERT(live_outputs_.size() == index);
    live_outputs_.push_back(
        static_cast<std::uint32_t>(staged_.outputs.size()));
  }

  // The protocol only needs the inputs from here on. Swapping hands staged_
  // the record's cleared vector, whose capacity the prefetch below reuses,
  // so steady-state issues allocate nothing.
  flight.inputs.swap(staged_.inputs);
  ++outstanding_;
  ++issued_;
  notify_issue(index, flight.issue_time, placed.cross);

  // Chain the next issue event, if the stream has one. The source owns the
  // schedule: the default is the historical uniform index/rate, and dynamic
  // sources substitute their rate curve (step/ramp/diurnal/flash-crowd).
  staged_valid_ = source_->next(staged_);
  if (staged_valid_) {
    const double next_time =
        source_->issue_time(index + 1, config_.tx_rate_tps);
    events_.schedule(next_time, Event::tx_issue(index + 1));
  }
}

bool Simulation::try_lock_inputs(std::uint32_t index, std::uint32_t shard) {
  const Inflight& flight = inflight_.at(index);
  for (const tx::OutPoint& point : flight.inputs) {
    if (assignment_->shard_of(point.tx) != shard) continue;
    const OutpointLedger::Entry* entry =
        outpoint_state_.find(outpoint_key(point));
    if (entry != nullptr && entry->tx != index) {
      return false;  // held or spent by a conflicting transaction
    }
  }
  for (const tx::OutPoint& point : flight.inputs) {
    if (assignment_->shard_of(point.tx) != shard) continue;
    outpoint_state_[outpoint_key(point)] = {OutpointState::kLocked, index};
  }
  return true;
}

void Simulation::release_locks(std::uint32_t index, std::uint32_t shard) {
  const Inflight& flight = inflight_.at(index);
  for (const tx::OutPoint& point : flight.inputs) {
    if (assignment_->shard_of(point.tx) != shard) continue;
    const std::uint64_t key = outpoint_key(point);
    const OutpointLedger::Entry* entry = outpoint_state_.find(key);
    if (entry != nullptr && entry->state == OutpointState::kLocked &&
        entry->tx == index) {
      outpoint_state_.erase(key);
    }
  }
}

void Simulation::spend_inputs(std::uint32_t index) {
  const Inflight& flight = inflight_.at(index);
  for (const tx::OutPoint& point : flight.inputs) {
    OutpointLedger::Entry& entry = outpoint_state_[outpoint_key(point)];
    // Without churn or repartition the lock protocol makes a conflicting
    // double-commit impossible; a retirement or re-partition move
    // mid-handoff can drop a lock, so those runs tolerate (and ignore) a
    // late conflicting spend instead of asserting.
    if (entry.state == OutpointState::kSpent && entry.tx != index) {
      OPTCHAIN_ASSERT(churn_enabled() || repartition_enabled());
      continue;
    }
    entry = {OutpointState::kSpent, index};
    // Synthetic hotspot outpoints (vout >= kInjectedVoutBase) were never
    // credited as outputs, so only genuine spends consume a record.
    if (point.vout < workload::DynamicTxSource::kInjectedVoutBase) {
      if (churn_enabled()) {
        std::uint64_t& records =
            utxo_records_[assignment_->shard_of(point.tx)];
        if (records > 0) --records;
      }
      if (repartition_enabled() && point.tx < live_outputs_.size()) {
        std::uint32_t& live = live_outputs_[point.tx];
        if (live > 0) --live;
      }
    }
  }
}

void Simulation::on_item_committed(std::uint32_t shard, const QueueItem& item,
                                   SimTime time) {
  // A retired shard's in-flight block still commits; its items act on behalf
  // of the successor that inherited the shard's records.
  shard = resolve_shard(shard);
  switch (item.kind) {
    case ItemKind::kSameShard: {
      // Single-pass validation: all inputs live here. A conflict (outpoint
      // already locked/spent by another transaction) is rejected outright.
      if (try_lock_inputs(item.tx, shard)) {
        spend_inputs(item.tx);
        commit_transaction(item.tx, time);
      } else {
        abort_transaction(item.tx, time);
        inflight_.at(item.tx).aborted = true;
        erase_if_settled(item.tx);
      }
      break;
    }
    case ItemKind::kCommit:
      // Unlock-to-commit at the output shard: locks become permanent spends.
      spend_inputs(item.tx);
      commit_transaction(item.tx, time);
      break;
    case ItemKind::kLock: {
      // Validate and lock this shard's inputs; the proof (acceptance or
      // rejection) travels to the decision point — the client in OmniLedger,
      // the output committee in RapidChain.
      const std::uint32_t index = item.tx;
      const bool accepted = try_lock_inputs(index, shard);
      const ShardNode& origin = *shards_[shard];
      const std::uint32_t decision_ep =
          config_.protocol == ProtocolMode::kOmniLedger
              ? kClientEndpoint
              : endpoint_of(
                    resolve_shard(inflight_.at(index).cross.output_shard));
      const Position decision_point =
          decision_ep == kClientEndpoint
              ? client_position_
              : shards_[decision_ep - 1]->leader_position();
      const double delay =
          fabric_.message_delay(time, endpoint_of(shard), decision_ep,
                                origin.leader_position(), decision_point,
                                config_.proof_bytes);
      events_.schedule_in(delay, Event::proof(index, shard, accepted));
      break;
    }
  }
}

void Simulation::handle_proof(std::uint32_t index, bool accepted,
                              std::uint32_t from_shard) {
  Inflight& flight = inflight_.at(index);
  PendingCross& pending = flight.cross;
  OPTCHAIN_ASSERT(pending.remaining_locks > 0);
  if (accepted) {
    pending.accepted_shards.push_back(from_shard);
  } else {
    pending.rejected = true;
  }
  if (--pending.remaining_locks > 0) return;

  const std::uint32_t output_shard = resolve_shard(pending.output_shard);
  const ShardNode& output = *shards_[output_shard];
  const std::uint32_t decision_ep =
      config_.protocol == ProtocolMode::kOmniLedger
          ? kClientEndpoint
          : endpoint_of(output_shard);
  const Position decision_point =
      config_.protocol == ProtocolMode::kOmniLedger
          ? client_position_
          : output.leader_position();

  if (!pending.rejected) {
    // All proofs of acceptance: unlock-to-commit to the output shard.
    const double to_output = fabric_.message_delay(
        events_.now(), decision_ep, endpoint_of(output_shard), decision_point,
        output.leader_position(), config_.proof_bytes + 512);
    events_.schedule_in(
        to_output,
        Event::deliver(EventType::kUnlockCommit, pending.output_shard, index));
    return;
  }

  // At least one proof-of-rejection: unlock-to-abort reclaims the locks at
  // every shard that accepted, and the transaction is abandoned. The
  // in-flight record stays alive until the releases land (they need the
  // input list).
  for (const std::uint32_t shard : pending.accepted_shards) {
    const double to_shard = fabric_.message_delay(
        events_.now(), decision_ep, endpoint_of(shard), decision_point,
        shards_[shard]->leader_position(), config_.proof_bytes);
    events_.schedule_in(to_shard,
                        Event::deliver(EventType::kUnlockAbort, shard, index));
  }
  flight.releases_in_flight =
      static_cast<std::uint32_t>(pending.accepted_shards.size());
  flight.aborted = true;
  abort_transaction(index, events_.now());
  erase_if_settled(index);
}

void Simulation::commit_transaction(std::uint32_t index, SimTime time) {
  OPTCHAIN_ASSERT(outstanding_ > 0);
  const double latency = time - inflight_.at(index).issue_time;
  OPTCHAIN_ASSERT(latency >= 0.0);
  ++committed_;
  --outstanding_;
  inflight_.erase(index);
  notify_commit(index, time, latency);
}

void Simulation::abort_transaction(std::uint32_t index, SimTime time) {
  OPTCHAIN_ASSERT(outstanding_ > 0);
  --outstanding_;
  notify_abort(index, time);
}

void Simulation::erase_if_settled(std::uint32_t index) {
  const Inflight& flight = inflight_.at(index);
  if (flight.aborted && flight.releases_in_flight == 0) inflight_.erase(index);
}

void Simulation::sample_queues() {
  queue_sizes_.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    queue_sizes_[s] = shards_[s]->queue_size();
  }
  notify_queue_sample(events_.now(), queue_sizes_);
  // Link samples piggyback on the queue-sample cadence; flat runs (fabric
  // disabled) keep the historical hook sequence exactly.
  if (fabric_.enabled()) {
    fabric_.sample_links(events_.now(), link_samples_);
    notify_link_sample(events_.now(), link_samples_);
  }
}

void Simulation::notify_issue(std::uint32_t tx, double time, bool cross) {
  for (SimObserver* observer : observers_) observer->on_issue(tx, time, cross);
}

void Simulation::notify_commit(std::uint32_t tx, double time,
                               double latency_s) {
  for (SimObserver* observer : observers_) {
    observer->on_commit(tx, time, latency_s);
  }
}

void Simulation::notify_abort(std::uint32_t tx, double time) {
  for (SimObserver* observer : observers_) observer->on_abort(tx, time);
}

void Simulation::notify_queue_sample(
    double time, std::span<const std::uint64_t> queue_sizes) {
  for (SimObserver* observer : observers_) {
    observer->on_queue_sample(time, queue_sizes);
  }
}

void Simulation::notify_link_sample(double time,
                                    std::span<const LinkSample> links) {
  for (SimObserver* observer : observers_) {
    observer->on_link_sample(time, links);
  }
}

void Simulation::notify_block_commit(std::uint32_t shard, double time) {
  for (SimObserver* observer : observers_) {
    observer->on_block_commit(shard, time);
  }
}

void Simulation::notify_shard_change(std::uint32_t shard, double time,
                                     bool joined, std::uint64_t migrated_txs,
                                     std::uint64_t migrated_utxos) {
  for (SimObserver* observer : observers_) {
    observer->on_shard_change(shard, time, joined, migrated_txs,
                              migrated_utxos);
  }
}

void Simulation::apply_churn(const ShardChurnEvent& change) {
  const double time = events_.now();
  const placement::ShardAssignment& assignment = pipeline_->assignment();

  if (change.kind == ChurnKind::kAddShard) {
    // A fresh shard joins: sampled with the same path as start-up shards,
    // announced to the pipeline so placers see k+1 on their next choose().
    spawn_shard_node();
    const placement::ShardId id = pipeline_->add_shard();
    OPTCHAIN_ASSERT(id + 1 == shards_.size());
    successor_of_.push_back(id);
    utxo_records_.push_back(0);
    notify_shard_change(id, time, /*joined=*/true, 0, 0);
    return;
  }

  // Removal: pick the target (kAutoShard = largest active) and hand its
  // whole state to the least-loaded other active shard in one bulk step.
  std::uint32_t target = change.shard;
  if (target == ShardChurnEvent::kAutoShard) {
    target = assignment.largest_active();
  }
  OPTCHAIN_EXPECTS(target < assignment.k() && assignment.is_active(target));
  OPTCHAIN_EXPECTS(assignment.active_count() >= 2);
  std::uint32_t successor = placement::kUnplaced;
  std::uint64_t successor_size = 0;
  for (std::uint32_t j = 0; j < assignment.k(); ++j) {
    if (j == target || !assignment.is_active(j)) continue;
    if (successor == placement::kUnplaced ||
        assignment.size_of(j) < successor_size) {
      successor = j;
      successor_size = assignment.size_of(j);
    }
  }

  const std::uint64_t migrated_txs = pipeline_->retire_shard(target,
                                                             successor);
  const std::uint64_t migrated_utxos = utxo_records_[target];
  utxo_records_[successor] += migrated_utxos;
  utxo_records_[target] = 0;
  successor_of_[target] = successor;
  // Pending mempool work transfers; the retired shard's in-flight block (if
  // any) still commits and is resolved to the successor on delivery.
  for (const QueueItem& item : shards_[target]->drain_queue()) {
    shards_[successor]->enqueue(item);
  }
  notify_shard_change(target, time, /*joined=*/false, migrated_txs,
                      migrated_utxos);
}

void Simulation::notify_repartition(double time, std::uint64_t migrated_txs,
                                    std::uint64_t migrated_utxos,
                                    std::uint64_t deferred_txs) {
  for (SimObserver* observer : observers_) {
    observer->on_repartition(time, migrated_txs, migrated_utxos, deferred_txs);
  }
}

void Simulation::apply_repartition() {
  const double time = events_.now();
  const RepartitionOutcome outcome = repartitioner_->step(*pipeline_);
  std::uint64_t moved_utxos = 0;
  for (const RepartitionMove& move : outcome.applied) {
    OPTCHAIN_ASSERT(move.tx < live_outputs_.size());
    const std::uint64_t live = live_outputs_[move.tx];
    moved_utxos += live;
    if (churn_enabled() && live > 0) {
      // Keep the per-shard aggregates consistent with record ownership, so
      // a later retirement reports the right migrated-UTXO count.
      std::uint64_t& from = utxo_records_[move.from];
      const std::uint64_t transfer = live < from ? live : from;
      from -= transfer;
      utxo_records_[move.to] += transfer;
    }
  }
  notify_repartition(time, outcome.applied.size(), moved_utxos,
                     outcome.deferred);
  if (work_remaining()) {
    events_.schedule_in(config_.repartition.interval_s, Event::repartition());
  }
}

}  // namespace optchain::sim
