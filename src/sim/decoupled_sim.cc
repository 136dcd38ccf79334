#include "src/sim/decoupled_sim.h"

#include <algorithm>
#include <utility>

namespace grouting {

DecoupledClusterSim::DecoupledClusterSim(const Graph& graph, const ClusterConfig& config,
                                         std::unique_ptr<RoutingStrategy> strategy,
                                         const PartitionAssignment* placement)
    : ClusterEngine(graph, config, std::move(strategy), placement),
      samples_(config.num_tenants) {
  in_flight_.resize(config_.num_processors);
  processor_idle_.assign(config_.num_processors, 1);
  server_busy_until_.assign(config_.num_storage_servers, 0.0);
}

DecoupledClusterSim::RunOutcome DecoupledClusterSim::Execute(
    std::span<const Query> queries, const AdmissionPlan& plan) {
  // Timed mutation entries become virtual-time events that apply
  // functionally at their instant (the event loop is the only executor)
  // and charge the write cost to the mutated key's owning server — queries
  // whose batches land there queue behind the write.
  for (const GraphMutation& mut : mutation_schedule()) {
    if (mut.apply_us <= 0.0) {
      continue;
    }
    events_.ScheduleAt(mut.apply_us, [this, mut] {
      const uint64_t writes = ApplyOneMutation(mut);
      const CostModel& cm = config_.cost;
      const SimTimeUs cost =
          cm.mutation_base_us +
          cm.mutation_per_write_us * static_cast<double>(writes);
      const uint32_t s = storage_->ServerOf(mut.u);
      const SimTimeUs start = std::max(events_.now(), server_busy_until_[s]);
      server_busy_until_[s] = start + cost;
    });
  }

  arrival_time_.reserve(plan.admitted);

  // Arrivals: the splitter hands each admitted query of the stream to its
  // router shard, which routes it on arrival; dispatch to a processor
  // happens on that processor's ack. Shed arrivals never get an event.
  // Open-loop schedules arrive at their own arrive_us timestamps instead of
  // the uniform arrival_gap_us pacing.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!plan.Admitted(i)) {
      continue;
    }
    const Query q = queries[i];
    const SimTimeUs t = ArrivalTimeUs(q, i);
    events_.ScheduleAt(t, [this, q] {
      arrival_time_[q.id] = events_.now();
      const RouterFleet::RoutedArrival routed = fleet_->Enqueue(q);
      if (tracer_ != nullptr && tracer_->Sample(q.id)) {
        // The sim routes on arrival, so arrival and routing-decision
        // instants share a timestamp on the shard's track.
        TraceEvent e;
        e.ts_us = events_.now();
        e.query_id = q.id;
        e.track = tracer_->num_processors() + routed.shard;
        e.type = TraceEventType::kArrival;
        e.value = routed.shard;
        tracer_->shard_ring(routed.shard).Record(e);
        e.type = TraceEventType::kRouted;
        e.value = routed.processor;
        tracer_->shard_ring(routed.shard).Record(e);
      }
      const uint32_t preferred = routed.processor;
      if (processor_idle_[preferred]) {
        TryDispatch(preferred);
        return;
      }
      // Another idle processor can steal it right away.
      for (uint32_t p = 0; p < config_.num_processors; ++p) {
        if (processor_idle_[p]) {
          TryDispatch(p);
          break;
        }
      }
    });
  }

  // Load/EMA gossip between router shards — and the storage-tier
  // repartition rounds and index maintenance that ride the same cadence —
  // as recurring virtual-time events. The storage side alone (single
  // router shard) still needs the tick chain.
  if (fleet_->gossip_enabled() || storage_tick_enabled()) {
    // The tick chain stops when the ADMITTED queries drain — shed arrivals
    // never produce an answer.
    events_.ScheduleAt(config_.gossip_period_us,
                       [this, total = plan.admitted] { GossipTick(total); });
  }

  events_.RunUntilEmpty(/*max_events=*/2'000'000'000ULL);
  return RunOutcome{last_ack_us_, std::move(samples_)};
}

void DecoupledClusterSim::AddEngineMetrics(ClusterMetrics* m) const {
  const RouterStats router_stats = fleet_->AggregateRouterStats();
  m->steals = router_stats.steals;
  m->queries_per_processor = router_stats.per_processor;
  m->batches_inflight_peak = batches_inflight_peak_;
  m->fetch_overlap_us = total_fetch_overlap_us_;
  m->decompress_us = decompress_us_;
}

void DecoupledClusterSim::GossipTick(size_t total_queries) {
  if (answers_.size() >= total_queries) {
    return;  // run drained: stop the gossip chain
  }
  if (fleet_->gossip_enabled()) {
    fleet_->GossipRound();
  }
  if (repartition_enabled()) {
    // Execute the round's migrations and replica changes now (functionally
    // instantaneous and race-free: the event loop is the only thread), then
    // charge the copy cost on the storage timeline — queries whose batches
    // land on an affected server queue behind the move. Migrations and
    // replica promotions charge base + per-key copy cost to both ends; a
    // demotion only drains and deletes on the replica server, so it is
    // charged base cost there alone.
    const CostModel& cm = config_.cost;
    for (const StorageTier::MigrationResult& mig : RepartitionRound()) {
      if (mig.from == mig.to) {
        continue;
      }
      const bool demote = mig.kind == StorageTier::MigrationResult::Kind::kDemote;
      const SimTimeUs cost =
          demote ? cm.migration_base_us
                 : cm.migration_base_us +
                       cm.migration_per_key_us * static_cast<double>(mig.keys_moved);
      for (const uint32_t s : {mig.from, mig.to}) {
        const SimTimeUs start = std::max(events_.now(), server_busy_until_[s]);
        server_busy_until_[s] = start + cost;
        repartition_stall_us_ += cost;
        if (demote) {
          break;  // only the replica server (`from`) pays for its teardown
        }
      }
    }
  }
  // Incremental index maintenance rides the same tick: drain the nodes
  // mutations dirtied since the last pass and model the controller being
  // busy re-estimating by pushing the NEXT tick out by the refresh cost —
  // deterministic, and off every query's critical path (the paper's
  // controllers gossip asynchronously).
  SimTimeUs refresh_delay = 0.0;
  if (config_.enable_mutations) {
    const uint64_t refreshed = RunIndexMaintenance(events_.now());
    if (refreshed > 0) {
      refresh_delay =
          config_.cost.index_refresh_base_us +
          config_.cost.index_refresh_per_node_us * static_cast<double>(refreshed);
    }
  }
  events_.ScheduleAfter(config_.gossip_period_us + refresh_delay,
                        [this, total_queries] { GossipTick(total_queries); });
}

void DecoupledClusterSim::TryDispatch(uint32_t p) {
  if (!processor_idle_[p]) {
    return;
  }
  auto next = fleet_->NextForProcessor(p);
  if (!next.has_value()) {
    processor_idle_[p] = 1;
    return;
  }
  processor_idle_[p] = 0;

  InFlight& f = in_flight_[p];
  f = InFlight{};
  f.query = *next;
  f.dispatch_time = events_.now();
  f.traced = tracer_ != nullptr && tracer_->Sample(f.query.id);
  const auto arrived = arrival_time_.find(f.query.id);
  if (arrived != arrival_time_.end()) {
    samples_.queue_wait_us.Add(events_.now() - arrived->second);
    EmitSpan(p, TraceEventType::kQueueWait, arrived->second, events_.now());
  }

  // Functional execution happens now: per-processor queries are sequential,
  // so executing at dispatch keeps every cache byte-accurate.
  f.result = processors_[p]->Execute(f.query);
  f.trace = processors_[p]->last_trace();

  // Router decision + query shipping to the processor. All shards run the
  // same strategy type, so shard 0's decision cost stands in for the fleet.
  const SimTimeUs start_delay =
      fleet_->shard(0).strategy().DecisionCostUs(config_.cost, config_.num_processors) +
      config_.cost.net.one_way_us;
  EmitSpan(p, TraceEventType::kShip, f.dispatch_time, f.dispatch_time + start_delay);
  events_.ScheduleAfter(start_delay, [this, p] { AdvanceLevel(p); });
}

void DecoupledClusterSim::EmitSpan(uint32_t p, TraceEventType type, SimTimeUs start,
                                   SimTimeUs end, uint32_t level, uint32_t server,
                                   uint64_t value) {
  const InFlight& f = in_flight_[p];
  if (!f.traced) {
    return;
  }
  TraceEvent e;
  e.ts_us = start;
  e.dur_us = end > start ? end - start : 0.0;
  e.query_id = f.query.id;
  e.value = value;
  e.track = p;
  e.server = server;
  e.level = level;
  e.type = type;
  tracer_->processor_ring(p).Record(e);
}

void DecoupledClusterSim::AdvanceLevel(uint32_t p) {
  InFlight& f = in_flight_[p];

  if (f.next_level >= f.trace.level_stats.size()) {
    // Query complete: result travels back to the router (the ack that lets
    // the router send the next query to this processor).
    samples_.Add(f.query.tenant, events_.now() - f.dispatch_time);
    EmitSpan(p, TraceEventType::kQuery, f.dispatch_time, events_.now(), 0, 0,
             f.trace.level_stats.size());
    answers_.push_back(AnsweredQuery{f.query.id, p, f.result});
    const SimTimeUs ack = events_.now() + config_.cost.net.one_way_us;
    last_ack_us_ = std::max(last_ack_us_, ack);
    events_.ScheduleAt(ack, [this, p] {
      processor_idle_[p] = 1;
      TryDispatch(p);
    });
    return;
  }

  if (config_.processor.max_inflight_batches > 1) {
    StartLevelAsync(p);
  } else {
    StartLevelSync(p);
  }
}

void DecoupledClusterSim::StartLevelSync(uint32_t p) {
  InFlight& f = in_flight_[p];
  const FetchTrace& trace = f.trace;
  const FetchTrace::Level& level = trace.level_stats[f.next_level];
  const CostModel& cost = config_.cost;
  f.level_start = events_.now();
  SimTimeUs probes_done =
      events_.now() + cost.cache_lookup_us * static_cast<double>(level.lookups);
  if (config_.processor.cache_compressed) {
    // Compressed cache slots decode on every hit; the decode is probe-side
    // work, serial with the lookups.
    const SimTimeUs hit_decode =
        cost.decompress_base_us * static_cast<double>(level.hits) +
        cost.decompress_per_edge_us * static_cast<double>(level.hit_edges);
    EmitSpan(p, TraceEventType::kDecode, probes_done, probes_done + hit_decode,
             static_cast<uint32_t>(f.next_level), 0, level.hits);
    probes_done += hit_decode;
    decompress_us_ += hit_decode;
  }
  EmitSpan(p, TraceEventType::kCompute, f.level_start,
           f.level_start + cost.cache_lookup_us * static_cast<double>(level.lookups),
           static_cast<uint32_t>(f.next_level), 0, level.lookups);

  // Collect this level's miss batches (they were recorded level-ordered).
  const size_t batch_begin = f.next_batch;
  size_t batch_end = batch_begin;
  while (batch_end < trace.batches.size() &&
         trace.batches[batch_end].level == f.next_level) {
    ++batch_end;
  }
  // No inflight-peak recording here: like the threaded engine, the
  // synchronous path reports 0 — the barrier model predates the window and
  // its per-level fan-out is not bounded by max_inflight_batches.
  f.next_batch = batch_end;
  f.batches_outstanding = static_cast<uint32_t>(batch_end - batch_begin);
  f.level_fetch_done = probes_done;
  f.level_probe_done = probes_done;

  auto finish_level = [this, p] {
    InFlight& fl = in_flight_[p];
    const FetchTrace::Level& lvl = fl.trace.level_stats[fl.next_level];
    const auto level_idx = static_cast<uint32_t>(fl.next_level);
    const CostModel& cm = config_.cost;
    const bool cached = processors_[p]->cache_enabled();
    // CPU sat idle from the end of the probe pass until the slowest reply
    // landed — the level's exposed fetch latency.
    if (fl.level_fetch_done > fl.level_probe_done) {
      EmitSpan(p, TraceEventType::kStall, fl.level_probe_done, fl.level_fetch_done,
               level_idx);
    }
    SimTimeUs t = fl.level_fetch_done;
    if (cached) {
      t += cm.cache_insert_us * static_cast<double>(lvl.fetched);
    }
    if (config_.adjacency_encoding == AdjacencyEncoding::kDeltaVarint) {
      // Every fetched value arrived as a compressed blob and is decoded
      // before the level's inserts/compute can consume it.
      const SimTimeUs fetch_decode =
          cm.decompress_base_us * static_cast<double>(lvl.fetched) +
          cm.decompress_per_edge_us * static_cast<double>(lvl.fetched_edges);
      EmitSpan(p, TraceEventType::kDecode, t, t + fetch_decode, level_idx, 0,
               lvl.fetched);
      t += fetch_decode;
      decompress_us_ += fetch_decode;
    }
    const SimTimeUs compute_us =
        cm.compute_per_node_us * static_cast<double>(lvl.hits + lvl.fetched);
    EmitSpan(p, TraceEventType::kCompute, t, t + compute_us, level_idx, 0,
             lvl.hits + lvl.fetched);
    t += compute_us;
    fl.next_level += 1;
    const SimTimeUs close = std::max(t, events_.now());
    EmitSpan(p, TraceEventType::kLevel, fl.level_start, close, level_idx, 0,
             lvl.lookups);
    level_completions_.push_back(LevelCompletion{
        fl.query.id, p, static_cast<uint32_t>(fl.next_level - 1), close});
    events_.ScheduleAt(close, [this, p] { AdvanceLevel(p); });
  };

  if (f.batches_outstanding == 0) {
    f.level_fetch_done = probes_done;
    events_.ScheduleAt(probes_done, [finish_level] { finish_level(); });
    return;
  }

  // Dispatch all of this level's batches in parallel to their servers.
  for (size_t b = batch_begin; b < batch_end; ++b) {
    const FetchTrace::Batch batch = trace.batches[b];
    const SimTimeUs issued = probes_done;  // batch-span start: left the CPU
    const SimTimeUs arrive = probes_done + cost.net.one_way_us;
    events_.ScheduleAt(arrive, [this, p, batch, issued, finish_level] {
      events_.ScheduleAt(ServeBatch(batch), [this, p, batch, issued, finish_level] {
        InFlight& fl = in_flight_[p];
        fl.level_fetch_done = std::max(fl.level_fetch_done, events_.now());
        EmitSpan(p, TraceEventType::kBatch, issued, events_.now(), batch.level,
                 batch.server, batch.values);
        GROUTING_CHECK(fl.batches_outstanding > 0);
        if (--fl.batches_outstanding == 0) {
          finish_level();
        }
      });
    });
  }
}

void DecoupledClusterSim::StartLevelAsync(uint32_t p) {
  InFlight& f = in_flight_[p];
  const FetchTrace& trace = f.trace;
  const FetchTrace::Level& level = trace.level_stats[f.next_level];
  const CostModel& cost = config_.cost;

  const size_t batch_begin = f.next_batch;
  size_t batch_end = batch_begin;
  while (batch_end < trace.batches.size() &&
         trace.batches[batch_end].level == f.next_level) {
    ++batch_end;
  }
  f.next_batch = batch_end;
  f.level_batch_end = batch_end;
  f.level_start = events_.now();
  const size_t num_batches = batch_end - batch_begin;
  const size_t first_wave =
      std::min<size_t>(config_.processor.max_inflight_batches, num_batches);

  // Issue phase: the CPU opens the first window of batches back to back,
  // each departing the moment its issue work is done — BEFORE the probe
  // pass, which is the whole point of the async pipeline.
  SimTimeUs t = events_.now();
  for (size_t j = 0; j < first_wave; ++j) {
    t += cost.batch_issue_us;
    const size_t b = batch_begin + j;
    events_.ScheduleAt(t, [this, p, b] { DepartBatchAsync(p, b); });
  }
  f.issue_done = t;
  // Probe phase + hit-side compute overlap with the outstanding batches.
  f.hit_work_done = t + cost.cache_lookup_us * static_cast<double>(level.lookups) +
                    cost.compute_per_node_us * static_cast<double>(level.hits);
  EmitSpan(p, TraceEventType::kCompute, f.issue_done, f.hit_work_done,
           static_cast<uint32_t>(f.next_level), 0, level.lookups + level.hits);
  if (config_.processor.cache_compressed) {
    const SimTimeUs hit_decode =
        cost.decompress_base_us * static_cast<double>(level.hits) +
        cost.decompress_per_edge_us * static_cast<double>(level.hit_edges);
    EmitSpan(p, TraceEventType::kDecode, f.hit_work_done, f.hit_work_done + hit_decode,
             static_cast<uint32_t>(f.next_level), 0, level.hits);
    f.hit_work_done += hit_decode;
    decompress_us_ += hit_decode;
  }
  f.cpu_free = f.hit_work_done;
  f.next_unissued = batch_begin + first_wave;
  f.batches_outstanding = static_cast<uint32_t>(first_wave);
  f.last_reply = events_.now();
  f.level_inflight_peak = static_cast<uint32_t>(first_wave);

  if (num_batches == 0) {
    events_.ScheduleAt(f.hit_work_done, [this, p] { FinishLevelAsync(p); });
  }
}

void DecoupledClusterSim::DepartBatchAsync(uint32_t p, size_t batch_index) {
  const FetchTrace::Batch batch = in_flight_[p].trace.batches[batch_index];
  const SimTimeUs depart = events_.now();  // batch-span start: left the CPU
  const SimTimeUs arrive = depart + config_.cost.net.one_way_us;
  events_.ScheduleAt(arrive, [this, p, batch_index, batch, depart] {
    events_.ScheduleAt(ServeBatch(batch), [this, p, batch_index, depart] {
      ReplyBatchAsync(p, batch_index, depart);
    });
  });
}

SimTimeUs DecoupledClusterSim::ServeBatch(const FetchTrace::Batch& batch) {
  const CostModel& cm = config_.cost;
  const SimTimeUs start = std::max(events_.now(), server_busy_until_[batch.server]);
  const SimTimeUs done = start + cm.storage_request_base_us +
                         cm.storage_per_value_us * static_cast<double>(batch.values);
  server_busy_until_[batch.server] = done;
  return done + cm.net.one_way_us +
         cm.net.per_kb_us * static_cast<double>(batch.bytes) / 1024.0;
}

void DecoupledClusterSim::ReplyBatchAsync(uint32_t p, size_t batch_index,
                                          SimTimeUs depart_ts) {
  InFlight& f = in_flight_[p];
  const FetchTrace::Batch& batch = f.trace.batches[batch_index];
  const CostModel& cm = config_.cost;

  EmitSpan(p, TraceEventType::kBatch, depart_ts, events_.now(), batch.level,
           batch.server, batch.values);
  if (events_.now() > f.cpu_free) {
    // The CPU drained its probe/post-processing work before this reply
    // landed: the gap is exposed fetch latency the pipeline failed to hide.
    EmitSpan(p, TraceEventType::kStall, f.cpu_free, events_.now(), batch.level,
             batch.server);
  }
  f.last_reply = std::max(f.last_reply, events_.now());
  GROUTING_CHECK(f.batches_outstanding > 0);
  --f.batches_outstanding;

  // A freed window slot immediately issues the next pending batch.
  if (f.next_unissued < f.level_batch_end) {
    const size_t next = f.next_unissued++;
    ++f.batches_outstanding;
    f.level_inflight_peak = std::max(f.level_inflight_peak, f.batches_outstanding);
    events_.ScheduleAfter(cm.batch_issue_us,
                          [this, p, next] { DepartBatchAsync(p, next); });
  }

  // This reply's inserts + compute join the processor's CPU timeline (the
  // CPU is busy with probes/earlier replies until cpu_free).
  const SimTimeUs post_start = std::max(events_.now(), f.cpu_free);
  const SimTimeUs compute_us =
      cm.compute_per_node_us * static_cast<double>(batch.values);
  SimTimeUs post_us = compute_us;
  SimTimeUs insert_us = 0.0;
  if (processors_[p]->cache_enabled()) {
    insert_us = cm.cache_insert_us * static_cast<double>(batch.values);
    post_us += insert_us;
  }
  SimTimeUs fetch_decode = 0.0;
  if (config_.adjacency_encoding == AdjacencyEncoding::kDeltaVarint) {
    fetch_decode = cm.decompress_base_us * static_cast<double>(batch.values) +
                   cm.decompress_per_edge_us * static_cast<double>(batch.edges);
    post_us += fetch_decode;
    decompress_us_ += fetch_decode;
    EmitSpan(p, TraceEventType::kDecode, post_start + insert_us,
             post_start + insert_us + fetch_decode, batch.level, batch.server,
             batch.values);
  }
  EmitSpan(p, TraceEventType::kCompute, post_start + insert_us + fetch_decode,
           post_start + insert_us + fetch_decode + compute_us, batch.level,
           batch.server, batch.values);
  f.cpu_free = post_start + post_us;

  if (f.batches_outstanding == 0 && f.next_unissued >= f.level_batch_end) {
    events_.ScheduleAt(std::max(f.cpu_free, f.hit_work_done),
                       [this, p] { FinishLevelAsync(p); });
  }
}

void DecoupledClusterSim::FinishLevelAsync(uint32_t p) {
  InFlight& f = in_flight_[p];
  // Probe/hit work that ran while at least one batch was in flight.
  total_fetch_overlap_us_ +=
      std::max(0.0, std::min(f.hit_work_done, f.last_reply) - f.issue_done);
  batches_inflight_peak_ = std::max(batches_inflight_peak_, f.level_inflight_peak);
  EmitSpan(p, TraceEventType::kLevel, f.level_start, events_.now(),
           static_cast<uint32_t>(f.next_level));
  level_completions_.push_back(LevelCompletion{
      f.query.id, p, static_cast<uint32_t>(f.next_level), events_.now()});
  f.next_level += 1;
  AdvanceLevel(p);
}

}  // namespace grouting
