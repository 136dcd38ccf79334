#include "src/runtime/threaded_cluster.h"

#include <utility>

namespace grouting {
namespace {

// The wire plus the remote server, for one processor. Submit services the
// multiget against the (internally synchronised) storage tier at once and
// stamps when the reply lands: two one-way hops plus the cost model's per-KB
// transfer of the reply's wire bytes, so a compressed encoding genuinely
// shortens the trip. The issuing processor's Wait() sits out the rest of the
// trip. At window 1 a query's round trips add up one after another; at
// window W up to W of them are in flight while the processor probes its
// cache and merges earlier batches.
class WireDelayExecutor : public BatchFetchExecutor {
 public:
  WireDelayExecutor(double one_way_us, double per_kb_us)
      : one_way_us_(one_way_us), per_kb_us_(per_kb_us) {}

  void Submit(std::shared_ptr<MultiGetHandle> handle) override {
    const auto sent_at = MultiGetHandle::Clock::now();
    handle->Execute();
    const double trip_us =
        2.0 * one_way_us_ +
        per_kb_us_ * static_cast<double>(handle->payload_bytes()) / 1024.0;
    handle->set_landing(sent_at + std::chrono::nanoseconds(
                                      static_cast<int64_t>(trip_us * 1000.0)));
  }

 private:
  double one_way_us_;
  double per_kb_us_;
};

// Paces the calling thread to `offset_us` after `epoch`: sleeps coarse
// while the target is more than 200 µs away, then spins the last stretch
// (sleeping alone would overshoot by scheduler quanta). The spin gives up
// early once `keep_waiting()` turns false. An offset <= 0 returns at once,
// without reading the clock.
template <typename KeepWaiting>
void PaceTo(std::chrono::steady_clock::time_point epoch, double offset_us,
            KeepWaiting keep_waiting) {
  using Clock = std::chrono::steady_clock;
  if (offset_us <= 0.0) {
    return;
  }
  const auto target =
      epoch + std::chrono::nanoseconds(static_cast<int64_t>(offset_us * 1000.0));
  auto now = Clock::now();
  if (target - now > std::chrono::microseconds(200)) {
    std::this_thread::sleep_until(target - std::chrono::microseconds(100));
    now = Clock::now();
  }
  while (now < target && keep_waiting()) {
    now = Clock::now();
  }
}

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

ThreadedCluster::ThreadedCluster(const Graph& graph, const ClusterConfig& config,
                                 std::unique_ptr<RoutingStrategy> strategy,
                                 const PartitionAssignment* placement)
    : ClusterEngine(graph, config, std::move(strategy), placement),
      shard_mu_(config.num_router_shards) {
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    channels_.push_back(std::make_unique<MpmcQueue<Routed>>());
    // Each processor thread counts its storage reads in a shard of its own
    // (reader 0 stays the shared default), so no two processors write the
    // same counter line.
    processors_[p]->set_reader(p + 1);
  }
  for (uint32_t s = 0; s < config_.num_router_shards; ++s) {
    arrival_channels_.push_back(std::make_unique<MpmcQueue<Query>>());
  }
  if (config_.injected_network_us > 0.0) {
    for (uint32_t p = 0; p < config_.num_processors; ++p) {
      wire_executors_.push_back(std::make_unique<WireDelayExecutor>(
          config_.injected_network_us, config_.cost.net.per_kb_us));
      processors_[p]->set_fetch_executor(wire_executors_.back().get());
    }
  }
  samples_.assign(config_.num_processors, RunSamples(config_.num_tenants));
  proc_answers_.resize(config_.num_processors);
}

ThreadedCluster::~ThreadedCluster() {
  shutdown_.store(true, std::memory_order_release);
  gossip_stop_.store(true, std::memory_order_release);
  for (auto& ch : arrival_channels_) {
    ch->Close();
  }
  for (auto& ch : channels_) {
    ch->Close();
  }
  if (writer_thread_.joinable()) {
    writer_thread_.join();
  }
  for (auto& t : router_threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  if (gossip_thread_.joinable()) {
    gossip_thread_.join();
  }
  for (auto& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

bool ThreadedCluster::StealInto(uint32_t thief, Routed* out) {
  // Scan for the longest sibling channel; take its oldest pending query —
  // the same end Router::NextForProcessor steals from in the simulator.
  uint32_t victim = thief;
  size_t longest = 0;
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    if (p == thief) {
      continue;
    }
    const size_t len = channels_[p]->Size();
    if (len > longest) {
      longest = len;
      victim = p;
    }
  }
  if (victim == thief) {
    return false;
  }
  auto stolen = channels_[victim]->TryPop();
  if (!stolen.has_value()) {
    return false;
  }
  *out = *stolen;
  steals_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ThreadedCluster::FeederLoop(std::span<const Query> queries,
                                 const AdmissionPlan& plan) {
  // The splitter is sequential state, so one thread walks the arrival stream
  // in order; between any two arrivals the gossip tick may migrate sessions
  // under the same mutex, changing where the NEXT arrival of a session goes.
  // Arrival i is paced in wall time to ArrivalTimeUs(q, i) from the loop's
  // epoch (sleep coarse, spin the last stretch): i * arrival_gap_us in a
  // closed loop, the query's own arrive_us in an open one. That is the
  // schedule the simulator fires in virtual time, it lets gossip/rebalance
  // ticks interleave with the stream on real threads, and because every
  // arrival is paced to an absolute time, feeder overhead never builds up
  // as drift. Shed arrivals are paced but never handed to a shard —
  // admission happens at the splitter, and the schedule's timing is
  // unaffected.
  const auto epoch = Clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (shutdown_.load(std::memory_order_acquire)) {
      break;
    }
    PaceTo(epoch, ArrivalTimeUs(q, i), [] { return true; });
    if (!plan.Admitted(i)) {
      continue;
    }
    uint32_t shard;
    {
      std::lock_guard<std::mutex> lock(splitter_mu_);
      shard = fleet_->ShardFor(q);
    }
    arrival_channels_[shard]->Push(q);
  }
  arrivals_done_.store(true, std::memory_order_release);
  for (auto& ch : arrival_channels_) {
    ch->Close();  // shard threads drain what remains, then exit
  }
}

void ThreadedCluster::RouterShardLoop(uint32_t shard) {
  Router& router = fleet_->shard(shard);
  WallTracer* tracer = shard_tracers_.empty() ? nullptr : &shard_tracers_[shard];
  std::vector<uint32_t> lengths(config_.num_processors, 0);
  while (auto arrival = arrival_channels_[shard]->Pop()) {
    const Query& q = *arrival;
    const bool traced = tracer != nullptr && tracer->Sample(q.id);
    if (traced) {
      tracer->Instant(TraceEventType::kArrival, tracer->NowUs(), q.id, shard);
    }
    // Live channel lengths are the shared load signal: unlike the simulated
    // shards (which see only their own queues between gossip rounds), real
    // shards share the processor channels and read their depth directly.
    for (uint32_t p = 0; p < config_.num_processors; ++p) {
      lengths[p] = static_cast<uint32_t>(channels_[p]->Size());
    }
    uint32_t target;
    {
      std::lock_guard<std::mutex> lock(shard_mu_[shard].value);
      target = router.Route(q, lengths);
    }
    if (traced) {
      tracer->Instant(TraceEventType::kRouted, tracer->NowUs(), q.id, target);
    }
    channels_[target]->Push(Routed{q, Clock::now(), shard, target});
  }
}

void ThreadedCluster::WriterLoop(Clock::time_point epoch) {
  for (const GraphMutation& m : mutation_schedule()) {
    if (m.apply_us <= 0.0) {
      continue;  // applied quiesced in Run(), before any thread spawned
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      break;  // destructor teardown mid-run: abandon the schedule
    }
    if (remaining_.load(std::memory_order_acquire) > 0) {
      // Same pacing as the feeder, to the entry's offset from the run
      // epoch. A drained run (remaining_ == 0) stops pacing — the tail of
      // the schedule applies back to back so both engines still apply
      // every entry.
      PaceTo(epoch, m.apply_us,
             [this] { return remaining_.load(std::memory_order_acquire) > 0; });
    }
    ApplyOneMutation(m);
  }
}

std::vector<std::unique_lock<std::mutex>> ThreadedCluster::LockAllShards() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shard_mu_.size());
  for (CacheLinePadded<std::mutex>& shard : shard_mu_) {
    locks.emplace_back(shard.value);
  }
  return locks;
}

void ThreadedCluster::GossipLoop() {
  const auto period =
      std::chrono::duration<double, std::micro>(config_.gossip_period_us);
  // Time base for the index-refresh period gate (wall µs since the loop
  // started — only differences are compared, so the epoch choice is free).
  const auto gossip_epoch = Clock::now();
  while (!gossip_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    if (gossip_stop_.load(std::memory_order_acquire)) {
      break;
    }
    if (router_gossip_) {
      // The fleet's gossip round, in the simulator's order and split by
      // lock: the strategy blend, the routed-count snapshot and the
      // strategy-state carry hold every shard mutex, while the O(sessions)
      // splitter round holds only the splitter mutex (stalling at most the
      // feeder, never the routing threads). Once the stream has drained
      // there is nothing left to re-split, so the tick stops rebalancing —
      // the simulator's gossip chain stops the same way.
      const bool rebalance = fleet_->rebalance_enabled() &&
                             !arrivals_done_.load(std::memory_order_acquire);
      std::vector<uint64_t> routed;
      {
        const auto locks = LockAllShards();
        fleet_->BlendStrategies();
        if (rebalance) {
          routed = fleet_->RoutedPerShard();
        }
      }
      if (rebalance) {
        std::vector<SessionMigration> migrations;
        {
          std::lock_guard<std::mutex> splitter_lock(splitter_mu_);
          migrations = fleet_->ResplitSessions(routed);
        }
        if (!migrations.empty()) {
          const auto locks = LockAllShards();
          fleet_->CarrySessionState(migrations);
        }
      }
    }
    if (repartition_enabled()) {
      // Storage-tier repartitioning folded into the same tick, after the
      // router round as on the simulator: the round plans against the
      // monitor's decayed rates and physically migrates partitions while
      // processor threads keep serving — MigratePartition's copy-flip-drain-
      // delete order plus the processor-side miss re-resolution keep every
      // answer exactly-once. The stall metric is the tick's wall time spent
      // moving data.
      const auto mig_start = Clock::now();
      const auto executed = RepartitionRound();
      if (!executed.empty()) {
        repartition_stall_us_ += ElapsedUs(mig_start, Clock::now());
      }
    }
    if (config_.enable_mutations) {
      // Incremental index maintenance rides the same tick, like every
      // other controller. The maintainer may touch routing-strategy index
      // state (landmark distances, embedding coordinates), so the pass
      // runs with EVERY shard mutex held — race-free against Route() on
      // the shard threads.
      const auto locks = LockAllShards();
      RunIndexMaintenance(ElapsedUs(gossip_epoch, Clock::now()));
    }
  }
}

void ThreadedCluster::ProcessorLoop(uint32_t p) {
  RunSamples& samples = samples_[p];
  std::vector<AnsweredQuery>& answers = proc_answers_[p];
  WallTracer* tracer = proc_tracers_.empty() ? nullptr : &proc_tracers_[p];
  while (!shutdown_.load(std::memory_order_acquire) &&
         remaining_.load(std::memory_order_acquire) > 0) {
    Routed routed;
    auto own = channels_[p]->TryPop();
    if (own.has_value()) {
      routed = *own;
    } else if (!config_.enable_stealing || !StealInto(p, &routed)) {
      std::this_thread::yield();
      continue;
    }
    const auto dispatched = Clock::now();
    samples.queue_wait_us.Add(ElapsedUs(routed.routed_at, dispatched));
    if (tracer != nullptr && tracer->BeginQuery(routed.query.id)) {
      tracer->Span(TraceEventType::kQueueWait, tracer->AtUs(routed.routed_at),
                   tracer->AtUs(dispatched), 0, 0, routed.shard);
    }
    {
      // Dispatch feedback to the shard that routed this query: on a steal
      // (p != routed.target) the strategy learns the thief's cache is the
      // one actually being warmed. The hook fires for EVERY dispatch (the
      // contract tests/frontend_test.cc pins down); the mostly-uncontended
      // lock is nanoseconds against the microseconds each query costs.
      std::lock_guard<std::mutex> lock(shard_mu_[routed.shard].value);
      fleet_->shard(routed.shard).strategy().OnDispatch(routed.query.node, p,
                                                        routed.target);
    }
    QueryResult result = processors_[p]->Execute(routed.query);
    const auto completed = Clock::now();
    samples.Add(routed.query.tenant, ElapsedUs(dispatched, completed));
    if (tracer != nullptr && tracer->active()) {
      tracer->Span(TraceEventType::kQuery, tracer->AtUs(dispatched),
                   tracer->AtUs(completed), 0, 0,
                   processors_[p]->last_trace().level_stats.size());
      tracer->EndQuery();
    }
    answers.push_back(AnsweredQuery{routed.query.id, p, result});
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.notify_all();  // the last answer: wake the feeder
    }
  }
}

ThreadedCluster::RunOutcome ThreadedCluster::Execute(std::span<const Query> queries,
                                                    const AdmissionPlan& plan) {
  remaining_.store(plan.admitted, std::memory_order_release);

  const uint32_t num_shards = fleet_->num_shards();

  // Spawn the gossip tick only when it has work: EMA state to blend, an
  // adaptive rebalance to drive, or storage-side repartition rounds or
  // index maintenance to run.
  // Stateless strategies under a static splitter would pay the per-tick
  // locks and clones for a guaranteed no-op. Decided before any thread can
  // touch the strategies.
  router_gossip_ = fleet_->gossip_enabled() &&
                   (!fleet_->shard(0).strategy().GossipState().empty() ||
                    fleet_->rebalance_enabled());
  const bool gossip = router_gossip_ || storage_tick_enabled();

  const auto start = Clock::now();
  if (tracer_ != nullptr) {
    // One tracer per thread-owned ring, all sharing the run epoch. Built
    // before ANY worker spawns so the vectors never reallocate while a
    // thread holds a pointer into them.
    proc_tracers_.reserve(config_.num_processors);
    shard_tracers_.reserve(num_shards);
    for (uint32_t p = 0; p < config_.num_processors; ++p) {
      proc_tracers_.emplace_back(&tracer_->processor_ring(p), p,
                                 tracer_->sample_every_n(), start);
      processors_[p]->set_tracer(&proc_tracers_[p]);
    }
    for (uint32_t s = 0; s < num_shards; ++s) {
      shard_tracers_.emplace_back(&tracer_->shard_ring(s),
                                  tracer_->num_processors() + s,
                                  tracer_->sample_every_n(), start);
    }
  }
  threads_.reserve(config_.num_processors);
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    threads_.emplace_back([this, p] { ProcessorLoop(p); });
  }
  router_threads_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    router_threads_.emplace_back([this, s] { RouterShardLoop(s); });
  }
  if (config_.enable_mutations && !mutation_schedule().empty()) {
    writer_thread_ = std::thread([this, start] { WriterLoop(start); });
  }
  if (gossip) {
    gossip_thread_ = std::thread([this] { GossipLoop(); });
  }

  // This thread feeds the arrival stream itself, then waits for completion.
  // Shed arrivals never produce an answer, so completion is the admitted
  // count.
  FeederLoop(queries, plan);
  for (uint64_t left = remaining_.load(std::memory_order_acquire); left > 0;
       left = remaining_.load(std::memory_order_acquire)) {
    remaining_.wait(left, std::memory_order_acquire);
  }
  const auto end = Clock::now();

  if (writer_thread_.joinable()) {
    // The writer applies its remaining entries unpaced once the run has
    // drained (remaining_ == 0 above), so this join is prompt and every
    // schedule entry has been applied exactly once.
    writer_thread_.join();
  }
  for (auto& t : router_threads_) {
    t.join();
  }
  router_threads_.clear();
  gossip_stop_.store(true, std::memory_order_release);
  if (gossip_thread_.joinable()) {
    gossip_thread_.join();
  }
  shutdown_.store(true, std::memory_order_release);
  for (auto& t : threads_) {
    t.join();
  }
  threads_.clear();
  for (std::vector<AnsweredQuery>& answers : proc_answers_) {
    answers_.insert(answers_.end(), answers.begin(), answers.end());
  }

  RunOutcome run{ElapsedUs(start, end), RunSamples(config_.num_tenants)};
  for (const RunSamples& samples : samples_) {
    run.samples.Merge(samples);
  }
  return run;
}

void ThreadedCluster::AddEngineMetrics(ClusterMetrics* m) const {
  m->steals = steals_.load(std::memory_order_relaxed);
  m->queries_per_processor.assign(config_.num_processors, 0);
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    m->queries_per_processor[p] = processors_[p]->stats().queries_executed;
  }
}

}  // namespace grouting
