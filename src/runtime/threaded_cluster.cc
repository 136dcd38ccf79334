#include "src/runtime/threaded_cluster.h"

#include <deque>
#include <utility>

namespace grouting {
namespace {

// Routes a processor's multiget handles onto its fetch thread. If the queue
// is already closed (shutdown), the handle is serviced inline so no waiter
// is ever stranded.
class QueueFetchExecutor : public BatchFetchExecutor {
 public:
  explicit QueueFetchExecutor(MpmcQueue<std::shared_ptr<MultiGetHandle>>* queue)
      : queue_(queue) {}

  void Submit(std::shared_ptr<MultiGetHandle> handle) override {
    if (!queue_->Push(handle)) {
      handle->Execute();
    }
  }

 private:
  MpmcQueue<std::shared_ptr<MultiGetHandle>>* queue_;
};

void BusyWaitUs(double us) {
  if (us <= 0.0) {
    return;
  }
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(static_cast<int64_t>(us * 1000.0));
  while (std::chrono::steady_clock::now() < until) {
    // spin: injected delays are microseconds; sleeping would oversleep 100x
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
    : ClusterEngine(graph, config, placement),
      splitter_(config.router_splitter, config.num_router_shards) {
  GROUTING_CHECK(strategy != nullptr);
  rebalance_.threshold = config_.router_rebalance_threshold;
  rebalance_.migration_cap = config_.router_migration_cap;
  adaptive_ = config_.num_router_shards > 1 &&
              config_.router_splitter == SplitterKind::kAdaptive;
  shards_.reserve(config_.num_router_shards);
  for (uint32_t s = 1; s < config_.num_router_shards; ++s) {
    auto clone = strategy->Clone();
    GROUTING_CHECK_MSG(clone != nullptr,
                       "num_router_shards > 1 requires a Clone()-able strategy");
    auto shard = std::make_unique<RouterShard>();
    shard->strategy = std::move(clone);
    shards_.push_back(std::move(shard));
  }
  auto shard0 = std::make_unique<RouterShard>();
  shard0->strategy = std::move(strategy);
  shards_.insert(shards_.begin(), std::move(shard0));
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    channels_.push_back(std::make_unique<MpmcQueue<Routed>>());
  }
  for (uint32_t s = 0; s < config_.num_router_shards; ++s) {
    arrival_channels_.push_back(std::make_unique<MpmcQueue<Query>>());
  }
  async_fetch_ = config_.processor.max_inflight_batches > 1;
  if (async_fetch_) {
    for (uint32_t p = 0; p < config_.num_processors; ++p) {
      fetch_queues_.push_back(
          std::make_unique<MpmcQueue<std::shared_ptr<MultiGetHandle>>>());
      fetch_executors_.push_back(
          std::make_unique<QueueFetchExecutor>(fetch_queues_.back().get()));
    }
  }
  samples_.resize(config_.num_processors);
  for (auto& s : samples_) {
    s.tenant_response_us.resize(config_.num_tenants);
    s.tenant_queries.assign(config_.num_tenants, 0);
  }
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
  // Closing the fetch queues before joining the processors is what keeps
  // shutdown deadlock-free: queued handles are still drained (and completed)
  // by their fetch thread, and submissions after the close run inline.
  for (auto& q : fetch_queues_) {
    q->Close();
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
  for (auto& t : fetch_threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

bool ThreadedCluster::StealInto(uint32_t thief, Routed* out) {
  // Scan for the longest sibling channel; take its oldest pending query.
  // (The DES router steals the newest; with MPMC channels the oldest is the
  // lock-free-friendly end. The balance property is identical.)
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

void ThreadedCluster::FeederLoop(std::span<const Query> queries) {
  // The splitter is sequential state, so one thread walks the arrival stream
  // in order; between any two arrivals the gossip tick may migrate sessions
  // under the same mutex, changing where the NEXT arrival of a session goes.
  // A configured arrival gap is paced here in wall time — the threaded
  // counterpart of the simulator's virtual-time arrival events, and what
  // lets gossip/rebalance ticks interleave with the stream on real threads.
  // Open-loop schedules pace to each query's absolute arrive_us from the
  // loop's epoch instead (sleep coarse, spin the last stretch), so the wall
  // clock replays the same Poisson schedule the simulator fires in virtual
  // time. Shed arrivals are paced but never handed to a shard — admission
  // happens at the splitter, and the schedule's timing is unaffected.
  const auto epoch = Clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (shutdown_.load(std::memory_order_acquire)) {
      break;
    }
    if (config_.open_loop_arrivals && q.arrive_us >= 0.0) {
      const auto target =
          epoch + std::chrono::nanoseconds(
                      static_cast<int64_t>(q.arrive_us * 1000.0));
      auto now = Clock::now();
      if (target - now > std::chrono::microseconds(200)) {
        std::this_thread::sleep_until(target - std::chrono::microseconds(100));
        now = Clock::now();
      }
      while (now < target) {
        now = Clock::now();
      }
    } else {
      BusyWaitUs(config_.arrival_gap_us);
    }
    if (!admission_plan_.Admitted(i)) {
      continue;
    }
    uint32_t shard;
    {
      std::lock_guard<std::mutex> lock(splitter_mu_);
      shard = splitter_.ShardFor(q);
    }
    arrival_channels_[shard]->Push(q);
  }
  arrivals_done_.store(true, std::memory_order_release);
  for (auto& ch : arrival_channels_) {
    ch->Close();  // shard threads drain what remains, then exit
  }
}

void ThreadedCluster::RouterShardLoop(uint32_t shard) {
  RouterShard& rs = *shards_[shard];
  WallTracer* tracer = shard_tracers_.empty() ? nullptr : &shard_tracers_[shard];
  std::vector<uint32_t> lengths(config_.num_processors, 0);
  RouterContext ctx;
  ctx.num_processors = config_.num_processors;
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
    ctx.queue_lengths = lengths;
    uint32_t target;
    {
      std::lock_guard<std::mutex> lock(rs.mu);
      target = rs.strategy->Route(q.node, ctx);
    }
    GROUTING_CHECK(target < config_.num_processors);
    rs.routed.fetch_add(1, std::memory_order_relaxed);
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
      // Same pacing discipline as the feeder: sleep coarse, spin the last
      // stretch to the entry's offset from the run epoch. A drained run
      // (remaining_ == 0) stops pacing — the tail of the schedule applies
      // back to back so both engines still apply every entry.
      const auto target =
          epoch +
          std::chrono::nanoseconds(static_cast<int64_t>(m.apply_us * 1000.0));
      auto now = Clock::now();
      if (target - now > std::chrono::microseconds(200)) {
        std::this_thread::sleep_until(target - std::chrono::microseconds(100));
        now = Clock::now();
      }
      while (now < target && remaining_.load(std::memory_order_acquire) > 0) {
        now = Clock::now();
      }
    }
    ApplyOneMutation(m);
  }
}

void ThreadedCluster::GossipLoop() {
  const auto period =
      std::chrono::duration<double, std::micro>(config_.gossip_period_us);
  const bool rebalance = adaptive_ && rebalance_.enabled();
  // Time base for the index-refresh period gate (wall µs since the loop
  // started — only differences are compared, so the epoch choice is free).
  const auto gossip_epoch = Clock::now();
  std::vector<RoutingStrategy*> views;
  std::vector<const RoutingStrategy*> const_views;
  std::vector<uint64_t> loads(shards_.size(), 0);
  views.reserve(shards_.size());
  const_views.reserve(shards_.size());
  for (auto& shard : shards_) {
    views.push_back(shard->strategy.get());
    const_views.push_back(shard->strategy.get());
  }
  while (!gossip_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    if (gossip_stop_.load(std::memory_order_acquire)) {
      break;
    }
    if (router_gossip_) {
      // One tick: take every shard's mutex (fixed order — other threads
      // only ever hold one at a time, so no deadlock) and run the SAME
      // blend the sim fleet runs, so the two engines' gossip semantics
      // cannot drift.
      std::vector<std::unique_lock<std::mutex>> locks;
      locks.reserve(shards_.size());
      for (auto& shard : shards_) {
        locks.emplace_back(shard->mu);
      }
      gossip_stats_.last_divergence_before = CrossShardStateDivergence(const_views);
      GossipBlendStrategies(views, GossipConfig{}.merge_weight);
      gossip_stats_.last_divergence_after = CrossShardStateDivergence(const_views);
      gossip_stats_.rounds += 1;
    }
    if (repartition_enabled()) {
      // Storage-tier repartitioning folded into the same tick, exactly like
      // the arrival rebalance: the round plans against the monitor's
      // decayed rates and physically migrates partitions while processor /
      // fetch threads keep serving — MigratePartition's copy-flip-drain-
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
      // the shard threads, same fixed-order locking as the blend above.
      std::vector<std::unique_lock<std::mutex>> locks;
      locks.reserve(shards_.size());
      for (auto& shard : shards_) {
        locks.emplace_back(shard->mu);
      }
      RunIndexMaintenance(ElapsedUs(gossip_epoch, Clock::now()));
    }
    if (rebalance && !arrivals_done_.load(std::memory_order_acquire)) {
      // Adaptive re-splitting folded into the same tick: snapshot the
      // shards' routed counts and migrate hot sessions. The O(sessions)
      // rebalance scan holds only the splitter mutex (stalling at most the
      // feeder, never the routing threads); the shard mutexes are retaken
      // briefly for the deduped strategy-state carry. Once the stream has
      // drained there is nothing left to re-split, so the tick stops
      // migrating — the simulator's gossip chain stops the same way.
      for (size_t s = 0; s < shards_.size(); ++s) {
        loads[s] = shards_[s]->routed.load(std::memory_order_relaxed);
      }
      std::vector<SessionMigration> migrations;
      {
        std::lock_guard<std::mutex> splitter_lock(splitter_mu_);
        migrations = splitter_.Rebalance(loads, rebalance_);
      }
      if (!migrations.empty()) {
        std::vector<std::unique_lock<std::mutex>> locks;
        locks.reserve(shards_.size());
        for (auto& shard : shards_) {
          locks.emplace_back(shard->mu);
        }
        ApplyMigrationCarry(views, migrations, rebalance_.state_carry_weight);
        sessions_migrated_.fetch_add(migrations.size(), std::memory_order_relaxed);
      }
    }
  }
}

void ThreadedCluster::FetchLoop(uint32_t p) {
  // The fetch thread plays the wire + remote server for its processor: it
  // services each multiget against the (internally synchronised) storage
  // tier as soon as the request is popped, but completes the handle only
  // once the injected round trip has elapsed. Because execution and
  // completion are decoupled, up to `window` round trips ripen
  // concurrently while the processor probes its cache — the wall-clock
  // overlap the async pipeline exists for. Completion order is FIFO, which
  // matches the processor's oldest-first Wait() order.
  std::deque<std::pair<std::shared_ptr<MultiGetHandle>, Clock::time_point>> pending;
  const auto rtt_base = std::chrono::nanoseconds(
      static_cast<int64_t>(2.0 * config_.injected_network_us * 1000.0));
  // Transfer time scales with the reply's wire bytes (the cost model's
  // per-KB term), so a compressed adjacency encoding genuinely shortens
  // the trip. Gated like the base term: injected_network_us == 0 keeps the
  // engine at memory speed.
  const double per_kb_us =
      config_.injected_network_us > 0.0 ? config_.cost.net.per_kb_us : 0.0;
  const auto ripen = [&pending] {
    while (!pending.empty() && Clock::now() >= pending.front().second) {
      pending.front().first->MarkDone();
      pending.pop_front();
    }
  };
  while (true) {
    std::optional<std::shared_ptr<MultiGetHandle>> request;
    if (pending.empty()) {
      request = fetch_queues_[p]->Pop();  // blocks; nullopt = closed + drained
      if (!request.has_value()) {
        break;
      }
    } else {
      // Keep servicing new requests while earlier round trips ripen — a
      // batch submitted during another's flight must start its own trip
      // immediately, or the window degenerates back to serial RTTs.
      request = fetch_queues_[p]->TryPop();
      if (!request.has_value()) {
        ripen();
        // Yield rather than hard-spin: ripening is dead time, and on a
        // core-starved host the processor thread needs the cycles more
        // than the completion needs sub-microsecond precision.
        std::this_thread::yield();
        continue;
      }
    }
    const auto sent_at = Clock::now();
    (*request)->ExecuteOnly();
    const auto transfer = std::chrono::nanoseconds(static_cast<int64_t>(
        per_kb_us * static_cast<double>((*request)->payload_bytes()) / 1024.0 *
        1000.0));
    pending.emplace_back(std::move(*request), sent_at + rtt_base + transfer);
    ripen();
  }
  while (!pending.empty()) {
    std::this_thread::yield();
    ripen();
  }
}

void ThreadedCluster::ProcessorLoop(uint32_t p) {
  LatencySamples& samples = samples_[p];
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
      RouterShard& rs = *shards_[routed.shard];
      std::lock_guard<std::mutex> lock(rs.mu);
      rs.strategy->OnDispatch(routed.query.node, p, routed.target);
    }
    QueryResult result = processors_[p]->Execute(routed.query);
    if (config_.injected_network_us > 0.0 && !async_fetch_) {
      // Synchronous path: two one-way hops plus the per-KB transfer of each
      // storage batch of the query just executed, serialised after the
      // fact. The async pipeline incurs the same per-batch round trip
      // inside FetchLoop instead, where the trips overlap with each other
      // and with the processor's cache work.
      const auto& batches = processors_[p]->last_trace().batches;
      uint64_t wire_bytes = 0;
      for (const auto& b : batches) {
        wire_bytes += b.bytes;
      }
      const auto wait_start = Clock::now();
      BusyWaitUs(2.0 * config_.injected_network_us *
                     static_cast<double>(batches.size()) +
                 config_.cost.net.per_kb_us *
                     static_cast<double>(wire_bytes) / 1024.0);
      if (tracer != nullptr && tracer->active()) {
        // The post-hoc injected round trips are network exposure, not CPU.
        tracer->Span(TraceEventType::kStall, tracer->AtUs(wait_start),
                     tracer->NowUs(), 0, 0, batches.size());
      }
    }
    const auto completed = Clock::now();
    const double response_us = ElapsedUs(dispatched, completed);
    samples.response_us.Add(response_us);
    samples.tenant_response_us[routed.query.tenant].Add(response_us);
    ++samples.tenant_queries[routed.query.tenant];
    if (tracer != nullptr && tracer->active()) {
      tracer->Span(TraceEventType::kQuery, tracer->AtUs(dispatched),
                   tracer->AtUs(completed), 0, 0,
                   processors_[p]->last_trace().level_stats.size());
      tracer->EndQuery();
    }
    completions_.Push(AnsweredQuery{routed.query.id, p, result});
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

ClusterMetrics ThreadedCluster::Run(std::span<const Query> queries) {
  GROUTING_CHECK_MSG(!ran_, "ThreadedCluster::Run may only be called once");
  ran_ = true;

  // Per-tenant admission decisions, computed from the schedule's own
  // timestamps before any thread spawns — identical to the simulated
  // engine's plan for the same schedule, so both engines shed the same
  // arrivals. Only admitted queries count towards run completion.
  admission_plan_ = PlanAdmission(queries);
  answers_.reserve(admission_plan_.admitted);
  remaining_.store(admission_plan_.admitted, std::memory_order_release);

  // Quiesced mutation entries (apply_us <= 0) land now, before any worker
  // thread exists — the deterministic mode the cross-engine parity tests
  // run in. Timed entries are paced by the writer thread below.
  ApplyQuiescedMutations();

  const uint32_t num_shards = static_cast<uint32_t>(shards_.size());

  // Spawn the gossip tick only when it has work: EMA state to blend, an
  // adaptive rebalance to drive, or storage-tier repartition rounds to run.
  // Stateless strategies under a static splitter would pay the per-tick
  // locks and clones for a guaranteed no-op. Decided before any thread can
  // touch the strategies.
  router_gossip_ = num_shards > 1 && config_.gossip_period_us > 0.0 &&
                   (!shards_[0]->strategy->GossipState().empty() ||
                    (adaptive_ && rebalance_.enabled()));
  const bool gossip =
      router_gossip_ || ((repartition_enabled() || config_.enable_mutations) &&
                         config_.gossip_period_us > 0.0);

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
  if (async_fetch_) {
    // Fetch threads first, and only then the executor seam: a processor
    // must never submit a handle nobody will service.
    fetch_threads_.reserve(config_.num_processors);
    for (uint32_t p = 0; p < config_.num_processors; ++p) {
      fetch_threads_.emplace_back([this, p] { FetchLoop(p); });
      processors_[p]->set_fetch_executor(fetch_executors_[p].get());
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

  // This thread feeds the arrival stream itself, then waits for completion,
  // collecting answers as they arrive. Shed arrivals never produce an
  // answer, so completion is the admitted count.
  FeederLoop(queries);
  while (answers_.size() < admission_plan_.admitted) {
    auto a = completions_.Pop();
    if (!a.has_value()) {
      break;
    }
    answers_.push_back(*a);
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
  for (auto& q : fetch_queues_) {
    q->Close();
  }
  for (auto& t : fetch_threads_) {
    t.join();
  }
  fetch_threads_.clear();

  ClusterMetrics m;
  m.queries = answers_.size();
  m.makespan_us = ElapsedUs(start, end);
  m.throughput_qps =
      m.makespan_us > 0.0 ? static_cast<double>(m.queries) / (m.makespan_us / 1e6) : 0.0;
  LatencyHistogram response_us;
  RunningStat queue_wait_us;
  std::vector<LatencyHistogram> tenant_response_us(config_.num_tenants);
  std::vector<uint64_t> tenant_queries(config_.num_tenants, 0);
  m.queries_per_processor.assign(config_.num_processors, 0);
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    response_us.Merge(samples_[p].response_us);
    queue_wait_us.Merge(samples_[p].queue_wait_us);
    for (uint32_t t = 0; t < config_.num_tenants; ++t) {
      tenant_response_us[t].Merge(samples_[p].tenant_response_us[t]);
      tenant_queries[t] += samples_[p].tenant_queries[t];
    }
    m.queries_per_processor[p] = processors_[p]->stats().queries_executed;
  }
  FillLatencyStats(&m, response_us, queue_wait_us);
  AddProcessorStats(&m);
  AddTraceStats(&m);
  m.steals = steals_.load(std::memory_order_relaxed);
  m.queries_per_router_shard.assign(num_shards, 0);
  std::vector<const RoutingStrategy*> views;
  views.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    m.queries_per_router_shard[s] = shards_[s]->routed.load(std::memory_order_relaxed);
    views.push_back(shards_[s]->strategy.get());
  }
  m.gossip_rounds = gossip_stats_.rounds;
  m.router_ema_divergence = CrossShardStateDivergence(views);
  m.sessions_migrated = sessions_migrated_.load(std::memory_order_relaxed);
  m.sticky_evictions = splitter_.stats().evictions;
  m.router_load_imbalance = RoutedLoadImbalance(m.queries_per_router_shard);
  AddStorageTierStats(&m);
  m.repartition_stall_us = repartition_stall_us_;
  AddMutationStats(&m);
  FillTenantMetrics(&m, tenant_response_us, tenant_queries, admission_plan_);
  return m;
}

}  // namespace grouting
