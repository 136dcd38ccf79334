// Real multi-threaded execution of the decoupled architecture, running the
// SAME strategies, caches, executors and storage tier as the simulator —
// but on actual threads with actual concurrency:
//
//   feeder         : the thread that calls Run() spawns the workers, then
//                    walks the arrival stream in order — pacing
//                    arrival_gap_us or the open-loop arrive_us schedule in
//                    wall time — and hands each admitted query to its
//                    CURRENT shard via a per-shard arrival channel, so the
//                    assignment can change mid-run as sessions migrate;
//                    then it waits for the last answer,
//   N router-shard threads : each drains its arrival channel onto
//                    per-processor channels through its shard of the
//                    cluster's RouterFleet (Router::Route, the same call the
//                    simulator makes), using live channel lengths as load,
//   gossip thread  : when sharded, periodically runs the fleet's gossip
//                    round — the strategy blend and, with the adaptive
//                    splitter, the session rebalance that moves hot sessions
//                    from the most- to the least-loaded shard, carrying
//                    strategy state — under the same locks the other
//                    threads take,
//   P processor threads : drain their channel; when empty they STEAL from
//                    the longest sibling channel; every dispatch is fed
//                    back to the routing shard's strategy (steal-aware);
//                    each runs its own multigets against the storage tier,
//   the wire       : (injected_network_us > 0) one BatchFetchExecutor per
//                    processor stamps each multiget's landing time, one
//                    round trip after it was sent; the processor's Wait()
//                    sits out what is left of the trip. At window 1 a
//                    query's trips run one after another; at window W up to
//                    W overlap while the processor probes its cache,
//   storage tier   : shared, internally synchronised per server.
//
// The router frontend is the RouterFleet that ClusterEngine builds for both
// engines: its splitter, shard strategies, gossip and rebalance rounds and
// routed counters. This engine adds only what real threads need — arrival
// and processor channels, live lengths, stealing, one mutex per router
// shard plus the splitter mutex, and stopping the rebalance once the
// arrivals are done.
//
// The simulator answers "what would the paper's cluster do"; this runtime
// answers "does the system actually work under real concurrency" — examples
// and integration tests run on it, and the cross-engine parity test
// enforces that both give identical query answers.
//
// This is the EngineKind::kThreaded implementation of ClusterEngine. Every
// query carries wall-clock timestamps (routed, dispatched, completed), so
// the runtime reports the same response-time and queue-wait statistics as
// the simulator.

#ifndef GROUTING_SRC_RUNTIME_THREADED_CLUSTER_H_
#define GROUTING_SRC_RUNTIME_THREADED_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/util/cache_line.h"
#include "src/util/mpmc_queue.h"

namespace grouting {

class ThreadedCluster : public ClusterEngine {
 public:
  ThreadedCluster(const Graph& graph, const ClusterConfig& config,
                  std::unique_ptr<RoutingStrategy> strategy,
                  const PartitionAssignment* placement = nullptr);
  ~ThreadedCluster() override;

  EngineKind kind() const override { return EngineKind::kThreaded; }

 private:
  using Clock = std::chrono::steady_clock;

  // Spawns the processor, router-shard, writer and gossip threads, feeds
  // the arrival stream from the calling thread, waits for the last answer,
  // joins every thread and collects the answers processor by processor; the
  // makespan is the feeder's start -> last answer.
  RunOutcome Execute(std::span<const Query> queries, const AdmissionPlan& plan) override;
  // Steals and the per-processor split.
  void AddEngineMetrics(ClusterMetrics* m) const override;

  // A query travelling through a processor channel, stamped at routing time
  // so the dispatching processor can account the queue wait and feed the
  // dispatch decision back to the shard that routed it.
  struct Routed {
    Query query;
    Clock::time_point routed_at;
    uint32_t shard = 0;   // router shard that routed it
    uint32_t target = 0;  // processor the shard chose (pre-stealing)
  };

  void FeederLoop(std::span<const Query> queries, const AdmissionPlan& plan);
  void RouterShardLoop(uint32_t shard);
  void GossipLoop();
  void ProcessorLoop(uint32_t p);
  // Mutation writer thread (config.enable_mutations with a timed schedule):
  // walks the schedule's apply_us > 0 entries in order, pacing each to its
  // offset from the run epoch — the wall-clock counterpart of the sim's
  // virtual-time mutation events — and applies it against the live tier
  // while processor and gossip threads keep serving. Once the run has
  // drained, remaining entries apply immediately (unpaced), so every
  // schedule entry is applied exactly once on both engines.
  void WriterLoop(Clock::time_point epoch);
  bool StealInto(uint32_t thief, Routed* out);
  // Takes every router shard's mutex in shard order. Other threads only
  // ever hold one shard mutex at a time, so the fixed order cannot
  // deadlock; the gossip tick holds all of them while it touches strategy
  // state or reads the routed counters.
  std::vector<std::unique_lock<std::mutex>> LockAllShards();

  // One mutex per router shard, guarding that shard's Router in the fleet
  // (its strategy and routed counter). Uncontended outside gossip ticks and
  // steal feedback. Each sits on its own cache line, so router-shard threads
  // locking their own shard never contend for a line they share.
  std::vector<CacheLinePadded<std::mutex>> shard_mu_;
  std::vector<std::unique_ptr<MpmcQueue<Routed>>> channels_;
  // Per-processor latency samples, written only by the owning thread (each
  // on its own cache lines) and merged after all threads joined.
  std::vector<RunSamples> samples_;
  std::atomic<uint64_t> steals_{0};
  // Admitted queries not yet answered. The processor whose decrement takes
  // it to 0 wakes the feeder thread, which waits on it in Execute.
  std::atomic<uint64_t> remaining_{0};
  // Per-processor answers in that processor's completion order, written only
  // by the owning thread and appended to answers_ after all threads joined.
  // Padded like samples_: every answer moves its vector's end pointer.
  std::vector<std::vector<AnsweredQuery>> proc_answers_;
  std::vector<std::thread> threads_;
  std::vector<std::thread> router_threads_;
  std::thread gossip_thread_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> gossip_stop_{false};
  // Router-shard gossip actually has state to blend or sessions to
  // rebalance (vs the tick existing only to drive the storage side).
  // Decided in Execute().
  bool router_gossip_ = false;

  // Guards the fleet's arrival splitter, shared between the feeder
  // (ShardFor) and the gossip tick (ResplitSessions).
  std::mutex splitter_mu_;
  std::vector<std::unique_ptr<MpmcQueue<Query>>> arrival_channels_;
  std::thread writer_thread_;
  std::atomic<bool> arrivals_done_{false};

  // Wall-clock tracers, one per processor thread and one per router-shard
  // thread (each written only by its owning thread into its own ring).
  // Constructed in Execute() — all sharing the run's epoch — before any thread
  // spawns; empty when tracing is off.
  std::vector<WallTracer> proc_tracers_;
  std::vector<WallTracer> shard_tracers_;

  // One wire per processor (injected_network_us > 0 only), installed on the
  // processors' sources at construction: each multiget round trip elapses
  // in the processor's own Wait(), for every window.
  std::vector<std::unique_ptr<BatchFetchExecutor>> wire_executors_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_RUNTIME_THREADED_CLUSTER_H_
