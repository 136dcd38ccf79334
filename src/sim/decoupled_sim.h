// Discrete-event simulation of the decoupled gRouting cluster:
//
//     arrivals -> RouterFleet (N shards: strategy + stealing) -> P processors
//                     ^  gossip events                             |  miss
//                     |  (load/EMA, virtual time)                  v  batches
//                     +----------------------------- M storage servers (FIFO)
//
// Each query executes FUNCTIONALLY at dispatch (real cache state, real
// traversal, real storage lookups) producing a FetchTrace; the trace is then
// replayed in virtual time: per traversal level, cache probes are charged,
// per-server multiget batches contend in the storage servers' FIFO queues
// over the configured network profile, and compute + cache-insert costs
// close the level. This keeps functional behaviour (what is in which cache)
// and temporal behaviour (who waits for whom) consistent while staying
// deterministic.
//
// Two level-replay models share the storage/network events:
//   * max_inflight_batches == 1 — the classic synchronous barrier: probes
//     first, then every miss batch fans out and the level blocks on the
//     slowest reply before inserts + compute close it.
//   * max_inflight_batches  > 1 — the async pipeline: up to `window` batches
//     are issued eagerly (batch_issue_us each) BEFORE the probe work, cache
//     probes + hit compute run while they are in flight, each reply's
//     inserts/compute are processed as it lands (FIFO on the processor's
//     CPU timeline), and a freed window slot immediately issues the next
//     batch. The level closes when probe-side and every batch's post-
//     processing are done — a per-batch completion structure instead of one
//     barrier, which is exactly what hides probe/merge work under fetch
//     round trips. (The membership test that forms the miss batches is
//     treated as free; the charged probe work is the per-hit recency/
//     materialisation/merge cost a real processor defers until the batches
//     are on the wire.)
//
// This is the EngineKind::kSimulated implementation of ClusterEngine; the
// threaded runtime (src/runtime/) is its wall-clock twin.

#ifndef GROUTING_SRC_SIM_DECOUPLED_SIM_H_
#define GROUTING_SRC_SIM_DECOUPLED_SIM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/sim/event_queue.h"

namespace grouting {

// One simulated cluster. The graph is loaded into the storage tier at
// construction (hash placement by default, or an explicit assignment).
class DecoupledClusterSim : public ClusterEngine {
 public:
  DecoupledClusterSim(const Graph& graph, const ClusterConfig& config,
                      std::unique_ptr<RoutingStrategy> strategy,
                      const PartitionAssignment* placement = nullptr);

  EngineKind kind() const override { return EngineKind::kSimulated; }

  // Replay audit: every (query, level) completion in virtual-time order.
  // Model-check tests use it to prove the async pipeline never reorders a
  // query's level semantics, whatever the window.
  struct LevelCompletion {
    uint64_t query_id = 0;
    uint32_t processor = 0;
    uint32_t level = 0;
    SimTimeUs time = 0.0;
  };
  const std::vector<LevelCompletion>& level_completions() const {
    return level_completions_;
  }

 private:
  // Schedules the timed mutations, the admitted arrivals and the gossip
  // chain as virtual-time events, then drains the event queue.
  RunOutcome Execute(std::span<const Query> queries, const AdmissionPlan& plan) override;
  // Steals and the per-processor split from the fleet's shard routers, plus
  // the replay model's overrides of the async and decode fields (the
  // functional layer executed inline, so the processors' wall-clock numbers
  // are meaningless here).
  void AddEngineMetrics(ClusterMetrics* m) const override;

  // Asks the router fleet for work for processor p; begins execution or idles.
  void TryDispatch(uint32_t p);
  // Advances the in-flight query on processor p to its next traversal level
  // (or completes it), dispatching to the sync or async level model.
  void AdvanceLevel(uint32_t p);
  void StartLevelSync(uint32_t p);
  void StartLevelAsync(uint32_t p);
  // Async pipeline: departure of one issued batch towards its server, and
  // the reply landing back at the processor. `depart_ts` is when the CPU
  // finished issuing the batch (the trace's batch-span start).
  void DepartBatchAsync(uint32_t p, size_t batch_index);
  // FIFO service of one batch at its storage server, from its arrival (now)
  // to the reply landing back at the processor; returns the reply instant.
  // Shared by the sync and async level models, so their batches contend
  // with every other processor's identically.
  SimTimeUs ServeBatch(const FetchTrace::Batch& batch);
  void ReplyBatchAsync(uint32_t p, size_t batch_index, SimTimeUs depart_ts);
  // Closes the current level once probe-side and batch post-processing are
  // done; records the audit entry and schedules the next AdvanceLevel.
  void FinishLevelAsync(uint32_t p);
  // Self-rescheduling load/EMA gossip event (stops once the run drains).
  // Also drives the storage-tier repartition round: migrations execute
  // functionally at the event (the event loop is the only executor, so no
  // multiget is ever in flight) and their copy cost is charged to both
  // storage servers' virtual timelines.
  void GossipTick(size_t total_queries);

  struct InFlight {
    Query query;
    QueryResult result;
    FetchTrace trace;  // copied from the processor after functional execution
    size_t next_level = 0;
    size_t next_batch = 0;  // index into trace.batches
    uint32_t batches_outstanding = 0;
    SimTimeUs level_fetch_done = 0.0;
    SimTimeUs dispatch_time = 0.0;
    // Tracing state: whether this query is sampled, and the virtual anchors
    // the span emissions need (recording is passive — replay timing never
    // reads these).
    bool traced = false;
    SimTimeUs level_start = 0.0;
    SimTimeUs level_probe_done = 0.0;
    // Async pipeline state for the level being replayed.
    size_t level_batch_end = 0;   // one past this level's last batch index
    size_t next_unissued = 0;     // next batch index awaiting a window slot
    SimTimeUs issue_done = 0.0;   // CPU done issuing the first wave
    SimTimeUs hit_work_done = 0.0;  // probes + hit-compute finished
    SimTimeUs cpu_free = 0.0;     // processor CPU timeline (post-processing)
    SimTimeUs last_reply = 0.0;
    uint32_t level_inflight_peak = 0;
  };

  // Virtual-time span recording into the engine's TraceRecorder for the
  // query in flight on processor p. No-op unless that query is sampled.
  void EmitSpan(uint32_t p, TraceEventType type, SimTimeUs start, SimTimeUs end,
                uint32_t level = 0, uint32_t server = 0, uint64_t value = 0);

  EventQueue events_;
  std::vector<InFlight> in_flight_;  // per processor
  std::vector<uint8_t> processor_idle_;
  std::vector<SimTimeUs> server_busy_until_;
  // Virtual arrival instant per query id, read at dispatch for the queue
  // wait (arrival -> dispatch).
  std::unordered_map<uint64_t, SimTimeUs> arrival_time_;
  RunSamples samples_;
  // Time of the last completion ack back at the router: the run's makespan.
  // Tracked explicitly so trailing gossip events cannot inflate it.
  SimTimeUs last_ack_us_ = 0.0;
  // Replay-model async metrics (authoritative for the sim: the functional
  // layer executes inline, so its wall-clock overlap is meaningless here).
  double total_fetch_overlap_us_ = 0.0;
  uint32_t batches_inflight_peak_ = 0;
  // Virtual decode time charged for compressed adjacency blobs (cache hits
  // under cache_compressed, fetched values under delta_varint). Overrides
  // the processors' wall-clock decompress_us in the reported metrics.
  double decompress_us_ = 0.0;
  std::vector<LevelCompletion> level_completions_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_SIM_DECOUPLED_SIM_H_
