// Outside-in layer timing for the end-to-end benchmark (bench_e2e.cc).
//
// Every timer here wraps one of the engine's existing public seams, so the
// benchmark measures layers without any change to src/:
//
//   * TimedStrategy      — a RoutingStrategy decorator timing Route and
//                          OnDispatch (the router's decision and the
//                          processor's dispatch feedback),
//   * TimedFetchExecutor — an inline BatchFetchExecutor timing each storage
//                          multiget. At max_inflight_batches == 1 the
//                          processor completes each batch before issuing the
//                          next, so servicing the handle inline on Submit
//                          leaves cache state, stats and answers unchanged,
//   * Replay             — a single-threaded re-execution of each
//                          processor's exact query sequence over a fresh
//                          StorageTier, NodeCache and CachedStorageSource,
//                          recording query -> fetch level -> multiget spans.
//
// Span self time is a span's duration minus its children's: query self time
// is traversal compute, fetch self time is cache probes, decode and installs.

#ifndef GROUTING_BENCH_E2E_LAYER_TIMING_H_
#define GROUTING_BENCH_E2E_LAYER_TIMING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/graph/graph.h"
#include "src/query/query.h"
#include "src/routing/strategy.h"
#include "src/storage/storage_tier.h"

namespace grouting::e2e {

// Call count and summed wall time of one layer entry point. Atomic: clones of
// a TimedStrategy share one timer across router shards.
struct CallTimer {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};

  void Add(std::chrono::steady_clock::duration d) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(static_cast<uint64_t>(elapsed), std::memory_order_relaxed);
  }
  double MeanNs() const {
    const uint64_t n = calls.load(std::memory_order_relaxed);
    return n == 0 ? 0.0
                  : static_cast<double>(ns.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }
};

class TimedStrategy : public RoutingStrategy {
 public:
  TimedStrategy(std::unique_ptr<RoutingStrategy> inner, CallTimer* route,
                CallTimer* dispatch)
      : inner_(std::move(inner)), route_(route), dispatch_(dispatch) {}

  std::string name() const override { return inner_->name(); }
  uint32_t Route(NodeId query_node, const RouterContext& ctx) override;
  void OnDispatch(NodeId query_node, uint32_t processor,
                  uint32_t routed_processor) override;
  std::unique_ptr<RoutingStrategy> Clone() const override;
  void MergeRemoteState(const RoutingStrategy& remote, double weight) override;
  std::span<const double> GossipState() const override { return inner_->GossipState(); }
  SimTimeUs DecisionCostUs(const CostModel& cm, uint32_t num_processors) const override {
    return inner_->DecisionCostUs(cm, num_processors);
  }

 private:
  std::unique_ptr<RoutingStrategy> inner_;
  CallTimer* route_;
  CallTimer* dispatch_;
};

// Records nested replay spans. Spans of one query share its id; each span
// links to the span open when it began. Durations are summed per layer for
// every span; the spans themselves are kept only while recording is on.
class SpanLog {
 public:
  enum Layer : uint8_t { kQuery, kFetch, kMultiget, kNumLayers };

  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t query = 0;
    Layer layer = kQuery;
    double start_us = 0.0;
    double dur_us = 0.0;
  };

  void set_query(uint64_t query, bool record) {
    query_ = query;
    record_ = record;
  }
  void Open(Layer layer);
  void Close();

  double total_us(Layer layer) const { return total_us_[layer]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  using Clock = std::chrono::steady_clock;
  double NowUs() const;

  const Clock::time_point epoch_ = Clock::now();
  uint64_t query_ = 0;
  bool record_ = false;
  uint64_t next_id_ = 1;
  std::vector<Span> open_;
  std::vector<Span> spans_;
  double total_us_[kNumLayers] = {};
};

class TimedFetchExecutor : public BatchFetchExecutor {
 public:
  // `spans` (optional) receives one multiget span per batch.
  explicit TimedFetchExecutor(SpanLog* spans = nullptr) : spans_(spans) {}

  void Submit(std::shared_ptr<MultiGetHandle> handle) override;

  uint64_t batches() const { return batches_; }
  uint64_t keys() const { return keys_; }
  double busy_us() const { return busy_us_; }

 private:
  SpanLog* spans_;
  uint64_t batches_ = 0;
  uint64_t keys_ = 0;
  double busy_us_ = 0.0;
};

struct ReplayResult {
  std::vector<uint64_t> hits_per_processor;
  uint64_t queries = 0;
  // Self time per replayed query (µs): traversal compute (query minus its
  // fetch levels) and fetch-level work outside the multigets.
  double compute_us = 0.0;
  double fetch_self_us = 0.0;
  double multiget_us = 0.0;
  std::vector<SpanLog::Span> spans;
};

// Re-executes each processor's answered queries in its own execution order
// (answers filtered by processor), single-threaded, over a fresh tier loaded
// like the cluster's. Spans are kept for the first `max_span_queries`.
ReplayResult Replay(const Graph& graph, const ClusterConfig& config,
                    std::span<const Query> queries,
                    std::span<const AnsweredQuery> answers, size_t max_span_queries);

// Writes replay spans as JSON: one object per span with its query id and a
// parent link, plus the per-layer self-time totals.
bool WriteSpans(const std::string& path, const std::string& workload,
                const ReplayResult& replay);

}  // namespace grouting::e2e

#endif  // GROUTING_BENCH_E2E_LAYER_TIMING_H_
