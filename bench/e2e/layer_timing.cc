#include "bench/e2e/layer_timing.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/cache/cache.h"
#include "src/proc/processor.h"

namespace grouting::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// NodeDataSource decorator: one fetch-level span per FetchBatch call.
class TimedSource : public NodeDataSource {
 public:
  TimedSource(NodeDataSource* inner, SpanLog* spans) : inner_(inner), spans_(spans) {}

  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override {
    spans_->Open(SpanLog::kFetch);
    std::vector<AdjacencyPtr> out = inner_->FetchBatch(nodes);
    spans_->Close();
    return out;
  }
  const FetchTrace& trace() const override { return inner_->trace(); }
  void ResetTrace() override { inner_->ResetTrace(); }

 private:
  NodeDataSource* inner_;
  SpanLog* spans_;
};

const char* LayerName(SpanLog::Layer layer) {
  switch (layer) {
    case SpanLog::kQuery:
      return "query";
    case SpanLog::kFetch:
      return "fetch_level";
    case SpanLog::kMultiget:
      return "multiget";
    case SpanLog::kNumLayers:
      break;
  }
  return "unknown";
}

}  // namespace

uint32_t TimedStrategy::Route(NodeId query_node, const RouterContext& ctx) {
  const auto start = Clock::now();
  const uint32_t target = inner_->Route(query_node, ctx);
  route_->Add(Clock::now() - start);
  return target;
}

void TimedStrategy::OnDispatch(NodeId query_node, uint32_t processor,
                               uint32_t routed_processor) {
  const auto start = Clock::now();
  inner_->OnDispatch(query_node, processor, routed_processor);
  dispatch_->Add(Clock::now() - start);
}

std::unique_ptr<RoutingStrategy> TimedStrategy::Clone() const {
  auto clone = inner_->Clone();
  if (clone == nullptr) {
    return nullptr;
  }
  return std::make_unique<TimedStrategy>(std::move(clone), route_, dispatch_);
}

void TimedStrategy::MergeRemoteState(const RoutingStrategy& remote, double weight) {
  // Sibling shards are decorated too: blend the wrapped states.
  const auto* timed = dynamic_cast<const TimedStrategy*>(&remote);
  inner_->MergeRemoteState(timed != nullptr ? *timed->inner_ : remote, weight);
}

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

void SpanLog::Open(Layer layer) {
  Span span;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : open_.back().id;
  span.query = query_;
  span.layer = layer;
  span.start_us = NowUs();
  open_.push_back(span);
}

void SpanLog::Close() {
  Span span = open_.back();
  open_.pop_back();
  span.dur_us = NowUs() - span.start_us;
  total_us_[span.layer] += span.dur_us;
  if (record_) {
    spans_.push_back(span);
  }
}

void TimedFetchExecutor::Submit(std::shared_ptr<MultiGetHandle> handle) {
  if (spans_ != nullptr) {
    spans_->Open(SpanLog::kMultiget);
  }
  const auto start = Clock::now();
  handle->Execute();
  busy_us_ += std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  if (spans_ != nullptr) {
    spans_->Close();
  }
  batches_ += 1;
  keys_ += handle->keys().size();
}

ReplayResult Replay(const Graph& graph, const ClusterConfig& config,
                    std::span<const Query> queries,
                    std::span<const AnsweredQuery> answers, size_t max_span_queries) {
  // Answers name queries by id; generators number them densely from 0.
  uint64_t max_id = 0;
  for (const Query& q : queries) {
    max_id = std::max(max_id, q.id);
  }
  constexpr size_t kAbsent = std::numeric_limits<size_t>::max();
  std::vector<size_t> index_of(max_id + 1, kAbsent);
  for (size_t i = 0; i < queries.size(); ++i) {
    index_of[queries[i].id] = i;
  }

  StorageTier tier(config.num_storage_servers);
  tier.set_encoding(config.adjacency_encoding);
  tier.set_retain_wire(config.processor.cache_compressed);
  tier.LoadGraph(graph);

  ReplayResult result;
  result.hits_per_processor.assign(config.num_processors, 0);
  SpanLog spans;
  for (uint32_t p = 0; p < config.num_processors; ++p) {
    std::unique_ptr<NodeCache<CachedAdjacency>> cache;
    if (config.processor.use_cache) {
      cache = std::make_unique<NodeCache<CachedAdjacency>>(config.processor.cache_bytes,
                                                           config.processor.cache_policy);
    }
    CachedStorageSource source(&tier, cache.get(), /*max_inflight_batches=*/1,
                               config.processor.cache_compressed);
    TimedFetchExecutor executor(&spans);
    source.set_fetch_executor(&executor);
    TimedSource timed(&source, &spans);
    for (const AnsweredQuery& a : answers) {
      if (a.processor != p || a.query_id > max_id || index_of[a.query_id] == kAbsent) {
        continue;
      }
      const Query& q = queries[index_of[a.query_id]];
      spans.set_query(q.id, result.queries < max_span_queries);
      source.ResetTrace();
      spans.Open(SpanLog::kQuery);
      ExecuteQuery(q, timed);
      spans.Close();
      result.hits_per_processor[p] += source.trace().cache_hits;
      ++result.queries;
    }
  }
  if (result.queries > 0) {
    const double n = static_cast<double>(result.queries);
    const double query_us = spans.total_us(SpanLog::kQuery);
    const double fetch_us = spans.total_us(SpanLog::kFetch);
    const double multiget_us = spans.total_us(SpanLog::kMultiget);
    result.compute_us = (query_us - fetch_us) / n;
    result.fetch_self_us = (fetch_us - multiget_us) / n;
    result.multiget_us = multiget_us / n;
  }
  result.spans = spans.spans();
  return result;
}

bool WriteSpans(const std::string& path, const std::string& workload,
                const ReplayResult& replay) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"replayed_queries\": %llu,\n"
               " \"self_us_per_query\": {\"query\": %.17g, \"fetch_level\": %.17g, "
               "\"multiget\": %.17g},\n \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(replay.queries),
               replay.compute_us, replay.fetch_self_us, replay.multiget_us);
  for (size_t i = 0; i < replay.spans.size(); ++i) {
    const SpanLog::Span& s = replay.spans[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %llu, \"parent\": %llu, \"query\": %llu, \"name\": "
                 "\"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), LayerName(s.layer), s.start_us,
                 s.dur_us);
  }
  std::fprintf(f, "\n ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace grouting::e2e
