// Query-lifecycle tracing (src/obs/): the invariants the observability
// layer promises.
//
//  * Tracing is passive: a simulated run with tracing on is metric- and
//    answer-identical to the same run with tracing off (bit-exact — the
//    recorder never schedules events or charges virtual time).
//  * Traces are well formed: every sampled query carries exactly one
//    dispatch->completion span, batch spans nest inside their level span,
//    durations are non-negative.
//  * Sampling is deterministic by query id, so both engines trace the SAME
//    queries, and with a sequential cluster (1 processor, 1 router shard,
//    no stealing) the two engines produce the same span structure.
//  * Full rings drop-and-count, never block or corrupt.
//
// The threaded cases double as the TSan workout for the lock-free rings:
// CI runs this binary under -fsanitize=thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new ExperimentEnv(DatasetId::kWebGraphLike, /*scale=*/0.1, /*seed=*/23);
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  static RunOptions SmallRun(RoutingSchemeKind scheme) {
    RunOptions opts;
    opts.scheme = scheme;
    opts.processors = 3;
    opts.storage_servers = 2;
    opts.num_landmarks = 24;
    opts.min_separation = 2;
    opts.dimensions = 6;
    opts.num_hotspots = 20;
    opts.queries_per_hotspot = 4;
    return opts;
  }

  static std::unique_ptr<ClusterEngine> Build(EngineKind kind,
                                              const RunOptions& opts) {
    return MakeClusterEngine(kind, env_->graph(), env_->MakeClusterConfig(opts),
                             env_->MakeStrategy(opts));
  }

  static std::vector<AnsweredQuery> SortedAnswers(const ClusterEngine& engine) {
    std::vector<AnsweredQuery> answers = engine.answers();
    std::sort(answers.begin(), answers.end(),
              [](const AnsweredQuery& a, const AnsweredQuery& b) {
                return a.query_id < b.query_id;
              });
    return answers;
  }

  static ExperimentEnv* env_;
};

ExperimentEnv* TraceTest::env_ = nullptr;

TEST_F(TraceTest, SimTracingOnIsMetricIdenticalToTracingOff) {
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);

  auto off = Build(EngineKind::kSimulated, opts);
  const ClusterMetrics m_off = off->Run(queries);
  EXPECT_EQ(off->tracer(), nullptr);

  opts.trace_sample_every_n = 1;
  auto on = Build(EngineKind::kSimulated, opts);
  const ClusterMetrics m_on = on->Run(queries);
  ASSERT_NE(on->tracer(), nullptr);

  // Bit-exact equality on every run metric: tracing charged nothing.
  EXPECT_EQ(m_off.queries, m_on.queries);
  EXPECT_EQ(m_off.makespan_us, m_on.makespan_us);
  EXPECT_EQ(m_off.throughput_qps, m_on.throughput_qps);
  EXPECT_EQ(m_off.mean_response_ms, m_on.mean_response_ms);
  EXPECT_EQ(m_off.p50_response_ms, m_on.p50_response_ms);
  EXPECT_EQ(m_off.p95_response_ms, m_on.p95_response_ms);
  EXPECT_EQ(m_off.p99_response_ms, m_on.p99_response_ms);
  EXPECT_EQ(m_off.p999_response_ms, m_on.p999_response_ms);
  EXPECT_EQ(m_off.mean_queue_wait_ms, m_on.mean_queue_wait_ms);
  EXPECT_EQ(m_off.cache_hits, m_on.cache_hits);
  EXPECT_EQ(m_off.cache_misses, m_on.cache_misses);
  EXPECT_EQ(m_off.nodes_visited, m_on.nodes_visited);
  EXPECT_EQ(m_off.bytes_from_storage, m_on.bytes_from_storage);
  EXPECT_EQ(m_off.storage_batches, m_on.storage_batches);
  EXPECT_EQ(m_off.steals, m_on.steals);
  EXPECT_EQ(m_off.queries_per_processor, m_on.queries_per_processor);
  EXPECT_EQ(m_off.queries_per_router_shard, m_on.queries_per_router_shard);

  // Only the trace counters differ.
  EXPECT_EQ(m_off.trace_events_recorded, 0u);
  EXPECT_GT(m_on.trace_events_recorded, 0u);
  EXPECT_EQ(m_on.trace_events_dropped, 0u);

  const auto a = SortedAnswers(*off);
  const auto b = SortedAnswers(*on);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query_id, b[i].query_id);
    EXPECT_EQ(a[i].processor, b[i].processor);
    EXPECT_EQ(a[i].result.aggregate, b[i].result.aggregate);
  }
}

TEST_F(TraceTest, SimTracingStaysMetricIdenticalWithReplicationEnabled) {
  // The tracing-charges-nothing invariant must survive the replication data
  // path: promotion/demotion rounds, p2c read fan-out, and replica-aware
  // batch routing all run identically whether or not the tracer observes
  // them. A skewed stream plus a small cache keeps promotions firing.
  const auto queries = env_->SkewedWorkload(/*sessions=*/6, /*queries=*/400,
                                            /*zipf_s=*/1.5, /*h=*/1);
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);
  opts.storage_servers = 4;
  opts.cache_bytes = 8 << 10;
  opts.repartition_threshold = 1.1;
  opts.repartition_cap = 4;
  opts.partitions_per_server = 8;
  opts.replication_top_k = 4;
  opts.max_replicas_per_partition = 3;
  opts.replica_demote_threshold = 0.05;
  opts.gossip_period_us = 50.0;
  opts.arrival_gap_us = 1.0;

  auto off = Build(EngineKind::kSimulated, opts);
  const ClusterMetrics m_off = off->Run(queries);
  EXPECT_GT(m_off.partitions_replicated, 0u);

  opts.trace_sample_every_n = 1;
  auto on = Build(EngineKind::kSimulated, opts);
  const ClusterMetrics m_on = on->Run(queries);
  ASSERT_NE(on->tracer(), nullptr);

  EXPECT_EQ(m_off.queries, m_on.queries);
  EXPECT_EQ(m_off.makespan_us, m_on.makespan_us);
  EXPECT_EQ(m_off.throughput_qps, m_on.throughput_qps);
  EXPECT_EQ(m_off.mean_response_ms, m_on.mean_response_ms);
  EXPECT_EQ(m_off.p99_response_ms, m_on.p99_response_ms);
  EXPECT_EQ(m_off.p999_response_ms, m_on.p999_response_ms);
  EXPECT_EQ(m_off.cache_hits, m_on.cache_hits);
  EXPECT_EQ(m_off.cache_misses, m_on.cache_misses);
  EXPECT_EQ(m_off.bytes_from_storage, m_on.bytes_from_storage);
  EXPECT_EQ(m_off.storage_batches, m_on.storage_batches);
  // The replication counters themselves must be tracer-invariant too.
  EXPECT_EQ(m_off.partitions_replicated, m_on.partitions_replicated);
  EXPECT_EQ(m_off.replica_reads, m_on.replica_reads);
  EXPECT_EQ(m_off.replica_demotions, m_on.replica_demotions);
  EXPECT_EQ(m_off.partitions_migrated, m_on.partitions_migrated);
  EXPECT_EQ(m_off.storage_load_imbalance, m_on.storage_load_imbalance);
  EXPECT_EQ(m_off.repartition_stall_us, m_on.repartition_stall_us);

  EXPECT_EQ(m_off.trace_events_recorded, 0u);
  EXPECT_GT(m_on.trace_events_recorded, 0u);

  const auto a = SortedAnswers(*off);
  const auto b = SortedAnswers(*on);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query_id, b[i].query_id);
    EXPECT_EQ(a[i].processor, b[i].processor);
    EXPECT_EQ(a[i].result.aggregate, b[i].result.aggregate);
  }
}

TEST_F(TraceTest, SimSpansAreWellFormed) {
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);
  opts.trace_sample_every_n = 1;

  auto sim = Build(EngineKind::kSimulated, opts);
  const ClusterMetrics m = sim->Run(queries);
  ASSERT_NE(sim->tracer(), nullptr);

  const std::vector<TraceEvent> events = sim->tracer()->MergedEvents();
  ASSERT_EQ(events.size(), m.trace_events_recorded);
  ASSERT_GT(events.size(), 0u);

  // Merged stream is sorted and every duration is non-negative.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].dur_us, 0.0);
    EXPECT_GE(events[i].ts_us, 0.0);
    if (i > 0) {
      EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
    }
  }

  std::map<uint64_t, std::vector<const TraceEvent*>> by_query;
  for (const TraceEvent& e : events) {
    by_query[e.query_id].push_back(&e);
  }
  EXPECT_EQ(by_query.size(), queries.size());  // every-query sampling

  for (const auto& [qid, evs] : by_query) {
    size_t query_spans = 0;
    size_t queue_waits = 0;
    std::map<uint32_t, std::pair<double, double>> levels;
    for (const TraceEvent* e : evs) {
      if (e->type == TraceEventType::kQuery) {
        ++query_spans;
      } else if (e->type == TraceEventType::kQueueWait) {
        ++queue_waits;
      } else if (e->type == TraceEventType::kLevel) {
        levels[e->level] = {e->ts_us, e->ts_us + e->dur_us};
      }
    }
    EXPECT_EQ(query_spans, 1u) << "query " << qid;
    EXPECT_EQ(queue_waits, 1u) << "query " << qid;
    // On the synchronous sim path a batch lives wholly inside its level.
    for (const TraceEvent* e : evs) {
      if (e->type != TraceEventType::kBatch) {
        continue;
      }
      ASSERT_TRUE(levels.count(e->level))
          << "query " << qid << " batch at level " << e->level;
      const auto [lo, hi] = levels[e->level];
      EXPECT_GE(e->ts_us, lo - 1e-9) << "query " << qid;
      EXPECT_LE(e->ts_us + e->dur_us, hi + 1e-9) << "query " << qid;
    }
  }
}

TEST_F(TraceTest, SamplingIsDeterministicAcrossEngines) {
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  RunOptions opts = SmallRun(RoutingSchemeKind::kHash);
  opts.trace_sample_every_n = 4;

  std::set<uint64_t> sampled[2];
  int i = 0;
  for (const EngineKind kind : {EngineKind::kSimulated, EngineKind::kThreaded}) {
    auto engine = Build(kind, opts);
    engine->Run(queries);
    ASSERT_NE(engine->tracer(), nullptr);
    for (const TraceEvent& e : engine->tracer()->MergedEvents()) {
      EXPECT_EQ(e.query_id % 4, 0u) << EngineKindName(kind);
      sampled[i].insert(e.query_id);
    }
    ++i;
  }
  EXPECT_FALSE(sampled[0].empty());
  EXPECT_EQ(sampled[0], sampled[1]);  // same queries traced on both engines
}

TEST_F(TraceTest, ThreadedTracingPreservesAnswersAndCounts) {
  // Also the TSan workout: three processor threads + a router shard thread
  // record into their rings while the main thread only reads post-join.
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);

  auto off = Build(EngineKind::kThreaded, opts);
  const ClusterMetrics m_off = off->Run(queries);

  opts.trace_sample_every_n = 1;
  auto on = Build(EngineKind::kThreaded, opts);
  const ClusterMetrics m_on = on->Run(queries);
  ASSERT_NE(on->tracer(), nullptr);

  EXPECT_EQ(m_on.queries, queries.size());
  EXPECT_GT(m_on.trace_events_recorded, 0u);
  EXPECT_EQ(m_on.trace_events_dropped, 0u);
  EXPECT_GE(m_on.trace_buffer_high_water, 1u);

  // WHAT was answered is tracing-invariant (wall-clock timings are not).
  const auto a = SortedAnswers(*off);
  const auto b = SortedAnswers(*on);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(m_off.queries, m_on.queries);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].query_id, b[i].query_id);
    EXPECT_EQ(a[i].result.aggregate, b[i].result.aggregate);
    EXPECT_EQ(a[i].result.walk_end, b[i].result.walk_end);
  }

  // Every traced query got its dispatch->completion span.
  std::set<uint64_t> with_query_span;
  for (const TraceEvent& e : on->tracer()->MergedEvents()) {
    if (e.type == TraceEventType::kQuery) {
      with_query_span.insert(e.query_id);
    }
  }
  EXPECT_EQ(with_query_span.size(), queries.size());
}

TEST_F(TraceTest, ThreadedStallSpansNestInsideTheirLevel) {
  // The injected round trip of a multiget is network exposure of the level
  // that issued it: its stall span must sit inside that level's span, at
  // window 1 too, so trace analysis charges the wait to the right level.
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);
  opts.max_inflight_batches = 1;
  opts.trace_sample_every_n = 1;
  ASSERT_GT(env_->MakeClusterConfig(opts).injected_network_us, 0.0);

  auto engine = Build(EngineKind::kThreaded, opts);
  const ClusterMetrics m = engine->Run(queries);
  ASSERT_EQ(m.queries, queries.size());
  ASSERT_EQ(m.trace_events_dropped, 0u);

  const std::vector<TraceEvent> events = engine->tracer()->MergedEvents();
  std::map<std::pair<uint64_t, uint32_t>, std::pair<double, double>> levels;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kLevel) {
      levels[{e.query_id, e.level}] = {e.ts_us, e.ts_us + e.dur_us};
    }
  }
  size_t stalls = 0;
  for (const TraceEvent& e : events) {
    if (e.type != TraceEventType::kStall) {
      continue;
    }
    ++stalls;
    const auto it = levels.find({e.query_id, e.level});
    ASSERT_NE(it, levels.end())
        << "query " << e.query_id << " stall at level " << e.level;
    const auto [lo, hi] = it->second;
    EXPECT_GE(e.ts_us, lo - 1e-6) << "query " << e.query_id;
    EXPECT_LE(e.ts_us + e.dur_us, hi + 1e-6) << "query " << e.query_id;
  }
  EXPECT_GT(stalls, 0u);
}

TEST_F(TraceTest, CrossEngineSpanStructureMatchesOnSequentialCluster) {
  // With one processor, one router shard and no stealing, execution order —
  // and therefore cache evolution and the per-level batch split — is
  // deterministic and identical across engines. The structural span counts
  // (arrival/routed/queue-wait/query/level/batch, per query) must match
  // exactly; only timestamps (virtual vs wall) may differ. Timing-derived
  // spans (stall/decode/compute/ship) are engine-specific and excluded.
  const auto queries = env_->HotspotWorkload(2, 2, 10, 3);
  RunOptions opts = SmallRun(RoutingSchemeKind::kHash);
  opts.processors = 1;
  opts.router_shards = 1;
  opts.stealing = false;
  opts.trace_sample_every_n = 1;

  constexpr TraceEventType kStructural[] = {
      TraceEventType::kArrival, TraceEventType::kRouted,
      TraceEventType::kQueueWait, TraceEventType::kQuery,
      TraceEventType::kLevel, TraceEventType::kBatch};

  std::map<std::pair<uint64_t, TraceEventType>, size_t> counts[2];
  int i = 0;
  for (const EngineKind kind : {EngineKind::kSimulated, EngineKind::kThreaded}) {
    auto engine = Build(kind, opts);
    const ClusterMetrics m = engine->Run(queries);
    ASSERT_EQ(m.queries, queries.size()) << EngineKindName(kind);
    ASSERT_EQ(m.trace_events_dropped, 0u) << EngineKindName(kind);
    for (const TraceEvent& e : engine->tracer()->MergedEvents()) {
      if (std::find(std::begin(kStructural), std::end(kStructural), e.type) !=
          std::end(kStructural)) {
        ++counts[i][{e.query_id, e.type}];
      }
    }
    ++i;
  }
  EXPECT_FALSE(counts[0].empty());
  EXPECT_EQ(counts[0], counts[1]);
}

TEST_F(TraceTest, FullRingsDropAndCountInsteadOfGrowing) {
  const auto queries = env_->HotspotWorkload(2, 2, 20, 4);
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);
  opts.trace_sample_every_n = 1;
  opts.trace_buffer_capacity = 8;

  auto sim = Build(EngineKind::kSimulated, opts);
  const ClusterMetrics m = sim->Run(queries);
  EXPECT_EQ(m.queries, queries.size());  // the run itself is unaffected
  EXPECT_GT(m.trace_events_dropped, 0u);
  EXPECT_LE(m.trace_buffer_high_water, 8u);
  EXPECT_EQ(sim->tracer()->MergedEvents().size(), m.trace_events_recorded);
}

TEST_F(TraceTest, ExportTraceWritesChromeJson) {
  const auto queries = env_->HotspotWorkload(2, 2, 10, 3);
  RunOptions opts = SmallRun(RoutingSchemeKind::kEmbed);

  // Tracing off: nothing to export.
  auto off = Build(EngineKind::kSimulated, opts);
  off->Run(queries);
  EXPECT_FALSE(off->ExportTrace(::testing::TempDir() + "/no_trace.json"));

  opts.trace_sample_every_n = 1;
  auto sim = Build(EngineKind::kSimulated, opts);
  sim->Run(queries);
  const std::string path = ::testing::TempDir() + "/trace_test_export.json";
  ASSERT_TRUE(sim->ExportTrace(path, {{"scheme", "embed"}}));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_EQ(content.front(), '{');
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"scheme\": \"embed\""), std::string::npos);
  EXPECT_NE(content.find("\"engine\": \"simulated\""), std::string::npos);
  EXPECT_NE(content.find("\"name\": \"query\""), std::string::npos);
  EXPECT_NE(content.find("\"thread_name\""), std::string::npos);
}

}  // namespace
}  // namespace grouting
