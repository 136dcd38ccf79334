// Query processor: the processing-tier worker. Owns an LRU (by default)
// cache of adjacency entries and a connection to the storage tier. Executes
// h-hop queries through a CachedStorageSource that (a) serves hits from the
// cache and (b) groups misses into per-storage-server multiget batches —
// the unit the cost model charges network and service time for.
//
// The storage servers ship encoded blobs; the processor is the only place
// that decodes them. Each fetched blob is decoded once, on completion,
// outside any storage lock. The cache keeps the decoded entry, or (in
// compressed mode) the very blob that was fetched.
//
// Per traversal level the source runs an issue / probe / complete pipeline:
// miss batches are opened as async multiget handles (StorageTier::
// StartMultiGet) with at most `max_inflight_batches` outstanding, hits are
// merged while batches are in flight, and completions decode the fetched
// blobs and install them into the cache in issue order. With
// max_inflight_batches == 1 and no executor this degenerates to the classic
// synchronous path — byte-identical cache state, stats and trace for every
// window, which is what lets the window be a pure timing/overlap knob.
//
// Processors never talk to each other (paper Section 2.3); they only receive
// queries and fetch from storage.

#ifndef GROUTING_SRC_PROC_PROCESSOR_H_
#define GROUTING_SRC_PROC_PROCESSOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cache/cache.h"
#include "src/obs/trace.h"
#include "src/query/query.h"
#include "src/storage/storage_tier.h"

namespace grouting {

// One processor-cache slot. Normal mode holds the decoded entry; compressed
// mode (ProcessorConfig::cache_compressed) holds the fetched blob instead —
// shared with the storage server, charged at its encoded size against the
// byte budget, and decoded again on every hit. Exactly one of the two
// pointers is set. `version` is the adjacency version snapshot taken BEFORE
// the blob was fetched (always 0 with mutations off): a probe re-validates
// it against the tier's current NodeVersion, so a hit can never serve a
// list from before a mutation — the snapshot may under-claim (forcing a
// spurious refetch) but never over-claim.
struct CachedAdjacency {
  AdjacencyPtr decoded;
  BlobPtr encoded;
  uint64_t version = 0;
};

// Re-resolves multiget misses that raced a partition migration: a batch
// formed against a server that lost its keys between the ServerOf lookup
// and StartMultiGet comes back with nullptr slots; each null slot's blob is
// re-read through the tier's current partition map, retrying until BOTH
// the owner stamp and the key's mutation version are stable around the
// read, so the answer is still delivered exactly once — whatever
// migrations, promotions, or mutations ran (or re-ran) meanwhile. The
// version half matters for a node mutated (or materialised) during a
// migration or replica promotion: its owner stamp can be stable while the
// blob only just landed. Returns the number of keys re-resolved; no-op
// when repartitioning is off.
size_t ResolveMigratedMisses(StorageTier* storage, std::span<const NodeId> keys,
                             std::vector<BlobPtr>* values);

struct ProcessorConfig {
  uint64_t cache_bytes = 4ULL << 30;  // paper default: 4 GB per processor
  CachePolicy cache_policy = CachePolicy::kLru;
  bool use_cache = true;  // false = the paper's "no-cache" comparison scheme
  // Bound on concurrently outstanding multiget batches per processor.
  // 1 = the synchronous level-barrier path; > 1 = async issue/probe/complete
  // pipeline (the sim replays it with per-batch completion events; the
  // threaded runtime services handles on a per-processor fetch thread).
  uint32_t max_inflight_batches = 1;
  // Cache the ENCODED wire blob instead of the decoded entry: the byte
  // budget holds several times more vertices under delta_varint encoding,
  // at the price of a decode (CostModel::decompress_*) on every hit.
  bool cache_compressed = false;
  // Multi-tenant federation: keyspace stride (the graph's node count; set
  // by the engine when ClusterConfig::num_tenants > 1). A query from tenant
  // t reads storage and cache under keys node + t * stride while traversal,
  // results, and batch positions stay in the tenant-local id space.
  // 0 = single tenant, identity mapping.
  NodeId tenant_stride = 0;
};

// NodeDataSource that fronts the storage tier with a processor-local cache.
class CachedStorageSource : public NodeDataSource {
 public:
  CachedStorageSource(StorageTier* storage, NodeCache<CachedAdjacency>* cache,
                      uint32_t max_inflight_batches = 1, bool cache_compressed = false,
                      NodeId tenant_stride = 0)
      : storage_(storage),
        cache_(cache),
        window_(max_inflight_batches == 0 ? 1 : max_inflight_batches),
        cache_compressed_(cache_compressed),
        tenant_stride_(tenant_stride) {
    GROUTING_CHECK(storage_ != nullptr);
  }

  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override;
  const FetchTrace& trace() const override { return trace_; }
  void ResetTrace() override { trace_.Clear(); }

  // Installs the async seam: handles are submitted here instead of being
  // executed inline, and completion overlap is measured in wall time.
  // nullptr (the default) = inline execution on the calling thread.
  void set_fetch_executor(BatchFetchExecutor* executor) { executor_ = executor; }
  uint32_t window() const { return window_; }

  // Wall-clock tracer for the owning processor thread (threaded runtime
  // only; the sim stamps virtual time itself during replay). nullptr (the
  // default) records nothing.
  void set_tracer(WallTracer* tracer) { tracer_ = tracer; }

  // Selects the tenant keyspace for subsequent fetches: storage and cache
  // keys become node + tenant * tenant_stride. Tenant 0 (or stride 0) is
  // the identity mapping — the classic single-tenant path.
  void set_tenant(uint32_t tenant) {
    tenant_offset_ = static_cast<NodeId>(tenant) * tenant_stride_;
  }

 private:
  // Global storage/cache key of a tenant-local node id.
  NodeId Key(NodeId node) const { return node + tenant_offset_; }
  // One outstanding multiget batch plus what is needed to install it.
  struct Inflight {
    std::shared_ptr<MultiGetHandle> handle;
    std::vector<size_t> positions;  // result slots, parallel to handle keys
    // Per-key NodeVersion snapshots taken at batch formation, parallel to
    // positions; empty with mutations off. Fetched values install into the
    // cache under these (pre-fetch) snapshots so a mutation that lands
    // while the batch is in flight invalidates the entry, never the
    // reverse.
    std::vector<uint64_t> versions;
    double issue_ts_us = 0.0;  // tracer timestamp at issue (if tracing)
  };

  // Waits for the oldest in-flight batch, decodes its blobs and merges them
  // into `result`, the cache and the trace (issue order keeps this
  // deterministic).
  void CompleteOldest(std::vector<Inflight>* inflight, std::span<const NodeId> nodes,
                      std::vector<AdjacencyPtr>* result, FetchTrace::Level* level,
                      double* blocked_us);

  StorageTier* storage_;
  NodeCache<CachedAdjacency>* cache_;  // nullptr = no-cache mode
  uint32_t window_;
  bool cache_compressed_;
  NodeId tenant_stride_ = 0;
  NodeId tenant_offset_ = 0;
  BatchFetchExecutor* executor_ = nullptr;
  WallTracer* tracer_ = nullptr;
  FetchTrace trace_;
};

struct ProcessorStats {
  uint64_t queries_executed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t nodes_visited = 0;
  uint64_t bytes_fetched = 0;
  uint64_t storage_batches = 0;
  // Async fetch pipeline (see FetchTrace): peak outstanding batches and
  // accumulated overlap between in-flight fetches and processor-side work.
  uint32_t batches_inflight_peak = 0;
  double fetch_overlap_us = 0.0;
  // Wall time decoding compressed blobs on cache hits (threaded runtime;
  // the sim replaces it with the cost model's virtual charge).
  double decompress_us = 0.0;
};

class QueryProcessor {
 public:
  QueryProcessor(uint32_t id, StorageTier* storage, const ProcessorConfig& config);

  uint32_t id() const { return id_; }

  // Executes the query; the per-query FetchTrace is available via
  // last_trace() until the next call.
  QueryResult Execute(const Query& q);

  const FetchTrace& last_trace() const { return source_->trace(); }
  const ProcessorStats& stats() const { return stats_; }
  // Async fetch seam (threaded runtime): route this processor's multiget
  // handles through `executor` instead of executing them inline.
  void set_fetch_executor(BatchFetchExecutor* executor) {
    source_->set_fetch_executor(executor);
  }
  // Wall-clock tracer for the thread running this processor (threaded
  // runtime only); forwarded to the storage source for batch/decode spans.
  void set_tracer(WallTracer* tracer) { source_->set_tracer(tracer); }
  bool cache_enabled() const { return cache_ != nullptr; }
  NodeCache<CachedAdjacency>* cache() { return cache_.get(); }
  const NodeCache<CachedAdjacency>* cache() const { return cache_.get(); }
  void ResetStats();

 private:
  uint32_t id_;
  std::unique_ptr<NodeCache<CachedAdjacency>> cache_;  // null in no-cache mode
  std::unique_ptr<CachedStorageSource> source_;
  ProcessorStats stats_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_PROC_PROCESSOR_H_
