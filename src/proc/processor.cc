#include "src/proc/processor.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace grouting {
namespace {

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

size_t ResolveMigratedMisses(StorageTier* storage, std::span<const NodeId> keys,
                             std::vector<BlobPtr>* values) {
  GROUTING_CHECK(keys.size() == values->size());
  const PartitionMap* map = storage->partition_map();
  if (map == nullptr && !storage->mutations_enabled()) {
    return 0;
  }
  size_t resolved = 0;
  for (size_t k = 0; k < keys.size(); ++k) {
    if ((*values)[k] != nullptr) {
      continue;
    }
    // The re-fetch can itself race the NEXT migration (a plain read is not
    // covered by the drain accounting), so retry until the owner STAMP is
    // stable around a null read. The stamp's version half catches even a
    // partition that moved away and back (ABA) during the read; only a
    // null under an unchanged stamp is a genuine miss — anything else
    // means the key moved mid-read and the then-current owner has it.
    // With mutations on, the mutation version must be stable too: a node
    // materialised (kAddVertex) during a migration or replica promotion
    // can land its blob under an unchanged owner stamp, and a stamp-only
    // check would wrongly conclude "stable null" for a key that now
    // exists. The read is the stats-free PeekCurrent: the raced batch
    // already counted this key as workload traffic once.
    for (;;) {
      const uint64_t stamp = map != nullptr ? map->OwnerStampOf(keys[k]) : 0;
      const uint64_t version = storage->NodeVersion(keys[k]);
      BlobPtr blob = storage->PeekCurrent(keys[k]);
      if (blob != nullptr) {
        (*values)[k] = std::move(blob);
        ++resolved;
        break;
      }
      if ((map == nullptr || map->OwnerStampOf(keys[k]) == stamp) &&
          storage->NodeVersion(keys[k]) == version) {
        break;  // stable null: genuine miss (a truly withheld vertex)
      }
    }
  }
  return resolved;
}

void CachedStorageSource::CompleteOldest(std::vector<Inflight>* inflight,
                                         std::span<const NodeId> nodes,
                                         std::vector<AdjacencyPtr>* result,
                                         FetchTrace::Level* level, double* blocked_us) {
  Inflight batch = std::move(inflight->front());
  inflight->erase(inflight->begin());

  const bool traced = tracer_ != nullptr && tracer_->active();
  const std::vector<BlobPtr>* blobs = nullptr;
  if (executor_ != nullptr) {
    const auto wait_start = std::chrono::steady_clock::now();
    blobs = &batch.handle->Wait();
    const auto wait_end = std::chrono::steady_clock::now();
    *blocked_us += ElapsedUs(wait_start, wait_end);
    if (traced) {
      // The batch span covers submit -> reply landed; the stall span only
      // the part where this thread actually sat in Wait().
      tracer_->Span(TraceEventType::kBatch, batch.issue_ts_us,
                    tracer_->AtUs(wait_end), trace_.levels,
                    batch.handle->server_id(), batch.handle->keys().size());
      tracer_->Span(TraceEventType::kStall, tracer_->AtUs(wait_start),
                    tracer_->AtUs(wait_end), trace_.levels,
                    batch.handle->server_id());
    }
  } else {
    // Inline execution: the batch was serviced synchronously at issue time
    // and its batch/stall spans were recorded there (see FetchBatch).
    blobs = &batch.handle->Wait();
  }

  // Under repartitioning a batch can race a partition migration: the keys
  // moved between the ServerOf lookup that formed the batch and its
  // service. Null slots are re-resolved through the tier's current map, so
  // the blobs are still delivered exactly once. Mutations open the same
  // hole without any migration — a kAddVertex can land between batch
  // formation and service — so the heal also runs when mutations are on.
  // The copy is paid only when a batch actually came back with a hole — on
  // the common all-present path (and always when both features are off)
  // this is a read-only scan.
  std::vector<BlobPtr> patched;
  if ((storage_->repartitioning_enabled() || storage_->mutations_enabled()) &&
      std::find(blobs->begin(), blobs->end(), nullptr) != blobs->end()) {
    patched = *blobs;
    ResolveMigratedMisses(storage_, batch.handle->keys(), &patched);
    blobs = &patched;
  }

  FetchTrace::Batch stats;
  stats.server = batch.handle->server_id();
  stats.level = trace_.levels;
  for (size_t k = 0; k < blobs->size(); ++k) {
    const BlobPtr& blob = (*blobs)[k];
    if (blob == nullptr) {
      continue;
    }
    // The one decode of this fetched blob, here on the processor with no
    // storage lock held.
    AdjacencyPtr entry = DecodeAdjacency(*blob);
    GROUTING_CHECK(entry != nullptr);
    const uint64_t edges = entry->out.size() + entry->in.size();
    stats.values += 1;
    stats.bytes += blob->size();  // what actually crossed the network
    stats.edges += edges;
    trace_.bytes_fetched += blob->size();
    ++trace_.visited;
    ++level->fetched;
    level->fetched_edges += edges;
    const size_t pos = batch.positions[k];
    if (cache_ != nullptr) {
      // Install under the version snapshot taken BEFORE the batch was
      // issued (batch.versions, 0 with mutations off): a blob mutated
      // while the batch was in flight installs with a stale snapshot and
      // the next probe refetches it — never the other way around.
      const uint64_t version = batch.versions.empty() ? 0 : batch.versions[k];
      if (cache_compressed_) {
        cache_->Put(Key(nodes[pos]), CachedAdjacency{nullptr, blob, version},
                    blob->size());
      } else {
        cache_->Put(Key(nodes[pos]), CachedAdjacency{entry, nullptr, version},
                    entry->SerializedBytes());
      }
    }
    (*result)[pos] = std::move(entry);
  }
  trace_.batches.push_back(stats);
}

std::vector<AdjacencyPtr> CachedStorageSource::FetchBatch(std::span<const NodeId> nodes) {
  std::vector<AdjacencyPtr> result(nodes.size());
  trace_.level_stats.emplace_back();
  FetchTrace::Level& level = trace_.level_stats.back();
  const bool traced = tracer_ != nullptr && tracer_->active();
  const double level_start_us = traced ? tracer_->NowUs() : 0.0;

  // Probe phase: serve from cache. Functionally this runs before the issue
  // phase for EVERY window (cache state stays window-invariant); it stands
  // in for the cheap membership pass a real processor uses to form its miss
  // batches. The expensive per-hit side (recency update, value
  // materialisation, partial-result merge) is what the sim's replay charges
  // as overlapping the outstanding batches; on the threaded engine the
  // measured overlap covers issue + completion merging, not this pass.
  std::vector<size_t> miss_positions;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (cache_ != nullptr) {
      ++trace_.cache_lookups;
      ++level.lookups;
      // A hit only counts if its version snapshot is still current: a slot
      // installed before a mutation of this key re-validates against the
      // tier's live NodeVersion and, when stale, falls through to the miss
      // path (the refetch overwrites the slot with the new blob). With
      // mutations off both sides are 0 and the comparison is a no-op.
      if (auto hit = cache_->Get(Key(nodes[i]));
          hit.has_value() &&
          hit->version == storage_->NodeVersion(Key(nodes[i]))) {
        ++trace_.cache_hits;
        ++level.hits;
        ++trace_.visited;
        AdjacencyPtr entry;
        if (hit->encoded != nullptr) {
          // Compressed slot: pay the decode, for real, on every hit. The
          // wall time lands in the trace so the threaded runtime reports
          // it; the sim charges its virtual equivalent during replay.
          const auto decode_start = std::chrono::steady_clock::now();
          entry = DecodeAdjacency(*hit->encoded);
          const auto decode_end = std::chrono::steady_clock::now();
          trace_.decompress_us += ElapsedUs(decode_start, decode_end);
          if (tracer_ != nullptr && tracer_->active()) {
            tracer_->Span(TraceEventType::kDecode, tracer_->AtUs(decode_start),
                          tracer_->AtUs(decode_end), trace_.levels);
          }
          GROUTING_CHECK(entry != nullptr);
        } else {
          entry = hit->decoded;
        }
        level.hit_edges += entry->out.size() + entry->in.size();
        result[i] = std::move(entry);
        continue;
      }
      ++trace_.cache_misses;
      ++level.misses;
    } else {
      ++trace_.cache_misses;  // every access is a storage fetch
      ++level.misses;
    }
    miss_positions.push_back(i);
  }

  // Issue / complete phases: group misses by owning storage server into
  // multiget batches and keep at most `window_` of them outstanding.
  // Completions install values in issue order (ascending server id), so
  // stats, trace and cache state never depend on the window or on when the
  // executor actually serviced a handle. Each miss's owner is resolved
  // EXACTLY ONCE into a snapshot before sorting: under repartitioning the
  // map can flip concurrently, and a live-ServerOf comparator would be
  // inconsistent mid-sort (undefined behaviour). A batch formed from a
  // snapshot that lost the flip race is healed in CompleteOldest.
  if (!miss_positions.empty()) {
    std::vector<std::pair<uint32_t, size_t>> misses;  // (server snapshot, pos)
    misses.reserve(miss_positions.size());
    for (const size_t pos : miss_positions) {
      // ReadServerOf: the owner, or under replication a p2c-chosen replica
      // — so one scorching partition's misses fan across its replica set.
      // Keys go out tenant-offset: placement below only ever sees global
      // keys, while positions keep indexing the tenant-local result slots.
      misses.emplace_back(storage_->ReadServerOf(Key(nodes[pos])), pos);
    }
    std::sort(misses.begin(), misses.end());

    const bool timed = executor_ != nullptr;
    const auto issue_start = std::chrono::steady_clock::now();
    double blocked_us = 0.0;
    uint32_t peak = 0;
    std::vector<Inflight> inflight;

    size_t i = 0;
    while (i < misses.size()) {
      const uint32_t server = misses[i].first;
      Inflight batch;
      std::vector<NodeId> keys;
      const bool versioned = storage_->mutations_enabled();
      while (i < misses.size() && misses[i].first == server) {
        const size_t pos = misses[i].second;
        keys.push_back(Key(nodes[pos]));
        batch.positions.push_back(pos);
        if (versioned) {
          // Snapshot BEFORE the multiget runs: the installed cache slot
          // may under-claim its version (spurious refetch later) but can
          // never claim a version newer than the blob it holds.
          batch.versions.push_back(storage_->NodeVersion(Key(nodes[pos])));
        }
        ++i;
      }
      if (inflight.size() >= window_) {
        CompleteOldest(&inflight, nodes, &result, &level, &blocked_us);
      }
      const size_t batch_keys = keys.size();
      batch.handle = storage_->StartMultiGet(server, std::move(keys));
      if (executor_ != nullptr) {
        if (traced) {
          batch.issue_ts_us = tracer_->NowUs();
        }
        executor_->Submit(batch.handle);
      } else if (traced) {
        // Synchronous service on this thread: the whole multiget IS the
        // stall — batch and stall spans coincide.
        const double exec_start = tracer_->NowUs();
        batch.handle->Execute();
        const double exec_end = tracer_->NowUs();
        batch.issue_ts_us = exec_start;
        tracer_->Span(TraceEventType::kBatch, exec_start, exec_end, trace_.levels,
                      server, batch_keys);
        tracer_->Span(TraceEventType::kStall, exec_start, exec_end, trace_.levels,
                      server);
      } else {
        batch.handle->Execute();
      }
      inflight.push_back(std::move(batch));
      peak = std::max(peak, static_cast<uint32_t>(inflight.size()));
    }
    while (!inflight.empty()) {
      CompleteOldest(&inflight, nodes, &result, &level, &blocked_us);
    }

    if (timed) {
      const double span_us = ElapsedUs(issue_start, std::chrono::steady_clock::now());
      trace_.async_overlap_us += std::max(0.0, span_us - blocked_us);
      trace_.max_batches_inflight = std::max(trace_.max_batches_inflight, peak);
    }
  }
  if (traced) {
    tracer_->Span(TraceEventType::kLevel, level_start_us, tracer_->NowUs(),
                  trace_.levels, 0, nodes.size());
  }
  ++trace_.levels;
  return result;
}

QueryProcessor::QueryProcessor(uint32_t id, StorageTier* storage,
                               const ProcessorConfig& config)
    : id_(id) {
  if (config.use_cache) {
    cache_ = std::make_unique<NodeCache<CachedAdjacency>>(config.cache_bytes,
                                                          config.cache_policy);
  }
  source_ = std::make_unique<CachedStorageSource>(
      storage, cache_.get(), config.max_inflight_batches,
      config.cache_compressed, config.tenant_stride);
}

QueryResult QueryProcessor::Execute(const Query& q) {
  source_->set_tenant(q.tenant);
  source_->ResetTrace();
  QueryResult result = ExecuteQuery(q, *source_);
  const FetchTrace& trace = source_->trace();
  ++stats_.queries_executed;
  stats_.cache_hits += trace.cache_hits;
  stats_.cache_misses += trace.cache_misses;
  stats_.nodes_visited += trace.visited;
  stats_.bytes_fetched += trace.bytes_fetched;
  stats_.storage_batches += trace.batches.size();
  stats_.batches_inflight_peak =
      std::max(stats_.batches_inflight_peak, trace.max_batches_inflight);
  stats_.fetch_overlap_us += trace.async_overlap_us;
  stats_.decompress_us += trace.decompress_us;
  return result;
}

void QueryProcessor::ResetStats() {
  stats_ = ProcessorStats{};
  if (cache_ != nullptr) {
    cache_->ResetStats();
  }
}

}  // namespace grouting
