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

// The header of a blob the tier shipped. Every stored blob was written by
// EncodeAdjacency, so a rejected header is a bug, not bad input.
AdjacencyHeader ParseHeader(std::span<const uint8_t> blob) {
  AdjacencyHeader header;
  GROUTING_CHECK(DecodeAdjacencyHeader(blob, &header));
  return header;
}

// Decodes the edges of `blob`, whose header is parsed, into `*entry`,
// reusing its vectors. Memory bound: a reused entry that once held a hub
// keeps no more than about twice what it holds now.
void DecodeReusing(std::span<const uint8_t> blob, const AdjacencyHeader& header,
                   AdjacencyEntry* entry) {
  GROUTING_CHECK(DecodeAdjacencyEdges(blob, header, entry));
  for (std::vector<Edge>* edges : {&entry->out, &entry->in}) {
    if (edges->capacity() > 2 * edges->size() + 32) {
      edges->shrink_to_fit();
    }
  }
}

// Whether a cache slot's label and edge count match the entry or blob it
// holds (the debug check behind a label-only hit).
[[maybe_unused]] bool SlotMatchesAdjacency(const CachedAdjacency& slot) {
  if (slot.encoded != nullptr) {
    AdjacencyHeader header;
    return DecodeAdjacencyHeader(*slot.encoded, &header) &&
           header.node_label == slot.label &&
           header.out_count + header.in_count == slot.edges;
  }
  return slot.decoded->node_label == slot.label &&
         slot.decoded->out.size() + slot.decoded->in.size() == slot.edges;
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

void CachedStorageSource::Complete(Inflight& batch, std::span<const NodeId> nodes,
                                   Output out, FetchTrace::Level* level,
                                   double* blocked_us) {
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
    // and its batch/stall spans were recorded there (see Fetch).
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

  // Decode pass: each fetched blob is parsed here, on the processor with
  // no storage lock held, and only as far as someone reads it. The header,
  // parsed once, yields the label and edge count a cache slot keeps, so a
  // later label-only hit reads the slot alone. Only a decoded-mode cache
  // keeps the entry, so only it gets a fresh one; a fetch that hands out
  // entries decodes into a pool slot. A label-only miss that no cache
  // keeps decoded (no cache, or a compressed one) reads just the header of
  // a v1 blob: the header pins the blob's exact size, and v1 edge bytes of
  // that size always decode, so the full decode would check nothing more.
  // A v2 blob's edge lists are validated only by decoding them, so its
  // label-only miss still decodes, into the scratch entry. Every blob a
  // cache installs has thus passed the full check. Under delta_varint
  // encoding the pass (decodes plus their trace bookkeeping, not the cache
  // installs) is timed as decompression with one clock pair: the simulator
  // charges the same decodes (its fetch_decode) under the same condition.
  const bool time_decodes = storage_->encoding() == AdjacencyEncoding::kDeltaVarint;
  const auto decode_start = time_decodes ? std::chrono::steady_clock::now()
                                          : std::chrono::steady_clock::time_point{};
  FetchTrace::Batch stats;
  stats.server = batch.handle->server_id();
  stats.level = trace_.levels;
  if (cache_ != nullptr) {
    installs_.resize(blobs->size());
  }
  for (size_t k = 0; k < blobs->size(); ++k) {
    const BlobPtr& blob = (*blobs)[k];
    if (blob == nullptr) {
      continue;
    }
    const AdjacencyHeader header = ParseHeader(*blob);
    AdjacencyPtr entry;
    if (cache_ != nullptr && !cache_compressed_) {
      auto fresh = std::make_shared<AdjacencyEntry>();
      GROUTING_CHECK(DecodeAdjacencyEdges(*blob, header, fresh.get()));
      entry = std::move(fresh);
    } else if (out.labels == nullptr) {
      entry = DecodePooled(*blob, header);
    } else if (header.encoding != AdjacencyEncoding::kRaw) {
      DecodeReusing(*blob, header, &scratch_);
    }
    const auto edges = static_cast<uint32_t>(header.out_count + header.in_count);
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
      const Label label = header.node_label;
      installs_[k] = cache_compressed_
                         ? CachedAdjacency{nullptr, blob, version, label, edges}
                         : CachedAdjacency{entry, nullptr, version, label, edges};
    }
    if (out.labels != nullptr) {
      (*out.labels)[pos] = header.node_label;
    } else {
      (*out.entries)[pos] = std::move(entry);
    }
  }
  if (time_decodes) {
    trace_.decompress_us += ElapsedUs(decode_start, std::chrono::steady_clock::now());
  }

  // Install pass, in blob order. A compressed slot is charged its blob's
  // encoded size, a decoded one its entry's serialised size.
  if (cache_ != nullptr) {
    for (size_t k = 0; k < blobs->size(); ++k) {
      if ((*blobs)[k] == nullptr) {
        continue;
      }
      CachedAdjacency& slot = installs_[k];
      const uint64_t bytes = slot.encoded != nullptr ? slot.encoded->size()
                                                     : slot.decoded->SerializedBytes();
      cache_->Put(Key(nodes[batch.positions[k]]), std::move(slot), bytes);
    }
    installs_.clear();
  }
  trace_.batches.push_back(stats);
}

AdjacencyPtr CachedStorageSource::DecodePooled(std::span<const uint8_t> blob,
                                               const AdjacencyHeader& header) {
  // Slots behind the cursor were either handed out earlier in this call
  // (still referenced from its result vector) or found held by the caller,
  // so the scan never revisits them.
  while (pool_cursor_ < pool_.size() && pool_[pool_cursor_].use_count() != 1) {
    ++pool_cursor_;
  }
  if (pool_cursor_ == pool_.size()) {
    pool_.push_back(std::make_shared<AdjacencyEntry>());
  }
  DecodeReusing(blob, header, pool_[pool_cursor_].get());
  return pool_[pool_cursor_++];
}

std::vector<AdjacencyPtr> CachedStorageSource::FetchBatch(std::span<const NodeId> nodes) {
  std::vector<AdjacencyPtr> entries(nodes.size());
  Fetch(nodes, Output{.entries = &entries});
  return entries;
}

std::vector<std::optional<Label>> CachedStorageSource::FetchLabels(
    std::span<const NodeId> nodes) {
  std::vector<std::optional<Label>> labels(nodes.size());
  Fetch(nodes, Output{.labels = &labels});
  return labels;
}

void CachedStorageSource::Fetch(std::span<const NodeId> nodes, Output out) {
  pool_cursor_ = 0;  // slots the caller released since the last call are free
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
  GROUTING_CHECK(nodes.size() <= UINT32_MAX);  // result slots are 32-bit
  misses_.clear();
  misses_.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (cache_ != nullptr) {
      ++trace_.cache_lookups;
      ++level.lookups;
      // A hit only counts if its version snapshot is still current: a slot
      // installed before a mutation of this key re-validates against the
      // tier's live NodeVersion and, when stale, falls through to the miss
      // path (the refetch overwrites the slot with the new blob). With
      // mutations off both sides are 0 and the comparison is a no-op.
      // The probe returns a pointer into the cache slot, valid until the
      // next Put/Erase/Clear: this branch makes no such call and copies
      // out only the decoded handle it keeps.
      if (const CachedAdjacency* hit = cache_->Get(Key(nodes[i]));
          hit != nullptr && hit->version == storage_->NodeVersion(Key(nodes[i]))) {
        ++trace_.cache_hits;
        ++level.hits;
        ++trace_.visited;
        if (out.labels != nullptr) {
          // Label-only hit: the slot alone answers it. Blobs are immutable
          // and passed the full check when their miss was completed
          // (Complete installs nothing else, and fills the label and
          // edge count from the checked header), so debug builds only
          // recheck that the slot still agrees with what it points to.
          GROUTING_DCHECK(SlotMatchesAdjacency(*hit));
          (*out.labels)[i] = hit->label;
          level.hit_edges += hit->edges;
          continue;
        }
        AdjacencyPtr entry;
        if (hit->encoded != nullptr) {
          // Compressed slot: pay the decode, for real, on every hit whose
          // edges the caller reads — into a reused pool slot, not a fresh
          // entry. The wall time lands in the trace so the threaded runtime
          // reports it; the sim charges its virtual equivalent during
          // replay.
          const auto decode_start = std::chrono::steady_clock::now();
          entry = DecodePooled(*hit->encoded, ParseHeader(*hit->encoded));
          const auto decode_end = std::chrono::steady_clock::now();
          trace_.decompress_us += ElapsedUs(decode_start, decode_end);
          if (tracer_ != nullptr && tracer_->active()) {
            tracer_->Span(TraceEventType::kDecode, tracer_->AtUs(decode_start),
                          tracer_->AtUs(decode_end), trace_.levels);
          }
        } else {
          entry = hit->decoded;
        }
        level.hit_edges += entry->out.size() + entry->in.size();
        (*out.entries)[i] = std::move(entry);
        continue;
      }
      ++trace_.cache_misses;
      ++level.misses;
    } else {
      ++trace_.cache_misses;  // every access is a storage fetch
      ++level.misses;
    }
    // Each miss's server is resolved EXACTLY ONCE into a snapshot, in
    // position order: under repartitioning the map can flip concurrently,
    // and a live-ServerOf sort comparator would be inconsistent mid-sort
    // (undefined behaviour). A batch formed from a snapshot that lost the
    // flip race is healed in Complete. ReadServerOf gives the owner, or
    // under replication a p2c-chosen replica — so one scorching partition's
    // misses fan across its replica set — and the key's partition, which
    // rides with the batch so the key is hashed once. Keys go out
    // tenant-offset: placement only ever sees global keys, while positions
    // keep indexing the tenant-local result slots.
    uint32_t partition = 0;
    const uint32_t server = storage_->ReadServerOf(Key(nodes[i]), reader_, &partition);
    misses_.push_back(Miss{server, partition, static_cast<uint32_t>(i)});
  }

  // Issue / complete phases: group misses by storage server into multiget
  // batches and keep at most `window_` of them outstanding. Completions
  // install values in issue order (ascending server id), so stats, trace
  // and cache state never depend on the window or on when the executor
  // actually serviced a handle.
  if (!misses_.empty()) {
    std::sort(misses_.begin(), misses_.end(), [](const Miss& a, const Miss& b) {
      return a.server != b.server ? a.server < b.server : a.pos < b.pos;
    });

    // Overlap is measured only where the window lets batches overlap: at
    // window 1 peak and overlap stay 0 on both engines.
    const bool timed = executor_ != nullptr && window_ > 1;
    const auto issue_start =
        timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    double blocked_us = 0.0;
    uint32_t peak = 0;
    // Batches [completed, issued) of batches_ are in flight.
    size_t issued = 0;
    size_t completed = 0;
    const bool versioned = storage_->mutations_enabled();
    const bool partitioned = storage_->repartitioning_enabled();

    size_t i = 0;
    while (i < misses_.size()) {
      const uint32_t server = misses_[i].server;
      if (issued == batches_.size()) {
        batches_.emplace_back();
      }
      Inflight& batch = batches_[issued];
      batch.positions.clear();
      batch.versions.clear();
      keys_.clear();
      partitions_.clear();
      while (i < misses_.size() && misses_[i].server == server) {
        const uint32_t pos = misses_[i].pos;
        keys_.push_back(Key(nodes[pos]));
        if (partitioned) {
          partitions_.push_back(misses_[i].partition);
        }
        batch.positions.push_back(pos);
        if (versioned) {
          // Snapshot BEFORE the multiget runs: the installed cache slot
          // may under-claim its version (spurious refetch later) but can
          // never claim a version newer than the blob it holds.
          batch.versions.push_back(storage_->NodeVersion(Key(nodes[pos])));
        }
        ++i;
      }
      if (issued - completed >= window_) {
        Complete(batches_[completed++], nodes, out, &level, &blocked_us);
      }
      // The slot's handle is reopened unless someone else (an executor)
      // still holds it; use_count() is exact because only this thread
      // copies it.
      if (batch.handle == nullptr || batch.handle.use_count() != 1) {
        batch.handle = std::make_shared<MultiGetHandle>();
      }
      storage_->StartMultiGet(server, keys_, partitions_, reader_, batch.handle.get());
      const size_t batch_keys = keys_.size();
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
      ++issued;
      peak = std::max(peak, static_cast<uint32_t>(issued - completed));
    }
    while (completed < issued) {
      Complete(batches_[completed++], nodes, out, &level, &blocked_us);
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
}

QueryProcessor::QueryProcessor(uint32_t id, StorageTier* storage,
                               const ProcessorConfig& config)
    : id_(id) {
  if (config.use_cache) {
    cache_ = std::make_unique<NodeCache<CachedAdjacency>>(config.cache_bytes,
                                                          config.cache_policy);
  }
  source_ = std::make_unique<CachedStorageSource>(
      storage, cache_.get(), config.max_inflight_batches, config.cache_compressed);
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
