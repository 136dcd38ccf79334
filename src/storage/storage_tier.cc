#include "src/storage/storage_tier.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace grouting {
namespace {

BlobPtr MakeBlob(std::vector<uint8_t> bytes) {
  return std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
}

}  // namespace

void StorageServer::MultiGet(std::span<const NodeId> nodes, std::vector<BlobPtr>* values) {
  std::vector<BlobPtr>& result = *values;
  result.clear();
  result.reserve(nodes.size());
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.batch_requests;
  for (const NodeId node : nodes) {
    ++stats_.get_requests;
    const auto it = blobs_.find(node);
    if (it == blobs_.end()) {
      ++stats_.misses;
      result.push_back(nullptr);
      continue;
    }
    ++stats_.values_served;
    stats_.bytes_served += it->second->size();
    result.push_back(it->second);
  }
}

BlobPtr StorageServer::PeekBlob(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = blobs_.find(node);
  return it == blobs_.end() ? nullptr : it->second;
}

void StorageServer::DrainOpenBatches() {
  const uint32_t old = epoch_.value.fetch_add(1, std::memory_order_acq_rel) & 1;
  for (uint32_t reader = 0; reader < open_batches_.shards(); ++reader) {
    while (open_batches_.at(reader, old).load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }
}

StorageTier::StorageTier(size_t num_servers, uint32_t hash_seed) : hasher_(hash_seed) {
  GROUTING_CHECK(num_servers > 0);
  servers_.reserve(num_servers);
  for (size_t i = 0; i < num_servers; ++i) {
    servers_.push_back(std::make_unique<StorageServer>(static_cast<uint32_t>(i)));
  }
}

void StorageTier::LoadGraph(const Graph& g) {
  LoadKeyspaces(g, {}, {});
}

void StorageTier::LoadGraphSubset(const Graph& g, std::span<const uint8_t> keep) {
  GROUTING_CHECK(keep.size() == g.num_nodes());
  GROUTING_CHECK_MSG(mutations_enabled(),
                     "LoadGraphSubset requires EnableMutations (the withheld "
                     "nodes can only materialise through ApplyMutation)");
  LoadKeyspaces(g, keep, {});
}

void StorageTier::LoadKeyspaces(const Graph& g, std::span<const uint8_t> keep,
                                PartitionAssignment placement) {
  explicit_placement_ = std::move(placement);
  if (partition_map_ != nullptr) {
    partition_keys_.assign(partition_map_->num_partitions(), {});
  }
  const uint64_t stride = g.num_nodes();
  GROUTING_CHECK_MSG(
      static_cast<uint64_t>(num_tenants_) * stride <=
          static_cast<uint64_t>(kInvalidNode),
      "tenant keyspaces overflow the node-id space");
  keyspace_stride_ = num_tenants_ > 1 ? static_cast<NodeId>(stride) : 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    // Encoded once, then written into every tenant's keyspace at the offset
    // key u + t * num_nodes — so placement, repartitioning, and replication
    // all operate on global keys with no tenant-specific code below here.
    const bool present = keep.empty() || keep[u] != 0;
    const BlobPtr blob = present ? MakeBlob(EncodeAdjacency(g, u, encoding_)) : nullptr;
    for (uint32_t t = 0; t < num_tenants_; ++t) {
      const NodeId key =
          static_cast<NodeId>(static_cast<uint64_t>(u) + t * stride);
      // Withheld keys still join their partition's key list: when a later
      // kAddVertex materialises them, migrations and replica fills must
      // move them like any other key (absent keys are skipped by PeekBlob).
      if (partition_map_ != nullptr) {
        partition_keys_[partition_map_->PartitionOf(key)].push_back(key);
      }
      if (!present) {
        continue;
      }
      logical_bytes_loaded_ += g.AdjacencyBytes(u);
      encoded_bytes_loaded_ += blob->size();
      servers_[ServerOf(key)]->Load(key, blob);
    }
  }
}

void StorageTier::LoadGraph(const Graph& g, const PartitionAssignment& placement) {
  GROUTING_CHECK(placement.size() == g.num_nodes());
  GROUTING_CHECK_MSG(partition_map_ == nullptr,
                     "explicit placement is incompatible with repartitioning");
  GROUTING_CHECK_MSG(num_tenants_ == 1,
                     "multi-tenant federation requires hash placement");
  for (const PartitionId server : placement) {
    GROUTING_CHECK(server < servers_.size());
  }
  LoadKeyspaces(g, {}, placement);
}

uint32_t StorageTier::ServerOf(NodeId node) const {
  if (!explicit_placement_.empty() && node < explicit_placement_.size()) {
    return explicit_placement_[node];
  }
  if (partition_map_ != nullptr) {
    return partition_map_->OwnerOf(node);
  }
  return hasher_.Place(node, static_cast<uint32_t>(servers_.size()));
}

void StorageTier::set_num_readers(uint32_t num_readers) {
  GROUTING_CHECK(num_readers > 0);
  GROUTING_CHECK_MSG(partition_map_ == nullptr,
                     "set_num_readers must precede EnableRepartitioning");
  num_readers_ = num_readers;
  for (const auto& s : servers_) {
    s->set_num_readers(num_readers);
  }
}

uint32_t StorageTier::ReadServerOf(NodeId node, uint32_t reader, uint32_t* partition) {
  if (partition_map_ == nullptr) {
    *partition = 0;
    return ServerOf(node);
  }
  const uint32_t q = partition_map_->PartitionOf(node);
  *partition = q;
  const uint32_t owner = partition_map_->owner(q);
  if (!replication_on_) {
    return owner;
  }
  GROUTING_DCHECK(reader < num_readers_);
  const uint64_t rep = partition_map_->ReplicaStamp(q);
  const uint32_t count = PartitionMap::StampReplicaCount(rep);
  if (count == 0) {
    // Unreplicated partitions still feed the load signal: a server hot with
    // primary-only traffic should lose p2c ties elsewhere.
    read_counters_.at(reader, kReadLoad + owner).fetch_add(1, std::memory_order_relaxed);
    return owner;
  }
  uint32_t holders[1 + PartitionMap::kMaxReplicas];
  holders[0] = owner;
  for (uint32_t i = 0; i < count; ++i) {
    holders[1 + i] = PartitionMap::StampReplica(rep, i);
  }
  // Power-of-two-choices: two hash-derived candidates from the holder set,
  // the less-loaded one wins (ties to the lower server id). The read
  // sequence is mixed into the hash so consecutive reads of one scorching
  // key rotate their candidate pair over the whole holder set — a fixed
  // per-key pair would pin a hot key to two servers forever, which loses to
  // plain migration's time-multiplexing. Hash-derived — not RNG — so the
  // sim's single-threaded runs stay deterministic. Sequence and loads are
  // the reader's own shard.
  const uint64_t seq =
      read_counters_.at(reader, kReadSeq).fetch_add(1, std::memory_order_relaxed);
  const uint64_t h = Murmur3Hash64(node ^ (seq * 0x9e3779b97f4a7c15ull), 0x7e2c0a15u);
  uint32_t pick = holders[h % (count + 1)];
  const uint32_t alt = holders[(h >> 16) % (count + 1)];
  if (alt != pick) {
    const uint64_t load_pick =
        read_counters_.at(reader, kReadLoad + pick).load(std::memory_order_relaxed);
    const uint64_t load_alt =
        read_counters_.at(reader, kReadLoad + alt).load(std::memory_order_relaxed);
    if (load_alt < load_pick || (load_alt == load_pick && alt < pick)) {
      pick = alt;
    }
  }
  read_counters_.at(reader, kReadLoad + pick).fetch_add(1, std::memory_order_relaxed);
  if (pick != owner) {
    read_counters_.at(reader, kReplicaReads).fetch_add(1, std::memory_order_relaxed);
  }
  return pick;
}

BlobPtr StorageTier::PeekCurrent(NodeId node) {
  return servers_[ServerOf(node)]->PeekBlob(node);
}

void StorageTier::StartMultiGet(uint32_t server, std::span<const NodeId> keys,
                                std::span<const uint32_t> partitions, uint32_t reader,
                                MultiGetHandle* handle) {
  GROUTING_CHECK(server < servers_.size());
  GROUTING_DCHECK(reader < num_readers_);
  StorageServer* target = servers_[server].get();
  std::atomic<uint64_t>* open_slot = nullptr;
  if (partition_monitor_ != nullptr) {
    GROUTING_CHECK(partitions.size() == keys.size());
    for (const uint32_t q : partitions) {
      partition_monitor_->Record(q, reader);
    }
    // Drain accounting: the handle occupies its reader's slot of the
    // server's current epoch until it is serviced, so a migration can wait
    // for requests that were opened against the old owner.
    open_slot = target->RegisterOpenBatch(reader);
  }
  handle->Reopen(target, keys, open_slot);
}

std::shared_ptr<MultiGetHandle> StorageTier::StartMultiGet(uint32_t server,
                                                           const std::vector<NodeId>& keys) {
  std::vector<uint32_t> partitions;
  if (partition_map_ != nullptr) {
    partitions.reserve(keys.size());
    for (const NodeId key : keys) {
      partitions.push_back(partition_map_->PartitionOf(key));
    }
  }
  auto handle = std::make_shared<MultiGetHandle>();
  StartMultiGet(server, keys, partitions, /*reader=*/0, handle.get());
  return handle;
}

void StorageTier::EnableRepartitioning(uint32_t partitions_per_server) {
  GROUTING_CHECK(partitions_per_server > 0);
  GROUTING_CHECK_MSG(explicit_placement_.empty(),
                     "repartitioning is incompatible with explicit placement");
  const uint32_t num_servers = static_cast<uint32_t>(servers_.size());
  partition_map_ = std::make_unique<PartitionMap>(
      partitions_per_server * num_servers, num_servers, hasher_.seed());
  partition_monitor_ = std::make_unique<PartitionMonitor>(
      partition_map_->num_partitions(), num_readers_);
}

void StorageTier::EnableReplication() {
  GROUTING_CHECK_MSG(partition_map_ != nullptr,
                     "EnableReplication requires EnableRepartitioning first");
  replication_on_ = true;
  read_counters_ = ShardedCounters(num_readers_,
                                   kReadLoad + static_cast<uint32_t>(servers_.size()));
}

StorageTier::MigrationResult StorageTier::AddReplica(uint32_t partition,
                                                     uint32_t server) {
  // All structural moves and mutations serialise on write_mu_: a mutation
  // can never land mid-copy (and be lost on the destination), and a
  // just-deleted copy can never resurrect a stale blob.
  std::lock_guard<std::mutex> lock(write_mu_);
  return AddReplicaLocked(partition, server);
}

StorageTier::MigrationResult StorageTier::RemoveReplica(uint32_t partition,
                                                        uint32_t server) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return RemoveReplicaLocked(partition, server);
}

StorageTier::MigrationResult StorageTier::MigratePartition(uint32_t partition,
                                                           uint32_t to) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return MigratePartitionLocked(partition, to);
}

StorageTier::MigrationResult StorageTier::AddReplicaLocked(uint32_t partition,
                                                           uint32_t server) {
  GROUTING_CHECK(replication_on_);
  GROUTING_CHECK(partition < partition_map_->num_partitions());
  GROUTING_CHECK(server < servers_.size());
  GROUTING_CHECK_MSG(partition < partition_keys_.size(),
                     "replication requires the graph to be loaded after "
                     "EnableRepartitioning");
  MigrationResult result;
  result.kind = MigrationResult::Kind::kPromote;
  result.partition = partition;
  result.from = partition_map_->owner(partition);
  result.to = server;
  GROUTING_CHECK_MSG(server != result.from,
                     "the primary is not a replica target");
  StorageServer& src = *servers_[result.from];
  StorageServer& dst = *servers_[server];

  // (1) Copy every key of the partition onto the replica while it is still
  // invisible to readers — the replica shares the primary's blobs.
  CopyPartitionLocked(partition, src, dst, &result);

  // (2) Flip the replica into the map. No drain, no delete: adding a copy
  // cannot invalidate any in-flight read.
  partition_map_->AddReplica(partition, server);
  return result;
}

StorageTier::MigrationResult StorageTier::RemoveReplicaLocked(uint32_t partition,
                                                              uint32_t server) {
  GROUTING_CHECK(replication_on_);
  GROUTING_CHECK(partition < partition_map_->num_partitions());
  GROUTING_CHECK(server < servers_.size());
  MigrationResult result;
  result.kind = MigrationResult::Kind::kDemote;
  result.partition = partition;
  result.from = server;
  result.to = partition_map_->owner(partition);
  GROUTING_CHECK_MSG(server != result.to, "cannot demote the primary");

  // (1) Flip the replica out of the map: new ReadServerOf lookups stop
  // routing here (PartitionMap::RemoveReplica checks membership).
  partition_map_->RemoveReplica(partition, server);

  // (2) Drain multiget handles opened against the replica before the flip
  // — they still find the keys, the copies are not yet deleted.
  StorageServer& rep = *servers_[server];
  rep.DrainOpenBatches();

  // (3) Delete the replica copies. A reader that raced the flip between
  // ReadServerOf and StartMultiGet may miss here; the processor-side
  // healing re-resolves through the primary, which holds every live key.
  for (const NodeId key : partition_keys_[partition]) {
    rep.Delete(key);
    ++result.keys_moved;
  }
  return result;
}

StorageTier::MigrationResult StorageTier::MigratePartitionLocked(uint32_t partition,
                                                                 uint32_t to) {
  GROUTING_CHECK(partition_map_ != nullptr);
  GROUTING_CHECK(partition < partition_map_->num_partitions());
  GROUTING_CHECK(to < servers_.size());
  MigrationResult result;
  result.partition = partition;
  result.from = partition_map_->owner(partition);
  result.to = to;
  if (result.from == to) {
    return result;
  }
  // A migration moves the SINGLE copy of a partition, so any replicas are
  // torn down first (planner rounds never migrate replicated partitions —
  // this path serves direct callers such as the coherence model checker).
  while (partition_map_->replica_count(partition) > 0) {
    RemoveReplicaLocked(
        partition,
        PartitionMap::StampReplica(partition_map_->ReplicaStamp(partition), 0));
  }
  StorageServer& src = *servers_[result.from];
  StorageServer& dst = *servers_[to];

  // (1) Copy: the partition's keys land on the destination while the source
  // copies stay live, so every concurrent lookup finds them somewhere. The
  // key list was built at LoadGraph (membership never changes), so the walk
  // is O(keys in partition) and takes the source mutex per key, never for a
  // whole-server scan.
  GROUTING_CHECK_MSG(partition < partition_keys_.size(),
                     "repartitioning requires the graph to be loaded after "
                     "EnableRepartitioning");
  const std::vector<NodeId> moved = CopyPartitionLocked(partition, src, dst, &result);

  // (2) Flip: new ServerOf lookups resolve to the destination (which holds
  // the keys since step 1).
  partition_map_->SetOwner(partition, to);

  // (3) Drain: multiget handles opened against the source before the flip
  // finish against the still-present source copies.
  src.DrainOpenBatches();

  // (4) Delete the source copies. A reader that raced the flip between its
  // ServerOf lookup and StartMultiGet lands in the NEW epoch slot and may
  // observe a miss here; the processor-side fallback re-resolves it.
  for (const NodeId key : moved) {
    src.Delete(key);
  }
  return result;
}

std::vector<NodeId> StorageTier::CopyPartitionLocked(uint32_t partition,
                                                     const StorageServer& src,
                                                     StorageServer& dst,
                                                     MigrationResult* result) {
  std::vector<NodeId> copied;
  for (const NodeId key : partition_keys_[partition]) {
    BlobPtr blob = src.PeekBlob(key);
    if (blob == nullptr) {
      continue;  // not on the source (deleted); nothing to copy
    }
    result->bytes_moved += blob->size();
    dst.Load(key, std::move(blob));
    copied.push_back(key);
  }
  result->keys_moved += copied.size();
  return copied;
}

void StorageTier::EnableMutations(const Graph& g) {
  universe_graph_ = &g;
  universe_nodes_ = g.num_nodes();
  const uint64_t total = universe_nodes_ * num_tenants_;
  GROUTING_CHECK(total > 0);
  node_version_ = std::make_unique<std::atomic<uint64_t>[]>(total);
  for (uint64_t i = 0; i < total; ++i) {
    node_version_[i].store(0, std::memory_order_relaxed);
  }
}

void StorageTier::WriteVersionedLocked(NodeId key, const BlobPtr& blob) {
  // Publish order: every copy first, version bump LAST. A reader snapshots
  // the version BEFORE fetching, so whatever blob it then reads is at least
  // as new as the snapshot — a cache entry can under-claim its version
  // (spurious refetch) but never over-claim it (stale hit).
  servers_[ServerOf(key)]->Load(key, blob);
  if (replication_on_) {
    const uint32_t q = partition_map_->PartitionOf(key);
    const uint64_t rep = partition_map_->ReplicaStamp(q);
    const uint32_t count = PartitionMap::StampReplicaCount(rep);
    for (uint32_t i = 0; i < count; ++i) {
      servers_[PartitionMap::StampReplica(rep, i)]->Load(key, blob);
    }
  }
  node_version_[key].fetch_add(1, std::memory_order_release);
}

uint64_t StorageTier::MutateEdgeHalfLocked(NodeId key, NodeId other, Label label,
                                           bool insert, bool out) {
  const BlobPtr blob = PeekCurrent(key);
  if (blob == nullptr) {
    return 0;  // withheld endpoint: the edge lives in the universe graph
  }
  const AdjacencyPtr current = DecodeAdjacency(*blob);
  GROUTING_CHECK(current != nullptr);
  AdjacencyEntry entry = *current;
  std::vector<Edge>& list = out ? entry.out : entry.in;
  const auto it = std::find_if(list.begin(), list.end(),
                               [other](const Edge& e) { return e.dst == other; });
  if (insert) {
    if (it != list.end()) {
      return 0;  // idempotent: the edge is already present
    }
    list.push_back(Edge{other, label});
  } else {
    if (it == list.end()) {
      return 0;  // idempotent: nothing to remove
    }
    list.erase(it);
  }
  WriteVersionedLocked(key, MakeBlob(EncodeAdjacency(entry, encoding_)));
  return 1;
}

uint64_t StorageTier::ApplyMutation(const GraphMutation& m) {
  GROUTING_CHECK_MSG(mutations_enabled(),
                     "ApplyMutation requires EnableMutations first");
  std::lock_guard<std::mutex> lock(write_mu_);
  uint64_t writes = 0;
  // One logical mutation lands in every tenant keyspace — the federation
  // stores per-tenant copies of the same graph, so the copies stay
  // identical under updates.
  for (uint32_t t = 0; t < num_tenants_; ++t) {
    const uint64_t off = static_cast<uint64_t>(t) * universe_nodes_;
    switch (m.kind) {
      case GraphMutation::Kind::kAddVertex: {
        GROUTING_CHECK(m.u < universe_nodes_);
        WriteVersionedLocked(
            static_cast<NodeId>(m.u + off),
            MakeBlob(EncodeAdjacency(*universe_graph_, m.u, encoding_)));
        ++writes;
        break;
      }
      case GraphMutation::Kind::kAddEdge:
      case GraphMutation::Kind::kRemoveEdge: {
        GROUTING_CHECK(m.u < universe_nodes_ && m.v < universe_nodes_);
        const bool insert = m.kind == GraphMutation::Kind::kAddEdge;
        writes += MutateEdgeHalfLocked(static_cast<NodeId>(m.u + off), m.v,
                                       m.label, insert, /*out=*/true);
        writes += MutateEdgeHalfLocked(static_cast<NodeId>(m.v + off), m.u,
                                       m.label, insert, /*out=*/false);
        break;
      }
    }
  }
  return writes;
}

std::vector<uint64_t> StorageTier::GetRequestsPerServer() const {
  std::vector<uint64_t> per_server;
  per_server.reserve(servers_.size());
  for (const auto& s : servers_) {
    per_server.push_back(s->stats().get_requests);
  }
  return per_server;
}

}  // namespace grouting
