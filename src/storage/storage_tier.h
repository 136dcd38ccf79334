// The decoupled storage tier: M storage servers, each a plain key-value
// store from node id to one immutable encoded adjacency blob, holding the
// graph horizontally partitioned by MurmurHash3 over node ids (RAMCloud's
// default placement, "inexpensive hash partitioning") or by an explicit
// assignment for partitioning ablations. Servers hold and ship bytes; they
// never decode. The query processors (src/proc/) decode what they fetch.

#ifndef GROUTING_SRC_STORAGE_STORAGE_TIER_H_
#define GROUTING_SRC_STORAGE_STORAGE_TIER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/partition/partitioner.h"
#include "src/partition/repartition.h"
#include "src/storage/adjacency.h"
#include "src/util/cache_line.h"

namespace grouting {

struct StorageServerStats {
  uint64_t get_requests = 0;   // individual key lookups
  uint64_t batch_requests = 0;  // multiget batches (the DES queueing unit)
  uint64_t values_served = 0;
  uint64_t bytes_served = 0;
  uint64_t misses = 0;  // keys not found
};

// One storage server: a hash map from key to one immutable shared blob.
// Requests are serialised by an internal mutex — a real server services its
// request queue sequentially, and this is exactly what lets the threaded
// runtime share the tier between processor threads. The mutex covers only
// map lookups, pointer copies and the serving stats, and a multiget batch
// takes it once: the batch is counted when it is serviced, under the same
// lock as its keys. A blob handed out stays valid (and unchanged) however
// the key is overwritten or deleted afterwards. The migration-drain
// counters, which every handle writes without the mutex, sit on cache lines
// of their own, away from the mutex and the stats, with one pair of slots
// per reader (see StorageTier::set_num_readers).
class StorageServer {
 public:
  explicit StorageServer(uint32_t id) : id_(id), open_batches_(1, 2) {}

  uint32_t id() const { return id_; }

  // Inserts or replaces the blob of `node`.
  void Load(NodeId node, BlobPtr blob) {
    GROUTING_CHECK(blob != nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    blobs_[node] = std::move(blob);
  }
  void Load(NodeId node, std::vector<uint8_t> bytes) {
    Load(node, std::make_shared<const std::vector<uint8_t>>(std::move(bytes)));
  }

  // Services one multiget batch: takes the server mutex once and looks up
  // every key into `*values`, positionally matching `nodes` (nullptr where
  // absent). The vector is cleared first and keeps its capacity, so a
  // caller that reuses it allocates nothing once it is large enough. The
  // call counts one batch_request; each key counts one get_request, and one
  // miss or one served value.
  void MultiGet(std::span<const NodeId> nodes, std::vector<BlobPtr>* values);
  // The same, into a fresh vector.
  std::vector<BlobPtr> MultiGet(std::span<const NodeId> nodes) {
    std::vector<BlobPtr> values;
    MultiGet(nodes, &values);
    return values;
  }

  void Delete(NodeId node) {
    std::lock_guard<std::mutex> lock(mu_);
    blobs_.erase(node);
  }

  const StorageServerStats& stats() const { return stats_; }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = StorageServerStats{};
  }
  // --- Partition-migration support (see StorageTier::MigratePartition) ---

  // One key's blob WITHOUT touching serving stats — migration reads are not
  // workload traffic. nullptr if absent.
  BlobPtr PeekBlob(NodeId node) const;

  // Epoch-tagged accounting of multiget handles opened against this server
  // but not yet serviced. StartMultiGet registers each handle in the
  // current epoch's slot of its reader; the handle releases it once
  // Execute() has published its values (or on reopen or destruction if
  // never serviced). A migration drain advances the epoch and waits for the
  // OLD epoch's slot of EVERY reader to empty — in-flight requests finish
  // against the old owner while new ones (tagged with the new epoch) never
  // block the wait.
  std::atomic<uint64_t>* RegisterOpenBatch(uint32_t reader) {
    std::atomic<uint64_t>* slot =
        &open_batches_.at(reader, epoch_.value.load(std::memory_order_acquire) & 1);
    slot->fetch_add(1, std::memory_order_acq_rel);
    return slot;
  }
  void DrainOpenBatches();

  // Resizes the drain slots to one pair per reader. Only while no handle
  // is open against this server (StorageTier::set_num_readers).
  void set_num_readers(uint32_t num_readers) {
    open_batches_ = ShardedCounters(num_readers, 2);
  }

 private:
  uint32_t id_;
  mutable std::mutex mu_;
  std::unordered_map<NodeId, BlobPtr> blobs_;
  StorageServerStats stats_;
  // Migration-drain state (used only when the tier has repartitioning on).
  // Every handle reads the epoch, which only a drain writes, so it gets a
  // line of its own; a handle writes one slot of its reader's pair, so
  // readers with shards of their own never write the same line.
  CacheLinePadded<std::atomic<uint32_t>> epoch_;
  ShardedCounters open_batches_;  // reader x epoch parity
};

// One multiget request against a single storage server: the handle is
// opened by StorageTier::StartMultiGet, executed exactly once — inline by
// the issuing processor, or by the BatchFetchExecutor it was submitted to —
// and then collected by the same thread with Wait(). The processor overlaps
// cache work with outstanding requests and decodes the blobs itself. An
// executor that models the wire stamps a landing time on the handle: the
// reply is then not available before it, so Wait() yields until it passes.
// A handle nobody else holds may be opened again for the next request; its
// key and value vectors keep their capacity, so a reused handle allocates
// nothing once they are large enough.
class MultiGetHandle {
 public:
  using Clock = std::chrono::steady_clock;

  MultiGetHandle() = default;
  ~MultiGetHandle() { ReleaseOpenSlot(); }

  MultiGetHandle(const MultiGetHandle&) = delete;
  MultiGetHandle& operator=(const MultiGetHandle&) = delete;

  uint32_t server_id() const { return server_->id(); }
  const std::vector<NodeId>& keys() const { return keys_; }

  // Services the request against the server (thread-safe; the server
  // serialises internally). Call exactly once per opening.
  void Execute() {
    server_->MultiGet(keys_, &values_);
    uint64_t bytes = 0;
    for (const BlobPtr& v : values_) {
      if (v != nullptr) {
        bytes += v->size();
      }
    }
    payload_bytes_ = bytes;
    executed_ = true;
    ReleaseOpenSlot();
  }

  // Wire bytes of the reply payload (sum of the fetched blobs' sizes).
  // Valid after Execute(); what the modelled network round trip charges per
  // kilobyte — so compressed blobs ship faster.
  uint64_t payload_bytes() const { return payload_bytes_; }

  // When the reply lands at the issuing processor. Unset (the default) means
  // it is available as soon as Execute() returns.
  void set_landing(Clock::time_point at) { landing_ = at; }

  // Returns the blobs once the reply has landed; they positionally match
  // keys() (nullptr where the server did not hold the key). Execute() must
  // have run.
  const std::vector<BlobPtr>& Wait() const {
    GROUTING_CHECK(executed_);
    if (landing_ != Clock::time_point{}) {
      // Injected delays are microseconds: sleeping would oversleep them.
      while (Clock::now() < landing_) {
        std::this_thread::yield();
      }
    }
    return values_;
  }

 private:
  friend class StorageTier;

  // Binds the handle to a new request for `keys` against `server`, dropping
  // the previous reply and landing time but keeping the vectors' capacity.
  // `open_slot` is the drain slot StorageTier::StartMultiGet registered the
  // request in (repartitioning only; nullptr otherwise). A slot still held
  // by an unserviced previous request is released first.
  void Reopen(StorageServer* server, std::span<const NodeId> keys,
              std::atomic<uint64_t>* open_slot) {
    ReleaseOpenSlot();
    server_ = server;
    keys_.assign(keys.begin(), keys.end());
    values_.clear();
    payload_bytes_ = 0;
    executed_ = false;
    landing_ = Clock::time_point{};
    open_slot_.store(open_slot, std::memory_order_release);
  }

  void ReleaseOpenSlot() {
    std::atomic<uint64_t>* slot = open_slot_.exchange(nullptr, std::memory_order_acq_rel);
    if (slot != nullptr) {
      slot->fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  StorageServer* server_ = nullptr;
  std::vector<NodeId> keys_;
  std::vector<BlobPtr> values_;
  uint64_t payload_bytes_ = 0;
  bool executed_ = false;
  Clock::time_point landing_{};
  std::atomic<std::atomic<uint64_t>*> open_slot_{nullptr};
};

// Seam between "who issues a multiget" and "who runs it". The default
// (nullptr executor at the call sites) services the request inline on the
// issuing thread. Submit must execute the handle before it returns; an
// executor may also stamp a landing time on it. The threaded runtime's
// executor models the wire that way: the round trip elapses in Wait(), so
// up to `window` trips overlap with each other and with cache work.
class BatchFetchExecutor {
 public:
  virtual ~BatchFetchExecutor() = default;
  virtual void Submit(std::shared_ptr<MultiGetHandle> handle) = 0;
};

// One online graph mutation against the logical node universe [0, num_nodes)
// of the loaded graph. kAddVertex materialises a node that was withheld at
// load time (LoadGraphSubset), writing its full adjacency blob; kAddEdge /
// kRemoveEdge rewrite BOTH endpoints' adjacency lists (u's out-list and v's
// in-list) as versioned single-key writes. apply_us is the schedule time:
// virtual µs on the simulated engine, wall µs from the run epoch on the
// threaded engine; <= 0 applies before the first arrival (quiesced).
struct GraphMutation {
  enum class Kind : uint8_t { kAddVertex, kAddEdge, kRemoveEdge };
  Kind kind = Kind::kAddVertex;
  NodeId u = 0;
  NodeId v = kInvalidNode;     // edge endpoint; unused for kAddVertex
  Label label = kNoLabel;      // edge label written on kAddEdge
  double apply_us = 0.0;
};

class StorageTier {
 public:
  explicit StorageTier(size_t num_servers, uint32_t hash_seed = 0x9747b28cu);

  // Loads every node's adjacency entry, placed by MurmurHash3 (default) or
  // by an explicit node->server assignment. Blobs are written in the tier's
  // configured wire encoding (set_encoding, before load).
  void LoadGraph(const Graph& g);
  void LoadGraph(const Graph& g, const PartitionAssignment& placement);

  // Mutation-path load: writes blobs only for nodes with keep[u] != 0 but
  // registers the ENTIRE node universe with the partition map, so nodes
  // materialised later by ApplyMutation(kAddVertex) migrate and replicate
  // like any other key (migration copies already skip absent keys). Present
  // nodes keep their FULL adjacency (edges to withheld neighbours included)
  // — a traversal reaching a withheld node simply sees it as absent until a
  // kAddVertex lands. Requires EnableMutations first.
  void LoadGraphSubset(const Graph& g, std::span<const uint8_t> keep);

  // Wire encoding for subsequently loaded blobs (decode auto-detects, so
  // changing it mid-life only affects new writes).
  void set_encoding(AdjacencyEncoding encoding) { encoding_ = encoding; }
  AdjacencyEncoding encoding() const { return encoding_; }

  // Multi-tenant federation: LoadGraph(g) writes one keyspace copy of the
  // graph per tenant, tenant t's node u stored under the global key
  // u + t * num_nodes — placement, repartitioning, and replication operate
  // on global keys unchanged. Set before LoadGraph; 1 (the default) is the
  // classic single keyspace. Incompatible with explicit placement.
  void set_num_tenants(uint32_t num_tenants) {
    GROUTING_CHECK(num_tenants > 0);
    num_tenants_ = num_tenants;
  }
  uint32_t num_tenants() const { return num_tenants_; }
  // Key distance between consecutive tenant keyspaces: the loaded graph's
  // node count when more than one tenant is loaded, else 0 (every tenant
  // id maps to the single keyspace).
  NodeId keyspace_stride() const { return keyspace_stride_; }

  // No-op. Servers ship blobs and never decode, so there is no mode to set;
  // kept only because bench/e2e/layer_timing.cc still calls it. Delete it
  // with the next change to that benchmark.
  void set_retain_wire(bool /*retain*/) {}

  // logical (v1) bytes / encoded wire bytes across everything loaded so
  // far; 1.0 under raw encoding (and before any load).
  double AdjacencyCompressionRatio() const {
    return encoded_bytes_loaded_ == 0
               ? 1.0
               : static_cast<double>(logical_bytes_loaded_) /
                     static_cast<double>(encoded_bytes_loaded_);
  }

  size_t num_servers() const { return servers_.size(); }
  uint32_t ServerOf(NodeId node) const;

  // --- Readers --------------------------------------------------------------
  //
  // A reader is one writer of the read path's counters: the p2c read loads
  // and read sequence, replica_reads, the partition monitor's windows and
  // each server's drain slots all keep one shard per reader, each on cache
  // lines of its own, so two readers never write the same line. Reader 0
  // is the shared default: every entry point that names no reader uses it,
  // and every simulated processor does. On the threaded engine processor p
  // reads as reader p + 1 (ClusterEngine sizes the tier to num_processors
  // + 1 readers). Counts are relaxed atomic increments in every shard, so
  // a reader shared by several threads still counts exactly, and every
  // getter below sums over the shards. Set before EnableRepartitioning;
  // the default is 1 (reader 0 alone).
  void set_num_readers(uint32_t num_readers);
  uint32_t num_readers() const { return num_readers_; }

  // Read-path server choice. With replication off this IS ServerOf (same
  // bits, no side effects). With replication on and the key's partition
  // replicated, picks between two hash-derived candidates from
  // {owner + replicas} by power-of-two-choices on the reader's own
  // per-server read-load counters, bumps the winner's counter, and counts
  // replica_reads when a non-primary wins. So p2c balances each reader's
  // own reads: per processor on the threaded engine, over the one shared
  // reader in the simulator. Used by CachedStorageSource when it groups
  // misses into per-server multiget batches; `*partition` receives the
  // key's partition (0 with repartitioning off), which the batch hands to
  // StartMultiGet so the key is hashed once.
  uint32_t ReadServerOf(NodeId node, uint32_t reader, uint32_t* partition);
  uint32_t ReadServerOf(NodeId node) {
    uint32_t partition = 0;
    return ReadServerOf(node, /*reader=*/0, &partition);
  }

  // Stats-free blob read through the current map's primary: no serving
  // stats, no monitor record; nullptr if absent. Used by the
  // migration-race healing path (src/proc/ ResolveMigratedMisses) — the
  // batch that raced the migration already counted the key as workload
  // traffic once; counting the re-read too would make just-migrated
  // partitions look hotter than they are.
  BlobPtr PeekCurrent(NodeId node);

  // Opens `*handle` (fresh, or reused once nobody else holds it) as an
  // async multiget of `keys` against one server on behalf of `reader`.
  // `partitions` holds each key's partition as ReadServerOf handed it back;
  // with repartitioning on, each is recorded in the reader's monitor shard
  // and the handle registers in the reader's drain slot. The handle is NOT
  // serviced yet — hand it to a BatchFetchExecutor, or call Execute()
  // inline, then Wait(); the server counts the batch when it services it.
  void StartMultiGet(uint32_t server, std::span<const NodeId> keys,
                     std::span<const uint32_t> partitions, uint32_t reader,
                     MultiGetHandle* handle);
  // The same on a fresh handle as reader 0, hashing each key's partition.
  std::shared_ptr<MultiGetHandle> StartMultiGet(uint32_t server,
                                                const std::vector<NodeId>& keys);

  StorageServer& server(size_t i) { return *servers_[i]; }
  const StorageServer& server(size_t i) const { return *servers_[i]; }

  // --- Adaptive repartitioning (src/partition/repartition.h) -------------
  //
  // EnableRepartitioning installs a PartitionMap over P = partitions_per_
  // server x num_servers virtual partitions (same placement hash, so the
  // initial layout is byte-identical to classic hash placement) plus a
  // PartitionMonitor fed one Record() per key from StartMultiGet, into the
  // reading processor's shard.
  // Incompatible with an explicit placement (there is no partition
  // structure to migrate): LoadGraph(g, placement) after enabling — or
  // enabling after it — is a checked error.
  void EnableRepartitioning(uint32_t partitions_per_server);

  bool repartitioning_enabled() const { return partition_map_ != nullptr; }
  const PartitionMap* partition_map() const { return partition_map_.get(); }
  PartitionMonitor* partition_monitor() { return partition_monitor_.get(); }

  // Turns on replica-aware read routing (ReadServerOf) and the
  // AddReplica/RemoveReplica executors. Requires EnableRepartitioning
  // first — replicas are tracked per virtual partition in the same map.
  void EnableReplication();
  bool replication_enabled() const { return replication_on_; }

  // Reads served by a non-primary replica (p2c picked a replica over the
  // owner), summed over the readers. 0 with replication off.
  uint64_t replica_reads() const {
    return replication_on_ ? read_counters_.Sum(kReplicaReads) : 0;
  }

  // The p2c read-load counter of one server, summed over the readers: how
  // many ReadServerOf calls picked it. 0 with replication off.
  uint64_t read_load(uint32_t server) const {
    return replication_on_ ? read_counters_.Sum(kReadLoad + server) : 0;
  }

  // What one executed migration / promotion / demotion physically moved.
  struct MigrationResult {
    enum class Kind { kMigrate, kPromote, kDemote };
    Kind kind = Kind::kMigrate;
    uint32_t partition = 0;
    uint32_t from = 0;
    uint32_t to = 0;
    uint64_t keys_moved = 0;
    uint64_t bytes_moved = 0;
  };

  // Moves one partition to a new owner, exactly-once for concurrent
  // readers: (1) copy every key of the partition to the destination, (2)
  // flip the map entry so new lookups resolve to the destination, (3) drain
  // multiget handles opened against the source before the flip (they still
  // find the keys — copies are not yet deleted), (4) delete the source
  // copies. A reader that raced the flip between its ServerOf lookup and
  // StartMultiGet may still miss; CachedStorageSource re-resolves such
  // misses through the tier (ResolveMigratedMisses in src/proc/).
  MigrationResult MigratePartition(uint32_t partition, uint32_t to);

  // Creates a replica of one partition on `server`: copy every key of the
  // partition to the replica, THEN flip the replica set into the map — so
  // the moment a reader can route to the replica, the replica already holds
  // the data. No drain is needed to add capacity. kind = kPromote;
  // from = the primary copied from, to = the new replica server.
  MigrationResult AddReplica(uint32_t partition, uint32_t server);

  // Tears one replica down, exactly-once for concurrent readers: (1) flip
  // the replica out of the map so new lookups stop routing to it, (2)
  // drain multiget handles opened against it before the flip (the copies
  // are still live), (3) delete the copies. A reader that raced the flip
  // between ReadServerOf and StartMultiGet may miss; the processor-side
  // healing re-resolves through the primary, which always holds the keys.
  // kind = kDemote; from = the replica server torn down, to = the primary.
  MigrationResult RemoveReplica(uint32_t partition, uint32_t server);

  // Cumulative per-server served get counts (the storage_load_imbalance
  // numerator/denominator).
  std::vector<uint64_t> GetRequestsPerServer() const;

  // --- Online graph mutations (versioned adjacency writes) ---------------
  //
  // EnableMutations pins the mutation universe to `g` (kAddVertex blob
  // content comes from it) and allocates one monotonic version counter per
  // global key (num_tenants x num_nodes). Call after set_num_tenants and
  // before LoadGraph / LoadGraphSubset. The graph must outlive the tier.
  void EnableMutations(const Graph& g);
  bool mutations_enabled() const { return node_version_ != nullptr; }

  // Current version stamp of a global key: 0 until the first mutation
  // touches it (and always 0 with mutations off, so version comparisons
  // degenerate to no-ops on the read path). Monotonic per key; bumped AFTER
  // the new blob is visible on every holder, so a reader that snapshots the
  // version BEFORE fetching can never associate a new version with an old
  // blob — the invariant the compressed-cache staleness check rests on.
  uint64_t NodeVersion(NodeId key) const {
    return node_version_ == nullptr
               ? 0
               : node_version_[key].load(std::memory_order_acquire);
  }

  // Applies one mutation to every tenant keyspace: encodes the new
  // adjacency under the active encoding, writes it to the owner AND every
  // current replica of the key's partition, then bumps the key's version.
  // Serialised against MigratePartition / AddReplica / RemoveReplica by the
  // tier's write mutex, so a write can never be lost mid-copy and a deleted
  // replica copy can never resurrect. Readers never take that lock. An edge
  // half whose endpoint blob is absent (withheld node) is dropped — the
  // edge is already in the universe graph the node materialises from.
  // Returns the number of key blobs rewritten.
  uint64_t ApplyMutation(const GraphMutation& m);

 private:
  // The load loop behind every LoadGraph overload and LoadGraphSubset:
  // installs `placement` (empty = hash placement), then writes every node's
  // blob into each tenant keyspace on its ServerOf server (only nodes with
  // keep[u] != 0 when `keep` is non-empty) and registers every key,
  // withheld ones too, with its partition.
  void LoadKeyspaces(const Graph& g, std::span<const uint8_t> keep,
                     PartitionAssignment placement);
  // Unlocked bodies; the public entry points (and ApplyMutation) hold
  // write_mu_. MigratePartitionLocked tears down replicas via
  // RemoveReplicaLocked, which is why the lock cannot simply be recursive
  // at the public boundary.
  MigrationResult MigratePartitionLocked(uint32_t partition, uint32_t to);
  MigrationResult AddReplicaLocked(uint32_t partition, uint32_t server);
  MigrationResult RemoveReplicaLocked(uint32_t partition, uint32_t server);
  // The copy step shared by migration and replica fill: loads every key of
  // the partition still present on `src` onto `dst` (the two share blobs),
  // adds the bytes and keys moved to `result`, and returns the keys copied.
  // PeekBlob, not MultiGet: structural moves are not workload traffic.
  std::vector<NodeId> CopyPartitionLocked(uint32_t partition, const StorageServer& src,
                                          StorageServer& dst, MigrationResult* result);
  // Writes `blob` for `key` to the owner and every current replica, then
  // bumps the key's version. Caller holds write_mu_.
  void WriteVersionedLocked(NodeId key, const BlobPtr& blob);
  // Rewrites one endpoint's adjacency half for an edge mutation (u's
  // out-list when `out`, else v's in-list). Returns 1 if a blob was
  // rewritten, 0 if the endpoint is absent. Caller holds write_mu_.
  uint64_t MutateEdgeHalfLocked(NodeId key, NodeId other, Label label, bool insert,
                                bool out);
  std::vector<std::unique_ptr<StorageServer>> servers_;
  uint32_t num_readers_ = 1;
  HashPartitioner hasher_;
  AdjacencyEncoding encoding_ = AdjacencyEncoding::kRaw;
  uint32_t num_tenants_ = 1;
  NodeId keyspace_stride_ = 0;
  uint64_t logical_bytes_loaded_ = 0;
  uint64_t encoded_bytes_loaded_ = 0;
  // Empty when hash placement is in effect.
  PartitionAssignment explicit_placement_;
  // Installed by EnableRepartitioning; null = classic static placement.
  std::unique_ptr<PartitionMap> partition_map_;
  std::unique_ptr<PartitionMonitor> partition_monitor_;
  // Replica-aware read routing (EnableReplication): one shard per reader
  // of [read sequence, replica_reads, read load of each server]. The read
  // load is the p2c load signal: one relaxed bump per ReadServerOf
  // resolution, approximate by design (staleness just makes p2c pick the
  // second candidate). The read sequence is mixed into the p2c candidate
  // hash so a hot key's candidate pair rotates over its holder set instead
  // of pinning.
  static constexpr uint32_t kReadSeq = 0;
  static constexpr uint32_t kReplicaReads = 1;
  static constexpr uint32_t kReadLoad = 2;  // + server
  bool replication_on_ = false;
  ShardedCounters read_counters_;
  // Per-partition key lists, built once at LoadGraph when repartitioning is
  // on. Partition membership is a pure hash of the key and the tier's key
  // population is fixed after load (only migrations move keys between
  // servers; LoadGraphSubset registers withheld keys up front), so each
  // migration walks exactly its partition's keys instead of scanning the
  // whole source server under its mutex.
  std::vector<std::vector<NodeId>> partition_keys_;
  // Mutation state (EnableMutations). write_mu_ serialises mutations with
  // the copy/flip/drain/delete machinery; node_version_ is one atomic per
  // global key.
  mutable std::mutex write_mu_;
  std::unique_ptr<std::atomic<uint64_t>[]> node_version_;
  const Graph* universe_graph_ = nullptr;
  uint64_t universe_nodes_ = 0;
};

}  // namespace grouting

#endif  // GROUTING_SRC_STORAGE_STORAGE_TIER_H_
