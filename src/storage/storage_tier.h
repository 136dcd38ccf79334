// The decoupled storage tier: M storage servers, each a plain key-value
// store from node id to one immutable encoded adjacency blob, holding the
// graph horizontally partitioned by MurmurHash3 over node ids (RAMCloud's
// default placement, "inexpensive hash partitioning") or by an explicit
// assignment for partitioning ablations. Servers hold and ship bytes; they
// never decode. The query processors (src/proc/) decode what they fetch.

#ifndef GROUTING_SRC_STORAGE_STORAGE_TIER_H_
#define GROUTING_SRC_STORAGE_STORAGE_TIER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/partition/partitioner.h"
#include "src/partition/repartition.h"
#include "src/storage/adjacency.h"

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
// map lookups and pointer copies; a blob handed out stays valid (and
// unchanged) however the key is overwritten or deleted afterwards.
class StorageServer {
 public:
  explicit StorageServer(uint32_t id) : id_(id) {}

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
  // every key, positionally matching `nodes` (nullptr where absent). Each
  // key counts one get_request, and one miss or one served value.
  std::vector<BlobPtr> MultiGet(std::span<const NodeId> nodes);

  void Delete(NodeId node) {
    std::lock_guard<std::mutex> lock(mu_);
    blobs_.erase(node);
  }

  const StorageServerStats& stats() const { return stats_; }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = StorageServerStats{};
  }
  // Called once per multiget batch for queueing/statistics purposes.
  void NoteBatch() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batch_requests;
  }

  // --- Partition-migration support (see StorageTier::MigratePartition) ---

  // One key's blob WITHOUT touching serving stats — migration reads are not
  // workload traffic. nullptr if absent.
  BlobPtr PeekBlob(NodeId node) const;

  // Epoch-tagged accounting of multiget handles opened against this server
  // but not yet serviced. StartMultiGet registers each handle in the
  // current epoch's slot; the handle releases it once ExecuteOnly has
  // published its values (or on destruction if never serviced). A migration
  // drain advances the epoch and waits for the OLD epoch's slot to empty —
  // in-flight requests finish against the old owner while new ones (tagged
  // with the new epoch) never block the wait.
  std::atomic<int64_t>* RegisterOpenBatch() {
    std::atomic<int64_t>* slot =
        &open_batches_[epoch_.load(std::memory_order_acquire) & 1];
    slot->fetch_add(1, std::memory_order_acq_rel);
    return slot;
  }
  void DrainOpenBatches();

 private:
  uint32_t id_;
  mutable std::mutex mu_;
  std::unordered_map<NodeId, BlobPtr> blobs_;
  StorageServerStats stats_;
  // Migration-drain state (used only when the tier has repartitioning on).
  std::atomic<uint32_t> epoch_{0};
  std::array<std::atomic<int64_t>, 2> open_batches_{};
};

// One asynchronous multiget request against a single storage server: the
// handle is created by StorageTier::StartMultiGet, executed by whichever
// thread plays the "wire" (the issuing thread itself, or a per-processor
// fetch thread in the threaded runtime), and completed exactly once. The
// issuing processor overlaps cache probes with the outstanding request and
// collects the blobs with Wait(); it decodes them itself.
class MultiGetHandle {
 public:
  MultiGetHandle(StorageServer* server, std::vector<NodeId> keys)
      : server_(server), keys_(std::move(keys)) {}

  ~MultiGetHandle() { ReleaseOpenSlot(); }

  MultiGetHandle(const MultiGetHandle&) = delete;
  MultiGetHandle& operator=(const MultiGetHandle&) = delete;

  uint32_t server_id() const { return server_->id(); }
  const std::vector<NodeId>& keys() const { return keys_; }

  // Services the request against the server (thread-safe; the server
  // serialises internally) and publishes completion. Call exactly once.
  // Execute() both fetches and completes; ExecuteOnly() + MarkDone() let a
  // fetch thread service the gets first and hold the completion back until a
  // modelled network round trip has elapsed.
  void Execute() {
    ExecuteOnly();
    MarkDone();
  }
  void ExecuteOnly() {
    values_ = server_->MultiGet(keys_);
    uint64_t bytes = 0;
    for (const BlobPtr& v : values_) {
      if (v != nullptr) {
        bytes += v->size();
      }
    }
    payload_bytes_ = bytes;
    ReleaseOpenSlot();
  }
  void MarkDone() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
  }

  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  // Wire bytes of the reply payload (sum of the fetched blobs' sizes).
  // Valid after Execute/ExecuteOnly; what the modelled network round trip
  // charges per kilobyte — so compressed blobs ship faster.
  uint64_t payload_bytes() const { return payload_bytes_; }

  // Blocks until completion; the returned blobs positionally match keys()
  // (nullptr where the server did not hold the key).
  const std::vector<BlobPtr>& Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    return values_;
  }

  // Migration-drain accounting (repartitioning only; nullptr otherwise):
  // the epoch slot StorageTier::StartMultiGet registered this handle in.
  void set_open_slot(std::atomic<int64_t>* slot) { open_slot_ = slot; }

 private:
  void ReleaseOpenSlot() {
    std::atomic<int64_t>* slot = open_slot_.exchange(nullptr, std::memory_order_acq_rel);
    if (slot != nullptr) {
      slot->fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  StorageServer* server_;
  std::vector<NodeId> keys_;
  std::vector<BlobPtr> values_;
  uint64_t payload_bytes_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<std::atomic<int64_t>*> open_slot_{nullptr};
};

// Seam between "who issues a multiget" and "who runs it". The default
// (nullptr executor at the call sites) services the request inline on the
// issuing thread; the threaded runtime submits to a per-processor fetch
// thread so the request genuinely overlaps with the processor's cache work.
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

  // Read-path server choice. With replication off this IS ServerOf (same
  // bits, no side effects). With replication on and the key's partition
  // replicated, picks between two hash-derived candidates from
  // {owner + replicas} by power-of-two-choices on the per-server read-load
  // counters, bumps the winner's counter, and counts replica_reads when a
  // non-primary wins. Used by CachedStorageSource when it groups misses
  // into per-server multiget batches.
  uint32_t ReadServerOf(NodeId node);

  // Stats-free blob read through the current map's primary: no serving
  // stats, no monitor record; nullptr if absent. Used by the
  // migration-race healing path (src/proc/ ResolveMigratedMisses) — the
  // batch that raced the migration already counted the key as workload
  // traffic once; counting the re-read too would make just-migrated
  // partitions look hotter than they are.
  BlobPtr PeekCurrent(NodeId node);

  // Opens an async multiget against one server (counted as one batch for
  // that server's queueing stats). The handle is NOT serviced yet — hand it
  // to a BatchFetchExecutor, or call Execute() inline, then Wait().
  std::shared_ptr<MultiGetHandle> StartMultiGet(uint32_t server,
                                                std::vector<NodeId> keys);

  StorageServer& server(size_t i) { return *servers_[i]; }
  const StorageServer& server(size_t i) const { return *servers_[i]; }

  // --- Adaptive repartitioning (src/partition/repartition.h) -------------
  //
  // EnableRepartitioning installs a PartitionMap over P = partitions_per_
  // server x num_servers virtual partitions (same placement hash, so the
  // initial layout is byte-identical to classic hash placement) plus a
  // PartitionMonitor fed one Record() per key from StartMultiGet.
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
  // owner). 0 with replication off.
  uint64_t replica_reads() const {
    return replica_reads_.load(std::memory_order_relaxed);
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
  // Unlocked bodies; the public entry points (and ApplyMutation) hold
  // write_mu_. MigratePartitionLocked tears down replicas via
  // RemoveReplicaLocked, which is why the lock cannot simply be recursive
  // at the public boundary.
  MigrationResult MigratePartitionLocked(uint32_t partition, uint32_t to);
  MigrationResult AddReplicaLocked(uint32_t partition, uint32_t server);
  MigrationResult RemoveReplicaLocked(uint32_t partition, uint32_t server);
  // Writes `blob` for `key` to the owner and every current replica, then
  // bumps the key's version. Caller holds write_mu_.
  void WriteVersionedLocked(NodeId key, const BlobPtr& blob);
  // Rewrites one endpoint's adjacency half for an edge mutation (u's
  // out-list when `out`, else v's in-list). Returns 1 if a blob was
  // rewritten, 0 if the endpoint is absent. Caller holds write_mu_.
  uint64_t MutateEdgeHalfLocked(NodeId key, NodeId other, Label label, bool insert,
                                bool out);
  std::vector<std::unique_ptr<StorageServer>> servers_;
  HashPartitioner hasher_;
  AdjacencyEncoding encoding_ = AdjacencyEncoding::kRaw;
  uint32_t num_tenants_ = 1;
  uint64_t logical_bytes_loaded_ = 0;
  uint64_t encoded_bytes_loaded_ = 0;
  // Empty when hash placement is in effect.
  PartitionAssignment explicit_placement_;
  // Installed by EnableRepartitioning; null = classic static placement.
  std::unique_ptr<PartitionMap> partition_map_;
  std::unique_ptr<PartitionMonitor> partition_monitor_;
  // Replica-aware read routing (EnableReplication). read_load_ is the p2c
  // load signal: one relaxed bump per ReadServerOf resolution, approximate
  // by design (staleness just makes p2c pick the second candidate).
  bool replication_on_ = false;
  std::unique_ptr<std::atomic<uint64_t>[]> read_load_;
  std::atomic<uint64_t> replica_reads_{0};
  // Read-sequence counter mixed into the p2c candidate hash so a hot key's
  // candidate pair rotates over its holder set instead of pinning.
  std::atomic<uint64_t> read_seq_{0};
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
