// Wire formats of a node's adjacency entry, the unit of transfer between
// the storage tier and query processors (paper Figure 3: key = node id,
// value = labeled out- and in-neighbour arrays). Storage servers hold and
// ship these blobs as opaque bytes (BlobPtr); only the query processors
// decode them. Two encodings share one auto-detecting decoder, so old blobs
// always decode:
//
// v1 / raw (little-endian, fixed width):
//   [0..4)   node id (sanity check)
//   [4..6)   node label
//   [6..8)   reserved (always 0 — the v1 structural signature)
//   [8..12)  out-edge count
//   [12..16) in-edge count
//   then     out edges, in edges — 6 bytes each (4-byte dst + 2-byte label)
// Total = 16 + 6 * (out + in), matching Graph::AdjacencyBytes().
//
// v2 / delta_varint (compressed):
//   [0]      magic 0xC2
//   [1]      version 0x02
//   then     LEB128 varints: node id, node label, out count, in count;
//            out dsts as zigzag-encoded deltas (sorted CSR neighbours make
//            the deltas small — a few bits each); out labels run-length
//            encoded as (run length, label) varint pairs; then the in side
//            the same way. Zigzag (not plain) deltas keep round-trip
//            fidelity for unsorted dynamic-update entries too.
//
// Decode detection: the v1 structural check runs FIRST (exact size match +
// reserved bytes zero) — a v1 blob whose node id happens to start 0xC2 0x02
// still decodes as v1. The v2 encoder defensively appends one 0x00 pad byte
// in the (astronomically rare) case its output would also pass the v1
// structural check; the v2 decoder tolerates exactly one trailing zero pad.

#ifndef GROUTING_SRC_STORAGE_ADJACENCY_H_
#define GROUTING_SRC_STORAGE_ADJACENCY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace grouting {

// Which wire format EncodeAdjacency emits. Decoding auto-detects, so a
// store may hold a mix (e.g. after a dynamic update under a different
// setting than the bulk load).
enum class AdjacencyEncoding {
  kRaw,          // v1 fixed-width layout
  kDeltaVarint,  // v2 delta + LEB128 varint layout
};

// Decoded adjacency entry held in processor caches.
struct AdjacencyEntry {
  NodeId node = kInvalidNode;
  Label node_label = kNoLabel;
  std::vector<Edge> out;
  std::vector<Edge> in;

  // Logical (v1) size: the decoded in-memory footprint every byte budget in
  // the paper's experiments is expressed in. The wire size is the size of
  // the blob the entry was decoded from.
  size_t SerializedBytes() const { return 16 + 6 * (out.size() + in.size()); }
};

using AdjacencyPtr = std::shared_ptr<const AdjacencyEntry>;

// One immutable encoded blob as a storage server holds it. Shared, never
// copied: a multiget reply, a migrated or replicated key and a compressed
// processor-cache slot all point at the same bytes.
using BlobPtr = std::shared_ptr<const std::vector<uint8_t>>;

// Serialises node u's entry straight from the graph CSR.
std::vector<uint8_t> EncodeAdjacency(const Graph& g, NodeId u,
                                     AdjacencyEncoding encoding = AdjacencyEncoding::kRaw);

// Serialises an already-decoded entry (used for dynamic updates).
std::vector<uint8_t> EncodeAdjacency(const AdjacencyEntry& entry,
                                     AdjacencyEncoding encoding = AdjacencyEncoding::kRaw);

// Parses a wire blob of either version (auto-detected). Returns nullptr on
// malformed input — never crashes, whatever the bytes.
AdjacencyPtr DecodeAdjacency(std::span<const uint8_t> bytes);

}  // namespace grouting

#endif  // GROUTING_SRC_STORAGE_ADJACENCY_H_
