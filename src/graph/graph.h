// Labeled directed graph, the data model of Section 2.1 of the paper.
//
// A heterogeneous network G = (V, E, L): nodes carry a label, edges carry a
// label, and — matching the paper's key-value storage layout — every node's
// adjacency entry contains BOTH its outgoing and incoming edges ("both
// incoming and outgoing edges of a node can be important from the context of
// different queries").
//
// The Graph is an immutable CSR snapshot produced by GraphBuilder. Dynamic
// behaviour (the paper's graph-update experiments) is modelled either by
// rebuilding or by the landmark/embedding incremental-update paths, which
// operate on a "known node" subset of a full graph (see src/landmark).

#ifndef GROUTING_SRC_GRAPH_GRAPH_H_
#define GROUTING_SRC_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/check.h"

namespace grouting {

using NodeId = uint32_t;
using Label = uint16_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr Label kNoLabel = 0;

// A directed edge endpoint with its edge label. 8 bytes.
struct Edge {
  NodeId dst = kInvalidNode;
  Label label = kNoLabel;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.dst == b.dst && a.label == b.label;
  }
};

// Immutable CSR graph with both edge directions materialised.
class Graph {
 public:
  Graph() = default;

  size_t num_nodes() const { return node_labels_.size(); }
  size_t num_edges() const { return out_edges_.size(); }

  Label node_label(NodeId u) const {
    GROUTING_DCHECK(u < num_nodes());
    return node_labels_[u];
  }

  std::span<const Edge> OutNeighbors(NodeId u) const {
    GROUTING_DCHECK(u < num_nodes());
    return {out_edges_.data() + out_offsets_[u], out_offsets_[u + 1] - out_offsets_[u]};
  }

  std::span<const Edge> InNeighbors(NodeId u) const {
    GROUTING_DCHECK(u < num_nodes());
    return {in_edges_.data() + in_offsets_[u], in_offsets_[u + 1] - in_offsets_[u]};
  }

  size_t OutDegree(NodeId u) const { return out_offsets_[u + 1] - out_offsets_[u]; }
  size_t InDegree(NodeId u) const { return in_offsets_[u + 1] - in_offsets_[u]; }
  // Degree in the bi-directed view used by smart routing (out + in).
  size_t Degree(NodeId u) const { return OutDegree(u) + InDegree(u); }

  // True if edge u->v exists (binary search; neighbours are sorted by dst).
  bool HasEdge(NodeId u, NodeId v) const;

  // Byte size of node u's serialised key-value entry in the storage tier:
  // 16-byte header + 6 bytes (4-byte id + 2-byte label) per out- and in-edge.
  // This is the unit the processor caches are charged in.
  size_t AdjacencyBytes(NodeId u) const { return 16 + 6 * Degree(u); }

  // Total bytes of all adjacency entries (the "graph size" the cache-size
  // experiments are expressed against).
  uint64_t TotalAdjacencyBytes() const;

  // Size of the graph written as an adjacency-list text file, matching the
  // paper's Table 1 "Size on Disk (Adj. List File)" column (exact digit
  // count, space separators, newline per node, both directions).
  uint64_t AdjacencyListFileBytes() const;

  // In-memory footprint of this CSR structure.
  uint64_t MemoryBytes() const;

 private:
  friend class GraphBuilder;

  std::vector<uint32_t> out_offsets_;  // size n+1
  std::vector<Edge> out_edges_;
  std::vector<uint32_t> in_offsets_;  // size n+1
  std::vector<Edge> in_edges_;
  std::vector<Label> node_labels_;  // size n
};

// Accumulates nodes and edges, then produces an immutable Graph.
//
// Node ids are dense [0, n). AddEdge implicitly grows the node set. Duplicate
// parallel edges are deduplicated at Build() time (keeping the first label)
// unless keep_parallel_edges(true) is set; self-loops are allowed.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(size_t expected_nodes) { node_labels_.reserve(expected_nodes); }

  // Ensures node u exists; returns u for chaining.
  NodeId AddNode(NodeId u, Label label = kNoLabel);
  // Appends a fresh node and returns its id.
  NodeId AddNode(Label label = kNoLabel);

  void AddEdge(NodeId src, NodeId dst, Label label = kNoLabel);

  void SetNodeLabel(NodeId u, Label label);

  GraphBuilder& keep_parallel_edges(bool keep) {
    keep_parallel_edges_ = keep;
    return *this;
  }

  size_t num_nodes() const { return node_labels_.size(); }
  size_t num_edges() const { return srcs_.size(); }

  // Builds the CSR snapshot. The builder is left empty afterwards.
  Graph Build();

 private:
  void EnsureNode(NodeId u);

  std::vector<NodeId> srcs_;
  std::vector<Edge> dsts_;
  std::vector<Label> node_labels_;
  bool keep_parallel_edges_ = false;
};

}  // namespace grouting

#endif  // GROUTING_SRC_GRAPH_GRAPH_H_
