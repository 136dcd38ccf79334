#include "src/graph/graph.h"

#include <algorithm>
#include <numeric>

namespace grouting {
namespace {

// Number of base-10 digits in v, for adjacency-list file size accounting.
uint64_t DigitCount(uint64_t v) {
  uint64_t digits = 1;
  while (v >= 10) {
    v /= 10;
    ++digits;
  }
  return digits;
}

// Builds a CSR (offsets, edges) from (src, edge) pairs via counting sort.
// Neighbours of each node end up sorted by dst (then label) for determinism.
void BuildCsr(size_t n, const std::vector<NodeId>& srcs, const std::vector<Edge>& dsts,
              bool dedupe, std::vector<uint32_t>* offsets, std::vector<Edge>* edges) {
  offsets->assign(n + 1, 0);
  for (NodeId s : srcs) {
    (*offsets)[s + 1] += 1;
  }
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  edges->resize(srcs.size());
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (size_t i = 0; i < srcs.size(); ++i) {
    (*edges)[cursor[srcs[i]]++] = dsts[i];
  }
  // Sort each adjacency run and optionally dedupe parallel edges.
  size_t write = 0;
  size_t read_base = 0;
  for (size_t u = 0; u < n; ++u) {
    const size_t begin = read_base;
    const size_t end = (*offsets)[u + 1];
    read_base = end;
    auto first = edges->begin() + static_cast<ptrdiff_t>(begin);
    auto last = edges->begin() + static_cast<ptrdiff_t>(end);
    std::sort(first, last, [](const Edge& a, const Edge& b) {
      return a.dst != b.dst ? a.dst < b.dst : a.label < b.label;
    });
    const size_t run_start = write;
    for (size_t i = begin; i < end; ++i) {
      const Edge& e = (*edges)[i];
      if (dedupe && write > run_start && (*edges)[write - 1].dst == e.dst) {
        continue;  // parallel edge; keep first label
      }
      (*edges)[write++] = e;
    }
    (*offsets)[u + 1] = static_cast<uint32_t>(write);
  }
  edges->resize(write);
}

}  // namespace

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto nbrs = OutNeighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v,
                             [](const Edge& e, NodeId target) { return e.dst < target; });
  return it != nbrs.end() && it->dst == v;
}

uint64_t Graph::TotalAdjacencyBytes() const {
  uint64_t total = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    total += AdjacencyBytes(u);
  }
  return total;
}

uint64_t Graph::AdjacencyListFileBytes() const {
  // Format per node: "<id> <out...> | <in...>\n" with space separators.
  uint64_t total = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    total += DigitCount(u) + 3;  // id, " | ", newline share
    for (const Edge& e : OutNeighbors(u)) {
      total += DigitCount(e.dst) + 1;
    }
    for (const Edge& e : InNeighbors(u)) {
      total += DigitCount(e.dst) + 1;
    }
  }
  return total;
}

uint64_t Graph::MemoryBytes() const {
  return out_offsets_.size() * sizeof(uint32_t) + out_edges_.size() * sizeof(Edge) +
         in_offsets_.size() * sizeof(uint32_t) + in_edges_.size() * sizeof(Edge) +
         node_labels_.size() * sizeof(Label);
}

NodeId GraphBuilder::AddNode(NodeId u, Label label) {
  EnsureNode(u);
  node_labels_[u] = label;
  return u;
}

NodeId GraphBuilder::AddNode(Label label) {
  node_labels_.push_back(label);
  return static_cast<NodeId>(node_labels_.size() - 1);
}

void GraphBuilder::AddEdge(NodeId src, NodeId dst, Label label) {
  EnsureNode(std::max(src, dst));
  srcs_.push_back(src);
  dsts_.push_back(Edge{dst, label});
}

void GraphBuilder::SetNodeLabel(NodeId u, Label label) {
  EnsureNode(u);
  node_labels_[u] = label;
}

void GraphBuilder::EnsureNode(NodeId u) {
  if (u >= node_labels_.size()) {
    node_labels_.resize(u + 1, kNoLabel);
  }
}

Graph GraphBuilder::Build() {
  Graph g;
  const size_t n = node_labels_.size();
  g.node_labels_ = std::move(node_labels_);
  BuildCsr(n, srcs_, dsts_, !keep_parallel_edges_, &g.out_offsets_, &g.out_edges_);

  // Reverse edges for the in-CSR. The in-edge label is the label of the
  // original edge (the paper's "inverse relationship", e.g. founded_by).
  std::vector<NodeId> rev_srcs;
  std::vector<Edge> rev_dsts;
  rev_srcs.reserve(g.out_edges_.size());
  rev_dsts.reserve(g.out_edges_.size());
  for (NodeId u = 0; u < n; ++u) {
    for (const Edge& e : g.OutNeighbors(u)) {
      rev_srcs.push_back(e.dst);
      rev_dsts.push_back(Edge{u, e.label});
    }
  }
  // The out-CSR already deduped; reverse pairs are therefore unique.
  BuildCsr(n, rev_srcs, rev_dsts, /*dedupe=*/false, &g.in_offsets_, &g.in_edges_);

  srcs_.clear();
  dsts_.clear();
  node_labels_.clear();
  return g;
}

}  // namespace grouting
