#include "src/storage/adjacency.h"

#include <cstring>

#include "src/util/check.h"

namespace grouting {
namespace {

constexpr uint8_t kV2Magic = 0xC2;
constexpr uint8_t kV2Version = 0x02;

// ---- v1 fixed-width helpers --------------------------------------------

void AppendU16(std::vector<uint8_t>* buf, uint16_t v) {
  buf->push_back(static_cast<uint8_t>(v & 0xff));
  buf->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian host assumed (x86/ARM64); documented in header
}

void AppendEdges(std::vector<uint8_t>* buf, std::span<const Edge> edges) {
  for (const Edge& e : edges) {
    AppendU32(buf, e.dst);
    AppendU16(buf, e.label);
  }
}

// The v1 structural signature: exact size for the declared counts, reserved
// bytes zero. Checked BEFORE the v2 magic so every legacy blob keeps
// decoding as v1 (a node id may legitimately start with the magic bytes).
bool LooksLikeRawV1(std::span<const uint8_t> bytes) {
  if (bytes.size() < 16 || bytes[6] != 0 || bytes[7] != 0) {
    return false;
  }
  const uint64_t out_count = ReadU32(bytes.data() + 8);
  const uint64_t in_count = ReadU32(bytes.data() + 12);
  return bytes.size() == 16 + 6 * (out_count + in_count);
}

// ---- v2 varint helpers --------------------------------------------------

void AppendVarint(std::vector<uint8_t>* buf, uint64_t v) {
  while (v >= 0x80) {
    buf->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf->push_back(static_cast<uint8_t>(v));
}

uint64_t Zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t Unzigzag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Reads one LEB128 varint from [*pp, end); false on truncation/overflow.
// Decode runs on every compressed cache hit whose edges a query reads, so
// the 1- and 2-byte shapes (sorted CSR deltas, run lengths, small labels)
// take branch-light fast paths before the general guarded loop.
inline bool ReadVarint(const uint8_t** pp, const uint8_t* end, uint64_t* out) {
  const uint8_t* p = *pp;
  if (p < end && p[0] < 0x80) {
    *out = p[0];
    *pp = p + 1;
    return true;
  }
  if (end - p >= 2 && p[1] < 0x80) {
    *out = static_cast<uint64_t>(p[0] & 0x7f) |
           (static_cast<uint64_t>(p[1]) << 7);
    *pp = p + 2;
    return true;
  }
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p >= end) {
      return false;
    }
    const uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      *pp = p;
      return true;
    }
  }
  return false;  // > 10 continuation bytes: not a valid 64-bit varint
}

// span/size_t adapter for the header fields and tests' call shape.
bool ReadVarint(std::span<const uint8_t> bytes, size_t* pos, uint64_t* out) {
  const uint8_t* p = bytes.data() + *pos;
  if (!ReadVarint(&p, bytes.data() + bytes.size(), out)) {
    return false;
  }
  *pos = static_cast<size_t>(p - bytes.data());
  return true;
}

// Sorted (or arbitrary, via zigzag) dst list as successive deltas.
void AppendDeltaDsts(std::vector<uint8_t>* buf, std::span<const Edge> edges) {
  int64_t prev = 0;
  for (const Edge& e : edges) {
    AppendVarint(buf, Zigzag(static_cast<int64_t>(e.dst) - prev));
    prev = static_cast<int64_t>(e.dst);
  }
}

// Edge labels as (run length, label) pairs — hub neighbourhoods repeat the
// same relation label in long runs.
void AppendRleLabels(std::vector<uint8_t>* buf, std::span<const Edge> edges) {
  size_t i = 0;
  while (i < edges.size()) {
    size_t run = 1;
    while (i + run < edges.size() && edges[i + run].label == edges[i].label) {
      ++run;
    }
    AppendVarint(buf, run);
    AppendVarint(buf, edges[i].label);
    i += run;
  }
}

bool ReadDeltaDsts(const uint8_t** pp, const uint8_t* end,
                   std::vector<Edge>* edges) {
  const uint8_t* p = *pp;
  int64_t prev = 0;
  for (Edge& e : *edges) {
    uint64_t raw = 0;
    if (!ReadVarint(&p, end, &raw)) {
      return false;
    }
    const int64_t dst = prev + Unzigzag(raw);
    if (dst < 0 || dst > static_cast<int64_t>(kInvalidNode)) {
      return false;
    }
    e.dst = static_cast<NodeId>(dst);
    prev = dst;
  }
  *pp = p;
  return true;
}

bool ReadRleLabels(const uint8_t** pp, const uint8_t* end,
                   std::vector<Edge>* edges) {
  const uint8_t* p = *pp;
  size_t i = 0;
  while (i < edges->size()) {
    uint64_t run = 0;
    uint64_t label = 0;
    if (!ReadVarint(&p, end, &run) || !ReadVarint(&p, end, &label)) {
      return false;
    }
    if (run == 0 || run > edges->size() - i || label > 0xffff) {
      return false;
    }
    for (uint64_t k = 0; k < run; ++k) {
      (*edges)[i++].label = static_cast<Label>(label);
    }
  }
  *pp = p;
  return true;
}

std::vector<uint8_t> EncodeV1(NodeId node, Label node_label,
                              std::span<const Edge> out, std::span<const Edge> in) {
  std::vector<uint8_t> buf;
  buf.reserve(16 + 6 * (out.size() + in.size()));
  AppendU32(&buf, node);
  AppendU16(&buf, node_label);
  AppendU16(&buf, 0);
  AppendU32(&buf, static_cast<uint32_t>(out.size()));
  AppendU32(&buf, static_cast<uint32_t>(in.size()));
  AppendEdges(&buf, out);
  AppendEdges(&buf, in);
  return buf;
}

std::vector<uint8_t> EncodeV2(NodeId node, Label node_label,
                              std::span<const Edge> out, std::span<const Edge> in) {
  std::vector<uint8_t> buf;
  buf.reserve(8 + 2 * (out.size() + in.size()));
  buf.push_back(kV2Magic);
  buf.push_back(kV2Version);
  AppendVarint(&buf, node);
  AppendVarint(&buf, node_label);
  AppendVarint(&buf, out.size());
  AppendVarint(&buf, in.size());
  AppendDeltaDsts(&buf, out);
  AppendRleLabels(&buf, out);
  AppendDeltaDsts(&buf, in);
  AppendRleLabels(&buf, in);
  // Disambiguation pad: if this v2 blob would also pass the v1 structural
  // check, one trailing zero byte breaks the exact-size match (the v2
  // decoder tolerates a single zero pad; sizes 16+6k cannot collide again
  // after a +1).
  if (LooksLikeRawV1(buf)) {
    buf.push_back(0);
  }
  return buf;
}

// Edge lists of a v1 blob whose header, and so its exact size, is checked.
void DecodeV1Edges(std::span<const uint8_t> bytes, const AdjacencyHeader& header,
                   AdjacencyEntry* entry) {
  const uint8_t* p = bytes.data() + header.edges_offset;
  for (Edge& e : entry->out) {
    e = Edge{ReadU32(p), ReadU16(p + 4)};
    p += 6;
  }
  for (Edge& e : entry->in) {
    e = Edge{ReadU32(p), ReadU16(p + 4)};
    p += 6;
  }
}

bool DecodeV2Edges(std::span<const uint8_t> bytes, const AdjacencyHeader& header,
                   AdjacencyEntry* entry) {
  const uint8_t* p = bytes.data() + header.edges_offset;
  const uint8_t* end = bytes.data() + bytes.size();
  if (!ReadDeltaDsts(&p, end, &entry->out) ||
      !ReadRleLabels(&p, end, &entry->out) ||
      !ReadDeltaDsts(&p, end, &entry->in) ||
      !ReadRleLabels(&p, end, &entry->in)) {
    return false;
  }
  const size_t remaining = static_cast<size_t>(end - p);
  // Trailing garbage is rejected; one zero pad byte is legitimate.
  return remaining == 0 || (remaining == 1 && *p == 0);
}

}  // namespace

std::vector<uint8_t> EncodeAdjacency(const Graph& g, NodeId u,
                                     AdjacencyEncoding encoding) {
  const auto out = g.OutNeighbors(u);
  const auto in = g.InNeighbors(u);
  return encoding == AdjacencyEncoding::kDeltaVarint
             ? EncodeV2(u, g.node_label(u), out, in)
             : EncodeV1(u, g.node_label(u), out, in);
}

std::vector<uint8_t> EncodeAdjacency(const AdjacencyEntry& entry,
                                     AdjacencyEncoding encoding) {
  return encoding == AdjacencyEncoding::kDeltaVarint
             ? EncodeV2(entry.node, entry.node_label, entry.out, entry.in)
             : EncodeV1(entry.node, entry.node_label, entry.out, entry.in);
}

bool DecodeAdjacencyHeader(std::span<const uint8_t> bytes, AdjacencyHeader* header) {
  if (LooksLikeRawV1(bytes)) {
    header->node = ReadU32(bytes.data());
    header->node_label = ReadU16(bytes.data() + 4);
    header->out_count = ReadU32(bytes.data() + 8);
    header->in_count = ReadU32(bytes.data() + 12);
    header->encoding = AdjacencyEncoding::kRaw;
    header->edges_offset = 16;
    return true;
  }
  if (bytes.size() < 2 || bytes[0] != kV2Magic || bytes[1] != kV2Version) {
    return false;
  }
  size_t pos = 2;  // past magic + version
  uint64_t node = 0;
  uint64_t label = 0;
  uint64_t out_count = 0;
  uint64_t in_count = 0;
  if (!ReadVarint(bytes, &pos, &node) || !ReadVarint(bytes, &pos, &label) ||
      !ReadVarint(bytes, &pos, &out_count) || !ReadVarint(bytes, &pos, &in_count)) {
    return false;
  }
  // Each encoded edge costs at least one byte for its dst delta, so counts
  // beyond the remaining payload are corruption — reject before allocating.
  if (node > kInvalidNode || label > 0xffff || out_count > bytes.size() ||
      in_count > bytes.size() || out_count + in_count > bytes.size() - pos) {
    return false;
  }
  header->node = static_cast<NodeId>(node);
  header->node_label = static_cast<Label>(label);
  header->out_count = out_count;
  header->in_count = in_count;
  header->encoding = AdjacencyEncoding::kDeltaVarint;
  header->edges_offset = pos;
  return true;
}

bool DecodeAdjacencyEdges(std::span<const uint8_t> bytes, const AdjacencyHeader& header,
                          AdjacencyEntry* entry) {
  entry->node = header.node;
  entry->node_label = header.node_label;
  entry->out.resize(header.out_count);
  entry->in.resize(header.in_count);
  if (header.encoding == AdjacencyEncoding::kRaw) {
    DecodeV1Edges(bytes, header, entry);
    return true;
  }
  return DecodeV2Edges(bytes, header, entry);
}

bool DecodeAdjacencyInto(std::span<const uint8_t> bytes, AdjacencyEntry* entry) {
  AdjacencyHeader header;
  return DecodeAdjacencyHeader(bytes, &header) &&
         DecodeAdjacencyEdges(bytes, header, entry);
}

AdjacencyPtr DecodeAdjacency(std::span<const uint8_t> bytes) {
  auto entry = std::make_shared<AdjacencyEntry>();
  if (!DecodeAdjacencyInto(bytes, entry.get())) {
    return nullptr;
  }
  return entry;
}

}  // namespace grouting
