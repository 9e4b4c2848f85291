//===- support/Types.h - Fundamental scalar types ---------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fundamental integer types shared across the whole library.
///
/// Vertex identifiers and CSR row offsets are 32-bit (the paper's largest
/// graph has 125M vertices and 1.8B directed edges), edge weights are
/// 32-bit, and priorities are 64-bit so that path lengths and coarsened
/// priorities never overflow.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SUPPORT_TYPES_H
#define GRAPHIT_SUPPORT_TYPES_H

#include <cstdint>
#include <limits>

namespace graphit {

/// Identifier of a vertex: a dense index in [0, numNodes).
using VertexId = uint32_t;

/// Position of a row's first entry in one direction of CSR adjacency
/// (graph/Graph.h). A direction holds at most `kMaxEdgeOffset` entries,
/// the limit Ligra-based frameworks keep unless built with 64-bit indices.
using EdgeOffset = uint32_t;

/// Largest entry count one CSR direction can hold.
inline constexpr int64_t kMaxEdgeOffset =
    std::numeric_limits<EdgeOffset>::max();

/// Signed 64-bit count of vertices or edges.
using Count = int64_t;

/// Edge weight. Signed so that weight arithmetic can be checked; the ordered
/// algorithms require non-negative weights.
using Weight = int32_t;

/// A priority value, e.g. a tentative shortest-path distance or a vertex
/// degree. Also the domain of bucket keys after priority coarsening.
using Priority = int64_t;

/// Sentinel for "no priority assigned yet" (the paper's null priority).
inline constexpr Priority kNullPriority =
    std::numeric_limits<Priority>::max();

/// Sentinel for an invalid vertex.
inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

/// Sentinel distance for unreached vertices (a very large value that still
/// survives `x + maxWeight` without overflow).
inline constexpr Priority kInfiniteDistance =
    std::numeric_limits<Priority>::max() / 4;

} // namespace graphit

#endif // GRAPHIT_SUPPORT_TYPES_H
