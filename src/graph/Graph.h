//===- graph/Graph.h - Compressed sparse row graphs -------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-memory graph representation shared by every algorithm: a CSR
/// (compressed sparse row) adjacency structure with optional integer edge
/// weights, optional incoming adjacency (needed by pull-direction
/// traversals, Fig. 9(b)), and optional per-vertex coordinates (needed by
/// the A* heuristic).
///
/// Weighted adjacency is stored *interleaved* — one contiguous array of
/// (neighbor, weight) pairs per direction — so a relax loop walks a single
/// stream instead of two parallel arrays (one hardware prefetch stream and
/// half the cache lines per scattered row). Unweighted adjacency stays a
/// packed id array. `NeighborRange` abstracts over these two layouts;
/// `DeltaGraph`'s patch lists are interleaved pairs too.
///
/// Size: each stored direction costs 4 bytes per vertex of row offsets
/// (`EdgeOffset`) plus 8 bytes per entry when weighted, 4 when not. A
/// symmetric graph stores one direction; a directed graph built with
/// in-edges stores two. One direction holds at most 2^32 - 1 entries
/// (`kMaxEdgeOffset`); every producer fails loudly past that
/// (`checkEdgeOffsetLimit`), and there is no 64-bit fallback.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_GRAPH_GRAPH_H
#define GRAPHIT_GRAPH_GRAPH_H

#include "support/Prefetch.h"
#include "support/Types.h"

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

namespace graphit {

/// A directed edge with weight, used by builders and generators.
struct Edge {
  VertexId Src = 0;
  VertexId Dst = 0;
  Weight W = 1;
};

/// Destination/weight pair stored in adjacency arrays; `WNode` in the
/// paper's generated code. For weighted graphs this is also the in-memory
/// adjacency element (interleaved layout), so it must stay exactly two
/// 32-bit words with the id first.
struct WNode {
  VertexId V;
  Weight W;
};

static_assert(sizeof(WNode) == sizeof(VertexId) + sizeof(Weight),
              "WNode must be packed: NeighborRange strides across it");

/// Deterministic adjacency-row order: by neighbor id, then weight.
/// `GraphBuilder` and `Graph::permuted` must both sort rows with exactly
/// this comparator so built and permuted graphs share one layout.
inline bool adjacencyRowLess(const WNode &A, const WNode &B) {
  return A.V != B.V ? A.V < B.V : A.W < B.W;
}

/// Planar vertex coordinates (longitude/latitude or synthetic x/y), consumed
/// by the A* distance heuristic.
struct Coordinates {
  std::vector<double> X;
  std::vector<double> Y;

  bool empty() const { return X.empty(); }
  Count size() const { return static_cast<Count>(X.size()); }
};

class VertexMapping; // graph/Reorder.h

/// Lightweight range of WNode for range-for iteration, generic over the
/// two physical layouts:
///
///  * bare ids — `Ids` is a packed id array, every weight 1: the layout
///    of unweighted CSR rows;
///  * packed — `Packed` points at interleaved (id, weight) pairs: the
///    layout of weighted CSR rows and of every `DeltaGraph` patch list
///    (weight 1 on unweighted graphs).
///
/// The layout test is a pointer null-check — one perfectly-predicted
/// branch per access with constant-scale indexing on both sides (a
/// runtime stride would put an integer multiply in every hot loop).
/// `id(I)`/`weight(I)` give indexed access for loops that look ahead
/// (software prefetch of the I+k-th neighbor's distance word).
struct NeighborRange {
  const VertexId *Ids; ///< bare-id layout (null when packed)
  Count N;
  const WNode *Packed = nullptr; ///< interleaved layout

  VertexId id(Count I) const { return Packed ? Packed[I].V : Ids[I]; }
  Weight weight(Count I) const { return Packed ? Packed[I].W : Weight{1}; }

  struct Iterator {
    const VertexId *Ids;
    const WNode *Packed;
    Count I;
    WNode operator*() const {
      return Packed ? Packed[I] : WNode{Ids[I], Weight{1}};
    }
    Iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator!=(const Iterator &O) const { return I != O.I; }
  };
  Iterator begin() const { return Iterator{Ids, Packed, 0}; }
  Iterator end() const { return Iterator{Ids, Packed, N}; }
  Count size() const { return N; }
};

/// Allocator of CSR arrays: `resize` default-initializes the new elements
/// instead of value-initializing them, so a producer that writes every
/// element once (the builder's scatter, `Graph::permuted`) does not zero
/// the array on one thread first. Elements are trivial types.
template <typename T> struct DefaultInitAllocator : std::allocator<T> {
  template <typename U> struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U> &) noexcept {}

  template <typename U> void construct(U *P) noexcept {
    ::new (static_cast<void *>(P)) U;
  }
  template <typename U, typename... Args>
  void construct(U *P, Args &&...A) {
    ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
  }
};

/// One array of a CSR direction: row offsets or row entries.
template <typename T>
using CsrArray = std::vector<T, DefaultInitAllocator<T>>;

/// One direction of CSR adjacency, the row format of `Graph` and of
/// `DeltaGraph`'s folded segments: row R is entries
/// `[Offsets[R], Offsets[R + 1])` of `Adj` (interleaved (id, weight)
/// pairs) when weighted, of `Ids` otherwise; the other array stays empty.
/// An absent direction has no offsets at all.
struct CsrRows {
  CsrArray<EdgeOffset> Offsets; ///< rows + 1 entries, non-decreasing
  CsrArray<VertexId> Ids;       ///< unweighted layout
  CsrArray<WNode> Adj;          ///< weighted (interleaved) layout

  Count degree(Count R) const { return Offsets[R + 1] - Offsets[R]; }

  NeighborRange row(Count R, bool Weighted) const {
    const EdgeOffset Lo = Offsets[R];
    const Count Deg = Offsets[R + 1] - Lo;
    if (Weighted)
      return NeighborRange{nullptr, Deg, Adj.data() + Lo};
    return NeighborRange{Ids.data() + Lo, Deg};
  }

  /// Prefetches row R: its offset word and, reading the offset (which a
  /// longer-lookahead caller has usually already pulled in), the head of
  /// the row itself.
  void prefetchRow(Count R, bool Weighted) const {
    prefetchRead(&Offsets[R]);
    const EdgeOffset Lo = Offsets[R];
    if (Weighted)
      prefetchRead(Adj.data() + Lo);
    else if (!Ids.empty())
      prefetchRead(Ids.data() + Lo);
  }
};

/// The one entry-limit check: fails loudly unless one CSR direction of
/// \p Entries entries fits `EdgeOffset`. Every producer of CSR rows (the
/// builder, `Graph::permuted`, the binary loader and segment folds) calls
/// it before it narrows an entry count to an offset.
void checkEdgeOffsetLimit(Count Entries, const char *Producer);

/// Immutable CSR graph. Construct through `GraphBuilder` (graph/Builder.h).
///
/// For symmetric graphs the incoming adjacency aliases the outgoing one and
/// costs no extra memory.
class Graph {
public:
  using NeighborRange = graphit::NeighborRange;

  Graph() = default;

  /// Number of vertices.
  Count numNodes() const { return NumNodes; }
  /// Number of directed edges.
  Count numEdges() const { return NumEdges; }
  /// True if built as a symmetric (undirected) graph.
  bool isSymmetric() const { return Symmetric; }
  /// True if the graph carries per-edge weights (otherwise weight()==1).
  bool isWeighted() const { return Weighted; }
  /// True if incoming adjacency is available (always true for symmetric).
  bool hasInEdges() const { return Symmetric || !In.Offsets.empty(); }
  /// True if per-vertex coordinates are attached.
  bool hasCoordinates() const { return !Coords.empty(); }

  Count outDegree(VertexId V) const {
    assert(V < NumNodes && "vertex out of range");
    return Out.degree(V);
  }

  Count inDegree(VertexId V) const {
    assert(hasInEdges() && "graph built without incoming adjacency");
    if (Symmetric)
      return outDegree(V);
    return In.degree(V);
  }

  /// Outgoing neighbors of \p V with weights.
  NeighborRange outNeighbors(VertexId V) const {
    assert(V < NumNodes && "vertex out of range");
    return Out.row(V, Weighted);
  }

  /// Incoming neighbors of \p V with weights. For symmetric graphs this is
  /// the same adjacency as outNeighbors().
  NeighborRange inNeighbors(VertexId V) const {
    if (Symmetric)
      return outNeighbors(V);
    assert(hasInEdges() && "graph built without incoming adjacency");
    return In.row(V, Weighted);
  }

  /// Per-vertex coordinates; empty() unless the generator/loader attached
  /// them.
  const Coordinates &coordinates() const { return Coords; }

  /// Prefetches the out-adjacency row of \p V (CsrRows::prefetchRow). Used
  /// by the eager engine's frontier lookahead so a vertex's row is in
  /// flight before its relaxation starts.
  void prefetchOutRow(VertexId V) const { Out.prefetchRow(V, Weighted); }

  /// Sum of out-degrees over a set of vertices; used by the direction
  /// optimization to estimate frontier work.
  int64_t outDegreeSum(const VertexId *Vs, Count N) const;

  /// \returns a symmetrized copy of this graph (used for k-core/SetCover on
  /// directed inputs, per Table 3's caption).
  Graph symmetrized() const;

  /// \returns this graph rebuilt under \p Map (graph/Reorder.h): vertex
  /// `Map.toExternal(n)` of this graph becomes vertex `n` of the result,
  /// with out-/in-adjacency, weights, and coordinates carried over and each
  /// adjacency row re-sorted by new neighbor id (the same deterministic
  /// layout GraphBuilder produces). O(V + E) parallel.
  Graph permuted(const VertexMapping &Map) const;

private:
  friend class GraphBuilder;
  friend Graph loadBinaryGraph(const char *Path);

  Count NumNodes = 0;
  Count NumEdges = 0;
  bool Symmetric = false;
  bool Weighted = false;

  CsrRows Out{CsrArray<EdgeOffset>(1, 0), {}, {}};
  CsrRows In; ///< directed graphs built with in-edges only

  Coordinates Coords;
};

} // namespace graphit

#endif // GRAPHIT_GRAPH_GRAPH_H
