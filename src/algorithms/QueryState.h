//===- algorithms/QueryState.h - Reusable per-query state -------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Caller-owned, reusable state for the distance family (SSSP, PPSP, A*).
///
/// A fresh query pays O(V) just to fill the distance array with infinity —
/// on a road network that costs more than a nearby point-to-point query
/// itself. `DistanceState` amortizes it: the arrays are allocated and
/// initialized once, every query logs the vertices it improves
/// (epoch-stamped, so each vertex is logged at most once per query), and
/// the next `beginQuery` resets exactly those — O(touched), not O(V).
/// The state holds only per-vertex arrays; the eager engine's bins and
/// round shares belong to the run, sized by the vertices it pushes.
///
/// The pooled overloads of `deltaSteppingSSSP` / `pointToPointShortestPath`
/// / `aStarSearch` take a `DistanceState &` instead of allocating
/// internally; `service/QueryEngine` keeps one state per worker thread.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_QUERYSTATE_H
#define GRAPHIT_ALGORITHMS_QUERYSTATE_H

#include "support/Atomics.h"
#include "support/Types.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace graphit {

/// Epoch-versioned distance/parent arrays plus a touched-vertex log.
///
/// Usage per query:
///   State.beginQuery(Source);            // O(touched by previous query)
///   ... run an engine over State.distances(), calling
///       State.recordImprovement(V, U) after each successful relaxation ...
///   State.dist(V) / State.parent(V) / touched list are then valid until
///   the next beginQuery.
///
/// `recordImprovement` is safe to call concurrently from many threads;
/// everything else is single-threaded (one query owns the state at a time).
class DistanceState {
public:
  /// Allocates state for \p NumNodes vertices; distances start at
  /// kInfiniteDistance. With \p TrackParents, a parent array is maintained
  /// for path reconstruction.
  explicit DistanceState(Count NumNodes, bool TrackParents = false);

  Count numNodes() const { return static_cast<Count>(Dist.size()); }
  bool tracksParents() const { return TrackParents; }

  /// Prepares for a new query from \p Source: resets every vertex touched
  /// by the previous query back to infinity, bumps the epoch, and seeds
  /// `Dist[Source] = 0` (logging the source as touched).
  void beginQuery(VertexId Source);

  /// Grows the state to \p NewNumNodes vertices (live-graph vertex
  /// insertion). Appended slots start untouched at infinity, so a held
  /// solution stays valid — an inserted vertex is unreachable until an
  /// edge batch seeds it (incremental repair then picks it up like any
  /// other improved vertex). Shrinking is not supported (no-op).
  void resize(Count NewNumNodes);

  /// Records that `Dist[V]` was lowered via the edge (\p From, V). Called
  /// concurrently from the relaxation inner loop: the first improvement of
  /// V this epoch appends V to the touched log (exactly once, via an
  /// atomic epoch-stamp exchange); every improvement updates the parent.
  void recordImprovement(VertexId V, VertexId From) {
    if (TrackParents)
      atomicStoreRelaxed(&Parent[V], From);
    uint32_t Cur = Epoch;
    if (atomicLoadRelaxed(&Stamp[V]) != Cur &&
        atomicExchange(&Stamp[V], Cur) != Cur)
      Touched[static_cast<size_t>(fetchAdd(&NumTouched, Count{1}))] = V;
  }

  /// The distance array the engine runs over.
  std::vector<Priority> &distances() { return Dist; }
  Priority dist(VertexId V) const { return Dist[V]; }

  /// Parent of \p V on some shortest-path improvement chain, or
  /// kInvalidVertex if untouched. Under concurrent relaxation the stored
  /// parent is the *last successful improvement's* source, which can lag
  /// the final distance — verify `dist(parent) + w == dist(v)` when
  /// reconstructing paths (service/QueryEngine::extractPath does).
  VertexId parent(VertexId V) const {
    return TrackParents ? Parent[V] : kInvalidVertex;
  }

  /// Vertices improved by the current query, in first-touch order
  /// (nondeterministic across runs; contents are exactly the vertices with
  /// finite distance).
  Count numTouched() const { return NumTouched; }
  VertexId touched(Count I) const { return Touched[static_cast<size_t>(I)]; }

  /// Queries served by this state so far (epoch counter).
  uint64_t queriesBegun() const { return QueriesBegun; }

  /// Source vertex of the current query (kInvalidVertex before the first
  /// beginQuery). Incremental repair re-anchors on it.
  VertexId source() const { return Source_; }

private:
  std::vector<Priority> Dist;
  std::vector<VertexId> Parent;  ///< empty unless TrackParents
  std::vector<uint32_t> Stamp;   ///< epoch stamp per vertex
  std::vector<VertexId> Touched; ///< capacity NumNodes; first NumTouched valid
  Count NumTouched = 0;
  uint32_t Epoch = 0;
  uint64_t QueriesBegun = 0;
  VertexId Source_ = kInvalidVertex;
  bool TrackParents;
};

} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_QUERYSTATE_H
