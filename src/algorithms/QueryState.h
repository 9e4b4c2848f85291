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
/// initialized once, every query logs the vertices it improves, and the
/// next `beginQuery` resets exactly those — O(touched), not O(V).
/// The state holds only per-vertex arrays (12 bytes per vertex, 16 with
/// parents); the eager engine's bins and round shares belong to the run,
/// sized by the vertices it pushes.
///
/// A vertex is logged when its distance leaves ∞. The engine reports each
/// improvement with the value it replaced (`First` = that value was ∞;
/// see `distanceOrderedRun`), and distances only fall within a query, so
/// `First` holds once per reached vertex and needs no per-vertex stamp.
/// The one code that puts logged vertices back at ∞, incremental repair,
/// clears `First` for them itself (algorithms/IncrementalSSSP.h).
///
/// The log has two write paths. An engine run takes its `Touch` callback
/// from `makeTouchFn`, which picks the *plain* log (ordinary loads and stores)
/// when `omp_get_max_threads() == 1` and the *atomic* log (a fetch-and-add
/// slot) otherwise. That is the test the eager engine already uses to
/// drop its CAS on the distance array: the run's parallel regions take
/// their team size from the same ICV, so on a one-thread team nothing else
/// writes the log. The serving tier runs each query that way
/// (`OmpThreadsPerQuery = 1`).
///
/// The state also counts its reach in O(1). `numReached()` is the log's
/// length minus a list of logged vertices that incremental repair left at
/// ∞ (algorithms/IncrementalSSSP.h). The list is empty unless deletions
/// cut vertices off, and `beginQuery` clears it.
///
/// The pooled overloads of `deltaSteppingSSSP` / `pointToPointShortestPath`
/// / `aStarSearch` take a `DistanceState &` instead of allocating
/// internally; `service/QueryEngine` keeps one state per worker thread.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_QUERYSTATE_H
#define GRAPHIT_ALGORITHMS_QUERYSTATE_H

#include "support/Types.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <omp.h>
#include <vector>

namespace graphit {

/// Reusable distance/parent arrays plus a touched-vertex log.
///
/// Usage per query:
///   State.beginQuery(Source);            // O(touched by previous query)
///   ... run an engine over State.distances() with Touch =
///       State.makeTouchFn(), called after each successful relaxation ...
///   State.dist(V) / State.parent(V) / touched list are then valid until
///   the next beginQuery.
///
/// `recordImprovement` (the atomic log) is safe to call concurrently from
/// many threads; everything else, `recordImprovementSerial` included, is
/// single-threaded (one query owns the state at a time).
class DistanceState {
public:
  /// Allocates state for \p NumNodes vertices; distances start at
  /// kInfiniteDistance. With \p TrackParents, a parent array is maintained
  /// for path reconstruction.
  explicit DistanceState(Count NumNodes, bool TrackParents = false);

  Count numNodes() const { return static_cast<Count>(Dist.size()); }
  bool tracksParents() const { return TrackParents; }

  /// Prepares for a new query from \p Source: resets every vertex touched
  /// by the previous query back to infinity, empties the log, and seeds
  /// `Dist[Source] = 0` (logging the source as touched).
  void beginQuery(VertexId Source);

  /// Grows the state to \p NewNumNodes vertices (live-graph vertex
  /// insertion). Appended slots start untouched at infinity, so a held
  /// solution stays valid — an inserted vertex is unreachable until an
  /// edge batch seeds it (incremental repair then picks it up like any
  /// other improved vertex). Shrinking is not supported (no-op).
  void resize(Count NewNumNodes);

  /// Records that `Dist[V]` was lowered via the edge (\p From, V), in the
  /// atomic log: safe to call concurrently from the relaxation inner loop
  /// of a multi-threaded run. Every improvement updates the parent; the
  /// one with \p First set (the write that took V off ∞) appends V to the
  /// touched log, claiming its slot with a fetch-and-add.
  ///
  /// Defined out of line on purpose: inline copies in every pooled engine
  /// would spend GCC's per-file inlining budget (`inline-unit-growth`)
  /// that the fresh engines compiled in the same file need.
  void recordImprovement(VertexId V, VertexId From, bool First);

  /// The plain log: the effect of `recordImprovement` with ordinary loads
  /// and stores. Only for code no other thread runs alongside — a serial
  /// loop, or an engine run on a one-thread team (see `makeTouchFn`).
  void recordImprovementSerial(VertexId V, VertexId From, bool First) {
    if (TrackParents)
      Parent[V] = From;
    if (First) {
      assert(NumTouched < numNodes() && "a vertex was logged twice");
      Touched[static_cast<size_t>(NumTouched++)] = V;
    }
  }

  /// The engine's `Touch` callback for one run over this state: the plain
  /// log when the calling thread's OpenMP team size is 1, the atomic log
  /// otherwise. The engine forks its parallel regions from the same ICV,
  /// so a one-thread run has no concurrent writer. Make it on the thread
  /// that runs the engine, once per run.
  auto makeTouchFn() {
    const bool Concurrent = omp_get_max_threads() > 1;
    return [this, Concurrent](VertexId V, VertexId From, bool First) {
      if (Concurrent)
        recordImprovement(V, From, First);
      else
        recordImprovementSerial(V, From, First);
    };
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

  /// Vertices improved by the current query, each once, in first-touch
  /// order (nondeterministic across runs). After a fresh run these are
  /// exactly the vertices with finite distance; after `repairAfterUpdates`
  /// they also include the vertices deletions cut off (see `numReached`).
  Count numTouched() const { return NumTouched; }
  VertexId touched(Count I) const { return Touched[static_cast<size_t>(I)]; }

  /// Vertices with finite distance, in O(1): `numTouched()` minus the
  /// logged vertices incremental repair left at ∞. Equal to
  /// `numTouched()` unless deletions cut vertices off since `beginQuery`.
  Count numReached() const {
    return NumTouched - static_cast<Count>(CutOff.size());
  }

  /// Logged vertices that incremental repair left at ∞. Repair reads it
  /// before it settles: an improvement of one of these is not `First`.
  const std::vector<VertexId> &cutOff() const { return CutOff; }

  /// Incremental repair's update of the cut-off list, after it settled:
  /// keeps the vertices of the old list and of \p Invalidated (logged
  /// vertices this repair reset to ∞) that are still at ∞. Settling only
  /// lowers distances, so no other logged vertex can be at ∞. Costs
  /// O(|Invalidated| + old list).
  void rebuildCutOff(const std::vector<VertexId> &Invalidated);

  /// Queries served by this state so far.
  uint64_t queriesBegun() const { return QueriesBegun; }

  /// Source vertex of the current query (kInvalidVertex before the first
  /// beginQuery). Incremental repair re-anchors on it.
  VertexId source() const { return Source_; }

private:
  std::vector<Priority> Dist;
  std::vector<VertexId> Parent;  ///< empty unless TrackParents
  std::vector<VertexId> Touched; ///< capacity NumNodes; first NumTouched valid
  Count NumTouched = 0;
  std::vector<VertexId> CutOff; ///< logged vertices at ∞ (see numReached)
  uint64_t QueriesBegun = 0;
  VertexId Source_ = kInvalidVertex;
  bool TrackParents;
};

} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_QUERYSTATE_H
