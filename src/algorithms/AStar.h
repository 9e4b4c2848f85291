//===- algorithms/AStar.h - A* search on road networks ----------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A* point-to-point search (§6.1): Δ-stepping where a vertex's priority is
/// the *estimated* total path length dist(v) + h(v), with h a
/// coordinate-based lower bound on the remaining distance. The paper runs
/// A* on the road networks, which carry longitude/latitude per vertex.
///
/// Our road generator guarantees every edge weight is at least
/// 100 x the Euclidean length of the edge (graph/Generators.h), so
/// h(v) = floor(50 x euclidean(v, target)) is both admissible and strictly
/// consistent (the factor-2 slack absorbs integer rounding; see
/// DESIGN.md §2).
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_ASTAR_H
#define GRAPHIT_ALGORITHMS_ASTAR_H

#include "algorithms/PPSP.h"

namespace graphit {

class DistanceState;

/// Pluggable admissible-heuristic hook for A*. Implementations must return
/// a lower bound on the remaining distance to \p Target that is also
/// consistent (h(u) <= w(u,v) + h(v) along every edge); the service
/// layer's ALT landmark cache plugs in through this interface.
class AStarHeuristic {
public:
  virtual ~AStarHeuristic() = default;
  virtual Priority estimate(VertexId V, VertexId Target) const = 0;
};

/// A* from \p Source to \p Target. Requires `G.hasCoordinates()`.
PPSPResult aStarSearch(const Graph &G, VertexId Source, VertexId Target,
                       const Schedule &S);

/// Pooled-state variant (O(touched) setup; see algorithms/QueryState.h).
/// Calls `State.beginQuery(Source)` itself. With a null \p Heur the
/// coordinate heuristic is used (requires `G.hasCoordinates()`); otherwise
/// \p Heur supplies the bound and coordinates are not required. \p Limits
/// optionally bounds the run (cooperative cancellation and/or a distance
/// budget), checked only at bucket-round boundaries.
PPSPResult aStarSearch(const Graph &G, VertexId Source, VertexId Target,
                       const Schedule &S, DistanceState &State,
                       const AStarHeuristic *Heur = nullptr,
                       const RunLimits &Limits = RunLimits{});

/// Live-graph variant over a delta-overlay snapshot view
/// (graph/DeltaGraph.h). The coordinate heuristic reads the view's
/// coordinates; it stays consistent as long as every live upsert passes
/// `aStarAdmits` (deletions and weight increases can never break it).
PPSPResult aStarSearch(const DeltaGraph &G, VertexId Source,
                       VertexId Target, const Schedule &S,
                       DistanceState &State,
                       const AStarHeuristic *Heur = nullptr,
                       const RunLimits &Limits = RunLimits{});

/// Sharded composite view (graph/DeltaGraph.h ShardedDeltaView); the
/// coordinate heuristic reads the store-wide coordinate table via shard 0.
PPSPResult aStarSearch(const ShardedDeltaView &G, VertexId Source,
                       VertexId Target, const Schedule &S,
                       DistanceState &State,
                       const AStarHeuristic *Heur = nullptr,
                       const RunLimits &Limits = RunLimits{});

/// The coordinate heuristic used by `aStarSearch`, exposed for tests:
/// floor(50 x euclidean distance to target).
Priority aStarHeuristic(const Graph &G, VertexId V, VertexId Target);

/// True when an edge between \p U and \p V of weight \p W keeps the
/// coordinate heuristic consistent: W is at least 50 x their Euclidean
/// distance plus a small margin for the rounding of the floored estimates.
/// False when either id has no coordinates in \p C. The live query engine
/// checks every upsert with it before serving A* with the bound
/// (service/QueryEngine.h).
bool aStarAdmits(const Coordinates &C, VertexId U, VertexId V, Weight W);

} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_ASTAR_H
