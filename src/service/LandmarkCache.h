//===- service/LandmarkCache.h - ALT landmark heuristic ---------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ALT (A*, Landmarks, Triangle inequality) heuristic of Goldberg &
/// Harrelson, precomputed once per graph and shared read-only by every
/// concurrent query.
///
/// A set of landmarks L is chosen by farthest-point sampling and the full
/// distance vector d(l, ·) is computed for each. The triangle inequality
/// d(l, t) <= d(l, v) + d(v, t) gives the admissible bound
///
///     h(v) = max over l of ( d(l, t) - d(l, v) )+
///
/// which is also consistent (each term changes by at most w(u,v) along an
/// edge, and max preserves that), so it plugs straight into the A*
/// heuristic hook of the ordered engine. On graphs with coordinates the
/// bound is combined with the coordinate heuristic by max — the max of two
/// admissible, consistent bounds is again admissible and consistent, and
/// landmarks are often much tighter along road corridors.
///
/// The bound stays admissible and consistent on any later version of the
/// graph whose every edge weighs at least its *build weight* (the weight
/// the landmark distances were computed on) and which adds no edge: true
/// distances can then only have grown. `admits` is that test for one
/// upsert, which is how a live engine keeps one cache across an incident
/// stream that raises weights and later restores them.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SERVICE_LANDMARKCACHE_H
#define GRAPHIT_SERVICE_LANDMARKCACHE_H

#include "algorithms/AStar.h"
#include "core/Schedule.h"
#include "graph/Graph.h"

#include <memory>
#include <vector>

namespace graphit {
namespace service {

/// Precomputed landmark distances + the ALT lower bound. Immutable after
/// construction; safe to share across threads.
class LandmarkCache : public AStarHeuristic {
public:
  /// Picks \p NumLandmarks landmarks by farthest-point sampling (seeded by
  /// a probe SSSP from vertex \p ProbeStart) and runs one Δ-stepping SSSP
  /// per landmark under schedule \p S.
  LandmarkCache(const Graph &G, int NumLandmarks, const Schedule &S,
                VertexId ProbeStart = 0);

  /// Owning variant for caches whose graph has no other holder — the live
  /// QueryEngine builds one from a compacted snapshot and keeps the
  /// compacted CSR alive exactly as long as the cache (`admits` reads it).
  LandmarkCache(std::shared_ptr<const Graph> GPtr, int NumLandmarks,
                const Schedule &S, VertexId ProbeStart = 0);

  /// The ALT bound, combined with the coordinate bound when available.
  /// h(Target, Target) == 0; pairs unreachable from some landmark are
  /// handled conservatively (see kUnreachableBound).
  Priority estimate(VertexId V, VertexId Target) const override;

  /// Per-query snapshot of the target-side landmark distances. `estimate`
  /// runs once per edge relaxation, and the d(l, Target) terms are
  /// constant for a whole query — gathering them from K separate
  /// |V|-sized vectors on every call is pure cache-miss traffic. Build
  /// one of these per query (QueryEngine::runOne does) so the hot loop
  /// reads a small contiguous array plus the unavoidable d(l, V) loads.
  class TargetBound : public AStarHeuristic {
  public:
    TargetBound(const LandmarkCache &Cache, VertexId Target);
    Priority estimate(VertexId V, VertexId Target) const override;

  private:
    const LandmarkCache &Cache;
    std::vector<Priority> TargetDist; ///< d(l, Target) per landmark
  };

  /// Convenience factory for the snapshot above.
  TargetBound boundFor(VertexId Target) const {
    return TargetBound(*this, Target);
  }

  int numLandmarks() const { return static_cast<int>(Landmarks.size()); }
  const std::vector<VertexId> &landmarks() const { return Landmarks; }

  /// True when upserting U → V at weight \p W keeps the bound admissible
  /// and consistent: the build graph holds the edge at a weight no greater
  /// than \p W — in both directions on a symmetric graph, where the store
  /// applies both. An absent edge, a lighter weight, or an id outside the
  /// build universe is not admitted.
  bool admits(VertexId U, VertexId V, Weight W) const;

  /// Bound returned when a landmark proves the target unreachable from V
  /// (the landmark reaches V but not the target, so no V → target path
  /// exists). Large enough to prune, small enough that dist + h never
  /// overflows the engine's key space.
  static constexpr Priority kUnreachableBound = kInfiniteDistance / 2;

private:
  /// Shared core of `estimate` / `TargetBound::estimate`: \p TargetDist
  /// points at the per-landmark d(l, Target) values (snapshotted or
  /// gathered by the caller).
  Priority estimateWith(const Priority *TargetDist, VertexId V,
                        VertexId Target) const;

  const Graph &G;
  std::shared_ptr<const Graph> Owned; ///< set by the owning constructor
  bool UseCoordinates;
  std::vector<VertexId> Landmarks;
  std::vector<std::vector<Priority>> DistFrom; ///< [landmark][vertex]
};

} // namespace service
} // namespace graphit

#endif // GRAPHIT_SERVICE_LANDMARKCACHE_H
