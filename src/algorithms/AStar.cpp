//===- algorithms/AStar.cpp - A* search on road networks ------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "algorithms/AStar.h"

#include "algorithms/DistanceEngine.h"
#include "algorithms/QueryState.h"
#include "graph/DeltaGraph.h"
#include "support/Abort.h"

#include <cmath>

using namespace graphit;

namespace {

/// Shared A* core over a caller-provided distance array. \p Heur is any
/// admissible, consistent remaining-distance bound with h(target) = 0.
template <typename GraphT, typename HeurFn, typename TouchFn>
PPSPResult aStarRun(const GraphT &G, VertexId Source, VertexId Target,
                    const Schedule &S, std::vector<Priority> &Dist,
                    HeurFn &&Heur, TouchFn &&Touch,
                    const RunLimits &Limits = RunLimits{}) {
  const int64_t Delta = S.Delta;
  const Priority Budget = Limits.MaxDistance;
  int64_t BudgetKey = kMaxEagerKey; // see ppspRun: benign same-value writes
  // h(target) = 0, so the PPSP stop condition transfers to f-space
  // unchanged: buckets at key i hold f >= iΔ >= dist(target) = f(target).
  // The budget bounds f, which lower-bounds the true distance, so a
  // budget stop still reports a sound settled prefix.
  auto Stop = [&](int64_t CurrKey) {
    Priority Best = atomicLoad(&Dist[Target]);
    if (Best != kInfiniteDistance && CurrKey * Delta >= Best)
      return true;
    if (CurrKey * Delta >= Budget) {
      atomicStoreRelaxed(&BudgetKey, CurrKey);
      return true;
    }
    return false;
  };
  OrderedStats Stats = detail::distanceOrderedRun(
      G, Source, Dist, S, std::forward<HeurFn>(Heur), Stop,
      std::forward<TouchFn>(Touch), Limits.Cancel);
  return detail::interruptiblePointResult(Dist[Target], Stats, Delta,
                                          atomicLoadRelaxed(&BudgetKey));
}

/// Scale of the coordinate bound: h(v) = floor(kCoordinateScale x
/// euclidean(v, target)).
constexpr double kCoordinateScale = 50.0;

/// Margin `aStarAdmits` asks on top of kCoordinateScale x the edge's
/// length. Each floored estimate is off by a few ulps of kCoordinateScale
/// x its coordinates' magnitude, far below this for coordinates under 1e9.
constexpr double kAdmitMargin = 1e-3;

/// The one definition of the coordinate bound, shared by every entry
/// point (Graph, DeltaGraph, pooled, fresh). It is consistent along an
/// edge of weight w >= 50 e(u,v), because floors differ by at most the
/// ceiling of the difference of their operands:
///   h(u) - h(v) <= ceil(50 (|u - t| - |v - t|)) <= ceil(50 e(u,v)) <= w
/// The road generator keeps every weight >= 100 x its length, and live
/// upserts are held to 50 x by `aStarAdmits`. The operand is never
/// negative, so the truncating cast is the floor; calling `std::floor`
/// would cost a libm call per estimate on baseline x86-64 (no SSE4.1
/// `roundsd`).
Priority coordinateBound(const Coordinates &C, VertexId V, VertexId Target) {
  double DX = C.X[V] - C.X[Target];
  double DY = C.Y[V] - C.Y[Target];
  return static_cast<Priority>(kCoordinateScale *
                               std::sqrt(DX * DX + DY * DY));
}

} // namespace

Priority graphit::aStarHeuristic(const Graph &G, VertexId V,
                                 VertexId Target) {
  return coordinateBound(G.coordinates(), V, Target);
}

bool graphit::aStarAdmits(const Coordinates &C, VertexId U, VertexId V,
                          Weight W) {
  if (static_cast<Count>(U) >= C.size() || static_cast<Count>(V) >= C.size())
    return false;
  const double DX = C.X[U] - C.X[V];
  const double DY = C.Y[U] - C.Y[V];
  return static_cast<double>(W) >=
         kCoordinateScale * std::sqrt(DX * DX + DY * DY) + kAdmitMargin;
}

PPSPResult graphit::aStarSearch(const Graph &G, VertexId Source,
                                VertexId Target, const Schedule &S) {
  if (!G.hasCoordinates())
    fatalError("aStarSearch: graph has no coordinates");
  std::vector<Priority> Dist(static_cast<size_t>(G.numNodes()),
                             kInfiniteDistance);
  Dist[Source] = 0;
  auto Heur = [&](VertexId V) { return aStarHeuristic(G, V, Target); };
  return aStarRun(G, Source, Target, S, Dist, Heur, detail::NoTouchFn{});
}

namespace {

template <typename GraphT>
PPSPResult aStarPooled(const GraphT &G, VertexId Source, VertexId Target,
                       const Schedule &S, DistanceState &State,
                       const AStarHeuristic *Heur, const RunLimits &Limits) {
  if (!Heur && !G.hasCoordinates())
    fatalError("aStarSearch: graph has no coordinates and no heuristic");
  State.beginQuery(Source);
  DistanceState::RunTouch Touch = State.makeTouchFn();
  PPSPResult R;
  if (Heur) {
    R = aStarRun(
        G, Source, Target, S, State.distances(),
        [&](VertexId V) { return Heur->estimate(V, Target); }, Touch,
        Limits);
  } else {
    const Coordinates &C = G.coordinates();
    R = aStarRun(
        G, Source, Target, S, State.distances(),
        [&](VertexId V) { return coordinateBound(C, V, Target); }, Touch,
        Limits);
  }
  Touch.close();
  return R;
}

} // namespace

PPSPResult graphit::aStarSearch(const Graph &G, VertexId Source,
                                VertexId Target, const Schedule &S,
                                DistanceState &State,
                                const AStarHeuristic *Heur,
                                const RunLimits &Limits) {
  return aStarPooled(G, Source, Target, S, State, Heur, Limits);
}

PPSPResult graphit::aStarSearch(const DeltaGraph &G, VertexId Source,
                                VertexId Target, const Schedule &S,
                                DistanceState &State,
                                const AStarHeuristic *Heur,
                                const RunLimits &Limits) {
  return aStarPooled(G, Source, Target, S, State, Heur, Limits);
}

PPSPResult graphit::aStarSearch(const ShardedDeltaView &G, VertexId Source,
                                VertexId Target, const Schedule &S,
                                DistanceState &State,
                                const AStarHeuristic *Heur,
                                const RunLimits &Limits) {
  return aStarPooled(G, Source, Target, S, State, Heur, Limits);
}
