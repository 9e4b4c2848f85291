//===- algorithms/PPSP.cpp - Point-to-point shortest path -----------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "algorithms/PPSP.h"

#include "algorithms/DistanceEngine.h"
#include "algorithms/QueryState.h"
#include "graph/DeltaGraph.h"

using namespace graphit;

namespace {

/// Shared PPSP core over a caller-provided distance array.
template <typename GraphT, typename TouchFn>
PPSPResult ppspRun(const GraphT &G, VertexId Source, VertexId Target,
                   const Schedule &S, std::vector<Priority> &Dist,
                   TouchFn &&Touch,
                   const RunLimits &Limits = RunLimits{}) {
  const int64_t Delta = S.Delta;
  const Priority Budget = Limits.MaxDistance;
  // When the distance budget stops the run, every thread observes the same
  // round-stable CurrKey and stores the same value — the relaxed atomic
  // keeps the benign multi-writer pattern well-defined.
  int64_t BudgetKey = kMaxEagerKey;
  // Stop once the current bucket's lower bound iΔ reaches the tentative
  // distance of the target: no later bucket can improve it. The budget
  // check is second so a settled target always reports as a normal stop.
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
      G, Source, Dist, S, [](VertexId) { return Priority{0}; }, Stop,
      std::forward<TouchFn>(Touch), Limits.Cancel);
  return detail::interruptiblePointResult(Dist[Target], Stats, Delta,
                                          atomicLoadRelaxed(&BudgetKey));
}

template <typename GraphT>
PPSPResult ppspFresh(const GraphT &G, VertexId Source, VertexId Target,
                     const Schedule &S) {
  std::vector<Priority> Dist(static_cast<size_t>(G.numNodes()),
                             kInfiniteDistance);
  Dist[Source] = 0;
  return ppspRun(G, Source, Target, S, Dist, detail::NoTouchFn{});
}

template <typename GraphT>
PPSPResult ppspPooled(const GraphT &G, VertexId Source, VertexId Target,
                      const Schedule &S, DistanceState &State,
                      const RunLimits &Limits) {
  State.beginQuery(Source);
  DistanceState::RunTouch Touch = State.makeTouchFn();
  PPSPResult R =
      ppspRun(G, Source, Target, S, State.distances(), Touch, Limits);
  Touch.close();
  return R;
}

} // namespace

PPSPResult graphit::pointToPointShortestPath(const Graph &G,
                                             VertexId Source,
                                             VertexId Target,
                                             const Schedule &S) {
  return ppspFresh(G, Source, Target, S);
}

PPSPResult graphit::pointToPointShortestPath(const Graph &G,
                                             VertexId Source,
                                             VertexId Target,
                                             const Schedule &S,
                                             DistanceState &State,
                                             const RunLimits &Limits) {
  return ppspPooled(G, Source, Target, S, State, Limits);
}

PPSPResult graphit::pointToPointShortestPath(const DeltaGraph &G,
                                             VertexId Source,
                                             VertexId Target,
                                             const Schedule &S) {
  return ppspFresh(G, Source, Target, S);
}

PPSPResult graphit::pointToPointShortestPath(const DeltaGraph &G,
                                             VertexId Source,
                                             VertexId Target,
                                             const Schedule &S,
                                             DistanceState &State,
                                             const RunLimits &Limits) {
  return ppspPooled(G, Source, Target, S, State, Limits);
}

PPSPResult graphit::pointToPointShortestPath(const ShardedDeltaView &G,
                                             VertexId Source,
                                             VertexId Target,
                                             const Schedule &S) {
  return ppspFresh(G, Source, Target, S);
}

PPSPResult graphit::pointToPointShortestPath(const ShardedDeltaView &G,
                                             VertexId Source,
                                             VertexId Target,
                                             const Schedule &S,
                                             DistanceState &State,
                                             const RunLimits &Limits) {
  return ppspPooled(G, Source, Target, S, State, Limits);
}
