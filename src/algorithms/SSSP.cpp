//===- algorithms/SSSP.cpp - Δ-stepping shortest paths --------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "algorithms/SSSP.h"

#include "algorithms/DistanceEngine.h"
#include "algorithms/QueryState.h"
#include "graph/DeltaGraph.h"

using namespace graphit;

namespace {

template <typename GraphT>
SSSPResult ssspFresh(const GraphT &G, VertexId Source, const Schedule &S) {
  detail::DistanceRun R = detail::runDistanceAlgorithm(
      G, Source, S, [](VertexId) { return Priority{0}; },
      [](int64_t) { return false; });
  return SSSPResult{std::move(R.Dist), R.Stats};
}

template <typename GraphT>
OrderedStats ssspPooled(const GraphT &G, VertexId Source, const Schedule &S,
                        DistanceState &State,
                        const CancelToken *Cancel = nullptr) {
  State.beginQuery(Source);
  DistanceState::RunTouch Touch = State.makeTouchFn();
  OrderedStats Stats = detail::distanceOrderedRun(
      G, Source, State.distances(), S, [](VertexId) { return Priority{0}; },
      [](int64_t) { return false; }, Touch, Cancel);
  Touch.close();
  return Stats;
}

} // namespace

SSSPResult graphit::deltaSteppingSSSP(const Graph &G, VertexId Source,
                                      const Schedule &S) {
  return ssspFresh(G, Source, S);
}

OrderedStats graphit::deltaSteppingSSSP(const Graph &G, VertexId Source,
                                        const Schedule &S,
                                        DistanceState &State,
                                        const CancelToken *Cancel) {
  return ssspPooled(G, Source, S, State, Cancel);
}

SSSPResult graphit::deltaSteppingSSSP(const DeltaGraph &G, VertexId Source,
                                      const Schedule &S) {
  return ssspFresh(G, Source, S);
}

OrderedStats graphit::deltaSteppingSSSP(const DeltaGraph &G,
                                        VertexId Source, const Schedule &S,
                                        DistanceState &State,
                                        const CancelToken *Cancel) {
  return ssspPooled(G, Source, S, State, Cancel);
}

SSSPResult graphit::deltaSteppingSSSP(const ShardedDeltaView &G,
                                      VertexId Source, const Schedule &S) {
  return ssspFresh(G, Source, S);
}

OrderedStats graphit::deltaSteppingSSSP(const ShardedDeltaView &G,
                                        VertexId Source, const Schedule &S,
                                        DistanceState &State,
                                        const CancelToken *Cancel) {
  return ssspPooled(G, Source, S, State, Cancel);
}
