//===- algorithms/QueryState.cpp - Reusable per-query state ---------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "algorithms/QueryState.h"

#include "support/Atomics.h"
#include "support/Parallel.h"

#include <cassert>

using namespace graphit;

DistanceState::DistanceState(Count NumNodes, bool WithParents)
    : Dist(static_cast<size_t>(NumNodes), kInfiniteDistance),
      Parent(WithParents ? static_cast<size_t>(NumNodes) : 0,
             kInvalidVertex),
      Touched(static_cast<size_t>(NumNodes)), TrackParents(WithParents) {}

void DistanceState::resize(Count NewNumNodes) {
  if (NewNumNodes <= numNodes())
    return;
  size_t N = static_cast<size_t>(NewNumNodes);
  Dist.resize(N, kInfiniteDistance);
  if (TrackParents)
    Parent.resize(N, kInvalidVertex);
  Touched.resize(N);
}

void DistanceState::beginQuery(VertexId Source) {
  // O(touched): only the slots the previous query dirtied are reset.
  parallelFor(
      0, NumTouched,
      [&](Count I) {
        VertexId V = Touched[static_cast<size_t>(I)];
        Dist[V] = kInfiniteDistance;
        if (TrackParents)
          Parent[V] = kInvalidVertex;
      },
      Parallelization::StaticVertexParallel);
  NumTouched = 0;
  CutOff.clear();
  ++QueriesBegun;

  Source_ = Source;
  Dist[Source] = 0;
  recordImprovementSerial(Source, Source, /*First=*/true);
}

void DistanceState::recordImprovement(VertexId V, VertexId From,
                                      bool First) {
  if (TrackParents)
    atomicStoreRelaxed(&Parent[V], From);
  if (First) {
    Count Slot = fetchAdd(&NumTouched, Count{1});
    assert(Slot < numNodes() && "a vertex was logged twice");
    Touched[static_cast<size_t>(Slot)] = V;
  }
}

void DistanceState::rebuildCutOff(const std::vector<VertexId> &Invalidated) {
  size_t Kept = 0;
  for (VertexId V : CutOff)
    if (Dist[V] >= kInfiniteDistance)
      CutOff[Kept++] = V;
  CutOff.resize(Kept);
  // Invalidated vertices were finite before the repair, so none is on the
  // old list: the union has no duplicates.
  for (VertexId V : Invalidated)
    if (Dist[V] >= kInfiniteDistance)
      CutOff.push_back(V);
}
