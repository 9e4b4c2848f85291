//===- algorithms/QueryState.cpp - Reusable per-query state ---------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "algorithms/QueryState.h"

#include "support/Atomics.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cassert>

using namespace graphit;

DistanceState::DistanceState(Count NumNodes, bool WithParents)
    : Dist(static_cast<size_t>(NumNodes), kInfiniteDistance),
      Parent(WithParents ? static_cast<size_t>(NumNodes) : 0,
             kInvalidVertex),
      Stamp(static_cast<size_t>(NumNodes), 0),
      Touched(static_cast<size_t>(NumNodes)), TrackParents(WithParents) {}

void DistanceState::resize(Count NewNumNodes) {
  if (NewNumNodes <= numNodes())
    return;
  size_t N = static_cast<size_t>(NewNumNodes);
  Dist.resize(N, kInfiniteDistance);
  if (TrackParents)
    Parent.resize(N, kInvalidVertex);
  // Stamp 0 can never alias the live epoch: beginQuery keeps Epoch >= 1
  // once any query ran, and with Epoch == 0 no improvement has been
  // recorded yet.
  Stamp.resize(N, 0);
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

  ++Epoch;
  if (Epoch == 0) {
    // The 32-bit epoch wrapped (once per ~4 billion queries): a vertex
    // last stamped exactly 2^32 queries ago would alias the new epoch and
    // silently skip the touched log, so clear all stamps once.
    std::fill(Stamp.begin(), Stamp.end(), 0u);
    Epoch = 1;
  }
  ++QueriesBegun;

  Source_ = Source;
  Dist[Source] = 0;
  recordImprovementSerial(Source, Source);
}

void DistanceState::recordImprovement(VertexId V, VertexId From) {
  if (TrackParents)
    atomicStoreRelaxed(&Parent[V], From);
  uint32_t Cur = Epoch;
  if (atomicLoadRelaxed(&Stamp[V]) != Cur &&
      atomicExchange(&Stamp[V], Cur) != Cur)
    Touched[static_cast<size_t>(fetchAdd(&NumTouched, Count{1}))] = V;
}

void DistanceState::rebuildCutOff(const std::vector<VertexId> &Invalidated) {
  size_t Kept = 0;
  for (VertexId V : CutOff)
    if (Dist[V] >= kInfiniteDistance)
      CutOff[Kept++] = V;
  CutOff.resize(Kept);
  // Invalidated vertices were finite before the repair, so none is on the
  // old list: the union has no duplicates.
  for (VertexId V : Invalidated) {
    assert(Stamp[V] == Epoch && "an invalidated vertex must be logged");
    if (Dist[V] >= kInfiniteDistance)
      CutOff.push_back(V);
  }
}
