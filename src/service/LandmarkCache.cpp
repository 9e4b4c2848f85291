//===- service/LandmarkCache.cpp - ALT landmark heuristic -----------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/LandmarkCache.h"

#include "algorithms/SSSP.h"
#include "support/Abort.h"
#include "support/Parallel.h"

#include <algorithm>

using namespace graphit;
using namespace graphit::service;

LandmarkCache::LandmarkCache(std::shared_ptr<const Graph> GPtr,
                             int NumLandmarks, const Schedule &S,
                             VertexId ProbeStart)
    : LandmarkCache(*GPtr, NumLandmarks, S, ProbeStart) {
  Owned = std::move(GPtr);
}

LandmarkCache::LandmarkCache(const Graph &Gr, int NumLandmarks,
                             const Schedule &S, VertexId ProbeStart)
    : G(Gr), UseCoordinates(Gr.hasCoordinates()) {
  Count N = G.numNodes();
  if (N == 0 || NumLandmarks <= 0)
    return;
  // Cap: more landmarks than this stops paying for itself long before
  // (each adds a full SSSP of preprocessing and two loads per estimate),
  // and estimate()'s stack snapshot is sized for it.
  NumLandmarks = static_cast<int>(
      std::min<Count>(std::min(NumLandmarks, 64), N));

  // Farthest-point sampling. A probe SSSP finds a peripheral first
  // landmark; afterwards each landmark's real distance vector doubles as
  // the sampling metric (min over chosen landmarks, maximized).
  std::vector<Priority> MinDist(static_cast<size_t>(N),
                                kInfiniteDistance);
  // Distance 0 is excluded so an already-chosen landmark (MinDist == 0)
  // can never be picked again: on a disconnected graph the probe's
  // component runs out of candidates before the budget does, and without
  // this the sampler would re-select the same vertex and burn a full
  // redundant SSSP per duplicate. Exhaustion returns kInvalidVertex and
  // stops the loop (components unreachable from the probe get no
  // landmarks — their pairs simply fall back to the coordinate bound).
  auto FarthestFinite = [&](const std::vector<Priority> &D) {
    VertexId Best = kInvalidVertex;
    Priority BestDist = 0;
    for (Count V = 0; V < N; ++V)
      if (D[V] < kInfiniteDistance && D[V] > BestDist) {
        BestDist = D[V];
        Best = static_cast<VertexId>(V);
      }
    return Best;
  };

  SSSPResult Probe = deltaSteppingSSSP(G, ProbeStart, S);
  VertexId Next = FarthestFinite(Probe.Dist);
  if (Next == kInvalidVertex)
    Next = ProbeStart; // isolated start: fall back to the probe vertex

  for (int L = 0; L < NumLandmarks; ++L) {
    SSSPResult R = deltaSteppingSSSP(G, Next, S);
    Landmarks.push_back(Next);
    DistFrom.push_back(std::move(R.Dist));
    const std::vector<Priority> &D = DistFrom.back();
    parallelFor(
        0, N, [&](Count V) { MinDist[V] = std::min(MinDist[V], D[V]); },
        Parallelization::StaticVertexParallel);
    Next = FarthestFinite(MinDist);
    if (Next == kInvalidVertex)
      break; // graph smaller than the landmark budget
  }
}

bool LandmarkCache::admits(VertexId U, VertexId V, Weight W) const {
  const Count N = G.numNodes();
  if (static_cast<Count>(U) >= N || static_cast<Count>(V) >= N)
    return false;
  // Parallel edges compare against the lightest: the bounds were computed
  // on the shortest U → V hop.
  auto HasEdgeAtMost = [&](VertexId From, VertexId To) {
    for (WNode E : G.outNeighbors(From))
      if (E.V == To && E.W <= W)
        return true;
    return false;
  };
  return HasEdgeAtMost(U, V) && (!G.isSymmetric() || HasEdgeAtMost(V, U));
}

Priority LandmarkCache::estimateWith(const Priority *TargetDist, VertexId V,
                                     VertexId Target) const {
  Priority Best =
      UseCoordinates ? aStarHeuristic(G, V, Target) : Priority{0};
  for (size_t L = 0; L < DistFrom.size(); ++L) {
    Priority DT = TargetDist[L];
    Priority DV = DistFrom[L][V];
    if (DT >= kInfiniteDistance) {
      // The landmark reaches V but not Target: any V → Target path would
      // extend a landmark → Target path, so none exists.
      if (DV < kInfiniteDistance)
        return kUnreachableBound;
      continue; // landmark reaches neither; no information
    }
    if (DV >= kInfiniteDistance)
      continue; // no bound from this landmark
    Best = std::max(Best, DT - DV);
  }
  return Best;
}

Priority LandmarkCache::estimate(VertexId V, VertexId Target) const {
  Priority TargetDist[64];
  size_t K = std::min<size_t>(DistFrom.size(), 64);
  for (size_t L = 0; L < K; ++L)
    TargetDist[L] = DistFrom[L][Target];
  return estimateWith(TargetDist, V, Target);
}

LandmarkCache::TargetBound::TargetBound(const LandmarkCache &C,
                                        VertexId Target)
    : Cache(C) {
  TargetDist.reserve(C.DistFrom.size());
  for (const std::vector<Priority> &D : C.DistFrom)
    TargetDist.push_back(D[Target]);
}

Priority LandmarkCache::TargetBound::estimate(VertexId V,
                                              VertexId Target) const {
  return Cache.estimateWith(TargetDist.data(), V, Target);
}
