//===- graph/Graph.cpp - Compressed sparse row graphs ---------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "graph/Graph.h"

#include "graph/Builder.h"
#include "graph/Reorder.h"
#include "support/Abort.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cstdio>

using namespace graphit;

void graphit::checkEdgeOffsetLimit(Count Entries, const char *Producer) {
  if (Entries >= 0 && Entries <= kMaxEdgeOffset)
    return;
  char Message[160];
  std::snprintf(Message, sizeof(Message),
                "%s: %lld entries in one CSR direction exceed the 32-bit "
                "row offset limit of %lld",
                Producer, static_cast<long long>(Entries),
                static_cast<long long>(kMaxEdgeOffset));
  fatalError(Message);
}

int64_t Graph::outDegreeSum(const VertexId *Vs, Count N) const {
  if (N < 2048) {
    int64_t Sum = 0;
    for (Count I = 0; I < N; ++I)
      Sum += outDegree(Vs[I]);
    return Sum;
  }
  return parallelSum(0, N, [&](Count I) { return outDegree(Vs[I]); });
}

Graph Graph::symmetrized() const {
  if (Symmetric)
    return *this;
  std::vector<Edge> Edges;
  Edges.reserve(static_cast<size_t>(NumEdges));
  for (VertexId U = 0; U < static_cast<VertexId>(NumNodes); ++U)
    for (WNode E : outNeighbors(U))
      Edges.push_back(Edge{U, E.V, E.W});
  BuildOptions Options;
  Options.Symmetrize = true;
  Options.Weighted = isWeighted();
  Graph Result = GraphBuilder(Options).build(NumNodes, std::move(Edges));
  Result.Coords = Coords;
  return Result;
}

Graph Graph::permuted(const VertexMapping &Map) const {
  if (Map.size() != NumNodes)
    fatalError("Graph::permuted: mapping sized for a different graph");
  if (Map.isIdentity())
    return *this;

  Graph R;
  R.NumNodes = NumNodes;
  R.NumEdges = NumEdges;
  R.Symmetric = Symmetric;
  R.Weighted = Weighted;

  auto BuildDirection = [&](bool IsOut, CsrRows &New) {
    New.Offsets.resize(static_cast<size_t>(NumNodes) + 1);
    parallelFor(
        0, NumNodes,
        [&](Count I) {
          VertexId Old = Map.toExternal(static_cast<VertexId>(I));
          New.Offsets[I] =
              static_cast<EdgeOffset>(IsOut ? outDegree(Old) : inDegree(Old));
        },
        Parallelization::StaticVertexParallel);
    New.Offsets[NumNodes] = 0;
    const int64_t M = exclusivePrefixSum(New.Offsets.data(), NumNodes + 1);
    checkEdgeOffsetLimit(M, "Graph::permuted");
    if (Weighted)
      New.Adj.resize(static_cast<size_t>(M));
    else
      New.Ids.resize(static_cast<size_t>(M));
    parallelFor(0, NumNodes, [&](Count I) {
      VertexId Old = Map.toExternal(static_cast<VertexId>(I));
      NeighborRange Rg = IsOut ? outNeighbors(Old) : inNeighbors(Old);
      const size_t Base = New.Offsets[I];
      for (Count J = 0; J < Rg.size(); ++J) {
        VertexId NewNbr = Map.toInternal(Rg.id(J));
        if (Weighted)
          New.Adj[Base + J] = WNode{NewNbr, Rg.weight(J)};
        else
          New.Ids[Base + J] = NewNbr;
      }
      // Re-sort each row by new neighbor id: the same deterministic layout
      // GraphBuilder produces, independent of the permutation applied.
      if (Weighted)
        std::sort(New.Adj.begin() + Base, New.Adj.begin() + Base + Rg.size(),
                  adjacencyRowLess);
      else
        std::sort(New.Ids.begin() + Base, New.Ids.begin() + Base + Rg.size());
    });
  };

  BuildDirection(true, R.Out);
  if (!Symmetric && hasInEdges())
    BuildDirection(false, R.In);

  if (hasCoordinates()) {
    R.Coords.X.resize(static_cast<size_t>(NumNodes));
    R.Coords.Y.resize(static_cast<size_t>(NumNodes));
    parallelFor(
        0, NumNodes,
        [&](Count I) {
          VertexId Old = Map.toExternal(static_cast<VertexId>(I));
          R.Coords.X[I] = Coords.X[Old];
          R.Coords.Y[I] = Coords.Y[Old];
        },
        Parallelization::StaticVertexParallel);
  }
  return R;
}
