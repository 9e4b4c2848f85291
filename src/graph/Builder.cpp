//===- graph/Builder.cpp - Edge-list to CSR construction ------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "graph/Builder.h"

#include "support/Abort.h"
#include "support/Atomics.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <algorithm>
#include <functional>

using namespace graphit;

namespace {

/// Builds one CSR direction: offsets plus either a packed id array
/// (unweighted) or an interleaved (id, weight) array (weighted — one
/// stream per adjacency row instead of two).
struct CSRArrays {
  std::vector<int64_t> Offsets;
  std::vector<VertexId> Ids; ///< unweighted layout
  std::vector<WNode> Adj;    ///< weighted (interleaved) layout
};

/// Drops parallel edges from the sorted rows of one CSR direction (either
/// layout). A row is sorted by neighbor, then weight, so each neighbor's
/// first entry is its lightest; `unique` keeps that one. The survivors
/// are then packed into an exactly-sized array.
template <typename Entry, typename SameNeighborFn>
void removeParallelEdges(Count NumNodes, std::vector<int64_t> &Offsets,
                         std::vector<Entry> &Rows, SameNeighborFn Same) {
  std::vector<int64_t> Kept(static_cast<size_t>(NumNodes) + 1, 0);
  parallelFor(0, NumNodes, [&](Count V) {
    auto Lo = Rows.begin() + Offsets[V];
    Kept[V] = std::unique(Lo, Rows.begin() + Offsets[V + 1], Same) - Lo;
  });
  const int64_t Total = exclusivePrefixSum(Kept.data(), NumNodes + 1);
  if (Total == Offsets[NumNodes])
    return; // no parallel edges
  std::vector<Entry> Packed(static_cast<size_t>(Total));
  parallelFor(0, NumNodes, [&](Count V) {
    std::copy_n(Rows.begin() + Offsets[V], Kept[V + 1] - Kept[V],
                Packed.begin() + Kept[V]);
  });
  Offsets = std::move(Kept);
  Rows = std::move(Packed);
}

CSRArrays buildDirection(Count NumNodes, const std::vector<Edge> &Edges,
                         bool Out, bool Weighted, bool Dedup) {
  CSRArrays R;
  Count M = static_cast<Count>(Edges.size());
  R.Offsets.assign(NumNodes + 1, 0);
  // Count degrees (atomically; edge lists are unsorted).
  parallelFor(
      0, M,
      [&](Count I) {
        VertexId Key = Out ? Edges[I].Src : Edges[I].Dst;
        fetchAdd<int64_t>(&R.Offsets[Key], 1);
      },
      Parallelization::StaticVertexParallel);
  exclusivePrefixSum(R.Offsets.data(), NumNodes + 1);

  if (Weighted)
    R.Adj.resize(M);
  else
    R.Ids.resize(M);
  std::vector<int64_t> Cursor(R.Offsets.begin(), R.Offsets.end() - 1);
  parallelFor(
      0, M,
      [&](Count I) {
        VertexId Key = Out ? Edges[I].Src : Edges[I].Dst;
        VertexId Val = Out ? Edges[I].Dst : Edges[I].Src;
        int64_t Pos = fetchAdd<int64_t>(&Cursor[Key], 1);
        if (Weighted)
          R.Adj[Pos] = WNode{Val, Edges[I].W};
        else
          R.Ids[Pos] = Val;
      },
      Parallelization::StaticVertexParallel);

  // Sort each adjacency list by neighbor id (stable output independent of
  // thread interleaving above).
  parallelFor(0, NumNodes, [&](Count V) {
    int64_t Lo = R.Offsets[V], Hi = R.Offsets[V + 1];
    if (Hi - Lo < 2)
      return;
    if (!Weighted) {
      std::sort(R.Ids.begin() + Lo, R.Ids.begin() + Hi);
      return;
    }
    std::sort(R.Adj.begin() + Lo, R.Adj.begin() + Hi, adjacencyRowLess);
  });
  if (Dedup && Weighted)
    removeParallelEdges(NumNodes, R.Offsets, R.Adj,
                        [](const WNode &A, const WNode &B) {
                          return A.V == B.V;
                        });
  else if (Dedup)
    removeParallelEdges(NumNodes, R.Offsets, R.Ids,
                        std::equal_to<VertexId>());
  return R;
}

} // namespace

void graphit::assignRandomWeights(std::vector<Edge> &Edges, Weight Lo,
                                  Weight Hi, uint64_t Seed) {
  if (Lo >= Hi)
    fatalError("assignRandomWeights: empty weight range");
  Count M = static_cast<Count>(Edges.size());
  parallelFor(
      0, M,
      [&](Count I) {
        // Hash of (seed, endpoints) so the weight of an edge does not depend
        // on its position in the list.
        uint64_t H = hash64(Seed ^ hash64((static_cast<uint64_t>(
                                               Edges[I].Src)
                                           << 32) |
                                          Edges[I].Dst));
        Edges[I].W = static_cast<Weight>(Lo + H % (Hi - Lo));
      },
      Parallelization::StaticVertexParallel);
}

Graph GraphBuilder::build(Count NumNodes, std::vector<Edge> Edges,
                          Coordinates Coords) const {
  Graph G = build(NumNodes, std::move(Edges));
  if (!Coords.empty() && Coords.size() != NumNodes)
    fatalError("GraphBuilder: coordinate count != vertex count");
  G.Coords = std::move(Coords);
  return G;
}

Graph GraphBuilder::build(Count NumNodes, std::vector<Edge> Edges) const {
  for (const Edge &E : Edges)
    if (E.Src >= static_cast<VertexId>(NumNodes) ||
        E.Dst >= static_cast<VertexId>(NumNodes))
      fatalError("GraphBuilder: edge endpoint out of range");

  if (Options.Symmetrize) {
    size_t N = Edges.size();
    Edges.reserve(2 * N);
    for (size_t I = 0; I < N; ++I)
      Edges.push_back(Edge{Edges[I].Dst, Edges[I].Src, Edges[I].W});
  }

  if (Options.RemoveSelfLoops) {
    Edges.erase(std::remove_if(Edges.begin(), Edges.end(),
                               [](const Edge &E) { return E.Src == E.Dst; }),
                Edges.end());
  }

  // Parallel edges are dropped from each CSR row once it is sorted
  // (removeParallelEdges); both directions keep the minimum weight of
  // each (u, v) pair.
  Graph G;
  G.NumNodes = NumNodes;
  G.Symmetric = Options.Symmetrize;
  G.Weighted = Options.Weighted && !Edges.empty();

  CSRArrays OutDir = buildDirection(NumNodes, Edges, /*Out=*/true,
                                    G.Weighted, Options.RemoveDuplicates);
  G.NumEdges = static_cast<Count>(OutDir.Offsets.back());
  G.OutOffsets = std::move(OutDir.Offsets);
  G.OutIds = std::move(OutDir.Ids);
  G.OutAdj = std::move(OutDir.Adj);

  if (!Options.Symmetrize && Options.BuildInEdges) {
    CSRArrays InDir = buildDirection(NumNodes, Edges, /*Out=*/false,
                                     G.Weighted, Options.RemoveDuplicates);
    G.InOffsets = std::move(InDir.Offsets);
    G.InIds = std::move(InDir.Ids);
    G.InAdj = std::move(InDir.Adj);
  }
  return G;
}
