//===- algorithms/BellmanFord.cpp - Unordered SSSP baseline ---------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "algorithms/BellmanFord.h"

#include "support/Abort.h"
#include "support/Atomics.h"
#include "support/Timer.h"

using namespace graphit;

SSSPResult graphit::bellmanFordSSSP(const Graph &G, VertexId Source,
                                    Direction Dir) {
  SSSPResult R;
  R.Dist.assign(static_cast<size_t>(G.numNodes()), kInfiniteDistance);
  R.Dist[Source] = 0;
  std::vector<Priority> &Dist = R.Dist;

  Timer Clock;
  TraversalBuffers Buffers(G);
  std::vector<VertexId> Frontier = {Source};

  auto Push = [&](VertexId S, VertexId D, Weight W) {
    return atomicWriteMin(&Dist[D], atomicLoadRelaxed(&Dist[S]) + W);
  };
  auto Pull = [&](VertexId S, VertexId D, Weight W) {
    Priority ND = atomicLoad(&Dist[S]) + W;
    if (ND < Dist[D]) {
      // D is thread-owned in a pull round but read concurrently as a
      // source by other threads.
      atomicStoreRelaxed(&Dist[D], ND);
      return true;
    }
    return false;
  };

  while (!Frontier.empty()) {
    ++R.Stats.Rounds;
    R.Stats.VerticesProcessed += static_cast<int64_t>(Frontier.size());
    const std::vector<VertexId> &Changed =
        edgeApplyOut(G, Frontier, Dir,
                     Parallelization::DynamicVertexParallel, Buffers, Push,
                     Pull);
    Frontier.assign(Changed.begin(), Changed.end());
    if (R.Stats.Rounds > G.numNodes() + 1)
      fatalError("bellmanFordSSSP: negative cycle or corrupt state");
  }
  R.Stats.Seconds = Clock.seconds();
  return R;
}
