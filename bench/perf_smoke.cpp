//===- bench/perf_smoke.cpp - Machine-readable perf trajectory ------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Runs a fixed set of small, generated workloads and emits one line of
// JSON per workload:
//
//   {"bench": "<name>"[, "ordering": "<layout>"], "build_s": <one-time
//    graph build/reorder cost>, "seconds": <best solve wall-clock>,
//    "check": <int64>}
//
// The output is the repository's perf trajectory: each PR appends a run to
// BENCH_<host>.json so regressions in the ordered engines show up as a
// diff, not an anecdote. Workloads are sized to finish in seconds; the
// `check` field is a result checksum so a "speedup" that breaks answers is
// caught immediately. `build_s` is kept out of `seconds` so the perf gate
// never conflates one-time layout cost with steady-state solve speed.
//
// The reordered variants (`ordering` field) run the same workload on a
// cache-conscious vertex layout (graph/Reorder.h); their checksums must
// equal the identity-layout value (the checksum is a sum over vertices,
// so it is permutation-invariant) or the bench aborts.
//
// `sssp_road_pooled` is the `sssp_road_eager` solve through one reused
// `DistanceState` (the pooled path library callers and the update bench's
// recompute take), so the gate sees the state's reset and touch marking;
// its `check` must equal `sssp_road_eager`'s or the bench aborts.
//
// The `build_*` lines time CSR construction itself: `seconds` is the best
// of five `GraphBuilder::build` calls on copies of one edge list, and
// `check` hashes the graph's edge count and every row, which must come
// out the same on every call.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "algorithms/KCore.h"
#include "algorithms/QueryState.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "graph/Reorder.h"
#include "support/Abort.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>

using namespace graphit;
using namespace graphit::bench;

namespace {

Graph rmatGraph() {
  std::vector<Edge> Edges = rmatEdges(16, 16, 12345);
  assignRandomWeights(Edges, 1, 256, 999);
  return GraphBuilder().build(Count{1} << 16, Edges);
}

Graph roadGraph() {
  RoadNetwork Net = roadGrid(600, 600, 4242);
  BuildOptions Options;
  Options.Symmetrize = true;
  return GraphBuilder(Options).build(Net.NumNodes, Net.Edges);
}

/// Hash of \p G's edge count and every out- and in-row, in order.
int64_t graphChecksum(const Graph &G) {
  uint64_t H = hash64(static_cast<uint64_t>(G.numEdges()));
  auto Row = [&H](const Graph::NeighborRange &R) {
    H = hash64(H ^ static_cast<uint64_t>(R.size()));
    for (WNode E : R)
      H = hash64(H ^ ((static_cast<uint64_t>(E.V) << 32) |
                      static_cast<uint32_t>(E.W)));
  };
  for (VertexId V = 0; V < static_cast<VertexId>(G.numNodes()); ++V) {
    Row(G.outNeighbors(V));
    if (G.hasInEdges() && !G.isSymmetric())
      Row(G.inNeighbors(V));
  }
  return static_cast<int64_t>(H >> 1);
}

/// Emits the best of five builds of \p Edges under \p Options; aborts if
/// two builds differ.
void buildLine(const char *Name, Count NumNodes,
               const std::vector<Edge> &Edges, BuildOptions Options) {
  double Best = 1e30;
  int64_t Check = 0;
  for (int T = 0; T < 5; ++T) {
    std::vector<Edge> Copy = Edges;
    Timer Clock;
    Graph G = GraphBuilder(Options).build(NumNodes, std::move(Copy));
    Best = std::min(Best, Clock.seconds());
    const int64_t Sum = graphChecksum(G);
    if (T > 0 && Sum != Check)
      fatalError("perf_smoke: two builds of one edge list differ");
    Check = Sum;
  }
  emitBench(Name, Best, Check);
}

/// Runs SSSP on a reordered copy of \p G and emits the line; aborts if the
/// checksum diverges from \p ReferenceCheck.
void reorderedVariant(const char *Name, const Graph &G, VertexId Source,
                      const Schedule &S, ReorderKind Kind,
                      int64_t ReferenceCheck) {
  Timer BuildClock;
  VertexMapping Map;
  Graph P = reorderGraph(G, Kind, &Map, /*Seed=*/0x0EDE5,
                         /*SourceHint=*/Source);
  double BuildSeconds = BuildClock.seconds();
  int64_t Check = 0;
  double T = timeBest([&] {
    Check = resultChecksum(deltaSteppingSSSP(P, Map.toInternal(Source), S).Dist);
  });
  if (Check != ReferenceCheck)
    fatalError("perf_smoke: reordered checksum diverged");
  emitBench(Name, T, Check, BuildSeconds, reorderKindName(Kind));
}

} // namespace

int main() {
  // SSSP on an RMAT graph: small delta, fused eager engine. The degree
  // layout packs the hubs — the classic skewed-graph win.
  {
    Timer BuildClock;
    Graph G = rmatGraph();
    double BuildSeconds = BuildClock.seconds();
    Schedule S;
    S.configApplyPriorityUpdateDelta(2);
    int64_t Check = 0;
    double T = timeBest(
        [&] { Check = resultChecksum(deltaSteppingSSSP(G, 3, S).Dist); });
    emitBench("sssp_rmat_eager", T, Check, BuildSeconds);
    reorderedVariant("sssp_rmat_eager", G, 3, S, ReorderKind::Degree, Check);
  }

  // SSSP on a road-like grid: large delta, where bucket fusion and cheap
  // next-bucket selection dominate (many near-empty rounds). The BFS
  // layout makes each Δ-bucket's wavefront a contiguous id band.
  {
    Timer BuildClock;
    Graph G = roadGraph();
    double BuildSeconds = BuildClock.seconds();
    Schedule S;
    S.configApplyPriorityUpdateDelta(8192);
    int64_t Check = 0;
    double T = timeBest(
        [&] { Check = resultChecksum(deltaSteppingSSSP(G, 0, S).Dist); });
    emitBench("sssp_road_eager", T, Check, BuildSeconds);
    reorderedVariant("sssp_road_eager", G, 0, S, ReorderKind::Bfs, Check);

    DistanceState State(G.numNodes());
    int64_t PooledCheck = 0;
    double TP = timeBest([&] {
      deltaSteppingSSSP(G, 0, S, State);
      PooledCheck = resultChecksum(State.distances());
    });
    if (PooledCheck != Check)
      fatalError("perf_smoke: pooled checksum diverged");
    emitBench("sssp_road_pooled", TP, PooledCheck, BuildSeconds);

    Schedule Lazy;
    Lazy.configApplyPriorityUpdate("lazy").configApplyPriorityUpdateDelta(
        8192);
    double TL = timeBest(
        [&] { Check = resultChecksum(deltaSteppingSSSP(G, 0, Lazy).Dist); });
    emitBench("sssp_road_lazy", TL, Check, BuildSeconds);
  }

  // k-core on a symmetrized RMAT graph: lazy and histogram strategies.
  {
    Timer BuildClock;
    BuildOptions Options;
    Options.Symmetrize = true;
    Options.Weighted = false;
    Graph G =
        GraphBuilder(Options).build(Count{1} << 15, rmatEdges(15, 16, 777));
    double BuildSeconds = BuildClock.seconds();
    for (const char *Spec : {"lazy", "lazy_constant_sum"}) {
      Schedule S = Schedule::parse(Spec);
      int64_t Check = 0;
      double T = timeBest(
          [&] { Check = resultChecksum(kCoreDecomposition(G, S).Coreness); });
      emitBench(std::string("kcore_") + Spec, T, Check, BuildSeconds);
    }
  }

  // CSR construction: the symmetrized road grid, and the directed R-MAT
  // list with its duplicate edges, deduplicated and with in-edges.
  {
    BuildOptions Options;
    Options.Symmetrize = true;
    RoadNetwork Net = roadGrid(600, 600, 4242);
    buildLine("build_road_sym", Net.NumNodes, Net.Edges, Options);
    std::vector<Edge> Edges = rmatEdges(16, 16, 12345);
    assignRandomWeights(Edges, 1, 256, 999);
    buildLine("build_rmat_dir", Count{1} << 16, Edges, BuildOptions());
  }
  return 0;
}
