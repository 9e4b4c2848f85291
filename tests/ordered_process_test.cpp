//===- tests/ordered_process_test.cpp - Eager engine unit tests -----------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Exercises eagerOrderedProcess directly with a hand-rolled delta-stepping
// relaxation, independent of the algorithm layer built on top of it.
//
//===----------------------------------------------------------------------===//

#include "core/OrderedProcess.h"

#include "graph/Builder.h"
#include "graph/Generators.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <queue>

using namespace graphit;

namespace {

/// Minimal serial Dijkstra for ground truth.
std::vector<Priority> dijkstraRef(const Graph &G, VertexId Src) {
  std::vector<Priority> Dist(G.numNodes(), kInfiniteDistance);
  Dist[Src] = 0;
  using Item = std::pair<Priority, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> PQ;
  PQ.push({0, Src});
  while (!PQ.empty()) {
    auto [D, U] = PQ.top();
    PQ.pop();
    if (D > Dist[U])
      continue;
    for (WNode E : G.outNeighbors(U))
      if (D + E.W < Dist[E.V]) {
        Dist[E.V] = D + E.W;
        PQ.push({Dist[E.V], E.V});
      }
  }
  return Dist;
}

/// Runs delta-stepping through the eager engine and returns distances.
std::vector<Priority> runEager(const Graph &G, VertexId Src,
                               const Schedule &S,
                               OrderedStats *Stats = nullptr) {
  std::vector<Priority> Dist(G.numNodes(), kInfiniteDistance);
  Dist[Src] = 0;
  int64_t Delta = S.Delta;
  auto Relax = [&](VertexId U, int64_t CurrKey, auto &&Push) {
    // Relaxed atomic pre-checks: concurrent relaxations CAS these slots.
    Priority DU = atomicLoadRelaxed(&Dist[U]);
    if (DU / Delta < CurrKey)
      return; // stale entry, already settled in an earlier bucket
    for (WNode E : G.outNeighbors(U)) {
      Priority ND = DU + E.W;
      if (ND < atomicLoadRelaxed(&Dist[E.V]) &&
          atomicWriteMin(&Dist[E.V], ND))
        Push(E.V, ND / Delta);
    }
  };
  eagerOrderedProcess(G.numNodes(), Src, 0, S, Relax,
                      [](int64_t) { return false; }, Stats);
  return Dist;
}

/// Sets the OpenMP thread count for one test case and restores the
/// previous count when the case ends, pass or fail.
class ScopedThreads {
public:
  explicit ScopedThreads(int Threads) : Saved(getNumWorkers()) {
    setNumWorkers(Threads);
  }
  ~ScopedThreads() { setNumWorkers(Saved); }

private:
  int Saved;
};

struct EagerCase {
  const char *Name;
  UpdateStrategy Update;
  int64_t Delta;
};

class EagerEngineTest : public ::testing::TestWithParam<EagerCase> {};

Schedule makeSchedule(const EagerCase &C) {
  Schedule S;
  S.Update = C.Update;
  S.Delta = C.Delta;
  return S;
}

} // namespace

TEST_P(EagerEngineTest, PathGraph) {
  Graph G = GraphBuilder().build(6, pathEdges(6));
  std::vector<Priority> Dist = runEager(G, 0, makeSchedule(GetParam()));
  for (Count V = 0; V < 6; ++V)
    EXPECT_EQ(Dist[V], V);
}

TEST_P(EagerEngineTest, DisconnectedVerticesStayInfinite) {
  Graph G = GraphBuilder().build(5, {{0, 1, 3}});
  std::vector<Priority> Dist = runEager(G, 0, makeSchedule(GetParam()));
  EXPECT_EQ(Dist[1], 3);
  EXPECT_EQ(Dist[2], kInfiniteDistance);
  EXPECT_EQ(Dist[4], kInfiniteDistance);
}

TEST_P(EagerEngineTest, SingleVertexGraph) {
  Graph G = GraphBuilder().build(1, {});
  std::vector<Priority> Dist = runEager(G, 0, makeSchedule(GetParam()));
  EXPECT_EQ(Dist[0], 0);
}

TEST_P(EagerEngineTest, MatchesDijkstraOnRmat) {
  std::vector<Edge> Edges = rmatEdges(12, 8, 77);
  assignRandomWeights(Edges, 1, 100, 7);
  Graph G = GraphBuilder().build(Count{1} << 12, Edges);
  std::vector<Priority> Expected = dijkstraRef(G, 5);
  EXPECT_EQ(runEager(G, 5, makeSchedule(GetParam())), Expected);
}

TEST_P(EagerEngineTest, MatchesDijkstraOnRoadGrid) {
  RoadNetwork Net = roadGrid(40, 40, 11);
  BuildOptions Options;
  Options.Symmetrize = true;
  Graph G = GraphBuilder(Options).build(Net.NumNodes, Net.Edges);
  std::vector<Priority> Expected = dijkstraRef(G, 0);
  EXPECT_EQ(runEager(G, 0, makeSchedule(GetParam())), Expected);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndDeltas, EagerEngineTest,
    ::testing::Values(
        EagerCase{"FusionDelta1", UpdateStrategy::EagerWithFusion, 1},
        EagerCase{"FusionDelta8", UpdateStrategy::EagerWithFusion, 8},
        EagerCase{"FusionDelta1000", UpdateStrategy::EagerWithFusion, 1000},
        EagerCase{"NoFusionDelta1", UpdateStrategy::EagerNoFusion, 1},
        EagerCase{"NoFusionDelta8", UpdateStrategy::EagerNoFusion, 8},
        EagerCase{"NoFusionDelta1000", UpdateStrategy::EagerNoFusion,
                  1000}),
    [](const auto &Info) { return Info.param.Name; });

TEST(EagerEngine, FusionReducesGlobalRounds) {
  // A long path with delta > 1 forces many same-bucket rounds that fusion
  // executes locally.
  Graph G = GraphBuilder().build(2000, pathEdges(2000));
  Schedule Fused;
  Fused.Update = UpdateStrategy::EagerWithFusion;
  Fused.Delta = 64;
  Schedule Plain = Fused;
  Plain.Update = UpdateStrategy::EagerNoFusion;

  OrderedStats FusedStats, PlainStats;
  std::vector<Priority> A = runEager(G, 0, Fused, &FusedStats);
  std::vector<Priority> B = runEager(G, 0, Plain, &PlainStats);
  EXPECT_EQ(A, B);
  EXPECT_LT(FusedStats.Rounds, PlainStats.Rounds / 4)
      << "fusion should collapse same-bucket rounds";
  EXPECT_GT(FusedStats.FusedRounds, 0);
  EXPECT_EQ(PlainStats.FusedRounds, 0);
}

TEST(EagerEngine, StopPredicateCutsExecution) {
  // Stop as soon as the current bucket's key reaches 5: distances beyond
  // that bucket must remain unsettled on a path graph with delta=1.
  Graph G = GraphBuilder().build(100, pathEdges(100));
  std::vector<Priority> Dist(G.numNodes(), kInfiniteDistance);
  Dist[0] = 0;
  Schedule S;
  S.Update = UpdateStrategy::EagerWithFusion;
  auto Relax = [&](VertexId U, int64_t CurrKey, auto &&Push) {
    if (Dist[U] < CurrKey)
      return;
    for (WNode E : G.outNeighbors(U)) {
      Priority ND = Dist[U] + E.W;
      if (ND < Dist[E.V] && atomicWriteMin(&Dist[E.V], ND))
        Push(E.V, ND);
    }
  };
  OrderedStats Stats;
  eagerOrderedProcess(G.numNodes(), VertexId{0}, 0, S, Relax,
                      [](int64_t Key) { return Key >= 5; }, &Stats);
  EXPECT_EQ(Dist[4], 4);
  EXPECT_EQ(Dist[10], kInfiniteDistance);
  EXPECT_LE(Stats.Rounds, 7);
}

TEST(EagerEngine, TinyWindowSlidesAcrossWideKeyRange) {
  // A 4-bin window with delta=1 and weights up to 64 forces constant
  // overflow filing and migration while the window slides across tens of
  // thousands of distinct keys; results must match the default window.
  Count N = 2000;
  std::vector<Edge> Edges = pathEdges(N);
  for (size_t I = 0; I < Edges.size(); ++I)
    Edges[I].W = 1 + static_cast<Weight>(hash64(I) % 64);
  Graph G = GraphBuilder().build(N, Edges);
  std::vector<Priority> Expected = dijkstraRef(G, 0);

  for (UpdateStrategy U :
       {UpdateStrategy::EagerWithFusion, UpdateStrategy::EagerNoFusion}) {
    Schedule Tiny;
    Tiny.Update = U;
    Tiny.Delta = 1;
    Tiny.NumOpenBuckets = 4;
    OrderedStats Stats;
    EXPECT_EQ(runEager(G, 0, Tiny, &Stats), Expected);
    // Stats invariants: every vertex settles through a global or fused
    // round, and the totals add up.
    EXPECT_EQ(Stats.totalRounds(), Stats.Rounds + Stats.FusedRounds);
    EXPECT_GE(Stats.VerticesProcessed, N - 1);
    if (U == UpdateStrategy::EagerNoFusion) {
      EXPECT_EQ(Stats.FusedRounds, 0);
    }
  }
}

TEST(EagerEngine, WindowSizeDoesNotChangeResultsOrFusionAccounting) {
  // Bin recycling must be invisible: a window of 2 (minimum), the default
  // 128, and one larger than the whole key range produce identical
  // distances, and fusion still collapses same-bucket rounds under each.
  Graph G = GraphBuilder().build(3000, pathEdges(3000));
  std::vector<Priority> Expected = dijkstraRef(G, 0);
  for (int Buckets : {2, 128, 100000}) {
    Schedule S;
    S.Update = UpdateStrategy::EagerWithFusion;
    S.Delta = 64;
    S.NumOpenBuckets = Buckets;
    OrderedStats Stats;
    EXPECT_EQ(runEager(G, 0, S, &Stats), Expected) << Buckets;
    EXPECT_GT(Stats.FusedRounds, 0) << Buckets;
    EXPECT_LT(Stats.Rounds, 3000 / 64 + 4)
        << "fusion must keep global rounds near the bucket count";
  }
}

TEST(EagerEngine, RmatWithTinyWindowMatchesDijkstra) {
  std::vector<Edge> Edges = rmatEdges(11, 8, 99);
  assignRandomWeights(Edges, 1, 1000, 3);
  Graph G = GraphBuilder().build(Count{1} << 11, Edges);
  Schedule S;
  S.Update = UpdateStrategy::EagerWithFusion;
  S.Delta = 4;
  S.NumOpenBuckets = 3;
  EXPECT_EQ(runEager(G, 7, S), dijkstraRef(G, 7));
}

TEST(EagerEngine, VertexCountsAccumulate) {
  Graph G = GraphBuilder().build(50, pathEdges(50));
  Schedule S;
  S.Delta = 4;
  OrderedStats Stats;
  runEager(G, 0, S, &Stats);
  // Every vertex is processed at least once, via frontier or fusion.
  EXPECT_GE(Stats.VerticesProcessed, 49);
  EXPECT_GT(Stats.Seconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Round shares and stealing
//===----------------------------------------------------------------------===//

namespace {

/// Every share/steal configuration on \p G from \p Src must reproduce
/// Dijkstra exactly: thread counts 1-4 (one share each, so 2-4 steal),
/// fusion thresholds that fuse every bucket, the default, and none, and
/// Δ from unit buckets to buckets wider than most paths.
void expectSharesMatchDijkstra(const Graph &G, VertexId Src) {
  const std::vector<Priority> Expected = dijkstraRef(G, Src);
  for (int Threads : {1, 2, 3, 4})
    for (int64_t Threshold : {int64_t{1}, int64_t{1000}, int64_t{1} << 30})
      for (int64_t Delta : {1, 64, 8192}) {
        ScopedThreads Scope(Threads);
        Schedule S;
        S.Update = UpdateStrategy::EagerWithFusion;
        S.FusionThreshold = Threshold;
        S.Delta = Delta;
        EXPECT_EQ(runEager(G, Src, S), Expected)
            << "threads=" << Threads << " threshold=" << Threshold
            << " delta=" << Delta;
      }
}

} // namespace

TEST(EagerShares, RoadGridMatchesDijkstraAcrossThreadsThresholdsDeltas) {
  RoadNetwork Net = roadGrid(40, 40, 5);
  BuildOptions Options;
  Options.Symmetrize = true;
  Graph G = GraphBuilder(Options).build(Net.NumNodes, Net.Edges);
  expectSharesMatchDijkstra(G, 17);
}

TEST(EagerShares, RmatMatchesDijkstraAcrossThreadsThresholdsDeltas) {
  std::vector<Edge> Edges = rmatEdges(12, 8, 31);
  assignRandomWeights(Edges, 1, 1000, 9);
  Graph G = GraphBuilder().build(Count{1} << 12, Edges);
  expectSharesMatchDijkstra(G, 3);
}

TEST(EagerShares, StarSecondRoundIsStolenFromOneShare) {
  // The center's relaxation pushes every leaf into one thread's bin, and
  // threshold 1 keeps fusion from draining it: the whole second round
  // sits in that thread's share, and the other threads can only help by
  // stealing from it. Each vertex is processed exactly once.
  const Count N = 20000;
  Graph G = GraphBuilder().build(N, starEdges(N));
  for (int Threads : {1, 2, 3, 4}) {
    ScopedThreads Scope(Threads);
    Schedule S;
    S.Update = UpdateStrategy::EagerWithFusion;
    S.FusionThreshold = 1;
    S.Delta = 1;
    OrderedStats Stats;
    std::vector<Priority> Dist = runEager(G, 0, S, &Stats);
    EXPECT_EQ(Dist[0], 0);
    for (Count V = 1; V < N; ++V)
      ASSERT_EQ(Dist[V], 1) << "leaf " << V << ", threads=" << Threads;
    EXPECT_EQ(Stats.VerticesProcessed, N) << "threads=" << Threads;
    EXPECT_EQ(Stats.Rounds, 2) << "threads=" << Threads;
    EXPECT_EQ(Stats.FusedRounds, 0) << "threads=" << Threads;
  }
}
