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

#include "stress_harness.h"

#include "algorithms/DistanceEngine.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <queue>

using namespace graphit;
using graphit::stress::ScopedThreads;

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
/// \p Expanded, when given, records every vertex the relaxation expands
/// (not the stale entries it drops), in order; single-threaded runs only.
std::vector<Priority> runEager(const Graph &G, VertexId Src,
                               const Schedule &S,
                               OrderedStats *Stats = nullptr,
                               std::vector<VertexId> *Expanded = nullptr) {
  std::vector<Priority> Dist(G.numNodes(), kInfiniteDistance);
  Dist[Src] = 0;
  const PriorityCoarsener C = PriorityCoarsener::of(S.Delta);
  auto Relax = [&](VertexId U, int64_t CurrKey, auto &&Push) {
    // Relaxed atomic pre-checks: concurrent relaxations CAS these slots.
    Priority DU = atomicLoadRelaxed(&Dist[U]);
    if (C.fineKey(DU) < CurrKey)
      return; // stale entry, already settled under an earlier key
    if (Expanded)
      Expanded->push_back(U);
    for (WNode E : G.outNeighbors(U)) {
      Priority ND = DU + E.W;
      if (ND < atomicLoadRelaxed(&Dist[E.V]) &&
          atomicWriteMin(&Dist[E.V], ND))
        Push(E.V, C.fineKey(ND));
    }
  };
  eagerOrderedProcess(G.numNodes(), Src, 0, S, Relax,
                      [](int64_t) { return false; }, Stats);
  return Dist;
}

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
  const PriorityCoarsener C = PriorityCoarsener::of(S.Delta);
  auto Relax = [&](VertexId U, int64_t CurrKey, auto &&Push) {
    if (C.fineKey(Dist[U]) < CurrKey)
      return;
    for (WNode E : G.outNeighbors(U)) {
      Priority ND = Dist[U] + E.W;
      if (ND < Dist[E.V] && atomicWriteMin(&Dist[E.V], ND))
        Push(E.V, C.fineKey(ND));
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
/// fusion thresholds that fuse every sub-bin, the default, and none, with
/// fusion off as well, and Δ from unit buckets to buckets wider than most
/// paths. Δ=2 uses two of the eight sub-bins per bucket; 17 and 1000 take
/// the division form of the fine key.
void expectSharesMatchDijkstra(const Graph &G, VertexId Src) {
  const std::vector<Priority> Expected = dijkstraRef(G, Src);
  for (int Threads : {1, 2, 3, 4})
    for (UpdateStrategy Update :
         {UpdateStrategy::EagerWithFusion, UpdateStrategy::EagerNoFusion})
      for (int64_t Threshold : {int64_t{1}, int64_t{1000}, int64_t{1} << 30})
        for (int64_t Delta : {1, 2, 17, 64, 1000, 8192}) {
          // Without fusion the threshold is never read.
          if (Update == UpdateStrategy::EagerNoFusion && Threshold != 1000)
            continue;
          ScopedThreads Scope(Threads);
          Schedule S;
          S.Update = Update;
          S.FusionThreshold = Threshold;
          S.Delta = Delta;
          EXPECT_EQ(runEager(G, Src, S), Expected)
              << "threads=" << Threads << " update="
              << updateStrategyName(Update) << " threshold=" << Threshold
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

TEST(EagerShares, SubBinAtThresholdRepeatsRoundFromSubBins) {
  // Δ=64, so a fine key is distance/8 and bucket 0 holds distances below
  // 64. The source reaches hub 1 at 8 (sub-bin 1) and hub 2 at 24
  // (sub-bin 3). Draining sub-bin 1 pushes hub 1's 1000 leaves at 16 into
  // sub-bin 2, past the threshold of 100, while hub 2 waits in sub-bin 3:
  // fusion stops in the middle of bucket 0, the round repeats key 0, and
  // that round's share is sub-bins 2 and 3 concatenated — the leaves,
  // then hub 2. Hub 2 pushes its 10 vertices at 40 into sub-bin 5, which
  // fusion drains. Each vertex is expanded exactly once.
  const Count Leaves = 1000, Tail = 10, N = 3 + Leaves + Tail;
  std::vector<Edge> Edges = {{0, 1, 8}, {0, 2, 24}};
  for (Count L = 0; L < Leaves; ++L)
    Edges.push_back({1, static_cast<VertexId>(3 + L), 8});
  for (Count T = 0; T < Tail; ++T)
    Edges.push_back({2, static_cast<VertexId>(3 + Leaves + T), 16});
  Graph G = GraphBuilder().build(N, Edges);
  const std::vector<Priority> Expected = dijkstraRef(G, 0);
  for (int Threads : {1, 2, 3, 4}) {
    ScopedThreads Scope(Threads);
    Schedule S;
    S.Update = UpdateStrategy::EagerWithFusion;
    S.FusionThreshold = 100;
    S.Delta = 64;
    OrderedStats Stats;
    std::vector<VertexId> Expanded;
    EXPECT_EQ(runEager(G, 0, S, &Stats, Threads == 1 ? &Expanded : nullptr),
              Expected)
        << "threads=" << Threads;
    EXPECT_EQ(Stats.Rounds, 2) << "threads=" << Threads;
    EXPECT_EQ(Stats.FusedRounds, 2) << "threads=" << Threads;
    EXPECT_EQ(Stats.VerticesProcessed, N) << "threads=" << Threads;
    if (Threads == 1) {
      // Source, hub 1 (fused), the leaves and hub 2 (the repeated round,
      // in sub-bin order), then hub 2's vertices (fused).
      ASSERT_EQ(Expanded.size(), static_cast<size_t>(N));
      EXPECT_EQ(Expanded[0], 0u);
      EXPECT_EQ(Expanded[1], 1u);
      for (Count L = 0; L < Leaves; ++L)
        EXPECT_GE(Expanded[static_cast<size_t>(2 + L)], 3u);
      EXPECT_EQ(Expanded[static_cast<size_t>(2 + Leaves)], 2u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Priority-ordered sub-bins
//===----------------------------------------------------------------------===//

TEST(EagerSubBins, FineKeyRefinesBucketKey) {
  // The bucket key of a fine key is the bucket key of its priority, for
  // the shift forms (Δ below and above kSubBins) and the division form.
  for (int64_t Delta : {1, 2, 4, 8, 17, 64, 1000, 1024, 8192}) {
    const PriorityCoarsener C = PriorityCoarsener::of(Delta);
    for (Priority P : {0, 1, 7, 8, 63, 64, 999, 1000, 8191, 8192, 123457}) {
      EXPECT_EQ(C.fineKey(P), P * kSubBins / Delta)
          << "delta=" << Delta << " p=" << P;
      EXPECT_EQ(coarseKey(C.fineKey(P)), C.key(P))
          << "delta=" << Delta << " p=" << P;
    }
  }
  // Priorities near the "unreachable" heuristic bound saturate below the
  // engine's sentinel instead of overflowing.
  for (int64_t Delta : {1, 3, 8192}) {
    const PriorityCoarsener C = PriorityCoarsener::of(Delta);
    EXPECT_LT(C.fineKey(kInfiniteDistance), kMaxEagerKey);
    EXPECT_LE(C.fineKey(kInfiniteDistance / 2),
              C.fineKey(kInfiniteDistance));
  }
}

TEST(EagerSubBins, FusedDrainExpandsInPriorityOrder) {
  // The source 0 reaches 1 directly at 40 and through 2 at 8 + 8 = 16, and
  // 1 reaches 3 at +8; everything lies in one Δ=64 bucket. A bucket
  // drained in push order expands 1 at 40 before 2 lowers it, so 3 is
  // improved twice (48, then 24). Priority-ordered sub-bins expand 2
  // first, and 3 is improved once.
  ScopedThreads Scope(1);
  Graph G = GraphBuilder().build(4, {{0, 1, 40}, {0, 2, 8}, {2, 1, 8},
                                     {1, 3, 8}});
  Schedule S;
  S.Update = UpdateStrategy::EagerWithFusion;
  S.Delta = 64;
  std::vector<Priority> Dist(4, kInfiniteDistance);
  Dist[0] = 0;
  int TouchesOf3 = 0;
  detail::distanceOrderedRun(
      G, 0, Dist, S, [](VertexId) { return Priority{0}; },
      [](int64_t) { return false; },
      [&](VertexId V, VertexId, bool) { TouchesOf3 += V == 3; });
  EXPECT_EQ(Dist, (std::vector<Priority>{0, 16, 8, 24}));
  EXPECT_EQ(TouchesOf3, 1);
}
