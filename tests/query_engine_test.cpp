//===- tests/query_engine_test.cpp - Query service tests ------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/QueryEngine.h"

#include "stress_harness.h"

#include "algorithms/AStar.h"
#include "algorithms/Dijkstra.h"
#include "algorithms/IncrementalSSSP.h"
#include "algorithms/PPSP.h"
#include "algorithms/QueryState.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/LandmarkCache.h"
#include "service/SnapshotStore.h"
#include "support/Random.h"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>

using namespace graphit;
using namespace graphit::service;
// Shared fuzz generators (tests/stress_harness.h): every suite draws
// update batches from the same canonical space.
using graphit::stress::coordinateSafeInsertBatch;
using graphit::stress::randomBatch;
using graphit::stress::reachedVertices;
using graphit::stress::ScopedThreads;

namespace {

Graph roadWithCoords(Count Side, uint64_t Seed) {
  RoadNetwork Net = roadGrid(Side, Side, Seed);
  BuildOptions Options;
  Options.Symmetrize = true;
  return GraphBuilder(Options).build(Net.NumNodes, Net.Edges,
                                     std::move(Net.Coords));
}

Schedule scheduleFor(int Which) {
  Schedule S;
  switch (Which % 3) {
  case 0:
    S.Update = UpdateStrategy::EagerWithFusion;
    break;
  case 1:
    S.Update = UpdateStrategy::EagerNoFusion;
    break;
  default:
    S.Update = UpdateStrategy::Lazy;
    break;
  }
  const int64_t Deltas[] = {1024, 2048, 8192};
  S.Delta = Deltas[(Which / 3) % 3];
  return S;
}

/// `forEachReached` visits each vertex at finite distance exactly once, in
/// increasing id and with its distance, and `numReached()` counts them.
void expectReachedSetIsExact(const DistanceState &State) {
  std::vector<VertexId> Finite;
  for (Count V = 0; V < State.numNodes(); ++V)
    if (State.dist(static_cast<VertexId>(V)) < kInfiniteDistance)
      Finite.push_back(static_cast<VertexId>(V));
  EXPECT_EQ(reachedVertices(State), Finite);
  EXPECT_EQ(State.numReached(), static_cast<Count>(Finite.size()));
  State.forEachReached([&State](VertexId V, Priority D) {
    EXPECT_EQ(D, State.dist(V)) << "vertex " << V;
  });
}

/// Directed star from \p Hub to each of \p Leaves at weight leaf id + 1,
/// over \p N vertices.
Graph starGraph(Count N, VertexId Hub, const std::vector<VertexId> &Leaves) {
  std::vector<Edge> Edges;
  for (VertexId L : Leaves)
    if (L != Hub)
      Edges.push_back({Hub, L, static_cast<Weight>(L + 1)});
  return GraphBuilder().build(N, Edges);
}

/// The vertices of [0, \p N) that sit on a line, word or summary-word
/// boundary of the state's bitmap, plus the last one.
std::vector<VertexId> boundaryVertices(Count N) {
  std::vector<VertexId> Out;
  for (Count V : {Count{0}, Count{7}, Count{8}, Count{9}, Count{511},
                  Count{512}, Count{513}, Count{32767}, Count{32768}, N - 1})
    if (V >= 0 && V < N &&
        std::find(Out.begin(), Out.end(), static_cast<VertexId>(V)) ==
            Out.end())
      Out.push_back(static_cast<VertexId>(V));
  std::sort(Out.begin(), Out.end());
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// DistanceState (pooled algorithm variants)
//===----------------------------------------------------------------------===//

TEST(DistanceState, PooledSSSPMatchesFreshAcrossReuse) {
  Graph G = roadWithCoords(30, 7);
  Schedule S;
  S.Delta = 2048;
  DistanceState State(G.numNodes());
  // Reuse the same state for several sources; each run must match a fresh
  // run exactly, proving the O(touched) reset leaves no residue.
  for (VertexId Src : {VertexId{0}, VertexId{451}, VertexId{0},
                       static_cast<VertexId>(G.numNodes() - 1)}) {
    deltaSteppingSSSP(G, Src, S, State);
    SSSPResult Fresh = deltaSteppingSSSP(G, Src, S);
    for (Count V = 0; V < G.numNodes(); ++V)
      ASSERT_EQ(State.dist(static_cast<VertexId>(V)), Fresh.Dist[V])
          << "src " << Src << " vertex " << V;
  }
}

TEST(DistanceState, TouchedListIsExactlyTheReachedSet) {
  // One thread marks with plain ORs, four with atomics and per-thread
  // counts. Either way the reached set is exactly the vertices at finite
  // distance and the reach count is its size, for a full SSSP and for
  // early-exited point searches alike.
  Graph G = roadWithCoords(20, 3);
  Schedule S;
  S.Delta = 4096;
  const VertexId Src = 17, Dst = 60;
  for (int Threads : {1, 4})
    for (QueryKind Kind :
         {QueryKind::SSSP, QueryKind::PPSP, QueryKind::AStar}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << Threads
                                        << " kind=" << static_cast<int>(Kind));
      ScopedThreads Scope(Threads);
      DistanceState State(G.numNodes());
      if (Kind == QueryKind::SSSP)
        deltaSteppingSSSP(G, Src, S, State);
      else if (Kind == QueryKind::PPSP)
        pointToPointShortestPath(G, Src, Dst, S, State);
      else
        aStarSearch(G, Src, Dst, S, State);
      expectReachedSetIsExact(State);
    }

  // Racing first touches. An R-MAT hub has hundreds of in-edges, and with
  // weights 1-8 under Δ = 64 most of them relax in the same round, so
  // several threads lift it off ∞ at once. Only the write that replaced
  // ∞ may count it: the eager CAS, the lazy push CAS and the lazy pull's
  // owner store alike. Reusing the state also covers the reset. 256
  // sources per schedule make the race likely: an eager relax that counts
  // on its pre-check load instead of the CAS's replaced value over-counts,
  // and with sixteen sources it slipped through 4 of 10 runs.
  std::vector<Edge> Edges = rmatEdges(12, 16, 77);
  assignRandomWeights(Edges, 1, 8, 5);
  Graph Rmat = GraphBuilder().build(Count{1} << 12, Edges);
  ASSERT_TRUE(Rmat.hasInEdges()); // DensePull needs them
  ScopedThreads Scope(4);
  for (int Which = 0; Which < 3; ++Which) {
    Schedule RS;
    RS.Delta = 64;
    if (Which > 0) {
      RS.Update = UpdateStrategy::Lazy;
      RS.Dir = Which == 1 ? Direction::SparsePush : Direction::DensePull;
    }
    DistanceState State(Rmat.numNodes());
    for (VertexId RSrc = 0; RSrc < Rmat.numNodes(); RSrc += 16) {
      SCOPED_TRACE(::testing::Message()
                   << "rmat schedule=" << Which << " source=" << RSrc);
      deltaSteppingSSSP(Rmat, RSrc, RS, State);
      expectReachedSetIsExact(State);
    }
  }
}

TEST(DistanceState, PooledPPSPAndAStarMatchDijkstra) {
  Graph G = roadWithCoords(30, 11);
  DistanceState State(G.numNodes());
  SplitMix64 Rng(23);
  for (int Trial = 0; Trial < 6; ++Trial) {
    Schedule S = scheduleFor(Trial);
    auto Src = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    auto Dst = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Priority Exact = dijkstraPPSP(G, Src, Dst);
    EXPECT_EQ(pointToPointShortestPath(G, Src, Dst, S, State).Dist, Exact);
    EXPECT_EQ(aStarSearch(G, Src, Dst, S, State).Dist, Exact);
  }
}

TEST(DistanceState, BitmapShapesAcrossLineWordAndSummaryBoundaries) {
  // A line is 8 vertices, a word of line bits 512, a summary word 32,768.
  // The star from the last vertex reaches every boundary vertex; the next
  // query must refill all of them and leave only its own source finite.
  for (Count N : {Count{0}, Count{1}, Count{7}, Count{8}, Count{9},
                  Count{511}, Count{512}, Count{513}, Count{32768},
                  Count{32769}})
    for (int Threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "N=" << N
                                        << " threads=" << Threads);
      ScopedThreads Scope(Threads);
      DistanceState State(N);
      EXPECT_EQ(State.numNodes(), N);
      EXPECT_EQ(State.numReached(), 0);
      EXPECT_TRUE(reachedVertices(State).empty());
      if (N == 0)
        continue;
      const std::vector<VertexId> Leaves = boundaryVertices(N);
      const auto Hub = static_cast<VertexId>(N - 1);
      Graph G = starGraph(N, Hub, Leaves);
      Schedule S;
      deltaSteppingSSSP(G, Hub, S, State);
      EXPECT_EQ(reachedVertices(State), Leaves);
      expectReachedSetIsExact(State);
      for (VertexId L : Leaves)
        EXPECT_EQ(State.dist(L), L == Hub ? 0 : Priority{L} + 1);

      State.beginQuery(0);
      EXPECT_EQ(reachedVertices(State), std::vector<VertexId>{0});
      expectReachedSetIsExact(State);
    }
}

TEST(DistanceState, ResizeAcrossLineAndWordBoundariesKeepsTheSolution) {
  // Seven vertices fill part of one line; growing to 9 crosses a line
  // boundary, to 513 a word of line bits, and to 32,769 a summary word.
  // The held solution stays as it was, the appended vertices read ∞, and
  // the next query still refills every line the old one wrote.
  DistanceState State(7);
  const std::vector<VertexId> Leaves = boundaryVertices(7);
  deltaSteppingSSSP(starGraph(7, 6, Leaves), 6, Schedule(), State);
  const std::vector<VertexId> Reached = reachedVertices(State);
  ASSERT_EQ(Reached, Leaves);
  for (Count N : {Count{9}, Count{513}, Count{32769}}) {
    SCOPED_TRACE(::testing::Message() << "grown to " << N);
    State.resize(N);
    ASSERT_EQ(State.numNodes(), N);
    EXPECT_EQ(reachedVertices(State), Reached);
    expectReachedSetIsExact(State);
    for (VertexId L : Leaves)
      EXPECT_EQ(State.dist(L), L == 6 ? 0 : Priority{L} + 1);
    for (Count V = 7; V < N; ++V)
      ASSERT_EQ(State.dist(static_cast<VertexId>(V)), kInfiniteDistance);
  }
  State.resize(9); // shrinking is a no-op
  EXPECT_EQ(State.numNodes(), 32769);

  const std::vector<VertexId> Grown = boundaryVertices(32769);
  deltaSteppingSSSP(starGraph(32769, 32768, Grown), 32768, Schedule(),
                    State);
  EXPECT_EQ(reachedVertices(State), Grown);
  State.beginQuery(3);
  EXPECT_EQ(reachedVertices(State), std::vector<VertexId>{3});
  expectReachedSetIsExact(State);
}

TEST(DistanceState, CopyResetsIndependentlyOfItsOriginal) {
  // HotStateCache clones a state a reader still holds and repairs the
  // clone. Both must keep their own marks: resetting one leaves the other
  // whole, and each reset refills every line the shared solution wrote.
  Graph G = roadWithCoords(30, 5);
  DistanceState Original(G.numNodes());
  deltaSteppingSSSP(G, 17, Schedule(), Original);
  DistanceState Copy = Original;
  const std::vector<VertexId> Full = reachedVertices(Original);
  EXPECT_EQ(reachedVertices(Copy), Full);
  EXPECT_EQ(Copy.numReached(), Original.numReached());

  Copy.beginQuery(5);
  EXPECT_EQ(reachedVertices(Copy), std::vector<VertexId>{5});
  expectReachedSetIsExact(Copy);
  EXPECT_EQ(reachedVertices(Original), Full);
  expectReachedSetIsExact(Original);

  Original.beginQuery(400);
  EXPECT_EQ(reachedVertices(Original), std::vector<VertexId>{400});
  expectReachedSetIsExact(Original);
  EXPECT_EQ(reachedVertices(Copy), std::vector<VertexId>{5});
}

TEST(DistanceState, BeginQueryAfterRepairResetsLiftedAndCutOffVertices) {
  // Path 0 -> 1 -> 2 -> 3 plus isolated 4-7 (see
  // IncrementalRepair.DeleteCanDisconnect). Deleting 1 -> 2 cuts 2 and 3
  // off, and re-inserting it lifts them back off ∞. Whether the repair
  // left them at ∞ or lifted them again, the next query leaves only its
  // own source finite.
  for (bool Reinsert : {false, true})
    for (int Threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "reinsert=" << Reinsert
                                        << " threads=" << Threads);
      ScopedThreads Scope(Threads);
      std::vector<Edge> Edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}};
      SnapshotStore Store(GraphBuilder().build(8, Edges));
      Schedule S;
      DistanceState State(8, /*TrackParents=*/true);
      deltaSteppingSSSP(*Store.current(), 0, S, State);
      RepairScratch Scratch;
      SnapshotStore::ApplyResult A =
          Store.applyUpdates({EdgeUpdate{1, 2, 0, UpdateKind::Delete}});
      repairAfterUpdates(*A.Snap, A.Applied, State, S, Scratch);
      if (Reinsert) {
        SnapshotStore::ApplyResult B =
            Store.applyUpdates({EdgeUpdate{1, 2, 1, UpdateKind::Upsert}});
        repairAfterUpdates(*B.Snap, B.Applied, State, S, Scratch);
        EXPECT_EQ(reachedVertices(State), (std::vector<VertexId>{0, 1, 2, 3}));
      } else {
        EXPECT_EQ(reachedVertices(State), (std::vector<VertexId>{0, 1}));
      }
      expectReachedSetIsExact(State);

      State.beginQuery(5);
      EXPECT_EQ(reachedVertices(State), std::vector<VertexId>{5});
      expectReachedSetIsExact(State);
      for (VertexId V = 0; V < 8; ++V)
        EXPECT_EQ(State.parent(V), V == 5 ? 5 : kInvalidVertex);
    }
}

//===----------------------------------------------------------------------===//
// LandmarkCache (ALT)
//===----------------------------------------------------------------------===//

TEST(LandmarkCache, BoundIsAdmissibleAndConsistent) {
  Graph G = roadWithCoords(25, 31);
  Schedule S;
  S.Delta = 4096;
  LandmarkCache Cache(G, 4, S);
  ASSERT_EQ(Cache.numLandmarks(), 4);

  VertexId Target = static_cast<VertexId>(G.numNodes() / 2);
  std::vector<Priority> Exact = dijkstraSSSP(G, Target); // symmetric graph
  EXPECT_EQ(Cache.estimate(Target, Target), 0);
  for (VertexId V = 0; V < G.numNodes(); V += 7) {
    Priority H = Cache.estimate(V, Target);
    if (Exact[V] != kInfiniteDistance) {
      EXPECT_LE(H, Exact[V]) << "inadmissible at " << V;
    }
    for (WNode E : G.outNeighbors(V))
      EXPECT_LE(H, E.W + Cache.estimate(E.V, Target))
          << "inconsistent edge " << V << " -> " << E.V;
  }
}

TEST(LandmarkCache, NoDuplicateLandmarksOnDisconnectedGraphs) {
  // Two components {0,1,2} and {3,4,5}; a budget above the probe
  // component's size must stop at distinct landmarks, not re-select one
  // (each duplicate would cost a full redundant SSSP).
  BuildOptions Options;
  Options.Symmetrize = true;
  Graph G = GraphBuilder(Options).build(
      6, {{0, 1, 5}, {1, 2, 5}, {3, 4, 5}, {4, 5, 5}});
  LandmarkCache Cache(G, 6, Schedule{});
  EXPECT_LE(Cache.numLandmarks(), 3);
  std::vector<VertexId> L = Cache.landmarks();
  std::sort(L.begin(), L.end());
  EXPECT_TRUE(std::adjacent_find(L.begin(), L.end()) == L.end())
      << "duplicate landmark selected";
}

TEST(LandmarkCache, TightensTheCoordinateBound) {
  Graph G = roadWithCoords(30, 5);
  Schedule S;
  S.Delta = 4096;
  LandmarkCache Cache(G, 8, S);
  // The ALT bound dominates the coordinate bound by construction (max of
  // the two); verify it is strictly tighter somewhere.
  VertexId Target = 0;
  bool StrictlyTighter = false;
  for (VertexId V = 0; V < G.numNodes(); V += 13) {
    Priority HC = aStarHeuristic(G, V, Target);
    Priority HL = Cache.estimate(V, Target);
    ASSERT_GE(HL, HC);
    StrictlyTighter |= HL > HC;
  }
  EXPECT_TRUE(StrictlyTighter);
}

//===----------------------------------------------------------------------===//
// QueryEngine
//===----------------------------------------------------------------------===//

TEST(QueryEngine, MixedBatchIsBitIdenticalToSequentialRuns) {
  Graph G = roadWithCoords(40, 77);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 4;
  Opts.NumLandmarks = 4;
  Opts.DefaultSchedule.Delta = 2048;
  QueryEngine Engine(G, Opts);

  // >= 256 randomized queries mixing all three kinds, schedules, and
  // deltas. Every result must equal the sequential fresh-state run.
  constexpr int kNumQueries = 260;
  SplitMix64 Rng(2020);
  std::vector<Query> Batch;
  for (int I = 0; I < kNumQueries; ++I) {
    Query Q;
    Q.Source = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.Sched = scheduleFor(static_cast<int>(Rng.nextInt(0, 9)));
    switch (Rng.nextInt(0, 3)) {
    case 0:
      Q.Kind = QueryKind::SSSP;
      Q.CollectReached = true;
      break;
    case 1:
      Q.Kind = QueryKind::PPSP;
      break;
    default:
      Q.Kind = QueryKind::AStar;
      break;
    }
    Batch.push_back(Q);
  }

  std::vector<QueryResult> Results = Engine.runBatch(Batch);
  ASSERT_EQ(Results.size(), Batch.size());
  EXPECT_EQ(Engine.policyCounters().served(),
            static_cast<uint64_t>(kNumQueries));

  for (int I = 0; I < kNumQueries; ++I) {
    const Query &Q = Batch[I];
    const Schedule &S = *Q.Sched;
    if (Q.Kind == QueryKind::SSSP) {
      SSSPResult Ref = deltaSteppingSSSP(G, Q.Source, S);
      Count Finite = 0;
      for (Count V = 0; V < G.numNodes(); ++V)
        Finite += Ref.Dist[V] < kInfiniteDistance ? 1 : 0;
      ASSERT_EQ(static_cast<Count>(Results[I].Reached.size()), Finite)
          << "query " << I;
      for (const auto &[V, D] : Results[I].Reached)
        ASSERT_EQ(D, Ref.Dist[V]) << "query " << I << " vertex " << V;
    } else if (Q.Kind == QueryKind::PPSP) {
      PPSPResult Ref =
          pointToPointShortestPath(G, Q.Source, Q.Target, S);
      ASSERT_EQ(Results[I].Dist, Ref.Dist) << "query " << I;
    } else {
      PPSPResult Ref = aStarSearch(G, Q.Source, Q.Target, S);
      ASSERT_EQ(Results[I].Dist, Ref.Dist) << "query " << I;
    }
  }
}

TEST(QueryEngine, SubmitCollectOutOfOrder) {
  Graph G = roadWithCoords(20, 9);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.DefaultSchedule.Delta = 2048;
  QueryEngine Engine(G, Opts);

  Query A;
  A.Kind = QueryKind::PPSP;
  A.Source = 0;
  A.Target = static_cast<VertexId>(G.numNodes() - 1);
  Query B = A;
  B.Source = static_cast<VertexId>(G.numNodes() / 2);

  uint64_t TA = Engine.submit(A);
  uint64_t TB = Engine.submit(B);
  // Collect in reverse submission order.
  QueryResult RB = Engine.collect(TB);
  QueryResult RA = Engine.collect(TA);
  EXPECT_EQ(RA.Dist, dijkstraPPSP(G, A.Source, A.Target));
  EXPECT_EQ(RB.Dist, dijkstraPPSP(G, B.Source, B.Target));
}

TEST(QueryEngine, LandmarkAStarPrunesAtLeastAsWellAsCoordinates) {
  Graph G = roadWithCoords(50, 13);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 1;
  Opts.NumLandmarks = 8;
  Opts.DefaultSchedule.Delta = 4096;
  QueryEngine Engine(G, Opts);
  ASSERT_NE(Engine.landmarks(), nullptr);

  SplitMix64 Rng(3);
  int64_t LandmarkTouched = 0, CoordTouched = 0;
  for (int Trial = 0; Trial < 6; ++Trial) {
    Query Q;
    Q.Kind = QueryKind::AStar;
    Q.Source = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    QueryResult R = Engine.runBatch({Q})[0];
    PPSPResult Coord =
        aStarSearch(G, Q.Source, Q.Target, Opts.DefaultSchedule);
    ASSERT_EQ(R.Dist, Coord.Dist);
    LandmarkTouched += R.Touched;
    CoordTouched += Coord.Stats.VerticesProcessed;
  }
  // ALT dominates the coordinate bound, so its searches must not expand
  // meaningfully more (touched counts things once; VerticesProcessed can
  // double-count re-relaxations, so allow slack).
  EXPECT_LE(LandmarkTouched, CoordTouched * 3 / 2)
      << "landmark A* expanded more than coordinate A*";
}

TEST(QueryEngine, PathExtractionReturnsTightPaths) {
  Graph G = roadWithCoords(25, 41);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.TrackParents = true;
  Opts.DefaultSchedule.Delta = 2048;
  QueryEngine Engine(G, Opts);

  SplitMix64 Rng(8);
  for (int Trial = 0; Trial < 5; ++Trial) {
    Query Q;
    Q.Kind = QueryKind::PPSP;
    Q.Source = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.CollectPath = true;
    QueryResult R = Engine.runBatch({Q})[0];
    if (R.Dist == kInfiniteDistance) {
      EXPECT_TRUE(R.Path.empty());
      continue;
    }
    ASSERT_FALSE(R.Path.empty());
    EXPECT_EQ(R.Path.front(), Q.Source);
    EXPECT_EQ(R.Path.back(), Q.Target);
    // Every hop must be a real edge and the weights must sum to the
    // reported distance.
    Priority Sum = 0;
    for (size_t I = 0; I + 1 < R.Path.size(); ++I) {
      Weight Best = -1;
      for (WNode E : G.outNeighbors(R.Path[I]))
        if (E.V == R.Path[I + 1] && (Best < 0 || E.W < Best))
          Best = E.W;
      ASSERT_GE(Best, 0) << "missing edge on path, hop " << I;
      Sum += Best;
    }
    EXPECT_EQ(Sum, R.Dist);
  }
}

TEST(QueryEngine, MalformedQueryFailsWithoutCrashing) {
  Graph G = roadWithCoords(10, 1);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 1;
  QueryEngine Engine(G, Opts);

  Query Bad;
  Bad.Kind = QueryKind::PPSP;
  Bad.Source = 0;
  Bad.Target = static_cast<VertexId>(G.numNodes() + 5); // out of range
  uint64_t T = Engine.submit(Bad);
  QueryResult R = Engine.collect(T);
  EXPECT_EQ(R.Status, QueryStatus::Failed);
  EXPECT_EQ(R.Dist, kInfiniteDistance);

  // The engine keeps serving after a rejected request.
  Query Good;
  Good.Kind = QueryKind::PPSP;
  Good.Source = 0;
  Good.Target = static_cast<VertexId>(G.numNodes() - 1);
  EXPECT_EQ(Engine.runBatch({Good})[0].Dist,
            dijkstraPPSP(G, Good.Source, Good.Target));

  // An A* query is rejected (not aborted on) when the engine has neither
  // landmarks nor coordinates to build a heuristic from.
  Graph Plain = GraphBuilder().build(4, {{0, 1, 1}, {1, 2, 1}});
  QueryEngine::Options PlainOpts;
  PlainOpts.NumWorkers = 1;
  QueryEngine PlainEngine(Plain, PlainOpts);
  Query NoHeur;
  NoHeur.Kind = QueryKind::AStar;
  NoHeur.Source = 0;
  NoHeur.Target = 2;
  EXPECT_EQ(PlainEngine.runBatch({NoHeur})[0].Status, QueryStatus::Failed);
}

TEST(QueryEngine, AggregateStatsAccumulate) {
  Graph G = roadWithCoords(15, 2);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.DefaultSchedule.Delta = 2048;
  QueryEngine Engine(G, Opts);
  std::vector<Query> Batch;
  for (int I = 0; I < 8; ++I) {
    Query Q;
    Q.Kind = QueryKind::PPSP;
    Q.Source = static_cast<VertexId>(I * 13 % G.numNodes());
    Q.Target = static_cast<VertexId>((I * 29 + 7) % G.numNodes());
    Q.Importance = I % 2 == 0 ? 0 : 3;
    Batch.push_back(Q);
  }
  Engine.runBatch(Batch);
  OrderedStats Agg = Engine.aggregateStats();
  EXPECT_GT(Agg.Rounds, 0);
  EXPECT_GT(Agg.VerticesProcessed, 0);
  const ServingPolicy::Counters C = Engine.policyCounters();
  EXPECT_EQ(C.served(), 8u);
  // Every completion is counted in its importance class, and every Ok one
  // (all of them here) lands in that class's latency histogram.
  for (int Importance : {0, 3}) {
    const int Class = importanceClass(Importance);
    EXPECT_EQ(C.ServedInClass[static_cast<size_t>(Class)], 4u) << Class;
    EXPECT_EQ(Engine.classLatencySnapshot(Class).count(), 4u) << Class;
  }
}

//===----------------------------------------------------------------------===//
// Cache-conscious layout: external-id round-trips (graph/Reorder.h)
//===----------------------------------------------------------------------===//

TEST(QueryEngine, ReorderedEngineRoundTripsExternalIds) {
  Graph G = roadWithCoords(30, 51);
  QueryEngine::Options Plain;
  Plain.NumWorkers = 1;
  Plain.TrackParents = true;
  Plain.DefaultSchedule.Delta = 2048;
  QueryEngine Reference(G, Plain);

  QueryEngine::Options Reordered = Plain;
  Reordered.NumWorkers = 2;
  Reordered.Reorder = ReorderKind::Bfs;
  QueryEngine Engine(G, Reordered);
  EXPECT_FALSE(Engine.mapping().isIdentity());

  SplitMix64 Rng(707);
  std::vector<Query> Batch;
  for (int I = 0; I < 60; ++I) {
    Query Q;
    Q.Source = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    switch (Rng.nextInt(0, 3)) {
    case 0:
      Q.Kind = QueryKind::SSSP;
      Q.CollectReached = true;
      break;
    case 1:
      Q.Kind = QueryKind::PPSP;
      Q.CollectPath = true;
      break;
    default:
      Q.Kind = QueryKind::AStar;
      Q.CollectPath = true;
      break;
    }
    Batch.push_back(Q);
  }

  std::vector<QueryResult> Got = Engine.runBatch(Batch);
  std::vector<QueryResult> Want = Reference.runBatch(Batch);
  for (size_t I = 0; I < Batch.size(); ++I) {
    const Query &Q = Batch[I];
    EXPECT_EQ(Got[I].Dist, Want[I].Dist) << "query " << I;
    // Reached lists come back in external ids, sorted, bit-identical.
    ASSERT_EQ(Got[I].Reached, Want[I].Reached) << "query " << I;
    if (Q.CollectPath && Got[I].Dist < kInfiniteDistance) {
      // Paths are verified hop-by-hop on the *original* graph: every
      // consecutive pair must be a real edge whose weights sum to the
      // reported distance (tie-broken paths may differ from Reference's).
      const std::vector<VertexId> &P = Got[I].Path;
      ASSERT_FALSE(P.empty()) << "query " << I;
      ASSERT_EQ(P.front(), Q.Source);
      ASSERT_EQ(P.back(), Q.Target);
      Priority Total = 0;
      for (size_t H = 0; H + 1 < P.size(); ++H) {
        bool Found = false;
        for (WNode E : G.outNeighbors(P[H]))
          if (E.V == P[H + 1]) {
            Total += E.W;
            Found = true;
            break;
          }
        ASSERT_TRUE(Found) << "query " << I << " hop " << H
                           << " is not an edge of the original graph";
      }
      EXPECT_EQ(Total, Got[I].Dist) << "query " << I;
    }
  }
}

TEST(QueryEngineLive, PermutedStoreMixedBatchRoundTrips) {
  // The acceptance scenario: a *live* engine over a BFS-permuted
  // SnapshotStore must round-trip external ids end to end — queries,
  // paths, and update batches — matching an identity-layout store fed the
  // same external-id traffic.
  Graph G = roadWithCoords(24, 33);
  SnapshotStore PlainStore(G);
  SnapshotStore::Options PermutedOpts;
  PermutedOpts.Reorder = ReorderKind::Bfs;
  SnapshotStore PermutedStore(G, PermutedOpts);
  EXPECT_FALSE(PermutedStore.mapping().isIdentity());

  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.TrackParents = true;
  Opts.DefaultSchedule.Delta = 2048;
  QueryEngine Reference(PlainStore, Opts);
  QueryEngine Engine(PermutedStore, Opts);

  SplitMix64 Rng(4242);
  for (int Round = 0; Round < 4; ++Round) {
    // External-id update batch applied to both stores, drawn from the
    // canonical fuzz space against the identity-layout store's view (the
    // permuted store's view lives in internal ids).
    std::vector<EdgeUpdate> Batch =
        randomBatch(*PlainStore.current(), 20, Rng);
    Reference.applyUpdates(Batch);
    Engine.applyUpdates(Batch);

    std::vector<Query> Queries;
    for (int I = 0; I < 30; ++I) {
      Query Q;
      Q.Source = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
      Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
      Q.Kind = I % 3 == 0 ? QueryKind::SSSP
                          : (I % 3 == 1 ? QueryKind::PPSP : QueryKind::AStar);
      if (Q.Kind == QueryKind::SSSP)
        Q.CollectReached = true;
      else
        Q.CollectPath = true;
      Queries.push_back(Q);
    }
    std::vector<QueryResult> Got = Engine.runBatch(Queries);
    std::vector<QueryResult> Want = Reference.runBatch(Queries);
    // A* answers go to an exact oracle: both engines serve A* with the
    // same bound, so comparing them would pass a bound the batch broke.
    const Graph Exact = PlainStore.current()->compact();
    for (size_t I = 0; I < Queries.size(); ++I) {
      if (Queries[I].Kind == QueryKind::AStar) {
        EXPECT_EQ(Got[I].Dist,
                  dijkstraPPSP(Exact, Queries[I].Source, Queries[I].Target))
            << "round " << Round << " A* query " << I;
      } else {
        EXPECT_EQ(Got[I].Dist, Want[I].Dist)
            << "round " << Round << " query " << I;
      }
      ASSERT_EQ(Got[I].Reached, Want[I].Reached)
          << "round " << Round << " query " << I;
      if (Queries[I].CollectPath && Got[I].Dist < kInfiniteDistance &&
          !Got[I].Path.empty()) {
        // Verify the external-id path hop-by-hop on the *plain* store's
        // current view.
        SnapshotStore::Snapshot Snap = PlainStore.current();
        Priority Total = 0;
        for (size_t H = 0; H + 1 < Got[I].Path.size(); ++H) {
          bool Found = false;
          for (WNode E : Snap->outNeighbors(Got[I].Path[H]))
            if (E.V == Got[I].Path[H + 1]) {
              Total += E.W;
              Found = true;
              break;
            }
          ASSERT_TRUE(Found) << "round " << Round << " query " << I;
        }
        EXPECT_EQ(Total, Got[I].Dist) << "round " << Round << " query " << I;
      }
    }
  }
}

TEST(QueryEngineLive, AStarRetiresTheCoordinateBoundAnUpsertBreaks) {
  // Random batches insert edges at weights 1-400 between arbitrary
  // vertices and halve existing weights, so some upserts weigh less than
  // 50 x their Euclidean length and the coordinate bound overestimates.
  // A* must then run as plain PPSP and stay exact.
  Graph G = roadWithCoords(24, 33);
  SnapshotStore Store(G);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.DefaultSchedule.Delta = 2048;
  QueryEngine Engine(Store, Opts);
  EXPECT_TRUE(Engine.coordinateBoundUsable());

  // Raised weights keep the bound.
  std::vector<EdgeUpdate> Raise;
  for (WNode E : G.outNeighbors(5))
    Raise.push_back(EdgeUpdate{5, E.V, E.W * 3, UpdateKind::Upsert});
  Engine.applyUpdates(Raise);
  EXPECT_TRUE(Engine.coordinateBoundUsable());

  SplitMix64 Rng(4243);
  for (int Round = 0; Round < 4; ++Round) {
    Engine.applyUpdates(randomBatch(*Store.current(), 20, Rng));
    const Graph Exact = Store.current()->compact();
    std::vector<Query> Queries;
    for (int I = 0; I < 200; ++I) {
      Query Q;
      Q.Kind = QueryKind::AStar;
      Q.Source = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
      Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
      Queries.push_back(Q);
    }
    std::vector<QueryResult> Got = Engine.runBatch(Queries);
    int Wrong = 0;
    for (size_t I = 0; I < Queries.size(); ++I)
      Wrong += Got[I].Dist !=
               dijkstraPPSP(Exact, Queries[I].Source, Queries[I].Target);
    EXPECT_EQ(Wrong, 0) << "round " << Round;
  }
  EXPECT_FALSE(Engine.coordinateBoundUsable())
      << "the batches hold upserts below 50 x their length";
}

TEST(QueryEngineLive, AStarAdmitsUpsertsThatKeepTheBoundConsistent) {
  Coordinates C;
  C.X = {0.0, 3.0, 0.0};
  C.Y = {0.0, 4.0, 0.0};
  // 50 x a length of 5 is 250; the rounding margin asks a little more.
  EXPECT_TRUE(aStarAdmits(C, 0, 1, 251));
  EXPECT_TRUE(aStarAdmits(C, 1, 0, 1000));
  EXPECT_FALSE(aStarAdmits(C, 0, 1, 249));
  EXPECT_FALSE(aStarAdmits(C, 0, 1, 250)) << "no margin left for rounding";
  EXPECT_TRUE(aStarAdmits(C, 0, 2, 1)) << "co-located endpoints";
  EXPECT_FALSE(aStarAdmits(C, 0, 3, 1000)) << "an id without coordinates";
}

//===----------------------------------------------------------------------===//
// Live landmarks kept by their build weights
//===----------------------------------------------------------------------===//

namespace {

QueryEngine::Options liveAltOptions() {
  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.NumLandmarks = 4;
  Opts.DefaultSchedule.Delta = 2048;
  return Opts;
}

/// A* must equal PPSP on the current version, whether or not the landmark
/// cache still serves: random trips plus the trip across edge U → V, the
/// one a bound computed on a stale weight of that edge would get wrong.
void expectAStarEqualsPPSP(QueryEngine &Engine, Count N, uint64_t Seed,
                           VertexId U, VertexId V) {
  SplitMix64 Rng(Seed);
  for (int I = 0; I < 12; ++I) {
    Query A;
    A.Kind = QueryKind::AStar;
    A.Source = I == 0 ? U : static_cast<VertexId>(Rng.nextInt(0, N));
    A.Target = I == 0 ? V : static_cast<VertexId>(Rng.nextInt(0, N));
    Query P = A;
    P.Kind = QueryKind::PPSP;
    std::vector<QueryResult> R = Engine.runBatch({A, P});
    EXPECT_EQ(R[0].Status, QueryStatus::Ok) << "trip " << I;
    EXPECT_EQ(R[0].Dist, R[1].Dist) << "trip " << I;
  }
}

/// An edge U → V whose weight exceeds 100 x its Euclidean length, so it can
/// drop to that floor — below its build weight — and the coordinate bound
/// stays admissible (the generator's invariant, algorithms/AStar.h).
struct LowerableEdge {
  VertexId U = kInvalidVertex, V = kInvalidVertex;
  Weight Floor = 0;
};

LowerableEdge findLowerableEdge(const Graph &G) {
  const Coordinates &C = G.coordinates();
  for (Count U = 0; U < G.numNodes(); ++U)
    for (WNode E : G.outNeighbors(static_cast<VertexId>(U))) {
      const double Len = std::hypot(C.X[U] - C.X[E.V], C.Y[U] - C.Y[E.V]);
      const auto Floor = static_cast<Weight>(std::ceil(100.0 * Len));
      if (E.W > Floor)
        return {static_cast<VertexId>(U), E.V, Floor};
    }
  return {};
}

} // namespace

TEST(QueryEngineLive, LandmarksServeThroughRaiseAndRestore) {
  Graph G = roadWithCoords(24, 61);
  SnapshotStore Store(G);
  QueryEngine Engine(Store, liveAltOptions());
  ASSERT_NE(Engine.landmarks(), nullptr);
  EXPECT_TRUE(Engine.landmarksUsable());

  // An incident triples an edge, and clearing it restores the build
  // weight: no weight ever drops below the one the landmarks were built
  // on, so the cache serves throughout.
  const VertexId U = 0;
  const WNode E = *G.outNeighbors(U).begin();
  Engine.applyUpdates({EdgeUpdate{U, E.V, E.W * 3, UpdateKind::Upsert}});
  EXPECT_TRUE(Engine.landmarksUsable()) << "a raise must not retire the cache";
  expectAStarEqualsPPSP(Engine, G.numNodes(), 1, U, E.V);

  Engine.applyUpdates({EdgeUpdate{U, E.V, E.W, UpdateKind::Upsert}});
  EXPECT_TRUE(Engine.landmarksUsable())
      << "restoring the build weight must not retire the cache";
  expectAStarEqualsPPSP(Engine, G.numNodes(), 2, U, E.V);
}

TEST(QueryEngineLive, LandmarksRetireForGoodBelowBuildWeight) {
  Graph G = roadWithCoords(24, 62);
  SnapshotStore::Options StoreOpts;
  // Low enough that the filler batches below trip compaction.
  StoreOpts.CompactionThreshold = 0.01;
  StoreOpts.MinOverlayEdges = 64;
  SnapshotStore Store(G, StoreOpts);
  QueryEngine Engine(Store, liveAltOptions());

  const LowerableEdge L = findLowerableEdge(G);
  ASSERT_NE(L.U, kInvalidVertex);
  Engine.applyUpdates({EdgeUpdate{L.U, L.V, L.Floor, UpdateKind::Upsert}});
  EXPECT_FALSE(Engine.landmarksUsable())
      << "a weight below the build weight must retire the cache";
  expectAStarEqualsPPSP(Engine, G.numNodes(), 3, L.U, L.V);

  // A compaction folds the lighter edge into the base; the cache was built
  // on the heavier one and stays retired.
  SplitMix64 Rng(5150);
  const uint64_t Before = Store.compactions();
  for (int Round = 0; Round < 50 && Store.compactions() == Before; ++Round)
    Engine.applyUpdates(coordinateSafeInsertBatch(G, 64, Rng));
  ASSERT_GT(Store.compactions(), Before);
  Engine.applyUpdates({});
  EXPECT_FALSE(Engine.landmarksUsable())
      << "a compaction must not re-arm a retired cache";
  expectAStarEqualsPPSP(Engine, G.numNodes(), 4, L.U, L.V);
}

TEST(QueryEngineLive, LandmarksRetireOnNewEdgesAndGrowthNotOnRemoval) {
  Graph G = roadWithCoords(24, 63);

  {
    // An edge the build graph lacks, at a coordinate-safe weight.
    SnapshotStore Store(G);
    QueryEngine Engine(Store, liveAltOptions());
    SplitMix64 Rng(7);
    EdgeUpdate Insert;
    for (const EdgeUpdate &Up : coordinateSafeInsertBatch(G, 64, Rng)) {
      bool Present = false;
      for (WNode E : G.outNeighbors(Up.Src))
        Present |= E.V == Up.Dst;
      if (!Present) {
        Insert = Up;
        break;
      }
    }
    ASSERT_NE(Insert.Src, Insert.Dst);
    Engine.applyUpdates({Insert});
    EXPECT_FALSE(Engine.landmarksUsable())
        << "an edge absent from the build graph must retire the cache";
    expectAStarEqualsPPSP(Engine, G.numNodes(), 5, Insert.Src, Insert.Dst);
  }

  {
    SnapshotStore Store(G);
    QueryEngine Engine(Store, liveAltOptions());
    Engine.addVertices(1);
    EXPECT_FALSE(Engine.landmarksUsable()) << "growth must retire the cache";
    expectAStarEqualsPPSP(Engine, G.numNodes(), 6, 0, 1);
  }

  {
    // Removal deletes edges, and re-wiring the recycled id at the build
    // weights restores them: the cache serves throughout.
    SnapshotStore Store(G);
    QueryEngine Engine(Store, liveAltOptions());
    const VertexId V = 5 * 24 + 5;
    std::vector<EdgeUpdate> Rewire;
    for (WNode E : G.outNeighbors(V))
      Rewire.push_back(EdgeUpdate{V, E.V, E.W, UpdateKind::Upsert});
    ASSERT_FALSE(Rewire.empty());

    Engine.removeVertex(V);
    EXPECT_TRUE(Engine.landmarksUsable())
        << "removing a vertex must not retire the cache";
    expectAStarEqualsPPSP(Engine, G.numNodes(), 7, V, Rewire[0].Dst);

    ASSERT_EQ(Engine.acquireVertex(), V);
    Engine.applyUpdates(Rewire);
    EXPECT_TRUE(Engine.landmarksUsable())
        << "restoring edges at their build weights must not retire the cache";
    expectAStarEqualsPPSP(Engine, G.numNodes(), 8, V, Rewire[0].Dst);
  }
}

//===----------------------------------------------------------------------===//
// Adaptive batching (Options::MaxBatchDelayMicros)
//===----------------------------------------------------------------------===//

TEST(QueryEngineBatching, BatchedResultsBitIdenticalToUnbatched) {
  // Batching only changes *when* a worker picks tasks up, never what a
  // task computes: the same randomized mixed workload must produce
  // bit-identical distances with batching off and fully on.
  Graph G = roadWithCoords(32, 55);
  QueryEngine::Options Plain;
  Plain.NumWorkers = 2;
  Plain.DefaultSchedule.Delta = 2048;
  QueryEngine::Options Batched = Plain;
  Batched.MaxBatchDelayMicros = 1000;
  QueryEngine PlainEngine(G, Plain);
  QueryEngine BatchedEngine(G, Batched);

  constexpr int kNumQueries = 200;
  SplitMix64 Rng(808);
  std::vector<Query> Work;
  for (int I = 0; I < kNumQueries; ++I) {
    Query Q;
    Q.Source = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.Kind = (I % 3 == 0) ? QueryKind::SSSP
                          : (I % 3 == 1 ? QueryKind::PPSP : QueryKind::AStar);
    if (Q.Kind == QueryKind::SSSP)
      Q.CollectReached = true;
    Work.push_back(Q);
  }

  std::vector<QueryResult> A = PlainEngine.runBatch(Work);
  std::vector<QueryResult> B = BatchedEngine.runBatch(Work);
  ASSERT_EQ(A.size(), B.size());
  for (int I = 0; I < kNumQueries; ++I) {
    ASSERT_EQ(A[I].Dist, B[I].Dist) << "query " << I;
    ASSERT_EQ(A[I].Reached, B[I].Reached) << "query " << I;
    ASSERT_EQ(static_cast<int>(A[I].Status), static_cast<int>(B[I].Status))
        << "query " << I;
  }
  // runBatch submits one query at a time while collecting in order, so
  // whether the window ever engaged is workload-timing dependent — but it
  // must never exceed the configured bound.
  EXPECT_LE(BatchedEngine.policyCounters().MaxBatchWindowMicros, 1000);
  EXPECT_EQ(PlainEngine.policyCounters().MaxBatchWindowMicros, 0);
}

TEST(QueryEngineBatching, WindowGrowsUnderBacklogAndCollapsesWhenDrained) {
  // The engine's wiring of the batch window (the window's own rules are
  // ServingPolicy.BatchWindow* in serving_policy_test.cpp): a single
  // worker busy with a slow full-graph SSSP while a burst of point
  // queries piles up behind it. When the worker comes back it must report
  // each formed batch to the policy — the window grows with the backlog —
  // drain it in batches, and finish with the queue empty (window
  // collapses to 0).
  Graph G = roadWithCoords(40, 91);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 1;
  Opts.DefaultSchedule.Delta = 2048;
  Opts.MaxBatchDelayMicros = 2000;
  QueryEngine Engine(G, Opts);

  Query Slow;
  Slow.Kind = QueryKind::SSSP;
  Slow.Source = 0;
  Slow.CollectReached = true;
  // Release this thread's idle OpenMP pool first. After the graph build
  // its threads spin for milliseconds and hold the other cores, so the
  // woken worker takes this thread's core, and the submits below would
  // run only after the slow query, with nothing left in the queue.
  omp_pause_resource_all(omp_pause_soft);
  uint64_t SlowTicket = Engine.submit(Slow);
  // Wait for the worker to pick it up so the burst below queues *behind*
  // a busy worker instead of racing it.
  while (Engine.queueDepth() > 0)
    std::this_thread::yield();

  SplitMix64 Rng(19);
  std::vector<uint64_t> Tickets;
  for (int I = 0; I < 32; ++I) {
    Query Q;
    Q.Kind = QueryKind::PPSP;
    Q.Source = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Tickets.push_back(Engine.submit(Q));
  }
  (void)Engine.collect(SlowTicket);
  for (uint64_t T : Tickets)
    (void)Engine.collect(T);

  // The backlog must have engaged the window at least once (the worker
  // finished the slow query with 32 queries pending), within its bound...
  const ServingPolicy::Counters C = Engine.policyCounters();
  EXPECT_GT(C.MaxBatchWindowMicros, 0);
  EXPECT_LE(C.MaxBatchWindowMicros, Opts.MaxBatchDelayMicros);
  // ...and the final batch (which drained the queue) collapsed it.
  EXPECT_EQ(Engine.batchWindowMicros(), 0);
  EXPECT_EQ(C.served(), 33u);
}

//===----------------------------------------------------------------------===//
// Cross-engine hot-state sharing (Options::SharedHotCache)
//===----------------------------------------------------------------------===//

TEST(QueryEngineLive, SharedHotCacheServesCrossEngineHits) {
  // Two engines over one store share a hot cache: a source warmed by
  // engine A answers engine B's point queries without an engine run, at
  // the same bit-exact distances, across repaired versions.
  Graph G = roadWithCoords(24, 47);
  SnapshotStore Store(G);
  QueryEngine::Options OptsA;
  OptsA.NumWorkers = 2;
  OptsA.DefaultSchedule.Delta = 2048;
  OptsA.HotSourceCapacity = 8;
  QueryEngine A(Store, OptsA);
  ASSERT_NE(A.hotCache(), nullptr);

  QueryEngine::Options OptsB;
  OptsB.NumWorkers = 2;
  OptsB.DefaultSchedule.Delta = 2048;
  OptsB.SharedHotCache = A.hotCache();
  QueryEngine B(Store, OptsB);

  const VertexId Depot = 7;
  Query Warm;
  Warm.Kind = QueryKind::SSSP;
  Warm.Source = Depot;
  (void)A.runBatch({Warm});
  EXPECT_GE(A.hotCache()->size(), 1u);

  SplitMix64 Rng(3131);
  for (int Round = 0; Round < 3; ++Round) {
    // B's point queries from the depot must hit A's warmed state.
    uint64_t HitsBefore = B.hotHits();
    Graph Compact = Store.current()->compact();
    for (int I = 0; I < 6; ++I) {
      Query Q;
      Q.Kind = QueryKind::PPSP;
      Q.Source = Depot;
      Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
      QueryResult R = B.runBatch({Q})[0];
      PPSPResult Ref = pointToPointShortestPath(
          Compact, Q.Source, Q.Target, OptsB.DefaultSchedule);
      ASSERT_EQ(R.Dist, Ref.Dist) << "round " << Round << " query " << I;
    }
    EXPECT_GT(B.hotHits(), HitsBefore) << "round " << Round;

    // Advance the store one version *through a single engine* (the cache
    // is repaired exactly once per publish); the warm state must survive
    // via incremental repair and keep serving both engines.
    std::vector<EdgeUpdate> Batch = randomBatch(*Store.current(), 24, Rng);
    ASSERT_EQ(static_cast<int>(A.applyUpdates(Batch).Status),
              static_cast<int>(ApplyStatus::Ok));
  }
  EXPECT_GT(A.hotCache()->repairs(), 0u);
  EXPECT_EQ(A.hotRepairs(), B.hotRepairs())
      << "shared cache: both engines report the cache-wide repair count";
}

TEST(QueryEngineLive, HotHitsRaceInPlaceRepairs) {
  // Reader threads copy answers out of a hot state while applyUpdates
  // repairs it. A repair writes the state in place once no reader holds
  // it any more, so under TSan this checks that a reader's last reads are
  // ordered before those writes. Every answer observed while the store's
  // version stayed put must equal that version's Dijkstra distance.
  Graph G = roadWithCoords(20, 83);
  SnapshotStore Store(G);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.DefaultSchedule.Delta = 2048;
  Opts.HotSourceCapacity = 4;
  QueryEngine Engine(Store, Opts);

  const VertexId Depot = 11;
  Query Warm;
  Warm.Kind = QueryKind::SSSP;
  Warm.Source = Depot;
  (void)Engine.runBatch({Warm});

  struct Seen {
    uint64_t Version;
    VertexId Target;
    Priority Dist;
  };
  std::atomic<bool> Done{false};
  std::vector<std::vector<Seen>> Observed(2);
  std::vector<std::thread> Readers;
  for (size_t R = 0; R < Observed.size(); ++R)
    Readers.emplace_back([&, R] {
      SplitMix64 Rng(900 + R);
      for (int I = 0; !Done.load(std::memory_order_acquire); ++I) {
        // Every 8th query is the depot's SSSP: it re-warms the cache
        // after a compaction drops it.
        Query Q;
        Q.Kind = I % 8 == 0 ? QueryKind::SSSP : QueryKind::PPSP;
        Q.Source = Depot;
        if (Q.Kind == QueryKind::PPSP)
          Q.Target = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
        const uint64_t Before = Store.version();
        QueryResult Res = Engine.collect(Engine.submit(Q));
        if (Q.Kind == QueryKind::PPSP && Store.version() == Before)
          Observed[R].push_back({Before, Q.Target, Res.Dist});
      }
    });

  std::map<uint64_t, std::vector<Priority>> Reference;
  SplitMix64 Rng(4242);
  for (int Round = 0; Round < 40; ++Round) {
    auto [Snap, Ver] = Store.currentVersioned();
    Reference[Ver] = dijkstraSSSP(Snap->compact(), Depot);
    // Let the readers take a few hot hits on this version (bounded wait)
    // before the repair that follows.
    const uint64_t Hits = Engine.hotHits();
    for (int Wait = 0; Wait < 2000 && Engine.hotHits() < Hits + 4; ++Wait)
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    // EXPECT, not ASSERT: returning early would skip joining the readers.
    std::vector<EdgeUpdate> Batch = randomBatch(*Snap, 8, Rng);
    EXPECT_EQ(static_cast<int>(Engine.applyUpdates(Batch).Status),
              static_cast<int>(ApplyStatus::Ok));
  }
  {
    auto [Snap, Ver] = Store.currentVersioned();
    Reference[Ver] = dijkstraSSSP(Snap->compact(), Depot);
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  size_t Checked = 0;
  for (const std::vector<Seen> &Log : Observed)
    for (const Seen &O : Log) {
      ASSERT_TRUE(Reference.count(O.Version)) << "version " << O.Version;
      ASSERT_EQ(O.Dist, Reference[O.Version][O.Target])
          << "version " << O.Version << " target " << O.Target;
      ++Checked;
    }
  EXPECT_GT(Checked, 0u);
  EXPECT_GT(Engine.hotHits(), 40u);
  EXPECT_GT(Engine.hotRepairs(), 0u);
}
