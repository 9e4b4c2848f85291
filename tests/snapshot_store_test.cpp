//===- tests/snapshot_store_test.cpp - Live-graph serving tests -----------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Covers the live-graph serving stack: the DeltaGraph overlay (unified
// iteration, mirrored in-adjacency, compaction), the SnapshotStore
// (pinned versions across publishes, concurrent readers, synchronous and
// background compaction), incremental distance repair (bit-identical to
// full recompute on random delta batches, eager and lazy engines,
// symmetric and directed graphs), and the QueryEngine's live mode.
//
//===----------------------------------------------------------------------===//

#include "stress_harness.h"

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/DeltaGraph.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "service/SnapshotStore.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace graphit;
using namespace graphit::service;
using graphit::stress::randomBatch; // the one canonical update space
using graphit::stress::reachedVertices;
using graphit::stress::ScopedThreads;

namespace {

Graph smallDirected() {
  // 0 -> 1 (w 4), 0 -> 2 (w 9), 1 -> 2 (w 3), 2 -> 3 (w 1), 1 -> 3 (w 10)
  std::vector<Edge> Edges = {
      {0, 1, 4}, {0, 2, 9}, {1, 2, 3}, {2, 3, 1}, {1, 3, 10}};
  return GraphBuilder().build(4, Edges);
}

Graph roadGraph(Count Side = 80) {
  RoadNetwork Net = roadGrid(Side, Side, 4242);
  BuildOptions Options;
  Options.Symmetrize = true;
  return GraphBuilder(Options).build(Net.NumNodes, Net.Edges,
                                     std::move(Net.Coords));
}

int64_t checksum(const std::vector<Priority> &Dist) {
  int64_t Sum = 0;
  for (Priority P : Dist)
    if (P < kInfiniteDistance)
      Sum += P;
  return Sum;
}

template <typename GraphT> int64_t ssspChecksum(const GraphT &G) {
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  return checksum(deltaSteppingSSSP(G, 0, S).Dist);
}

/// Drives `repairAfterUpdates` against a full recompute over a sequence of
/// random batches and requires bit-identical distance arrays.
void checkRepairMatchesRecompute(Graph Base, VertexId Source,
                                 const Schedule &S, uint64_t Seed) {
  SnapshotStore Store(std::move(Base));
  DistanceState State(Store.current()->numNodes(), /*TrackParents=*/false);
  deltaSteppingSSSP(*Store.current(), Source, S, State);
  RepairScratch Scratch;
  SplitMix64 Rng(Seed);

  for (int Round = 0; Round < 8; ++Round) {
    // Batches big enough that updates interact (an increase invalidating
    // the tail of a tight decreased edge caught a real propagation bug).
    std::vector<EdgeUpdate> Batch =
        randomBatch(*Store.current(), 64, Rng);
    SnapshotStore::ApplyResult A = Store.applyUpdates(Batch);
    RepairStats R =
        repairAfterUpdates(*A.Snap, A.Applied, State, S, Scratch);
    (void)R;

    SSSPResult Fresh = deltaSteppingSSSP(*A.Snap, Source, S);
    ASSERT_EQ(Fresh.Dist.size(), State.distances().size());
    for (size_t V = 0; V < Fresh.Dist.size(); ++V)
      ASSERT_EQ(State.distances()[V], Fresh.Dist[V])
          << "round " << Round << " vertex " << V;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// DeltaGraph overlay
//===----------------------------------------------------------------------===//

TEST(DeltaGraph, UpsertDeleteAndMirroredInEdges) {
  auto Base = std::make_shared<const Graph>(smallDirected());
  DeltaGraph D(Base);
  EXPECT_EQ(D.numEdges(), Base->numEdges());
  EXPECT_EQ(D.overlayEdges(), 0);

  // Insert 3 -> 0, delete 0 -> 2, change 1 -> 2 to weight 5.
  std::vector<AppliedUpdate> Applied = D.apply({
      EdgeUpdate{3, 0, 2, UpdateKind::Upsert},
      EdgeUpdate{0, 2, 0, UpdateKind::Delete},
      EdgeUpdate{1, 2, 5, UpdateKind::Upsert},
  });
  ASSERT_EQ(Applied.size(), 3u);
  EXPECT_EQ(Applied[0].OldW, kAbsentEdge);
  EXPECT_EQ(Applied[0].NewW, 2);
  EXPECT_EQ(Applied[1].OldW, 9);
  EXPECT_EQ(Applied[1].NewW, kAbsentEdge);
  EXPECT_EQ(Applied[2].OldW, 3);
  EXPECT_EQ(Applied[2].NewW, 5);

  EXPECT_EQ(D.numEdges(), Base->numEdges()); // +1 insert, -1 delete
  EXPECT_EQ(D.outDegree(3), 1);
  EXPECT_EQ(D.outDegree(0), 1);
  // Unpatched vertex reads straight from base.
  EXPECT_EQ(D.outDegree(2), 1);

  // In-adjacency mirrors the patches (directed base built with in-edges).
  ASSERT_TRUE(D.hasInEdges());
  bool Saw30 = false;
  for (WNode E : D.inNeighbors(0))
    if (E.V == 3 && E.W == 2)
      Saw30 = true;
  EXPECT_TRUE(Saw30);
  Count In2 = 0;
  for (WNode E : D.inNeighbors(2)) {
    EXPECT_EQ(E.V, 1u); // 0 -> 2 deleted; only 1 -> 2 (now weight 5) left
    EXPECT_EQ(E.W, 5);
    ++In2;
  }
  EXPECT_EQ(In2, 1);

  // No-ops: delete a missing edge, upsert to the same weight.
  EXPECT_TRUE(D.apply({EdgeUpdate{0, 2, 0, UpdateKind::Delete}}).empty());
  EXPECT_TRUE(D.apply({EdgeUpdate{1, 2, 5, UpdateKind::Upsert}}).empty());
  // Malformed writes are skipped, not fatal.
  EXPECT_TRUE(D.apply({EdgeUpdate{1, 1, 5, UpdateKind::Upsert},
                       EdgeUpdate{99, 0, 1, UpdateKind::Upsert},
                       EdgeUpdate{0, 1, -3, UpdateKind::Upsert}})
                  .empty());
}

TEST(DeltaGraph, SymmetricUpdatesBothDirections) {
  auto Base = std::make_shared<const Graph>(roadGraph(12));
  DeltaGraph D(Base);
  // Pick an existing edge off vertex 0.
  WNode First = *D.outNeighbors(0).begin();
  std::vector<AppliedUpdate> Applied = D.apply(
      {EdgeUpdate{0, First.V, static_cast<Weight>(First.W + 7),
                  UpdateKind::Upsert}});
  ASSERT_EQ(Applied.size(), 2u); // both directions
  EXPECT_EQ(Applied[0].Src, 0u);
  EXPECT_EQ(Applied[1].Dst, 0u);
  // The mirror direction reads the new weight through inNeighbors (which
  // aliases outNeighbors on symmetric graphs).
  bool Saw = false;
  for (WNode E : D.outNeighbors(First.V))
    if (E.V == 0 && E.W == First.W + 7)
      Saw = true;
  EXPECT_TRUE(Saw);
  EXPECT_EQ(D.numEdges(), Base->numEdges());

  // Deleting it drops two directed edges.
  D.apply({EdgeUpdate{First.V, 0, 0, UpdateKind::Delete}});
  EXPECT_EQ(D.numEdges(), Base->numEdges() - 2);
}

TEST(DeltaGraph, CompactEquivalence) {
  auto Base = std::make_shared<const Graph>(roadGraph(20));
  DeltaGraph D(Base);
  SplitMix64 Rng(99);
  for (int I = 0; I < 6; ++I)
    D.apply(randomBatch(D, 20, Rng));

  Graph C = D.compact();
  ASSERT_EQ(C.numNodes(), D.numNodes());
  ASSERT_EQ(C.numEdges(), D.numEdges());
  EXPECT_TRUE(C.isSymmetric());
  EXPECT_TRUE(C.hasCoordinates());
  // Identical adjacency, vertex by vertex (both sides sorted by id).
  for (Count V = 0; V < C.numNodes(); ++V) {
    ASSERT_EQ(C.outDegree(static_cast<VertexId>(V)),
              D.outDegree(static_cast<VertexId>(V)));
    auto A = C.outNeighbors(static_cast<VertexId>(V)).begin();
    for (WNode E : D.outNeighbors(static_cast<VertexId>(V))) {
      WNode Got = *A;
      ASSERT_EQ(Got.V, E.V) << "vertex " << V;
      ASSERT_EQ(Got.W, E.W) << "vertex " << V;
      ++A;
    }
  }
  EXPECT_EQ(ssspChecksum(C), ssspChecksum(D));
}

//===----------------------------------------------------------------------===//
// SnapshotStore
//===----------------------------------------------------------------------===//

TEST(SnapshotStore, ReadersStayPinnedAcrossPublish) {
  SnapshotStore Store(smallDirected());
  EXPECT_EQ(Store.version(), 0u);
  SnapshotStore::Snapshot Pinned = Store.current();
  Count Deg0 = Pinned->outDegree(0);

  SnapshotStore::ApplyResult A =
      Store.applyUpdates({EdgeUpdate{0, 3, 1, UpdateKind::Upsert}});
  EXPECT_EQ(A.Version, 1u);
  EXPECT_EQ(Store.version(), 1u);

  // The pinned version is immutable; the new one sees the insert.
  EXPECT_EQ(Pinned->outDegree(0), Deg0);
  EXPECT_EQ(Store.current()->outDegree(0), Deg0 + 1);
  EXPECT_EQ(A.Snap->outDegree(0), Deg0 + 1);
}

TEST(SnapshotStore, ConcurrentReadersWhilePublishing) {
  SnapshotStore Store(roadGraph(40));
  std::atomic<bool> Done{false};
  std::atomic<int> Failures{0};

  std::vector<std::thread> Readers;
  for (int T = 0; T < 4; ++T)
    Readers.emplace_back([&] {
      Schedule S;
      S.configApplyPriorityUpdateDelta(1024);
      while (!Done.load()) {
        SnapshotStore::Snapshot Snap = Store.current();
        // A pinned version must be internally consistent: two runs over
        // it give identical results no matter how many versions the
        // writer publishes meanwhile.
        int64_t C1 = checksum(deltaSteppingSSSP(*Snap, 0, S).Dist);
        int64_t C2 = checksum(deltaSteppingSSSP(*Snap, 0, S).Dist);
        if (C1 != C2)
          ++Failures;
      }
    });

  SplitMix64 Rng(7);
  for (int I = 0; I < 40; ++I)
    Store.applyUpdates(randomBatch(*Store.current(), 10, Rng));
  Done = true;
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Store.version(), 40u);
}

TEST(SnapshotStore, SynchronousCompactionPreservesChecksums) {
  SnapshotStore::Options Opts;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 64;
  SnapshotStore Store(roadGraph(24), Opts);

  SplitMix64 Rng(31);
  bool Triggered = false;
  for (int I = 0; I < 30; ++I) {
    std::vector<EdgeUpdate> Batch = randomBatch(*Store.current(), 16, Rng);
    int64_t Before = -1;
    {
      // Checksum of what the adjacency *should* be after this batch:
      // apply to a throwaway copy of the current view.
      DeltaGraph Scratch(*Store.current());
      Scratch.apply(Batch);
      Before = ssspChecksum(Scratch);
    }
    SnapshotStore::ApplyResult A = Store.applyUpdates(Batch);
    Triggered |= A.CompactionTriggered;
    EXPECT_EQ(ssspChecksum(*A.Snap), Before) << "batch " << I;
  }
  EXPECT_TRUE(Triggered);
  EXPECT_GT(Store.compactions(), 0u);
  // Compaction folded the overlay back into a base CSR.
  EXPECT_LT(Store.current()->overlayEdges(),
            Store.current()->numEdges() / 10);
}

TEST(SnapshotStore, BackgroundCompactionReplaysConcurrentBatches) {
  SnapshotStore::Options Sync;
  Sync.CompactionThreshold = 1e9; // reference store never compacts
  SnapshotStore Reference(roadGraph(24), Sync);

  SnapshotStore::Options Opts;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 64;
  Opts.BackgroundCompaction = true;
  SnapshotStore Store(roadGraph(24), Opts);

  SplitMix64 Rng(55);
  for (int I = 0; I < 30; ++I) {
    // Same batches into both stores; the background compactor races the
    // writer and must replay whatever landed while it rebuilt.
    std::vector<EdgeUpdate> Batch = randomBatch(*Store.current(), 16, Rng);
    Reference.applyUpdates(Batch);
    Store.applyUpdates(Batch);
  }
  Store.waitForCompaction();
  EXPECT_GT(Store.compactions(), 0u);
  EXPECT_EQ(ssspChecksum(*Store.current()),
            ssspChecksum(*Reference.current()));
  EXPECT_EQ(Store.current()->numEdges(), Reference.current()->numEdges());
}

//===----------------------------------------------------------------------===//
// Incremental repair
//===----------------------------------------------------------------------===//

TEST(IncrementalRepair, MatchesRecomputeSymmetricEager) {
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  checkRepairMatchesRecompute(roadGraph(), 0, S, 1001);
}

TEST(IncrementalRepair, MatchesRecomputeSymmetricLazy) {
  Schedule S;
  S.configApplyPriorityUpdate("lazy").configApplyPriorityUpdateDelta(1024);
  checkRepairMatchesRecompute(roadGraph(), 17, S, 2002);
}

TEST(IncrementalRepair, MatchesRecomputeDirectedRmat) {
  std::vector<Edge> Edges = rmatEdges(10, 8, 321);
  assignRandomWeights(Edges, 1, 64, 11);
  Graph G = GraphBuilder().build(Count{1} << 10, Edges);
  ASSERT_TRUE(G.hasInEdges());
  Schedule S;
  S.configApplyPriorityUpdateDelta(4);
  checkRepairMatchesRecompute(std::move(G), 3, S, 3003);
}

TEST(IncrementalRepair, DeleteCanDisconnect) {
  // Path 0 -> 1 -> 2 -> 3; deleting 1 -> 2 must push 2 and 3 back to ∞,
  // and re-inserting it must bring them back. The reach count and the
  // reached set follow: 4 -> 2 -> 4, with the invalidation taking each
  // cut-off vertex off the count once and lifting it off ∞ again adding
  // it back once. The re-insert seeds 2 in the serial seed loop and
  // reaches 3 in the settle, which marks with plain ORs at one thread and
  // with atomics and per-thread counts at four. Isolated vertices 4-7 keep
  // the two-vertex affected set within the N/4 recompute threshold, so
  // both repairs stay incremental.
  for (int Threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << Threads);
    ScopedThreads Scope(Threads);
    std::vector<Edge> Edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}};
    SnapshotStore Store(GraphBuilder().build(8, Edges));
    Schedule S;
    DistanceState State(8);
    deltaSteppingSSSP(*Store.current(), 0, S, State);
    ASSERT_EQ(State.dist(3), 3);
    EXPECT_EQ(reachedVertices(State), (std::vector<VertexId>{0, 1, 2, 3}));
    EXPECT_EQ(State.numReached(), 4);

    SnapshotStore::ApplyResult A =
        Store.applyUpdates({EdgeUpdate{1, 2, 0, UpdateKind::Delete}});
    RepairScratch Scratch;
    RepairStats R =
        repairAfterUpdates(*A.Snap, A.Applied, State, S, Scratch);
    EXPECT_EQ(State.dist(0), 0);
    EXPECT_EQ(State.dist(1), 1);
    EXPECT_EQ(State.dist(2), kInfiniteDistance);
    EXPECT_EQ(State.dist(3), kInfiniteDistance);
    EXPECT_EQ(R.AffectedVertices, 2);
    EXPECT_FALSE(R.RecomputeFallback);
    EXPECT_EQ(reachedVertices(State), (std::vector<VertexId>{0, 1}));
    EXPECT_EQ(State.numReached(), 2);

    SnapshotStore::ApplyResult B =
        Store.applyUpdates({EdgeUpdate{1, 2, 1, UpdateKind::Upsert}});
    R = repairAfterUpdates(*B.Snap, B.Applied, State, S, Scratch);
    EXPECT_EQ(R.AffectedVertices, 0);
    EXPECT_FALSE(R.RecomputeFallback);
    EXPECT_EQ(State.dist(2), 2);
    EXPECT_EQ(State.dist(3), 3);
    EXPECT_EQ(reachedVertices(State), (std::vector<VertexId>{0, 1, 2, 3}));
    EXPECT_EQ(State.numReached(), 4);
  }
}

TEST(IncrementalRepair, DecreaseOnlySeedsWithoutInvalidation) {
  // 0 -> 1 (10), 1 -> 2 (10), 0 -> 2 (100): shortcut decrease re-routes 2.
  std::vector<Edge> Edges = {{0, 1, 10}, {1, 2, 10}, {0, 2, 100}};
  SnapshotStore Store(GraphBuilder().build(3, Edges));
  Schedule S;
  DistanceState State(3);
  deltaSteppingSSSP(*Store.current(), 0, S, State);
  ASSERT_EQ(State.dist(2), 20);

  SnapshotStore::ApplyResult A =
      Store.applyUpdates({EdgeUpdate{0, 2, 5, UpdateKind::Upsert}});
  RepairScratch Scratch;
  RepairStats R = repairAfterUpdates(*A.Snap, A.Applied, State, S, Scratch);
  EXPECT_EQ(R.AffectedVertices, 0); // pure decrease: nothing invalidated
  EXPECT_EQ(State.dist(2), 5);
}

TEST(IncrementalRepair, TouchedLogStaysResettable) {
  // After repairs (including vertices cut off to ∞), beginQuery must
  // still produce a clean slate — the touched log is a superset of the
  // finite vertices.
  SnapshotStore Store(roadGraph(16));
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  DistanceState State(Store.current()->numNodes());
  deltaSteppingSSSP(*Store.current(), 0, S, State);
  RepairScratch Scratch;
  SplitMix64 Rng(77);
  for (int I = 0; I < 4; ++I) {
    SnapshotStore::ApplyResult A =
        Store.applyUpdates(randomBatch(*Store.current(), 15, Rng));
    repairAfterUpdates(*A.Snap, A.Applied, State, S, Scratch);
  }
  // Fresh query from another source equals a from-scratch run.
  deltaSteppingSSSP(*Store.current(), 42, S, State);
  SSSPResult Fresh = deltaSteppingSSSP(*Store.current(), 42, S);
  for (size_t V = 0; V < Fresh.Dist.size(); ++V)
    ASSERT_EQ(State.distances()[V], Fresh.Dist[V]) << "vertex " << V;
}

//===----------------------------------------------------------------------===//
// QueryEngine live mode
//===----------------------------------------------------------------------===//

TEST(QueryEngineLive, QueriesTrackPublishedVersions) {
  SnapshotStore Store(roadGraph(30));
  QueryEngine::Options Opts;
  Opts.NumWorkers = 4;
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  Opts.DefaultSchedule = S;
  QueryEngine Engine(Store, Opts);
  ASSERT_TRUE(Engine.isLive());

  std::vector<std::pair<VertexId, VertexId>> Pairs =
      localGridQueryPairs(30, 30, 6, 32, 5);
  std::vector<Query> Batch;
  for (auto [Src, Dst] : Pairs) {
    Query Q;
    Q.Kind = QueryKind::PPSP;
    Q.Source = Src;
    Q.Target = Dst;
    Batch.push_back(Q);
  }

  SplitMix64 Rng(13);
  for (int Round = 0; Round < 3; ++Round) {
    std::vector<QueryResult> Results = Engine.runBatch(Batch);
    SnapshotStore::Snapshot Snap = Store.current();
    for (size_t I = 0; I < Batch.size(); ++I) {
      ASSERT_NE(Results[I].Status, QueryStatus::Failed);
      PPSPResult Direct = pointToPointShortestPath(
          *Snap, Batch[I].Source, Batch[I].Target, S);
      EXPECT_EQ(Results[I].Dist, Direct.Dist) << "query " << I;
    }
    Engine.applyUpdates(randomBatch(*Store.current(), 20, Rng));
  }
  EXPECT_EQ(Store.version(), 3u);
}

TEST(QueryEngineLive, InFlightQueriesSurviveConcurrentPublishes) {
  SnapshotStore Store(roadGraph(30));
  QueryEngine::Options Opts;
  Opts.NumWorkers = 4;
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  Opts.DefaultSchedule = S;
  QueryEngine Engine(Store, Opts);

  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    SplitMix64 Rng(21);
    while (!Done.load())
      Engine.applyUpdates(randomBatch(*Store.current(), 8, Rng));
  });

  std::vector<std::pair<VertexId, VertexId>> Pairs =
      localGridQueryPairs(30, 30, 6, 64, 9);
  for (int Round = 0; Round < 10; ++Round) {
    std::vector<Query> Batch;
    for (auto [Src, Dst] : Pairs) {
      Query Q;
      Q.Kind = QueryKind::SSSP;
      Q.Source = Src;
      Q.Target = Dst;
      Batch.push_back(Q);
    }
    std::vector<QueryResult> Results = Engine.runBatch(Batch);
    for (const QueryResult &R : Results) {
      EXPECT_NE(R.Status, QueryStatus::Failed);
      // Grid stays connected under these update mixes rarely breaks a
      // local pair; the hard guarantee is completion with a finite or
      // infinite distance, never a crash or a torn read.
      EXPECT_GE(R.Dist, 0);
    }
  }
  Done = true;
  Writer.join();
  EXPECT_GT(Store.version(), 0u);
}

//===----------------------------------------------------------------------===//
// Copy-on-write publish
//===----------------------------------------------------------------------===//

TEST(SnapshotStore, PublishSharesUntouchedPatchLists) {
  // publish() must copy O(dirty-since-last-publish), not O(V + overlay):
  // a snapshot and the writer share patch-list storage until the writer
  // dirties a list again, observable through adjacency pointer identity.
  Graph Base = roadGraph(20);
  const VertexId Far = static_cast<VertexId>(Base.numNodes() - 1);
  SnapshotStore Store(std::move(Base));

  WNode E0 = *Store.current()->outNeighbors(0).begin();
  Store.applyUpdates({EdgeUpdate{0, E0.V, static_cast<Weight>(E0.W + 10),
                                 UpdateKind::Upsert}});
  SnapshotStore::Snapshot SnapA = Store.current();
  const WNode *ListOfZero = SnapA->outNeighbors(0).Packed;
  ASSERT_NE(ListOfZero, nullptr);
  ASSERT_NE(ListOfZero, SnapA->base().outNeighbors(0).Packed)
      << "patched: served from a patch list, not the base row";

  // A batch touching a distant vertex publishes without copying 0's list.
  WNode EF = *Store.current()->outNeighbors(Far).begin();
  Store.applyUpdates({EdgeUpdate{Far, EF.V, static_cast<Weight>(EF.W + 10),
                                 UpdateKind::Upsert}});
  SnapshotStore::Snapshot SnapB = Store.current();
  EXPECT_EQ(SnapB->outNeighbors(0).Packed, ListOfZero)
      << "untouched patch list must be shared across publishes";

  // Re-touching vertex 0 clones its list (copy-on-write); the pinned
  // snapshots keep the exact adjacency they were published with.
  Store.applyUpdates({EdgeUpdate{0, E0.V, static_cast<Weight>(E0.W + 20),
                                 UpdateKind::Upsert}});
  SnapshotStore::Snapshot SnapC = Store.current();
  EXPECT_NE(SnapC->outNeighbors(0).Packed, ListOfZero)
      << "dirtied patch list must be cloned, not mutated in place";
  auto WeightTo = [](const SnapshotStore::Snapshot &S, VertexId U,
                     VertexId V) -> Weight {
    for (WNode E : S->outNeighbors(U))
      if (E.V == V)
        return E.W;
    return -1;
  };
  EXPECT_EQ(WeightTo(SnapA, 0, E0.V), static_cast<Weight>(E0.W + 10));
  EXPECT_EQ(WeightTo(SnapB, 0, E0.V), static_cast<Weight>(E0.W + 10));
  EXPECT_EQ(WeightTo(SnapC, 0, E0.V), static_cast<Weight>(E0.W + 20));
}
