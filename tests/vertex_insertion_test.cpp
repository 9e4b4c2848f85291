//===- tests/vertex_insertion_test.cpp - Live vertex insertion ------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Edge cases of the appendable-tail vertex universe: insertion into an
// empty graph, insert-then-query (unreachable until seeded), insertion
// under a permuted store (external-id round-trips through the identity
// tail), insertion followed by compaction (synchronous and background
// replay), and hot-state and worker-state resizing in the QueryEngine.
//
//===----------------------------------------------------------------------===//

#include "stress_harness.h"

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "service/SnapshotStore.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace graphit;
using namespace graphit::service;
using namespace graphit::stress;

namespace {

Graph roadGraph(Count Side, uint64_t Seed = 4242) {
  RoadNetwork Net = roadGrid(Side, Side, Seed);
  BuildOptions Options;
  Options.Symmetrize = true;
  return GraphBuilder(Options).build(Net.NumNodes, Net.Edges,
                                     std::move(Net.Coords));
}

} // namespace

//===----------------------------------------------------------------------===//
// DeltaGraph tail region
//===----------------------------------------------------------------------===//

TEST(VertexInsertion, TailVerticesStartEmptyAndMirrorInEdges) {
  // Directed base with incoming adjacency.
  std::vector<Edge> Edges = {{0, 1, 4}, {1, 2, 3}};
  auto Base = std::make_shared<const Graph>(GraphBuilder().build(3, Edges));
  DeltaGraph D(Base);
  ASSERT_TRUE(D.hasInEdges());

  VertexId V3 = D.addVertex();
  EXPECT_EQ(V3, 3u);
  EXPECT_EQ(D.numNodes(), 4);
  EXPECT_EQ(D.tailNodes(), 1);
  EXPECT_EQ(D.outDegree(V3), 0);
  EXPECT_EQ(D.inDegree(V3), 0);
  EXPECT_EQ(D.outNeighbors(V3).size(), 0);
  EXPECT_EQ(D.inNeighbors(V3).size(), 0);

  // Edges touching the tail vertex apply like any other, including the
  // mirrored in-adjacency both ways.
  std::vector<AppliedUpdate> A = D.apply({
      EdgeUpdate{2, V3, 7, UpdateKind::Upsert},
      EdgeUpdate{V3, 0, 2, UpdateKind::Upsert},
  });
  ASSERT_EQ(A.size(), 2u);
  EXPECT_EQ(D.outDegree(V3), 1);
  EXPECT_EQ(D.inDegree(V3), 1);
  bool SawMirror = false;
  for (WNode E : D.inNeighbors(0))
    if (E.V == V3 && E.W == 2)
      SawMirror = true;
  EXPECT_TRUE(SawMirror);

  // The universe check tracks the tail: an edge to a not-yet-inserted id
  // is still rejected.
  EXPECT_TRUE(D.apply({EdgeUpdate{0, 9, 1, UpdateKind::Upsert}}).empty());

  // Compaction folds the tail into the fresh base.
  Graph C = D.compact();
  EXPECT_EQ(C.numNodes(), 4);
  EXPECT_EQ(C.numEdges(), D.numEdges());
  EXPECT_EQ(C.outDegree(3), 1);
}

TEST(VertexInsertion, CoordinatesExtendCopyOnGrow) {
  Graph G = roadGraph(6);
  auto Base = std::make_shared<const Graph>(G);
  DeltaGraph D(Base);
  ASSERT_TRUE(D.hasCoordinates());
  double X0 = D.coordinates().X[0], Y0 = D.coordinates().Y[0];

  VertexId V = D.addVertex(X0 + 0.5, Y0 + 0.25);
  EXPECT_EQ(D.coordinates().size(), D.numNodes());
  EXPECT_DOUBLE_EQ(D.coordinates().X[V], X0 + 0.5);
  EXPECT_DOUBLE_EQ(D.coordinates().Y[V], Y0 + 0.25);
  // The base graph's coordinates are untouched (copy-on-grow).
  EXPECT_EQ(Base->coordinates().size(), Base->numNodes());

  Graph C = D.compact();
  ASSERT_TRUE(C.hasCoordinates());
  EXPECT_EQ(C.coordinates().size(), C.numNodes());
  EXPECT_DOUBLE_EQ(C.coordinates().X[V], X0 + 0.5);
}

//===----------------------------------------------------------------------===//
// Insertion into an empty graph
//===----------------------------------------------------------------------===//

TEST(VertexInsertion, IntoEmptyGraph) {
  SnapshotStore Store(GraphBuilder().build(0, {}));
  EXPECT_EQ(Store.numNodes(), 0);

  VertexId First = Store.addVertices(3);
  EXPECT_EQ(First, 0u);
  EXPECT_EQ(Store.numNodes(), 3);
  EXPECT_EQ(Store.version(), 1u);

  SnapshotStore::ApplyResult A = Store.applyUpdates({
      EdgeUpdate{0, 1, 5, UpdateKind::Upsert},
      EdgeUpdate{1, 2, 7, UpdateKind::Upsert},
  });
  ASSERT_EQ(A.Applied.size(), 2u);

  // GraphBuilder marks an edgeless build unweighted, so a store seeded
  // from an empty graph serves unit weights: distances are hop counts.
  EXPECT_FALSE(A.Snap->isWeighted());
  Schedule S;
  SSSPResult D = deltaSteppingSSSP(*A.Snap, 0, S);
  EXPECT_EQ(D.Dist[0], 0);
  EXPECT_EQ(D.Dist[1], 1);
  EXPECT_EQ(D.Dist[2], 2);

  // Sharded flavor of the same scenario.
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 2;
  ShardedSnapshotStore Sharded(GraphBuilder().build(0, {}), Opts);
  EXPECT_EQ(Sharded.addVertices(3), 0u);
  ShardedSnapshotStore::ApplyResult SA = Sharded.applyUpdates({
      EdgeUpdate{0, 1, 5, UpdateKind::Upsert},
      EdgeUpdate{1, 2, 7, UpdateKind::Upsert},
  });
  SSSPResult DS = deltaSteppingSSSP(*SA.Snap, 0, S);
  EXPECT_EQ(DS.Dist, D.Dist);
}

//===----------------------------------------------------------------------===//
// Insert then query: unreachable until an edge batch seeds it
//===----------------------------------------------------------------------===//

TEST(VertexInsertion, InsertThenQueryUnreachableThenSeeded) {
  Graph G = roadGraph(10);
  SnapshotStore Store(G);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(1024);
  Opts.HotSourceCapacity = 2;
  QueryEngine Engine(Store, Opts);

  // Warm a hot source, then grow the universe through the engine.
  Query Warm;
  Warm.Kind = QueryKind::SSSP;
  Warm.Source = 0;
  ASSERT_NE(Engine.runBatch({Warm})[0].Status, QueryStatus::Failed);

  VertexId NewV = Engine.addVertices(1);
  EXPECT_EQ(NewV, static_cast<VertexId>(G.numNodes()));

  // Queries to/from the new id are accepted immediately; it is simply
  // unreachable (and reaches only itself) until an edge seeds it.
  Query To;
  To.Kind = QueryKind::PPSP;
  To.Source = 0;
  To.Target = NewV;
  Query From;
  From.Kind = QueryKind::SSSP;
  From.Source = NewV;
  From.CollectReached = true;
  std::vector<QueryResult> R = Engine.runBatch({To, From});
  ASSERT_NE(R[0].Status, QueryStatus::Failed);
  ASSERT_NE(R[1].Status, QueryStatus::Failed);
  EXPECT_EQ(R[0].Dist, kInfiniteDistance);
  ASSERT_EQ(R[1].Reached.size(), 1u); // the source itself
  EXPECT_EQ(R[1].Reached[0].first, NewV);

  // Seed it next to vertex 0 and re-query: finite both ways, and the
  // repaired hot state agrees with a fresh recompute.
  Engine.applyUpdates({EdgeUpdate{0, NewV, 42, UpdateKind::Upsert}});
  std::vector<QueryResult> R2 = Engine.runBatch({To, Warm});
  EXPECT_EQ(R2[0].Dist, 42);

  SnapshotStore::Snapshot Snap = Store.current();
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  SSSPResult Fresh = deltaSteppingSSSP(*Snap, 0, S);
  EXPECT_EQ(Fresh.Dist[NewV], 42);
  EXPECT_GT(Engine.hotRepairs(), 0u);
}

TEST(VertexInsertion, GrownIdServesAPointQueryAtOnce) {
  // One worker and no hot cache: the first query after the growth runs in
  // the worker's own state, built at the old size, which runOne resizes
  // to the pinned snapshot.
  Graph G = roadGraph(12, 15);
  SnapshotStore Store(G);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 1;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(1024);
  QueryEngine Engine(Store, Opts);
  Query Q;
  Q.Kind = QueryKind::PPSP;
  Q.Source = 0;
  Q.Target = 1;
  ASSERT_EQ(Engine.runBatch({Q})[0].Status, QueryStatus::Ok);

  const VertexId First = Engine.addVertices(2);
  EXPECT_EQ(static_cast<Count>(First), G.numNodes());
  const VertexId Second = First + 1;
  Engine.applyUpdates({EdgeUpdate{0, First, 5, UpdateKind::Upsert},
                       EdgeUpdate{First, Second, 7, UpdateKind::Upsert}});
  Q.Target = Second;
  QueryResult R = Engine.runBatch({Q})[0];
  EXPECT_EQ(R.Status, QueryStatus::Ok);
  EXPECT_EQ(R.Dist, Priority{12});
}

//===----------------------------------------------------------------------===//
// Insertion under a permuted store: external-id round-trips
//===----------------------------------------------------------------------===//

TEST(VertexInsertion, UnderPermutedStoreRoundTripsExternalIds) {
  Graph G = roadGraph(12);
  SnapshotStore Plain(G);
  SnapshotStore::Options PermutedOpts;
  PermutedOpts.Reorder = ReorderKind::Bfs;
  SnapshotStore Permuted(G, PermutedOpts);
  ASSERT_FALSE(Permuted.mapping().isIdentity());

  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.TrackParents = true;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(1024);
  QueryEngine Reference(Plain, Opts);
  QueryEngine Engine(Permuted, Opts);

  // Insert the same two vertices into both stores; the new external ids
  // are identical (identity tail), and the mapping passes them through.
  VertexId A = Reference.addVertices(2);
  VertexId B = Engine.addVertices(2);
  ASSERT_EQ(A, B);
  ASSERT_EQ(A, static_cast<VertexId>(G.numNodes()));
  EXPECT_EQ(Permuted.mapping().toInternal(A), A);
  EXPECT_EQ(Permuted.mapping().toExternal(A), A);

  // External-id traffic naming old and new ids lands identically.
  std::vector<EdgeUpdate> Wire = {
      EdgeUpdate{5, A, 9, UpdateKind::Upsert},
      EdgeUpdate{A, static_cast<VertexId>(A + 1), 4, UpdateKind::Upsert},
      EdgeUpdate{static_cast<VertexId>(A + 1), 17, 6, UpdateKind::Upsert},
  };
  Reference.applyUpdates(Wire);
  Engine.applyUpdates(Wire);

  std::vector<Query> Queries;
  for (VertexId Src : {VertexId{5}, A}) {
    Query Q;
    Q.Kind = QueryKind::SSSP;
    Q.Source = Src;
    Q.CollectReached = true;
    Queries.push_back(Q);
    Query P;
    P.Kind = QueryKind::PPSP;
    P.Source = Src;
    P.Target = 17;
    P.CollectPath = true;
    Queries.push_back(P);
  }
  std::vector<QueryResult> Got = Engine.runBatch(Queries);
  std::vector<QueryResult> Want = Reference.runBatch(Queries);
  for (size_t I = 0; I < Queries.size(); ++I) {
    ASSERT_NE(Got[I].Status, QueryStatus::Failed) << I;
    EXPECT_EQ(Got[I].Dist, Want[I].Dist) << I;
    EXPECT_EQ(Got[I].Reached, Want[I].Reached) << I;
  }
}

//===----------------------------------------------------------------------===//
// Insertion followed by compaction
//===----------------------------------------------------------------------===//

TEST(VertexInsertion, SurvivesSynchronousCompaction) {
  SnapshotStore::Options Opts;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 32;
  SnapshotStore Store(roadGraph(10), Opts);
  const Count BaseN = Store.numNodes();

  VertexId NewV = Store.addVertices(1);
  Store.applyUpdates({EdgeUpdate{0, NewV, 3, UpdateKind::Upsert},
                      EdgeUpdate{NewV, 5, 4, UpdateKind::Upsert}});

  // Pile on batches until compaction folds the tail into the base.
  DeltaGraph Ref(std::make_shared<const Graph>(roadGraph(10)));
  Ref.growUniverse(BaseN + 1);
  Ref.apply({EdgeUpdate{0, NewV, 3, UpdateKind::Upsert},
             EdgeUpdate{NewV, 5, 4, UpdateKind::Upsert}});
  SplitMix64 Rng(55);
  while (Store.compactions() == 0) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 16, Rng);
    Ref.apply(Batch);
    Store.applyUpdates(Batch);
  }
  SnapshotStore::Snapshot Snap = Store.current();
  EXPECT_EQ(Snap->numNodes(), BaseN + 1);
  EXPECT_EQ(Snap->tailNodes(), 0); // folded into the base
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  SSSPResult Got = deltaSteppingSSSP(*Snap, 0, S);
  SSSPResult Want = deltaSteppingSSSP(Ref, 0, S);
  EXPECT_EQ(Got.Dist, Want.Dist);
}

TEST(VertexInsertion, BackgroundCompactionReplaysGrowth) {
  // The replay fix under test: growth + batches referencing the new ids
  // land while the background compactor rebuilds from a pre-growth
  // snapshot; the replay must re-grow before re-applying or the edges
  // would be range-rejected.
  SnapshotStore::Options Sync;
  Sync.CompactionThreshold = 1e9;
  SnapshotStore Reference(roadGraph(12), Sync);

  SnapshotStore::Options Opts;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 32;
  Opts.BackgroundCompaction = true;
  SnapshotStore Store(roadGraph(12), Opts);

  DeltaGraph Ref(std::make_shared<const Graph>(roadGraph(12)));
  SplitMix64 Rng(77);
  for (int I = 0; I < 12; ++I) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 24, Rng);
    Ref.apply(Batch);
    Reference.applyUpdates(Batch);
    SnapshotStore::ApplyResult A = Store.applyUpdates(Batch);
    if (A.CompactionTriggered) {
      // Race the compactor: grow and wire the fresh vertex immediately.
      VertexId NewV = Store.addVertices(1);
      Reference.addVertices(1);
      Ref.growUniverse(Ref.numNodes() + 1);
      std::vector<EdgeUpdate> Wire = {
          EdgeUpdate{3, NewV, 9, UpdateKind::Upsert}};
      Store.applyUpdates(Wire);
      Reference.applyUpdates(Wire);
      Ref.apply(Wire);
    }
  }
  Store.waitForCompaction();
  ASSERT_GT(Store.compactions(), 0u);

  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  SnapshotStore::Snapshot Got = Store.current();
  SnapshotStore::Snapshot Want = Reference.current();
  ASSERT_EQ(Got->numNodes(), Want->numNodes());
  ASSERT_EQ(Got->numEdges(), Want->numEdges());
  SSSPResult DG = deltaSteppingSSSP(*Got, 3, S);
  SSSPResult DW = deltaSteppingSSSP(*Want, 3, S);
  EXPECT_EQ(DG.Dist, DW.Dist);
}

//===----------------------------------------------------------------------===//
// Incremental repair across insertion
//===----------------------------------------------------------------------===//

TEST(VertexInsertion, RepairSeedsInsertedVertices) {
  SnapshotStore Store(roadGraph(10));
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  DistanceState State(Store.numNodes());
  deltaSteppingSSSP(*Store.current(), 0, S, State);
  RepairScratch Scratch;

  VertexId NewV = Store.addVertices(1);
  State.resize(Store.numNodes()); // growth alone changes no distance

  SnapshotStore::ApplyResult A = Store.applyUpdates(
      {EdgeUpdate{1, NewV, 6, UpdateKind::Upsert},
       EdgeUpdate{NewV, 2, 1, UpdateKind::Upsert}});
  repairAfterUpdates(*A.Snap, A.Applied, State, S, Scratch);

  SSSPResult Fresh = deltaSteppingSSSP(*A.Snap, 0, S);
  ASSERT_EQ(Fresh.Dist.size(), State.distances().size());
  for (size_t V = 0; V < Fresh.Dist.size(); ++V)
    ASSERT_EQ(State.distances()[V], Fresh.Dist[V]) << "vertex " << V;
  EXPECT_LT(State.dist(NewV), kInfiniteDistance);
}
