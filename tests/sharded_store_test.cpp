//===- tests/sharded_store_test.cpp - Sharded snapshot store tests --------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Covers the scale-out store: shard routing, batch semantics vs the
// unsharded store, the cross-shard version vector (per-shard bumps,
// monotonicity, no torn reads), per-shard compaction triggers folding
// into a global rebuild, and the concurrency stress — N writers on
// distinct shards racing M readers that pin snapshots mid-publish and
// mid-compaction (runs under the TSan CI job like every other test).
//
//===----------------------------------------------------------------------===//

#include "stress_harness.h"

#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/SnapshotStore.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
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

int64_t checksum(const std::vector<Priority> &Dist) {
  int64_t Sum = 0;
  for (Priority P : Dist)
    if (P < kInfiniteDistance)
      Sum += P;
  return Sum;
}

Schedule eager1024() {
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  return S;
}

} // namespace

TEST(ShardedStore, ShardRoutingCoversTheUniverse) {
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 5;
  ShardedSnapshotStore Store(roadGraph(20), Opts);
  ASSERT_EQ(Store.numShards(), 5);
  const Count N = Store.numNodes();
  // Every vertex routes to exactly one in-range shard; ranges are
  // contiguous and non-decreasing.
  int Prev = 0;
  for (Count V = 0; V < N; ++V) {
    int S = Store.shardOf(static_cast<VertexId>(V));
    ASSERT_GE(S, 0);
    ASSERT_LT(S, Store.numShards());
    ASSERT_GE(S, Prev);
    Prev = S;
  }
  // Ids far past the universe (future insertions, malformed writes) clamp
  // into the last shard instead of indexing out of range.
  EXPECT_EQ(Store.shardOf(static_cast<VertexId>(N + 12345)),
            Store.numShards() - 1);
}

TEST(ShardedStore, MatchesUnshardedOnFixedBatch) {
  Graph G = roadGraph(16);
  SnapshotStore Plain(G);
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  ShardedSnapshotStore Sharded(G, Opts);

  // A handcrafted batch crossing shard boundaries: insert, delete,
  // reweight, duplicate-edge coalescing, and malformed writes.
  WNode E0 = *Plain.current()->outNeighbors(0).begin();
  const VertexId Far = static_cast<VertexId>(G.numNodes() - 1);
  WNode EF = *Plain.current()->outNeighbors(Far).begin();
  std::vector<EdgeUpdate> Batch = {
      EdgeUpdate{0, Far, 33, UpdateKind::Upsert},
      EdgeUpdate{0, E0.V, 0, UpdateKind::Delete},
      EdgeUpdate{Far, EF.V, static_cast<Weight>(EF.W * 2),
                 UpdateKind::Upsert},
      EdgeUpdate{0, Far, 44, UpdateKind::Upsert}, // coalesces with #1
      EdgeUpdate{7, 7, 3, UpdateKind::Upsert},    // self loop: skipped
      EdgeUpdate{static_cast<VertexId>(G.numNodes() + 9), 3, 1,
                 UpdateKind::Upsert},             // out of range: skipped
  };
  SnapshotStore::ApplyResult PA = Plain.applyUpdates(Batch);
  ShardedSnapshotStore::ApplyResult SA = Sharded.applyUpdates(Batch);

  ASSERT_EQ(PA.Applied.size(), SA.Applied.size());
  for (size_t I = 0; I < PA.Applied.size(); ++I) {
    EXPECT_EQ(PA.Applied[I].Src, SA.Applied[I].Src) << I;
    EXPECT_EQ(PA.Applied[I].Dst, SA.Applied[I].Dst) << I;
    EXPECT_EQ(PA.Applied[I].OldW, SA.Applied[I].OldW) << I;
    EXPECT_EQ(PA.Applied[I].NewW, SA.Applied[I].NewW) << I;
  }
  EXPECT_EQ(PA.Snap->numEdges(), SA.Snap->numEdges());

  Schedule S = eager1024();
  SSSPResult DP = deltaSteppingSSSP(*PA.Snap, 0, S);
  SSSPResult DS = deltaSteppingSSSP(*SA.Snap, 0, S);
  ASSERT_EQ(DP.Dist, DS.Dist);

  // The same write script continues through both stores' vertex paths.
  // An out-of-range removal publishes nothing on either.
  const uint64_t V1 = Plain.version();
  ASSERT_EQ(Sharded.version(), V1);
  const VertexId Outside = static_cast<VertexId>(G.numNodes() + 5);
  EXPECT_EQ(Plain.removeVertex(Outside).Version, V1);
  EXPECT_EQ(Sharded.removeVertex(Outside).Version, V1);
  EXPECT_EQ(Plain.version(), V1);
  EXPECT_EQ(Sharded.version(), V1);

  // Detaching Far yields the same coalesced deletes on both.
  PA = Plain.removeVertex(Far);
  SA = Sharded.removeVertex(Far);
  ASSERT_FALSE(PA.Applied.empty());
  ASSERT_EQ(PA.Applied.size(), SA.Applied.size());
  for (size_t I = 0; I < PA.Applied.size(); ++I) {
    EXPECT_EQ(PA.Applied[I].Src, SA.Applied[I].Src) << I;
    EXPECT_EQ(PA.Applied[I].Dst, SA.Applied[I].Dst) << I;
    EXPECT_EQ(PA.Applied[I].OldW, SA.Applied[I].OldW) << I;
    EXPECT_EQ(PA.Applied[I].NewW, SA.Applied[I].NewW) << I;
  }
  EXPECT_EQ(PA.Version, SA.Version);

  // Both hand the freed id back without publishing.
  const uint64_t V2 = Plain.version();
  EXPECT_EQ(Plain.acquireVertex(), Far);
  EXPECT_EQ(Sharded.acquireVertex(), Far);
  EXPECT_EQ(Plain.version(), V2);
  EXPECT_EQ(Sharded.version(), V2);

  // With the free list empty, growth hands out the same first id.
  const VertexId Grown = Plain.addVertices(2);
  EXPECT_EQ(Grown, static_cast<VertexId>(G.numNodes()));
  EXPECT_EQ(Sharded.addVertices(2), Grown);

  EXPECT_EQ(Plain.version(), Sharded.version());
  EXPECT_EQ(Plain.freeVertexCount(), 0);
  EXPECT_EQ(Sharded.freeVertexCount(), 0);
  EXPECT_EQ(deltaSteppingSSSP(*Plain.current(), 0, S).Dist,
            deltaSteppingSSSP(*Sharded.current(), 0, S).Dist);
}

TEST(ShardedStore, VersionVectorBumpsOnlyTouchedShards) {
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  ShardedSnapshotStore Store(roadGraph(16), Opts);
  const Count Span = Store.shardSpan();

  // A batch entirely inside shard 0 (both endpoints in its range).
  std::vector<EdgeUpdate> Local = {
      EdgeUpdate{1, static_cast<VertexId>(Span - 1), 9, UpdateKind::Upsert}};
  ShardedSnapshotStore::ApplyResult R = Store.applyUpdates(Local);
  ASSERT_EQ(R.Version, 1u);
  const std::vector<uint64_t> &SV = R.Snap->shardVersions();
  ASSERT_EQ(SV.size(), 4u);
  EXPECT_EQ(SV[0], 1u);
  EXPECT_EQ(SV[1], 0u);
  EXPECT_EQ(SV[2], 0u);
  EXPECT_EQ(SV[3], 0u);
  EXPECT_EQ(R.Snap->version(), 1u);

  // A cross-shard batch bumps both involved shards.
  VertexId InLast = static_cast<VertexId>(Store.numNodes() - 1);
  ShardedSnapshotStore::ApplyResult R2 = Store.applyUpdates(
      {EdgeUpdate{2, InLast, 11, UpdateKind::Upsert}});
  const std::vector<uint64_t> &SV2 = R2.Snap->shardVersions();
  EXPECT_EQ(SV2[0], 2u);
  EXPECT_EQ(SV2[Store.shardOf(InLast)], 1u);
  EXPECT_EQ(R2.Snap->version(), 2u);

  // An empty batch publishes a version with no shard bumps.
  ShardedSnapshotStore::ApplyResult R3 = Store.applyUpdates({});
  EXPECT_EQ(R3.Version, 3u);
  EXPECT_EQ(R3.Snap->shardVersions(), SV2);
}

TEST(ShardedStore, CompactionFoldsOverlayAndPreservesChecksums) {
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 32;
  ShardedSnapshotStore Store(roadGraph(20), Opts);

  SnapshotStore::Options Never;
  Never.CompactionThreshold = 1e9;
  SnapshotStore Reference(roadGraph(20), Never);

  Schedule S = eager1024();
  SplitMix64 Rng(31);
  DeltaGraph Ref(std::make_shared<const Graph>(roadGraph(20)));
  for (int I = 0; I < 25; ++I) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 16, Rng);
    Ref.apply(Batch);
    Reference.applyUpdates(Batch);
    ShardedSnapshotStore::ApplyResult A = Store.applyUpdates(Batch);
    EXPECT_EQ(checksum(deltaSteppingSSSP(*A.Snap, 0, S).Dist),
              checksum(deltaSteppingSSSP(*Reference.current(), 0, S).Dist))
        << "batch " << I;
  }
  EXPECT_GT(Store.compactions(), 0u);
  // The compacted composite folded every overlay into the fresh base.
  ShardedSnapshotStore::Snapshot Snap = Store.current();
  Count Overlay = 0;
  for (int Sh = 0; Sh < Snap->numShards(); ++Sh)
    Overlay += Snap->shard(Sh).overlayEdges();
  EXPECT_LT(Overlay, Snap->numEdges() / 10);
  EXPECT_EQ(Snap->numEdges(), Reference.current()->numEdges());
}

TEST(ShardedStore, PinnedReadersSurviveCompaction) {
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 3;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 32;
  ShardedSnapshotStore Store(roadGraph(16), Opts);

  Schedule S = eager1024();
  ShardedSnapshotStore::Snapshot Pinned = Store.current();
  int64_t Before = checksum(deltaSteppingSSSP(*Pinned, 0, S).Dist);

  DeltaGraph Ref(std::make_shared<const Graph>(roadGraph(16)));
  SplitMix64 Rng(77);
  while (Store.compactions() == 0) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 24, Rng);
    Ref.apply(Batch);
    Store.applyUpdates(Batch);
  }
  // The pinned pre-compaction composite still answers identically.
  EXPECT_EQ(checksum(deltaSteppingSSSP(*Pinned, 0, S).Dist), Before);
  EXPECT_EQ(Pinned->version(), 0u);
  EXPECT_GT(Store.current()->version(), Pinned->version());
}

//===----------------------------------------------------------------------===//
// Patch lists and folded segments: the row format
//===----------------------------------------------------------------------===//

namespace {

using Rows = std::vector<std::vector<std::pair<VertexId, Weight>>>;

/// Every row of \p D in one direction.
Rows rowsOf(const DeltaGraph &D, bool In) {
  Rows All(static_cast<size_t>(D.numNodes()));
  for (VertexId V = 0; V < D.numNodes(); ++V) {
    const Graph::NeighborRange R = In ? D.inNeighbors(V) : D.outNeighbors(V);
    EXPECT_EQ(R.size(), In ? D.inDegree(V) : D.outDegree(V));
    for (WNode E : R)
      All[V].push_back({E.V, E.W});
  }
  return All;
}

/// Checks that no folded row is a patch list any more: weighted rows come
/// packed like base rows and unweighted ones as bare ids.
void expectBaseRowFormat(const DeltaGraph &D) {
  for (VertexId V = 0; V < D.numNodes(); ++V) {
    const Graph::NeighborRange R = D.outNeighbors(V);
    if (D.isWeighted()) {
      EXPECT_NE(R.Packed, nullptr) << "vertex " << V;
    } else {
      EXPECT_TRUE(R.Packed == nullptr && R.Ids != nullptr) << "vertex " << V;
    }
  }
}

/// Folds \p D over [0, End) for each of \p Ends in turn, a range that only
/// grows as a shard's does, and checks that no row changed at any step and
/// that the one installed segment ends up covering [0, N).
void foldAndCompare(DeltaGraph &D, const std::vector<Count> &Ends) {
  const bool WithIn = D.hasInEdges() && !D.isSymmetric();
  const Rows Out = rowsOf(D, false);
  const Rows In = WithIn ? rowsOf(D, true) : Rows();
  for (Count End : Ends) {
    D.adoptSegment(D.foldRange(0, End));
    ASSERT_NE(D.segment(), nullptr);
    EXPECT_EQ(D.segment()->First, 0);
    EXPECT_EQ(D.segment()->NumVerts, End);
    EXPECT_EQ(rowsOf(D, false), Out) << "after folding [0, " << End << ")";
    if (WithIn) {
      EXPECT_EQ(rowsOf(D, true), In) << "after folding [0, " << End << ")";
    }
  }
  EXPECT_EQ(D.overlayEdges(), 0);
  expectBaseRowFormat(D);
}

/// A brute-force adjacency: one ordered map per vertex and direction.
struct ReferenceAdjacency {
  std::vector<std::map<VertexId, Weight>> Out, In;

  explicit ReferenceAdjacency(const Graph &G)
      : Out(static_cast<size_t>(G.numNodes())),
        In(static_cast<size_t>(G.numNodes())) {
    for (VertexId V = 0; V < G.numNodes(); ++V)
      for (WNode E : G.outNeighbors(V)) {
        Out[V][E.V] = E.W;
        In[E.V][V] = E.W;
      }
  }

  /// What DeltaGraph::apply does with \p U (weights 1 when unweighted),
  /// both directions on symmetric graphs.
  void apply(const EdgeUpdate &U, bool Symmetric, bool Weighted) {
    auto One = [&](VertexId S, VertexId T) {
      if (U.Kind == UpdateKind::Delete) {
        Out[S].erase(T);
        In[T].erase(S);
        return;
      }
      Out[S][T] = In[T][S] = Weighted ? U.W : Weight{1};
    };
    One(U.Src, U.Dst);
    if (Symmetric)
      One(U.Dst, U.Src);
  }

  static Rows rows(const std::vector<std::map<VertexId, Weight>> &Maps) {
    Rows All(Maps.size());
    for (size_t V = 0; V < Maps.size(); ++V)
      All[V].assign(Maps[V].begin(), Maps[V].end());
    return All;
  }
};

} // namespace

TEST(DeltaGraphRows, PatchedRowsArePackedAndMatchAReference) {
  std::vector<Edge> Rmat = rmatEdges(10, 6, 13);
  BuildOptions Unweighted;
  Unweighted.Weighted = false;
  const Graph Graphs[] = {
      roadGraph(24),
      GraphBuilder(Unweighted).build(Count{1} << 10, Rmat),
  };
  const char *Names[] = {"weighted symmetric road grid",
                         "unweighted directed R-MAT with in-edges"};
  for (int G = 0; G < 2; ++G) {
    SCOPED_TRACE(Names[G]);
    const Graph &Base = Graphs[G];
    const bool Sym = Base.isSymmetric(), Weighted = Base.isWeighted();
    ASSERT_EQ(Weighted, G == 0);
    ASSERT_EQ(Sym || !Base.hasInEdges(), G == 0);
    DeltaGraph D(std::make_shared<const Graph>(Base));
    ReferenceAdjacency Ref(Base);
    const Count N = D.numNodes();
    SplitMix64 Rng(700 + G);
    auto Vertex = [&] { return static_cast<VertexId>(Rng.nextInt(0, N)); };

    // Two rounds: the first patches base rows, the second rows of the
    // segment the first fold installed.
    for (int Round = 0; Round < 2; ++Round) {
      SCOPED_TRACE("round " + std::to_string(Round));
      std::vector<VertexId> OutPatched, InPatched;
      // The rows an applied transition wrote (symmetric graphs report
      // both directions).
      auto Apply = [&](const std::vector<EdgeUpdate> &Batch) {
        for (const AppliedUpdate &A : D.apply(Batch)) {
          OutPatched.push_back(A.Src);
          if (!Sym)
            InPatched.push_back(A.Dst);
        }
        for (const EdgeUpdate &U : Batch)
          Ref.apply(U, Sym, Weighted);
      };
      // Upserts: new edges and weight changes of existing ones.
      std::vector<EdgeUpdate> Upserts;
      for (int I = 0; I < 40; ++I) {
        const VertexId S = Vertex(), T = Vertex();
        if (S != T)
          Upserts.push_back(EdgeUpdate{S, T,
                                       static_cast<Weight>(Rng.nextInt(1, 300)),
                                       UpdateKind::Upsert});
        const auto &Row = Ref.Out[S];
        if (!Row.empty())
          Upserts.push_back(EdgeUpdate{S, Row.begin()->first,
                                       Row.begin()->second + 9,
                                       UpdateKind::Upsert});
      }
      Apply(Upserts);
      // Deletes of existing edges, then re-inserts of half of them.
      std::vector<EdgeUpdate> Deletes, Reinserts;
      for (int I = 0; I < 40; ++I) {
        const VertexId S = Vertex();
        const auto &Row = Ref.Out[S];
        if (Row.empty())
          continue;
        auto It = Row.begin();
        std::advance(It, Rng.nextInt(0, static_cast<int64_t>(Row.size())));
        Deletes.push_back(EdgeUpdate{S, It->first, 0, UpdateKind::Delete});
        if (I % 2 == 0)
          Reinserts.push_back(EdgeUpdate{
              S, It->first, static_cast<Weight>(It->second + Round + 1),
              UpdateKind::Upsert});
      }
      Apply(Deletes);
      Apply(Reinserts);

      EXPECT_GT(D.overlayEdges(), 0);
      EXPECT_EQ(rowsOf(D, false), ReferenceAdjacency::rows(Ref.Out));
      if (!Sym) {
        EXPECT_EQ(rowsOf(D, true), ReferenceAdjacency::rows(Ref.In));
      }
      // Every patched row is a patch list, in the packed layout whatever
      // the graph's weighting.
      for (VertexId V : OutPatched) {
        const Graph::NeighborRange R = D.outNeighbors(V);
        EXPECT_EQ(R.Ids, nullptr) << "out-row of " << V;
        EXPECT_TRUE(R.size() == 0 || R.Packed != nullptr)
            << "out-row of " << V;
      }
      for (VertexId V : InPatched) {
        const Graph::NeighborRange R = D.inNeighbors(V);
        EXPECT_EQ(R.Ids, nullptr) << "in-row of " << V;
        EXPECT_TRUE(R.size() == 0 || R.Packed != nullptr)
            << "in-row of " << V;
      }

      D.compactRange(0, N);
      EXPECT_EQ(D.overlayEdges(), 0);
      EXPECT_EQ(rowsOf(D, false), ReferenceAdjacency::rows(Ref.Out));
      if (!Sym) {
        EXPECT_EQ(rowsOf(D, true), ReferenceAdjacency::rows(Ref.In));
      }
      expectBaseRowFormat(D);
    }
  }
}

TEST(DeltaGraphRowsDeathTest, AdoptingASegmentThatDoesNotCoverTheInstalledOne) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  DeltaGraph D(std::make_shared<const Graph>(roadGraph(8)));
  const Count N = D.numNodes(), Half = N / 2;
  D.compactRange(Half, N - Half);
  const char *Message = "adoptSegment: the new segment does not cover";
  EXPECT_DEATH(D.compactRange(0, Half), Message);              // disjoint
  EXPECT_DEATH(D.compactRange(Half + 1, N - Half - 1), Message); // later
  EXPECT_DEATH(D.compactRange(Half, N - Half - 1), Message);     // shorter
  D.compactRange(0, N); // covers the installed range: adopted
  EXPECT_EQ(D.segment()->First, 0);
  EXPECT_EQ(D.segment()->NumVerts, N);
}

TEST(ShardedStore, FoldedSegmentRowsEqualTheRowsTheyReplace) {
  std::vector<Edge> Rmat = rmatEdges(10, 6, 12);
  assignRandomWeights(Rmat, 1, 300, 8);
  BuildOptions Unweighted;
  Unweighted.Weighted = false;
  const Graph Graphs[] = {
      roadGraph(24),
      GraphBuilder(Unweighted).build(Count{1} << 10, Rmat),
      GraphBuilder().build(Count{1} << 10, Rmat),
  };
  const char *Names[] = {"weighted symmetric road grid",
                         "unweighted directed R-MAT with in-edges",
                         "weighted directed R-MAT with in-edges"};
  for (int G = 0; G < 3; ++G) {
    SCOPED_TRACE(Names[G]);
    ASSERT_EQ(Graphs[G].isWeighted(), G != 1);
    DeltaGraph D(std::make_shared<const Graph>(Graphs[G]));
    SplitMix64 Rng(900 + G);
    // Fold patched rows over [0, N/2) and then [0, N), then rows patched
    // on top of that segment over [0, N) again, so both fold sources, a
    // growing range and a re-fold over an installed segment are covered.
    const Count N = D.numNodes();
    for (int Round = 0; Round < 2; ++Round) {
      D.apply(randomBatch(D, 60, Rng));
      ASSERT_GT(D.overlayEdges(), 0);
      foldAndCompare(D, Round == 0 ? std::vector<Count>{N / 2, N}
                                   : std::vector<Count>{N});
      if (HasFatalFailure())
        return;
    }
  }
}

//===----------------------------------------------------------------------===//
// Concurrency stress: writers on distinct shards + readers pinning
// mid-publish and mid-compaction. Version vectors must stay monotone and
// untorn; pinned snapshots must be internally consistent.
//===----------------------------------------------------------------------===//

TEST(ShardedStoreConcurrency, DistinctShardWritersAndPinningReaders) {
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  Opts.CompactionThreshold = 0.02; // compactions happen mid-stress
  Opts.MinOverlayEdges = 64;
  ShardedSnapshotStore Store(roadGraph(24), Opts);
  const Count Span = Store.shardSpan();
  const Count N = Store.numNodes();

  std::atomic<bool> Done{false};
  std::atomic<int> Failures{0};
  std::atomic<uint64_t> BatchesApplied{0};

  // One writer per shard, batches strictly inside its vertex range so the
  // writers' shard lock sets are disjoint (maximum publish contention,
  // zero patch contention).
  std::vector<std::thread> Writers;
  for (int W = 0; W < Store.numShards(); ++W)
    Writers.emplace_back([&, W] {
      SplitMix64 Rng(0xA1 + static_cast<uint64_t>(W) * 7919);
      Count Lo = static_cast<Count>(W) * Span;
      Count Hi = W == Store.numShards() - 1
                     ? N
                     : std::min<Count>(N, Lo + Span);
      if (Hi - Lo < 2)
        return;
      for (int I = 0; I < 60; ++I) {
        std::vector<EdgeUpdate> Batch;
        for (int U = 0; U < 6; ++U) {
          VertexId A = static_cast<VertexId>(Rng.nextInt(Lo, Hi));
          VertexId B = static_cast<VertexId>(Rng.nextInt(Lo, Hi));
          if (A == B)
            continue;
          Batch.push_back(EdgeUpdate{
              A, B,
              static_cast<Weight>(Rng.nextInt(kMinWeight, kMaxWeight)),
              Rng.nextInt(0, 5) == 0 ? UpdateKind::Delete
                                     : UpdateKind::Upsert});
        }
        ShardedSnapshotStore::ApplyResult R = Store.applyUpdates(Batch);
        if (R.Snap->shardVersions().size() !=
            static_cast<size_t>(Store.numShards()))
          ++Failures;
        ++BatchesApplied;
      }
    });

  // Readers: pin snapshots in a tight loop; assert the version vector is
  // component-wise monotone across consecutive pins (never torn), the
  // global version never regresses, every shard version is <= global,
  // and (occasionally) a pinned composite is internally consistent.
  std::vector<std::thread> Readers;
  for (int T = 0; T < 3; ++T)
    Readers.emplace_back([&, T] {
      Schedule S = eager1024();
      uint64_t PrevGlobal = 0;
      std::vector<uint64_t> PrevShard(
          static_cast<size_t>(Store.numShards()), 0);
      int Iter = 0;
      while (!Done.load()) {
        ShardedSnapshotStore::Snapshot Snap = Store.current();
        const std::vector<uint64_t> &SV = Snap->shardVersions();
        if (Snap->version() < PrevGlobal) {
          ++Failures;
          break;
        }
        for (size_t I = 0; I < SV.size(); ++I)
          if (SV[I] < PrevShard[I] || SV[I] > Snap->version()) {
            ++Failures;
            break;
          }
        PrevGlobal = Snap->version();
        PrevShard.assign(SV.begin(), SV.end());
        if (T == 0 && ++Iter % 16 == 0) {
          // Two runs over one pinned composite must agree no matter how
          // many publishes/compactions landed meanwhile.
          int64_t C1 = checksum(deltaSteppingSSSP(*Snap, 0, S).Dist);
          int64_t C2 = checksum(deltaSteppingSSSP(*Snap, 0, S).Dist);
          if (C1 != C2)
            ++Failures;
        }
      }
    });

  for (std::thread &W : Writers)
    W.join();
  Done = true;
  for (std::thread &R : Readers)
    R.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_GT(BatchesApplied.load(), 0u);
  EXPECT_GE(Store.version(), BatchesApplied.load());
  EXPECT_GT(Store.compactions(), 0u);
}

TEST(ShardedStoreConcurrency, ConcurrentWritersMatchSerialReplay) {
  // Writers on disjoint shards commute: after the race, the adjacency
  // must equal a serial replay of the same per-shard batches in any
  // order (each shard's operations are internally ordered by its own
  // writer).
  Graph G = roadGraph(16);
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  Opts.CompactionThreshold = 1e9; // keep every patch visible
  ShardedSnapshotStore Store(G, Opts);
  const Count Span = Store.shardSpan();
  const Count N = Store.numNodes();

  // Pre-generate each writer's batches (deterministic).
  std::vector<std::vector<std::vector<EdgeUpdate>>> PerWriter(4);
  for (int W = 0; W < 4; ++W) {
    SplitMix64 Rng(100 + static_cast<uint64_t>(W));
    Count Lo = static_cast<Count>(W) * Span;
    Count Hi = W == 3 ? N : std::min<Count>(N, Lo + Span);
    for (int B = 0; B < 20; ++B) {
      std::vector<EdgeUpdate> Batch;
      for (int U = 0; U < 5; ++U) {
        VertexId A = static_cast<VertexId>(Rng.nextInt(Lo, Hi));
        VertexId D = static_cast<VertexId>(Rng.nextInt(Lo, Hi));
        if (A == D)
          continue;
        Batch.push_back(EdgeUpdate{
            A, D, static_cast<Weight>(Rng.nextInt(kMinWeight, kMaxWeight)),
            UpdateKind::Upsert});
      }
      PerWriter[static_cast<size_t>(W)].push_back(std::move(Batch));
    }
  }

  std::vector<std::thread> Writers;
  for (int W = 0; W < 4; ++W)
    Writers.emplace_back([&, W] {
      for (const std::vector<EdgeUpdate> &B :
           PerWriter[static_cast<size_t>(W)])
        Store.applyUpdates(B);
    });
  for (std::thread &W : Writers)
    W.join();

  // Serial replay into a reference overlay (writer order is irrelevant:
  // the shards are disjoint).
  DeltaGraph Ref(std::make_shared<const Graph>(G));
  for (int W = 0; W < 4; ++W)
    for (const std::vector<EdgeUpdate> &B :
         PerWriter[static_cast<size_t>(W)])
      Ref.apply(B);

  ShardedSnapshotStore::Snapshot Snap = Store.current();
  ASSERT_EQ(Snap->numEdges(), Ref.numEdges());
  for (Count V = 0; V < N; ++V) {
    auto A = Snap->outNeighbors(static_cast<VertexId>(V));
    auto B = Ref.outNeighbors(static_cast<VertexId>(V));
    ASSERT_EQ(A.size(), B.size()) << "vertex " << V;
    auto BI = B.begin();
    for (WNode E : A) {
      WNode Want = *BI;
      ASSERT_EQ(E.V, Want.V) << "vertex " << V;
      ASSERT_EQ(E.W, Want.W) << "vertex " << V;
      ++BI;
    }
  }
}
