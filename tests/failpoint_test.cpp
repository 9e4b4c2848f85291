//===- tests/failpoint_test.cpp - Fault injection & recovery --------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The deterministic fault-injection layer (support/FailPoint.h) and the
// recovery paths it exists to exercise: snapshot-publish retry, strict
// all-or-nothing batches, and compaction retry/fallback/watchdog with
// degraded-but-serving semantics. Most of this
// file only runs in -DGRAPHIT_FAILPOINTS=ON builds (the CI `faults`
// job); the strict-batch tests run everywhere (no faults involved).
//
//===----------------------------------------------------------------------===//

#include "stress_harness.h"

#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/SnapshotStore.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

using namespace graphit;
using namespace graphit::service;
using namespace graphit::stress;

namespace {

Graph makeRoad(int Side, uint64_t Seed) {
  RoadNetwork Net = roadGrid(Side, Side, Seed);
  BuildOptions O;
  O.Symmetrize = true;
  return GraphBuilder(O).build(Net.NumNodes, Net.Edges,
                               std::move(Net.Coords));
}

/// RAII guard: whatever a test arms, the next test starts clean.
struct FailPointGuard {
  ~FailPointGuard() { failpoints::reset(); }
};

/// HowMany upserts whose endpoints both live in [Lo, Hi). In a symmetric
/// store every forward and mirror row then lands in the shards covering
/// that id range, so when [Lo, Hi) is one shard's span the batch is a
/// single-shard write — the knob the fold-isolation tests steer with.
std::vector<EdgeUpdate> shardLocalUpserts(Count Lo, Count Hi, Count HowMany,
                                          SplitMix64 &Rng) {
  std::vector<EdgeUpdate> Batch;
  while (static_cast<Count>(Batch.size()) < HowMany) {
    VertexId U = static_cast<VertexId>(Lo + Rng.nextInt(0, Hi - Lo));
    VertexId V = static_cast<VertexId>(Lo + Rng.nextInt(0, Hi - Lo));
    if (U == V)
      continue;
    Batch.push_back(EdgeUpdate{
        U, V, static_cast<Weight>(Rng.nextInt(kMinWeight, kMaxWeight)),
        UpdateKind::Upsert});
  }
  return Batch;
}

#define SKIP_WITHOUT_FAILPOINTS()                                            \
  do {                                                                       \
    if (!failpoints::kFailPointsEnabled)                                     \
      GTEST_SKIP() << "built without GRAPHIT_FAILPOINTS";                    \
  } while (0)

} // namespace

//===----------------------------------------------------------------------===//
// Registry semantics: determinism, fire caps, env parsing.
//===----------------------------------------------------------------------===//

TEST(FailPoint, SeededStreamReplaysBitIdentically) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  auto Sample = [](uint64_t Seed) {
    failpoints::reset();
    failpoints::reseed(Seed);
    failpoints::activate("snapshot.publish", 0.5);
    std::vector<bool> Fired;
    for (int I = 0; I < 64; ++I) {
      try {
        failpoints::evaluate("snapshot.publish");
        Fired.push_back(false);
      } catch (const failpoints::FailPointError &) {
        Fired.push_back(true);
      }
    }
    return Fired;
  };
  std::vector<bool> A = Sample(42), B = Sample(42), C = Sample(43);
  EXPECT_EQ(A, B) << "same seed must replay the same fault schedule";
  EXPECT_NE(A, C) << "different seeds must diverge";
  int Fires = 0;
  for (bool F : A)
    Fires += F ? 1 : 0;
  EXPECT_GT(Fires, 8);
  EXPECT_LT(Fires, 56);
}

TEST(FailPoint, MaxFiresCapsAndFireCountTracks) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  failpoints::reseed(7);
  failpoints::activate("shard.lock", 1.0, /*MaxFires=*/3);
  int Threw = 0;
  for (int I = 0; I < 10; ++I) {
    try {
      failpoints::evaluate("shard.lock");
    } catch (const failpoints::FailPointError &) {
      ++Threw;
    }
  }
  EXPECT_EQ(Threw, 3);
  EXPECT_EQ(failpoints::fireCount("shard.lock"), 3u);
  // Unarmed points never fire.
  EXPECT_EQ(failpoints::fireCount("compaction.rebuild"), 0u);
}

TEST(FailPoint, ConfigureFromEnvParsesSchedules) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  ::setenv("GRAPHIT_FAILPOINTS",
           " snapshot.publish = 1.0 * 2 , compaction.rebuild=sleep(1) ", 1);
  ::setenv("GRAPHIT_FAILPOINTS_SEED", "1234", 1);
  std::string Banner = failpoints::configureFromEnv();
  ::unsetenv("GRAPHIT_FAILPOINTS");
  ::unsetenv("GRAPHIT_FAILPOINTS_SEED");
  EXPECT_NE(Banner.find("snapshot.publish"), std::string::npos) << Banner;

  int Threw = 0;
  for (int I = 0; I < 5; ++I) {
    try {
      failpoints::evaluate("snapshot.publish");
    } catch (const failpoints::FailPointError &) {
      ++Threw;
    }
  }
  EXPECT_EQ(Threw, 2) << "p=1.0 capped at 2 fires";
  // Sleep-mode points delay but never throw.
  EXPECT_NO_THROW(failpoints::evaluate("compaction.rebuild"));
  EXPECT_GE(failpoints::fireCount("compaction.rebuild"), 1u);
}

//===----------------------------------------------------------------------===//
// Recovery paths, unsharded store.
//===----------------------------------------------------------------------===//

TEST(FailPoint, PublishRetriesThroughInjectedFaults) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 3);
  SnapshotStore Faulty(Base);
  SnapshotStore Clean(Base);
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xFA0);

  failpoints::reseed(0xFA0);
  failpoints::activate("snapshot.publish", 0.4);
  for (int Round = 0; Round < 6; ++Round) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 24, Rng);
    Ref.apply(Batch);
    SnapshotStore::ApplyResult FR = Faulty.applyUpdates(Batch);
    failpoints::deactivate("snapshot.publish"); // clean store sees none
    SnapshotStore::ApplyResult CR = Clean.applyUpdates(Batch);
    failpoints::activate("snapshot.publish", 0.4);
    ASSERT_EQ(FR.Status, ApplyStatus::Ok);
    ASSERT_EQ(FR.Version, CR.Version) << "round " << Round;
    ASSERT_EQ(FR.Applied.size(), CR.Applied.size()) << "round " << Round;
    ASSERT_EQ(FR.Snap->numEdges(), Ref.numEdges()) << "round " << Round;
  }
  failpoints::reset();
  // Served distances converge bit-identically to the fault-free stores.
  SSSPResult F = deltaSteppingSSSP(*Faulty.current(), 0,
                                   Schedule().configApplyPriorityUpdateDelta(1024));
  SSSPResult W = deltaSteppingSSSP(Ref, 0,
                                   Schedule().configApplyPriorityUpdateDelta(1024));
  EXPECT_EQ(F.Dist, W.Dist);
}

TEST(FailPoint, SyncCompactionFailureDegradesButKeepsServing) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 5);
  SnapshotStore::Options Opts;
  Opts.CompactionThreshold = 0.01; // trip quickly
  Opts.MinOverlayEdges = 8;
  SnapshotStore Store(Base, Opts);
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xFA1);

  failpoints::reseed(0xFA1);
  failpoints::activate("compaction.rebuild", 1.0);
  bool SawError = false;
  for (int Round = 0; Round < 4; ++Round) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 64, Rng);
    Ref.apply(Batch);
    SnapshotStore::ApplyResult R = Store.applyUpdates(Batch);
    ASSERT_EQ(R.Status, ApplyStatus::Ok);
    SawError |= !R.CompactionError.empty();
  }
  EXPECT_TRUE(SawError) << "compaction failure was never surfaced";
  EXPECT_TRUE(Store.degraded());
  EXPECT_FALSE(Store.lastError().empty());
  EXPECT_EQ(Store.compactions(), 0u);

  // Degraded-but-serving: answers stay exact over the overlay.
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  SSSPResult Got = deltaSteppingSSSP(*Store.current(), 0, S);
  SSSPResult Want = deltaSteppingSSSP(Ref, 0, S);
  EXPECT_EQ(Got.Dist, Want.Dist);

  // Disarm: the next tripped compaction succeeds and clears the flag.
  failpoints::deactivate("compaction.rebuild");
  std::vector<EdgeUpdate> Batch = randomBatch(Ref, 64, Rng);
  Ref.apply(Batch);
  SnapshotStore::ApplyResult R = Store.applyUpdates(Batch);
  ASSERT_EQ(R.Status, ApplyStatus::Ok);
  EXPECT_GT(Store.compactions(), 0u);
  EXPECT_FALSE(Store.degraded());
  EXPECT_TRUE(Store.lastError().empty());
}

TEST(FailPoint, BackgroundCompactionRetriesThenFallsBack) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 7);
  SnapshotStore::Options Opts;
  Opts.BackgroundCompaction = true;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 8;
  SnapshotStore Store(Base, Opts);
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xFA2);

  failpoints::reseed(0xFA2);
  failpoints::activate("compaction.rebuild", 1.0);
  // Trip a background compaction; it must give up after bounded retries
  // and leave the pre-compaction overlay serving (no stall, no crash).
  for (int Round = 0; Round < 3; ++Round) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 64, Rng);
    Ref.apply(Batch);
    ASSERT_EQ(Store.applyUpdates(Batch).Status, ApplyStatus::Ok);
  }
  ASSERT_TRUE(Store.waitForCompactionFor(10000))
      << "fold wedged: watchdog/retry bound did not release the store";
  EXPECT_TRUE(Store.degraded());
  EXPECT_EQ(Store.compactions(), 0u);

  // The failure surfaces exactly once on the next writer call.
  failpoints::deactivate("compaction.rebuild");
  std::vector<EdgeUpdate> Batch = randomBatch(Ref, 8, Rng);
  Ref.apply(Batch);
  SnapshotStore::ApplyResult R = Store.applyUpdates(Batch);
  EXPECT_FALSE(R.CompactionError.empty());

  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  Store.waitForCompaction();
  SSSPResult Got = deltaSteppingSSSP(*Store.current(), 0, S);
  SSSPResult Want = deltaSteppingSSSP(Ref, 0, S);
  EXPECT_EQ(Got.Dist, Want.Dist);
}

TEST(FailPoint, BackgroundCompactionReplayWindowSurvivesDelays) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 9);
  SnapshotStore::Options Opts;
  Opts.BackgroundCompaction = true;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 8;
  SnapshotStore Store(Base, Opts);
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xFA3);

  // Widen the rebuild phase so writer batches land in the replay window
  // while the fold is mid-flight — the exact race the replay machinery
  // exists for, now schedulable on demand.
  failpoints::reseed(0xFA3);
  failpoints::activateDelay("compaction.rebuild", 30);
  for (int Round = 0; Round < 6; ++Round) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 48, Rng);
    Ref.apply(Batch);
    ASSERT_EQ(Store.applyUpdates(Batch).Status, ApplyStatus::Ok);
  }
  failpoints::reset();
  Store.waitForCompaction();
  EXPECT_FALSE(Store.degraded());
  EXPECT_GT(Store.compactions(), 0u);

  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  SSSPResult Got = deltaSteppingSSSP(*Store.current(), 0, S);
  SSSPResult Want = deltaSteppingSSSP(Ref, 0, S);
  EXPECT_EQ(Got.Dist, Want.Dist);
}

TEST(FailPoint, ReplayFaultsRetryFromFreshOverlay) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 9);
  SnapshotStore::Options Opts;
  Opts.BackgroundCompaction = true;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 8;
  SnapshotStore Store(Base, Opts);
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xFA4);

  // Widen the rebuild so writer batches land in the replay window, then
  // make the first two replay attempts throw ("compaction.replay" fires
  // once per attempt at the first op). Each retry restarts from a fresh
  // overlay over the rebuilt base, so the third attempt must converge to
  // the same adjacency a fault-free fold produces.
  failpoints::reseed(0xFA4);
  failpoints::activateDelay("compaction.rebuild", 30);
  failpoints::activate("compaction.replay", 1.0, /*MaxFires=*/2);
  for (int Round = 0; Round < 6; ++Round) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 48, Rng);
    Ref.apply(Batch);
    ASSERT_EQ(Store.applyUpdates(Batch).Status, ApplyStatus::Ok);
  }
  failpoints::reset();
  Store.waitForCompaction();
  EXPECT_FALSE(Store.degraded());
  EXPECT_GT(Store.compactions(), 0u);

  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  SSSPResult Got = deltaSteppingSSSP(*Store.current(), 0, S);
  SSSPResult Want = deltaSteppingSSSP(Ref, 0, S);
  EXPECT_EQ(Got.Dist, Want.Dist);
}

//===----------------------------------------------------------------------===//
// Recovery paths, sharded store + query engine.
//===----------------------------------------------------------------------===//

TEST(FailPoint, ShardLockAcquisitionRetriesThroughFaults) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 13);
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  ShardedSnapshotStore Store(Base, Opts);
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xFA4);

  failpoints::reseed(0xFA4);
  failpoints::activate("shard.lock", 0.3);
  for (int Round = 0; Round < 6; ++Round) {
    std::vector<EdgeUpdate> Batch = randomBatch(Ref, 32, Rng);
    Ref.apply(Batch);
    ShardedSnapshotStore::ApplyResult R = Store.applyUpdates(Batch);
    ASSERT_EQ(R.Status, ApplyStatus::Ok) << "round " << Round;
  }
  EXPECT_GT(failpoints::fireCount("shard.lock"), 0u)
      << "faults were armed but the lock path never hit one";
  failpoints::reset();

  Schedule S;
  S.configApplyPriorityUpdateDelta(1024);
  SSSPResult Got = deltaSteppingSSSP(*Store.current(), 0, S);
  SSSPResult Want = deltaSteppingSSSP(Ref, 0, S);
  EXPECT_EQ(Got.Dist, Want.Dist);
}

TEST(FailPoint, ShardFoldFailureDegradesOnlyThatShard) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 17); // 256 nodes -> span 64 at 4 shards
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 8;
  ShardedSnapshotStore Store(Base, Opts);
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xFA6);
  const Count Span = Store.shardSpan();
  ASSERT_EQ(Span, Count{64});

  auto Feed = [&](int S) {
    std::vector<EdgeUpdate> Batch =
        shardLocalUpserts(S * Span, (S + 1) * Span, 24, Rng);
    Ref.apply(Batch);
    ASSERT_EQ(Store.applyUpdates(Batch).Status, ApplyStatus::Ok);
  };

  // Shard 1's inline fold trips and fails; no other shard may notice.
  failpoints::reseed(0xFA6);
  failpoints::activate("compaction.rebuild", 1.0);
  Feed(1);
  EXPECT_TRUE(Store.shardDegraded(1));
  EXPECT_TRUE(Store.degraded());
  EXPECT_FALSE(Store.lastError().empty());
  for (int S : {0, 2, 3}) {
    EXPECT_FALSE(Store.shardDegraded(S)) << "shard " << S;
    EXPECT_EQ(Store.shardFolds(S), 0u) << "shard " << S;
  }
  EXPECT_EQ(Store.compactions(), 0u);

  // With shard 1 still degraded (faults now off), shard 3 folds fine:
  // degradation is per-shard state, not a store-wide stall.
  failpoints::deactivate("compaction.rebuild");
  Feed(3);
  EXPECT_GT(Store.shardFolds(3), 0u);
  EXPECT_TRUE(Store.shardDegraded(1));
  EXPECT_TRUE(Store.degraded()) << "shard 1 has not recovered yet";

  // Degraded-but-serving: the un-folded overlay answers bit-identically.
  Schedule Sch;
  Sch.configApplyPriorityUpdateDelta(1024);
  SSSPResult Got = deltaSteppingSSSP(*Store.current(), 0, Sch);
  SSSPResult Want = deltaSteppingSSSP(Ref, 0, Sch);
  EXPECT_EQ(Got.Dist, Want.Dist);

  // Shard 1's next tripped fold succeeds — only then does the store-wide
  // flag clear.
  Feed(1);
  EXPECT_FALSE(Store.shardDegraded(1));
  EXPECT_FALSE(Store.degraded());
  EXPECT_TRUE(Store.lastError().empty());
  EXPECT_GT(Store.shardFolds(1), 0u);
}

TEST(FailPoint, BackgroundShardReplayFaultsIsolateAndRecover) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 19);
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  Opts.BackgroundCompaction = true;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 8;
  ShardedSnapshotStore Store(Base, Opts);
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xFA7);
  const Count Span = Store.shardSpan();

  // Widen phase 1 of shard 2's background fold so the follow-up batches
  // land in its replay log (Compacting is set before the trigger batch
  // returns, so the recording is deterministic), then fail every replay
  // attempt: the fold gives up and degrades shard 2 alone, while its
  // writer — which has all the rows — keeps serving.
  failpoints::reseed(0xFA7);
  failpoints::activateDelay("compaction.rebuild", 30);
  failpoints::activate("compaction.replay", 1.0);
  for (int I = 0; I < 4; ++I) {
    std::vector<EdgeUpdate> Batch =
        shardLocalUpserts(2 * Span, 3 * Span, 24, Rng);
    Ref.apply(Batch);
    ASSERT_EQ(Store.applyUpdates(Batch).Status, ApplyStatus::Ok);
  }
  Store.waitForCompaction();
  EXPECT_GT(failpoints::fireCount("compaction.replay"), 0u)
      << "no batch landed in the replay window; widen the delay";
  EXPECT_TRUE(Store.shardDegraded(2));
  for (int S : {0, 1, 3})
    EXPECT_FALSE(Store.shardDegraded(S)) << "shard " << S;
  EXPECT_TRUE(Store.degraded());

  Schedule Sch;
  Sch.configApplyPriorityUpdateDelta(1024);
  SSSPResult Got = deltaSteppingSSSP(*Store.current(), 0, Sch);
  SSSPResult Want = deltaSteppingSSSP(Ref, 0, Sch);
  EXPECT_EQ(Got.Dist, Want.Dist);

  // Clean faults: the next tripped fold replays fine and recovers the
  // shard — per-shard recovery needs no store-wide rebuild.
  failpoints::reset();
  std::vector<EdgeUpdate> Batch =
      shardLocalUpserts(2 * Span, 3 * Span, 24, Rng);
  Ref.apply(Batch);
  ASSERT_EQ(Store.applyUpdates(Batch).Status, ApplyStatus::Ok);
  Store.waitForCompaction();
  EXPECT_FALSE(Store.shardDegraded(2));
  EXPECT_FALSE(Store.degraded());
  EXPECT_GT(Store.shardFolds(2), 0u);
  Got = deltaSteppingSSSP(*Store.current(), 0, Sch);
  Want = deltaSteppingSSSP(Ref, 0, Sch);
  EXPECT_EQ(Got.Dist, Want.Dist);
}

TEST(FailPoint, ShardFoldErrorSurfacesExactlyOnce) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 17);
  ShardedSnapshotStore::Options Opts;
  Opts.NumShards = 4;
  Opts.CompactionThreshold = 0.01;
  Opts.MinOverlayEdges = 8;
  ShardedSnapshotStore Store(Base, Opts);
  SplitMix64 Rng(0xFA8);
  const Count Span = Store.shardSpan();

  // One batch trips shards 1 and 2. Their inline folds run in shard
  // order, so the single armed fault fails shard 1, and shard 2's fold
  // then succeeds and publishes.
  std::vector<EdgeUpdate> Batch = shardLocalUpserts(Span, 2 * Span, 24, Rng);
  std::vector<EdgeUpdate> Second =
      shardLocalUpserts(2 * Span, 3 * Span, 24, Rng);
  Batch.insert(Batch.end(), Second.begin(), Second.end());
  failpoints::reseed(0xFA8);
  failpoints::activate("compaction.rebuild", 1.0, /*MaxFires=*/1);
  ShardedSnapshotStore::ApplyResult First = Store.applyUpdates(Batch);
  ASSERT_EQ(First.Status, ApplyStatus::Ok);
  ASSERT_TRUE(First.CompactionTriggered);
  EXPECT_EQ(failpoints::fireCount("compaction.rebuild"), 1u);
  EXPECT_TRUE(Store.shardDegraded(1));
  EXPECT_GT(Store.shardFolds(2), 0u) << "shard 2 must fold after shard 1";

  // The next writer call, an empty batch, trips no fold of its own.
  ShardedSnapshotStore::ApplyResult Next = Store.applyUpdates({});
  ASSERT_EQ(Next.Status, ApplyStatus::Ok);
  ASSERT_FALSE(Next.CompactionTriggered);

  const int Surfaced = static_cast<int>(!First.CompactionError.empty()) +
                       static_cast<int>(!Next.CompactionError.empty());
  EXPECT_EQ(Surfaced, 1) << "the failed fold must be reported exactly once";
  const std::string &Error =
      First.CompactionError.empty() ? Next.CompactionError
                                    : First.CompactionError;
  EXPECT_NE(Error.find("shard 1"), std::string::npos) << Error;
  EXPECT_TRUE(Store.degraded());
  EXPECT_NE(Store.lastError().find("shard 1"), std::string::npos)
      << Store.lastError();
}

namespace {

/// Feeds \p Store batches from \p NextBatch until one trips a background
/// fold, then waits for that fold. No later batch can start a second one.
template <class StoreT, class BatchFn>
void tripOneBackgroundFold(StoreT &Store, BatchFn &&NextBatch) {
  bool Tripped = false;
  for (int Round = 0; Round < 16 && !Tripped; ++Round) {
    typename StoreT::ApplyResult R = Store.applyUpdates(NextBatch());
    ASSERT_EQ(R.Status, ApplyStatus::Ok);
    Tripped = R.CompactionTriggered;
  }
  ASSERT_TRUE(Tripped) << "no batch tripped a fold";
  Store.waitForCompaction();
}

/// The fold retry bound, on either background-compacting store: with
/// `compaction.rebuild` failing the first K attempts, K = 3 recovers on
/// the fourth and K = 4 degrades until a fold runs without faults.
/// `compactions()` counts every successful fold, of any shard.
template <class StoreT, class BatchFn>
void checkFoldRetryBound(const Graph &Base, const typename StoreT::Options &O,
                         BatchFn &&NextBatch) {
  for (uint64_t K : {3u, 4u}) {
    SCOPED_TRACE("faults per fold: " + std::to_string(K));
    StoreT Store(Base, O);
    failpoints::reseed(0xFA9 + K);
    failpoints::activate("compaction.rebuild", 1.0, /*MaxFires=*/K);
    tripOneBackgroundFold(Store, NextBatch);
    EXPECT_EQ(failpoints::fireCount("compaction.rebuild"), K);
    failpoints::deactivate("compaction.rebuild");
    if (K == 3) {
      EXPECT_FALSE(Store.degraded()) << Store.lastError();
      EXPECT_EQ(Store.compactions(), 1u);
      continue;
    }
    EXPECT_TRUE(Store.degraded());
    EXPECT_EQ(Store.compactions(), 0u);
    EXPECT_NE(Store.lastError().find("compaction.rebuild"), std::string::npos)
        << Store.lastError();
    tripOneBackgroundFold(Store, NextBatch);
    EXPECT_FALSE(Store.degraded()) << Store.lastError();
    EXPECT_EQ(Store.compactions(), 1u);
  }
}

} // namespace

TEST(FailPoint, FoldRetryBoundRecoversFromThreeFaultsNotFour) {
  SKIP_WITHOUT_FAILPOINTS();
  FailPointGuard Guard;
  Graph Base = makeRoad(16, 23);
  {
    SCOPED_TRACE("SnapshotStore");
    SnapshotStore::Options O;
    O.BackgroundCompaction = true;
    O.CompactionThreshold = 0.01;
    O.MinOverlayEdges = 8;
    SplitMix64 Rng(0xFA9);
    checkFoldRetryBound<SnapshotStore>(
        Base, O, [&] { return randomBatch(Base, 32, Rng); });
  }
  {
    SCOPED_TRACE("ShardedSnapshotStore");
    ShardedSnapshotStore::Options O;
    O.NumShards = 4;
    O.BackgroundCompaction = true;
    O.CompactionThreshold = 0.01;
    O.MinOverlayEdges = 8;
    SplitMix64 Rng(0xFAA);
    const Count Span = Count{64}; // 256 nodes over 4 shards
    checkFoldRetryBound<ShardedSnapshotStore>(Base, O, [&] {
      return shardLocalUpserts(2 * Span, 3 * Span, 24, Rng);
    });
  }
}

//===----------------------------------------------------------------------===//
// Strict all-or-nothing batches (no faults; runs in every build).
//===----------------------------------------------------------------------===//

TEST(FailPoint, StrictBatchesRejectAtomicallyAndBitCompatibly) {
  Graph Base = makeRoad(14, 21);
  SnapshotStore::Options PO;
  PO.StrictBatches = true;
  SnapshotStore Plain(Base, PO);
  ShardedSnapshotStore::Options SO;
  SO.StrictBatches = true;
  SO.NumShards = 3;
  ShardedSnapshotStore Sharded(Base, SO);

  // A good prefix plus one malformed record: strict mode must apply
  // nothing and publish nothing, identically in both stores.
  std::vector<EdgeUpdate> Poisoned = {
      EdgeUpdate{0, 1, 9, UpdateKind::Upsert},
      EdgeUpdate{1, 2, 9, UpdateKind::Upsert},
      EdgeUpdate{3, 3, 4, UpdateKind::Upsert}, // self-loop: malformed
  };
  const uint64_t PV = Plain.version(), SV = Sharded.version();
  SnapshotStore::ApplyResult PR = Plain.applyUpdates(Poisoned);
  ShardedSnapshotStore::ApplyResult SR = Sharded.applyUpdates(Poisoned);
  EXPECT_EQ(PR.Status, ApplyStatus::RejectedBatch);
  EXPECT_EQ(SR.Status, ApplyStatus::RejectedBatch);
  EXPECT_FALSE(PR.Error.empty());
  EXPECT_EQ(PR.Error, SR.Error) << "rejection must be bit-compatible";
  EXPECT_TRUE(PR.Applied.empty());
  EXPECT_EQ(Plain.version(), PV) << "no version may publish on rejection";
  EXPECT_EQ(Sharded.version(), SV);
  // The good prefix must NOT have leaked into the overlay.
  bool Found = false;
  for (WNode E : Plain.current()->outNeighbors(0))
    Found |= E.V == 1 && E.W == 9;
  EXPECT_FALSE(Found) << "rejected batch partially applied";

  // A clean batch then applies normally.
  std::vector<EdgeUpdate> Good = {EdgeUpdate{0, 1, 9, UpdateKind::Upsert}};
  EXPECT_EQ(Plain.applyUpdates(Good).Status, ApplyStatus::Ok);
  EXPECT_EQ(Sharded.applyUpdates(Good).Status, ApplyStatus::Ok);
  EXPECT_EQ(Plain.version(), PV + 1);
  EXPECT_EQ(Sharded.version(), SV + 1);
}

TEST(FailPoint, DefaultModeStillSkipsMalformedRecords) {
  // The historical contract — skip bad records, apply the rest — is load
  // bearing (the stress harness feeds malformed writes to all stores and
  // expects identical skips), so strict mode must stay opt-in.
  Graph Base = makeRoad(10, 27);
  SnapshotStore Store(Base);
  std::vector<EdgeUpdate> Mixed = {
      EdgeUpdate{0, 1, 9, UpdateKind::Upsert},
      EdgeUpdate{2, 2, 4, UpdateKind::Upsert}, // skipped
  };
  SnapshotStore::ApplyResult R = Store.applyUpdates(Mixed);
  EXPECT_EQ(R.Status, ApplyStatus::Ok);
  // The symmetric store applies the one valid upsert as a forward +
  // reverse pair; the self-loop contributes nothing.
  EXPECT_EQ(R.Applied.size(), 2u);
  for (const AppliedUpdate &A : R.Applied)
    EXPECT_NE(A.Src, VertexId{2});
}
