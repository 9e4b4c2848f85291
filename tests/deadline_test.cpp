//===- tests/deadline_test.cpp - Deadlines, budgets, admission ------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Overload-safety semantics of the serving stack:
//
//  * cooperative cancellation at bucket-round boundaries — an interrupted
//    run reports exactly the *settled prefix* of the full answer
//    (differentially checked against an uninterrupted run, across
//    eager/lazy schedules and static/live/sharded views),
//  * MaxDistance budgets for point queries (deterministic early stop),
//  * QueryEngine wall-clock deadlines, typed QueryStatus outcomes,
//    tryCollect, and admission control (shed + degrade).
//
// Wall-clock tests never assert *when* a deadline fires — only that
// whatever partial result it produced is exact below its settled bound,
// a property that holds for every possible timing.
//
//===----------------------------------------------------------------------===//

#include "stress_harness.h"

#include "algorithms/AStar.h"
#include "algorithms/PPSP.h"
#include "algorithms/QueryState.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/DeltaGraph.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "service/SnapshotStore.h"
#include "support/Cancellation.h"
#include "support/Random.h"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <thread>
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

Schedule eager(int64_t Delta) {
  Schedule S;
  S.configApplyPriorityUpdateDelta(Delta);
  return S;
}

Schedule lazy(int64_t Delta) {
  Schedule S;
  S.configApplyPriorityUpdate("lazy").configApplyPriorityUpdateDelta(Delta);
  return S;
}

/// The settled-prefix contract, valid for ANY cancellation timing: every
/// partial distance strictly below Bound is exact, and every true
/// distance strictly below Bound was found. (Above the bound nothing is
/// promised.)
void checkSettledPrefix(const DistanceState &Partial,
                        const std::vector<Priority> &Full, Priority Bound,
                        const char *What) {
  ASSERT_EQ(Partial.numNodes(), static_cast<Count>(Full.size())) << What;
  for (Count V = 0; V < Partial.numNodes(); ++V) {
    VertexId Id = static_cast<VertexId>(V);
    if (Partial.dist(Id) < Bound) {
      EXPECT_EQ(Partial.dist(Id), Full[static_cast<size_t>(V)])
          << What << ": unsettled value reported below bound, vertex " << V;
    }
    if (Full[static_cast<size_t>(V)] < Bound) {
      EXPECT_EQ(Partial.dist(Id), Full[static_cast<size_t>(V)])
          << What << ": settled vertex missing below bound, vertex " << V;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine-level cancellation: pre-expired tokens.
//===----------------------------------------------------------------------===//

TEST(Deadline, PreExpiredTokenStopsBeforeAnyRound) {
  Graph G = makeRoad(24, 11);
  const Schedule Scheds[2] = {eager(512), lazy(512)};
  for (const Schedule &S : Scheds) {
    CancelToken Token;
    Token.cancel();
    DistanceState State(G.numNodes());
    OrderedStats Stats = deltaSteppingSSSP(G, 0, S, State, &Token);
    EXPECT_TRUE(Stats.Cancelled);
    // Nothing beyond the seed bucket was processed: the settled bound is
    // the source's own key, i.e. no distance is promised.
    EXPECT_LE(Stats.CancelKey * S.Delta, Priority{1});
  }
}

//===----------------------------------------------------------------------===//
// Mid-run cancellation across {eager, lazy} x {Graph, DeltaGraph,
// ShardedDeltaView}: for whatever round the deadline hit, the partial
// distances below CancelKey * Delta match the full run exactly.
//===----------------------------------------------------------------------===//

TEST(Deadline, SettledPrefixMatchesFullRunAcrossEnginesAndViews) {
  Graph Base = makeRoad(40, 17);
  SnapshotStore Plain(Base);
  ShardedSnapshotStore::Options SO;
  SO.NumShards = 4;
  ShardedSnapshotStore Sharded(Base, SO);
  // Perturb both stores identically so the live views differ from the
  // static base.
  DeltaGraph Ref(std::make_shared<const Graph>(Base));
  SplitMix64 Rng(0xDEAD11);
  std::vector<EdgeUpdate> Batch = randomBatch(Ref, 64, Rng);
  Ref.apply(Batch);
  Plain.applyUpdates(Batch);
  Sharded.applyUpdates(Batch);

  // Small Delta = many bucket rounds = many cancellation points.
  const Schedule Scheds[2] = {eager(8), lazy(8)};
  const char *SchedNames[2] = {"eager", "lazy"};
  const VertexId Src = 0;

  for (int SI = 0; SI < 2; ++SI) {
    const Schedule &S = Scheds[SI];
    SSSPResult FullStatic = deltaSteppingSSSP(Base, Src, S);
    SSSPResult FullLive = deltaSteppingSSSP(*Plain.current(), Src, S);
    SSSPResult FullSharded = deltaSteppingSSSP(*Sharded.current(), Src, S);

    // A spread of deadlines from "expires instantly" to "never fires":
    // each lands at a different round, and the contract must hold at all
    // of them.
    for (int64_t Micros : {0LL, 50LL, 200LL, 1000LL, 500000LL}) {
      CancelToken Token;
      Token.setDeadlineAfterMicros(Micros);

      DistanceState St(Base.numNodes());
      OrderedStats Stats = deltaSteppingSSSP(Base, Src, S, St, &Token);
      Priority Bound =
          Stats.Cancelled ? Stats.CancelKey * S.Delta : kInfiniteDistance;
      checkSettledPrefix(St, FullStatic.Dist, Bound, SchedNames[SI]);

      CancelToken Token2;
      Token2.setDeadlineAfterMicros(Micros);
      DistanceState StL(Base.numNodes());
      OrderedStats StatsL =
          deltaSteppingSSSP(*Plain.current(), Src, S, StL, &Token2);
      Priority BoundL =
          StatsL.Cancelled ? StatsL.CancelKey * S.Delta : kInfiniteDistance;
      checkSettledPrefix(StL, FullLive.Dist, BoundL, SchedNames[SI]);

      CancelToken Token3;
      Token3.setDeadlineAfterMicros(Micros);
      DistanceState StS(Base.numNodes());
      OrderedStats StatsS =
          deltaSteppingSSSP(*Sharded.current(), Src, S, StS, &Token3);
      Priority BoundS =
          StatsS.Cancelled ? StatsS.CancelKey * S.Delta : kInfiniteDistance;
      checkSettledPrefix(StS, FullSharded.Dist, BoundS, SchedNames[SI]);
    }
  }
}

//===----------------------------------------------------------------------===//
// MaxDistance budgets: deterministic early stop for point queries.
//===----------------------------------------------------------------------===//

TEST(Deadline, PointBudgetStopsAreExactOrInterrupted) {
  Graph G = makeRoad(32, 23);
  const Schedule S = eager(256);
  SSSPResult Full = deltaSteppingSSSP(G, 5, S);
  DistanceState State(G.numNodes());
  SplitMix64 Rng(0xB0D6E7);

  int Interrupted = 0, Exact = 0;
  for (int I = 0; I < 24; ++I) {
    VertexId T = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    Priority Want = Full.Dist[T];
    if (Want == kInfiniteDistance)
      continue;

    // Budget past the answer: the settle check runs first, so the result
    // is exact — never spuriously interrupted.
    RunLimits Generous;
    Generous.MaxDistance = Want + 1;
    PPSPResult P1 = pointToPointShortestPath(G, 5, T, S, State, Generous);
    EXPECT_FALSE(P1.Interrupted) << "target " << T;
    EXPECT_EQ(P1.Dist, Want) << "target " << T;

    // Budget below the answer: either the run proves the target anyway
    // (settled in the final bucket) or it reports Interrupted with a
    // bound no larger than the budget rounded to the bucket grid.
    if (Want >= 2) {
      RunLimits Tight;
      Tight.MaxDistance = Want / 2;
      PPSPResult P2 = pointToPointShortestPath(G, 5, T, S, State, Tight);
      if (P2.Interrupted) {
        ++Interrupted;
        EXPECT_EQ(P2.Dist, kInfiniteDistance);
        // The settled bound is the stop key's priority: at least the
        // budget (the stop fires at the first key at/over it), and the
        // target's true distance must NOT be below it (else it would
        // have been reported).
        EXPECT_GE(P2.SettledBound, Want / 2);
        EXPECT_GE(Want, P2.SettledBound);
      } else {
        ++Exact;
        EXPECT_EQ(P2.Dist, Want);
      }
    }
  }
  // The graph is big enough that tight budgets genuinely interrupt.
  EXPECT_GT(Interrupted, 0);
}

TEST(Deadline, AStarBudgetNeverReturnsWrongAnswers) {
  Graph G = makeRoad(28, 29);
  const Schedule S = eager(256);
  DistanceState State(G.numNodes());
  SplitMix64 Rng(0xA57AB);
  for (int I = 0; I < 16; ++I) {
    VertexId Src = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    VertexId T = static_cast<VertexId>(Rng.nextInt(0, G.numNodes()));
    PPSPResult Ref = aStarSearch(G, Src, T, S, State);
    ASSERT_FALSE(Ref.Interrupted);

    RunLimits Tight;
    Tight.MaxDistance = Ref.Dist == kInfiniteDistance ? 64 : Ref.Dist / 2;
    if (Tight.MaxDistance < 1)
      Tight.MaxDistance = 1;
    PPSPResult P = aStarSearch(G, Src, T, S, State, nullptr, Tight);
    if (P.Interrupted)
      EXPECT_EQ(P.Dist, kInfiniteDistance) << Src << "->" << T;
    else
      EXPECT_EQ(P.Dist, Ref.Dist) << Src << "->" << T;
  }
}

//===----------------------------------------------------------------------===//
// QueryEngine: wall-clock deadlines, typed statuses, tryCollect.
//===----------------------------------------------------------------------===//

TEST(Deadline, QueryEngineDeadlineExceededReportsOnlySettledDistances) {
  Graph G = makeRoad(36, 31);
  SSSPResult Full = deltaSteppingSSSP(G, 3, eager(8));

  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(8);
  QueryEngine Engine(G, Opts);

  SplitMix64 Rng(0x0D15EA5E);
  int SawDeadline = 0;
  for (int I = 0; I < 12; ++I) {
    Query Q;
    Q.Kind = QueryKind::SSSP;
    Q.Source = 3;
    Q.CollectReached = true;
    // Mix of instantly-expiring and tight-but-possible deadlines.
    Q.DeadlineMicros = I % 2 == 0 ? 1 : 100 + Rng.nextInt(0, 400);
    QueryResult R = Engine.runBatch({Q})[0];
    if (R.Status == QueryStatus::DeadlineExceeded) {
      ++SawDeadline;
      // Every reported (vertex, distance) pair must sit strictly below
      // the settled bound and equal the full answer — the prefix
      // contract, regardless of where the clock fired.
      for (const auto &[V, D] : R.Reached) {
        EXPECT_LT(D, R.SettledBound);
        EXPECT_EQ(D, Full.Dist[V]) << "vertex " << V;
      }
      EXPECT_EQ(static_cast<Count>(R.Reached.size()), R.Touched);
    } else {
      ASSERT_EQ(R.Status, QueryStatus::Ok);
      EXPECT_EQ(R.SettledBound, kInfiniteDistance);
      EXPECT_EQ(static_cast<size_t>(R.Touched), R.Reached.size());
    }
  }
  EXPECT_GT(SawDeadline, 0) << "no deadline ever fired; tighten the test";
}

TEST(Deadline, QueryEngineLiveAndPpspDeadlines) {
  Graph Base = makeRoad(30, 37);
  SnapshotStore Store(Base);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 2;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(16);
  QueryEngine Engine(Store, Opts);

  SSSPResult Full = deltaSteppingSSSP(*Store.current(), 2, eager(16));

  // Pre-expired PPSP on the live view: typed outcome, no answer invented.
  Query P;
  P.Kind = QueryKind::PPSP;
  P.Source = 2;
  P.Target = static_cast<VertexId>(Base.numNodes() - 1);
  P.DeadlineMicros = 1;
  QueryResult RP = Engine.runBatch({P})[0];
  if (RP.Status == QueryStatus::DeadlineExceeded) {
    EXPECT_EQ(RP.Dist, kInfiniteDistance);
  } else {
    EXPECT_EQ(RP.Dist, Full.Dist[P.Target]);
  }

  // MaxDistance-budgeted PPSP through the engine: bounded run, Ok status.
  Query B;
  B.Kind = QueryKind::PPSP;
  B.Source = 2;
  B.Target = static_cast<VertexId>(Base.numNodes() - 1);
  B.MaxDistance = Full.Dist[B.Target] == kInfiniteDistance
                      ? Priority{128}
                      : Full.Dist[B.Target] / 2;
  if (B.MaxDistance < 1)
    B.MaxDistance = 1;
  QueryResult RB = Engine.runBatch({B})[0];
  EXPECT_EQ(RB.Status, QueryStatus::Ok);
  if (RB.Dist != kInfiniteDistance) {
    EXPECT_EQ(RB.Dist, Full.Dist[B.Target]);
  }
}

TEST(Deadline, TryCollectIsNonFatalAndCompatibleWithCollect) {
  Graph G = makeRoad(12, 41);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 1;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(1024);
  QueryEngine Engine(G, Opts);

  Query Q;
  Q.Kind = QueryKind::SSSP;
  Q.Source = 0;
  uint64_t T1 = Engine.submit(Q);
  std::optional<QueryResult> R1 = Engine.tryCollect(T1);
  ASSERT_TRUE(R1.has_value());
  EXPECT_EQ(R1->Status, QueryStatus::Ok);

  // Already collected and never-issued tickets: typed nullopt, no abort.
  EXPECT_FALSE(Engine.tryCollect(T1).has_value());
  EXPECT_FALSE(Engine.tryCollect(99999).has_value());

  // Failed validation still resolves through tryCollect.
  Query Bad;
  Bad.Kind = QueryKind::PPSP;
  Bad.Source = 0;
  Bad.Target = static_cast<VertexId>(G.numNodes() + 17);
  std::optional<QueryResult> RBad = Engine.tryCollect(Engine.submit(Bad));
  ASSERT_TRUE(RBad.has_value());
  EXPECT_EQ(RBad->Status, QueryStatus::Failed);
}

//===----------------------------------------------------------------------===//
// Admission control: shedding and graceful degradation.
//===----------------------------------------------------------------------===//

TEST(Deadline, SoftWaterDegradesPointQueriesInsteadOfShedding) {
  Graph G = makeRoad(48, 47);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 1;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(256);
  Opts.AdmissionSoftWater = 2;
  QueryEngine Engine(G, Opts);

  // Warm the PPSP EWMA with clean completions at an empty queue.
  for (int I = 0; I < 4; ++I) {
    Query W;
    W.Kind = QueryKind::PPSP;
    W.Source = 0;
    W.Target = static_cast<VertexId>(G.numNodes() - 1);
    ASSERT_EQ(Engine.runBatch({W})[0].Status, QueryStatus::Ok);
  }
  ASSERT_EQ(Engine.policyCounters().degraded(), 0u);

  // Occupy the worker, then queue point queries past the soft-water
  // mark: they acquire imposed deadlines and the Degraded mark.
  Query Slow;
  Slow.Kind = QueryKind::SSSP;
  Slow.Source = 0;
  Slow.Sched = eager(1);
  // Release this thread's idle OpenMP pool first: its spinning threads
  // would otherwise hold the cores while the worker runs the slow query,
  // and the submits below would land only after it finished.
  omp_pause_resource_all(omp_pause_soft);
  uint64_t SlowTicket = Engine.submit(Slow);
  std::vector<uint64_t> Tickets;
  for (int I = 0; I < 8; ++I) {
    Query Q;
    Q.Kind = QueryKind::PPSP;
    Q.Source = 0;
    Q.Target = static_cast<VertexId>(1 + I);
    Tickets.push_back(Engine.submit(Q));
  }

  int DegradedSeen = 0;
  for (uint64_t T : Tickets) {
    QueryResult R = Engine.collect(T);
    // Degraded queries may still complete (Ok) or get cut (Deadline
    // Exceeded) — both are sound; Shed must not happen (no high water).
    ASSERT_NE(R.Status, QueryStatus::Shed);
    if (R.Degraded)
      ++DegradedSeen;
  }
  Engine.collect(SlowTicket);
  EXPECT_GT(DegradedSeen, 0);
  EXPECT_EQ(static_cast<uint64_t>(DegradedSeen),
            Engine.policyCounters().degraded());
}

TEST(Deadline, AdmissionShedTieBreakIsDeterministic) {
  // The tie rule through the engine, both halves: an incomer tied with the
  // least-important pending query sheds *itself* (queued work has waited
  // longer), and a strictly more important incomer displaces the *newest*
  // of the equally-least-important pending queries (it has waited least).
  // Shed results come back typed and counted per class. The rule itself
  // is ServingPolicy.Admission* in serving_policy_test.cpp.
  Graph G = makeRoad(64, 53);
  QueryEngine::Options Opts;
  Opts.NumWorkers = 1;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(1024);
  Opts.AdmissionHighWater = 3;
  QueryEngine Engine(G, Opts);

  Query Slow;
  Slow.Kind = QueryKind::SSSP;
  Slow.Source = 0;
  Slow.Sched = eager(1);
  Slow.Importance = 10;
  // Free the cores first, as SoftWaterDegradesPointQueriesInsteadOfShedding
  // does.
  omp_pause_resource_all(omp_pause_soft);
  uint64_t SlowTicket = Engine.submit(Slow);
  // Wait until the only worker has dequeued the slow run, so the three
  // fillers below are exactly the pending queue — deterministic state.
  while (Engine.queueDepth() > 0)
    std::this_thread::yield();

  auto mkPoint = [&](int Importance) {
    Query Q;
    Q.Kind = QueryKind::PPSP;
    Q.Source = 0;
    Q.Target = 1;
    Q.Importance = Importance;
    return Q;
  };
  uint64_t A = Engine.submit(mkPoint(1)); // oldest pending
  uint64_t B = Engine.submit(mkPoint(1));
  uint64_t C = Engine.submit(mkPoint(1)); // newest pending

  // Tied incomer: D itself sheds; A/B/C stay queued.
  uint64_t D = Engine.submit(mkPoint(1));
  EXPECT_EQ(Engine.collect(D).Status, QueryStatus::Shed);

  // Strictly more important incomer: the victim is C — the newest of the
  // equally-least-important pending queries — never A (the oldest).
  uint64_t E = Engine.submit(mkPoint(2));
  EXPECT_EQ(Engine.collect(C).Status, QueryStatus::Shed);
  EXPECT_NE(Engine.collect(A).Status, QueryStatus::Shed);
  EXPECT_NE(Engine.collect(B).Status, QueryStatus::Shed);
  EXPECT_NE(Engine.collect(E).Status, QueryStatus::Shed);
  EXPECT_EQ(Engine.collect(SlowTicket).Status, QueryStatus::Ok);

  // Both sheds were importance-1 queries → class 2; per-class counters
  // must agree.
  const ServingPolicy::Counters Ctr = Engine.policyCounters();
  EXPECT_EQ(Ctr.shed(), 2u);
  EXPECT_EQ(Ctr.ShedInClass[static_cast<size_t>(importanceClass(1))], 2u);
  EXPECT_EQ(Ctr.ShedInClass[0], 0u);
}

//===----------------------------------------------------------------------===//
// Feedback controller: the deadline/bit-identity contracts hold while the
// controller is actively moving MaxBatchDelayMicros and the soft water.
//===----------------------------------------------------------------------===//

namespace {

template <class StoreT>
void runControllerOnDifferential(StoreT &Store, const char *What) {
  using Engine = BasicQueryEngine<StoreT>;
  typename Engine::Options Opts;
  Opts.NumWorkers = 4;
  Opts.DefaultSchedule.configApplyPriorityUpdateDelta(8);
  Opts.MaxBatchDelayMicros = 2000;
  // Above ServingPolicy::kControllerMinSoftWater (16), so the controller
  // has room to move it (24 → 21 → 18 → 16), and low enough that a
  // 28-query round still reaches it.
  Opts.AdmissionSoftWater = 24;
  // No high water: every submitted query must resolve Ok or
  // DeadlineExceeded, so each result is checkable against the reference.
  Opts.AdmissionHighWater = 0;
  // An unmeetable class-0 target keeps the controller tightening for the
  // whole test — knobs are in motion while the contracts are checked.
  Opts.ClassSlo[0] = 1;
  Opts.ControllerIntervalMicros = 4000;
  Engine E(Store, Opts);

  const Schedule S = eager(8);
  SSSPResult Full = deltaSteppingSSSP(*Store.current(), 0, S);

  SplitMix64 Rng(0xC7A1);
  int SawDeadline = 0;
  // The controller acts only on windows holding at least
  // ServingPolicy::kControllerMinSamples class-0 completions, and how many
  // land in one 4 ms interval depends on the machine: keep submitting
  // rounds past the sixth until one has (bounded).
  for (int Round = 0;
       Round < 6 ||
       (E.policyCounters().ControllerTightens == 0 && Round < 60);
       ++Round) {
    std::vector<Query> Batch;
    // Class-0 point queries (the SLO-missing traffic that drives the
    // controller) — every Ok answer must be bit-identical to the
    // reference regardless of the knob trajectory.
    for (int I = 0; I < 24; ++I) {
      Query Q;
      Q.Kind = QueryKind::PPSP;
      Q.Source = 0;
      Q.Target = static_cast<VertexId>(
          Rng.nextInt(1, Store.current()->numNodes()));
      Q.Sched = S;
      Q.Importance = 3;
      Batch.push_back(Q);
    }
    // Deadline-carrying SSSPs: the settled-prefix contract under active
    // knob movement.
    for (int I = 0; I < 4; ++I) {
      Query Q;
      Q.Kind = QueryKind::SSSP;
      Q.Source = 0;
      Q.Sched = S;
      Q.CollectReached = true;
      Q.DeadlineMicros = I % 2 == 0 ? 1 : 300;
      Q.Importance = 1;
      Batch.push_back(Q);
    }
    std::vector<QueryResult> Results = E.runBatch(Batch);
    for (size_t I = 0; I < Results.size(); ++I) {
      const QueryResult &R = Results[I];
      const Query &Q = Batch[I];
      ASSERT_NE(R.Status, QueryStatus::Failed) << What;
      ASSERT_NE(R.Status, QueryStatus::Shed) << What;
      if (Q.Kind == QueryKind::PPSP) {
        if (R.Status == QueryStatus::Ok) {
          EXPECT_EQ(R.Dist, Full.Dist[Q.Target])
              << What << ": PPSP answer diverged, target " << Q.Target;
        }
      } else if (R.Status == QueryStatus::DeadlineExceeded) {
        ++SawDeadline;
        for (const auto &[V, Dist] : R.Reached) {
          EXPECT_LT(Dist, R.SettledBound) << What;
          EXPECT_EQ(Dist, Full.Dist[V]) << What << ": vertex " << V;
        }
      } else {
        EXPECT_EQ(static_cast<size_t>(R.Touched), R.Reached.size())
            << What;
      }
    }
  }

  // The controller genuinely ran and moved knobs...
  const ServingPolicy::Counters Ctr = E.policyCounters();
  EXPECT_GT(Ctr.ControllerTicks, 0u) << What;
  EXPECT_GT(Ctr.ControllerTightens, 0u) << What;
  // ...every recorded knob value stayed inside its configured bounds...
  bool SoftWaterMoved = false;
  for (const ControllerEvent &Ev : E.controllerTrace()) {
    EXPECT_GE(Ev.BatchDelayMicros, 0) << What;
    EXPECT_LE(Ev.BatchDelayMicros, Opts.MaxBatchDelayMicros) << What;
    EXPECT_GE(Ev.SoftWater, ServingPolicy::kControllerMinSoftWater) << What;
    EXPECT_LE(Ev.SoftWater, Opts.AdmissionSoftWater) << What;
    EXPECT_EQ(Ev.HighWater, 0u) << What; // disabled knob never enabled
    SoftWaterMoved |= Ev.SoftWater < Opts.AdmissionSoftWater;
  }
  // ...and the soft water was among the knobs in motion.
  EXPECT_TRUE(SoftWaterMoved) << What;
  EXPECT_GT(SawDeadline, 0) << What << ": no deadline ever fired";
}

} // namespace

TEST(Deadline, ControllerOnDifferentialAcrossStores) {
  Graph Base = makeRoad(40, 61);
  SnapshotStore Plain(Base);
  runControllerOnDifferential(Plain, "snapshot");
  ShardedSnapshotStore::Options SO;
  SO.NumShards = 4;
  ShardedSnapshotStore Sharded(Base, SO);
  runControllerOnDifferential(Sharded, "sharded");
}
