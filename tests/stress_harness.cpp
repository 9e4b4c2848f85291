//===- tests/stress_harness.cpp - Shared randomized stress harness --------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "stress_harness.h"

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/PPSP.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "service/SnapshotStore.h"
#include "support/FailPoint.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <tuple>

using namespace graphit;
using namespace graphit::service;
using namespace graphit::stress;

namespace {

Graph makeBase(const StressConfig &C) {
  if (C.Symmetric) {
    RoadNetwork Net = roadGrid(C.GridSide, C.GridSide, 4242);
    BuildOptions O;
    O.Symmetrize = true;
    return GraphBuilder(O).build(Net.NumNodes, Net.Edges,
                                 std::move(Net.Coords));
  }
  std::vector<Edge> Edges = rmatEdges(C.RmatScale, 8, 321);
  assignRandomWeights(Edges, 1, 64, 11);
  return GraphBuilder().build(Count{1} << C.RmatScale, Edges);
}

std::vector<AppliedUpdate> toExternal(std::vector<AppliedUpdate> A,
                                      const VertexMapping &M) {
  for (AppliedUpdate &U : A) {
    U.Src = M.toExternal(U.Src);
    U.Dst = M.toExternal(U.Dst);
  }
  return A;
}

std::string describe(const AppliedUpdate &U) {
  std::ostringstream Os;
  Os << U.Src << "->" << U.Dst << " (" << U.OldW << " => " << U.NewW << ")";
  return Os.str();
}

} // namespace

std::string graphit::stress::applyStressEnv(StressConfig &C) {
  if (const char *S = std::getenv("GRAPHIT_STRESS_SEED"))
    C.Seed = std::strtoull(S, nullptr, 0);
  if (const char *R = std::getenv("GRAPHIT_STRESS_ROUNDS"))
    C.Rounds = std::max(1, std::atoi(R));
  if (const char *F = std::getenv("GRAPHIT_STRESS_FAULTS")) {
    // Probability per fail-point evaluation; any value > 0 arms injection
    // (meaningful only in -DGRAPHIT_FAILPOINTS=ON builds).
    C.FaultProbability = std::atof(F);
    C.InjectFaults = C.FaultProbability > 0.0;
  }
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "stress config: seed=0x%llx rounds=%d batch=%lld shards=%d "
                "%s insert=%d faults=%.3f",
                static_cast<unsigned long long>(C.Seed), C.Rounds,
                static_cast<long long>(C.BatchSize), C.NumShards,
                C.Symmetric ? "road" : "rmat", C.InsertVertices ? 1 : 0,
                C.InjectFaults ? C.FaultProbability : 0.0);
  return Buf;
}

std::string graphit::stress::runLiveStress(const StressConfig &C) {
  // Everything below is deterministic in C.Seed; any failure string leads
  // with the seed so the exact stream replays.
  std::ostringstream Fail;
  auto Tag = [&](int Round) -> std::ostringstream & {
    Fail << "[seed=0x" << std::hex << C.Seed << std::dec << " round="
         << Round << "] ";
    return Fail;
  };

  Graph Base = makeBase(C);
  const bool HasCoords = Base.hasCoordinates();

  SnapshotStore::Options PO;
  PO.Reorder = C.PlainReorder;
  PO.CompactionThreshold = 0.06;
  PO.MinOverlayEdges = 256;
  SnapshotStore Plain(Base, PO);

  ShardedSnapshotStore::Options SO;
  SO.NumShards = C.NumShards;
  SO.Reorder = C.ShardedReorder;
  SO.CompactionThreshold = 0.06;
  SO.MinOverlayEdges = 64;
  SO.BackgroundCompaction = C.ShardedBackground;
  ShardedSnapshotStore Sharded(Base, SO);

  // Identity-layout reference overlay: batches are generated from it (so
  // they are external-id batches), and it receives every operation the
  // stores do.
  DeltaGraph Ref(std::make_shared<const Graph>(Base));

  Schedule Eager;
  Eager.configApplyPriorityUpdateDelta(1024);
  Schedule Lazy;
  Lazy.configApplyPriorityUpdate("lazy").configApplyPriorityUpdateDelta(1024);
  Schedule Fine;
  Fine.configApplyPriorityUpdateDelta(4);
  // Δ not a power of two: the engine's fine keys take the division form.
  Schedule Odd;
  Odd.configApplyPriorityUpdateDelta(1000);
  const Schedule *Schedules[] = {&Eager, &Lazy, &Fine, &Odd};
  const char *SchedNames[] = {"eager/1024", "lazy/1024", "eager/4",
                              "eager/1000"};

  // The sharded store is driven end to end through the unified engine:
  // updates, growth, removal, and queries all take the engine path, with
  // hot-state repair, adaptive batching, admission control, and the
  // deadline plumbing engaged (generous budgets — the *paths* run, the
  // outcomes stay deterministic).
  ShardedQueryEngine::Options EO;
  EO.NumWorkers = 2;
  EO.DefaultSchedule = Eager;
  EO.HotSourceCapacity = 4;
  EO.MaxBatchDelayMicros = 200;
  EO.AdmissionHighWater = 64; // far above the harness's queue depth
  EO.AdmissionSoftWater = 32;
  ShardedQueryEngine Engine(Sharded, EO);

  // Hot dispatcher states repaired across every version (external source
  // 0), checked bit-for-bit against a fresh recompute each round: one
  // repaired on a one-thread team (plain marks) and one on four (atomic
  // marks, per-thread counts).
  const VertexId RepairSrcExt = 0;
  const int RepairThreads[] = {1, 4};
  std::vector<DistanceState> Repaired(
      std::size(RepairThreads), DistanceState(Plain.current()->numNodes()));
  std::vector<RepairScratch> Scratch(std::size(RepairThreads));
  for (size_t I = 0; I < Repaired.size(); ++I) {
    ScopedThreads Scope(RepairThreads[I]);
    deltaSteppingSSSP(*Plain.current(),
                      Plain.mapping().toInternal(RepairSrcExt), Eager,
                      Repaired[I]);
  }

  SplitMix64 Rng(C.Seed);

  // Fault injection: arm every registered point for the store-mutation
  // phase of the round, disarm before the reference apply and the
  // differential reads. The reference DeltaGraph has no fail-point sites,
  // so the stores must recover to *its* answers — bit-identically —
  // whatever the injected publish/lock/compaction faults did. Reseeding
  // from (Seed, Round) makes any failing schedule replay exactly.
  const bool Faults = C.InjectFaults && failpoints::kFailPointsEnabled;
  auto armFaults = [&](int RoundIdx) {
    if (!Faults)
      return;
    failpoints::reseed(C.Seed ^
                       (0x9E3779B97F4A7C15ULL *
                        static_cast<uint64_t>(RoundIdx + 1)));
    for (const char *P : failpoints::kAllPoints)
      failpoints::activate(P, C.FaultProbability);
  };
  auto disarmFaults = [&] {
    if (Faults)
      failpoints::reset();
  };

  for (int Round = 0; Round < C.Rounds; ++Round) {
    armFaults(Round);
    const bool InsertRound =
        C.InsertVertices && Round % 3 == 2 && Ref.numNodes() >= 2;
    bool RemoveRound =
        C.RemoveVertices && Round % 3 == 1 && Ref.numNodes() >= 2;
    // Removal rounds need a vertex that still has edges; the applied
    // streams come out of differently-ordered adjacency walks, so they
    // compare as sorted multisets instead of record for record.
    VertexId RemoveV = kInvalidVertex;
    if (RemoveRound) {
      for (int Try = 0; Try < 16 && RemoveV == kInvalidVertex; ++Try) {
        VertexId Cand =
            static_cast<VertexId>(Rng.nextInt(0, Ref.numNodes()));
        if (Ref.outDegree(Cand) > 0)
          RemoveV = Cand;
      }
      RemoveRound = RemoveV != kInvalidVertex;
    }

    std::vector<EdgeUpdate> Batch;
    if (InsertRound) {
      // Grow the universe by two anchored vertices, then wire each to its
      // anchor. Anchor-copied coordinates keep the Euclidean bound exact
      // (distance 0 between the endpoints of every new edge).
      const Count K = 2;
      const Count OldN = Ref.numNodes();
      Coordinates Tail;
      std::vector<VertexId> Anchors;
      for (Count I = 0; I < K; ++I) {
        VertexId A = static_cast<VertexId>(Rng.nextInt(0, OldN));
        Anchors.push_back(A);
        if (HasCoords) {
          Tail.X.push_back(Ref.coordinates().X[A]);
          Tail.Y.push_back(Ref.coordinates().Y[A]);
        }
      }
      const Coordinates *TailPtr = HasCoords ? &Tail : nullptr;
      VertexId FirstP = Plain.addVertices(K, TailPtr);
      VertexId FirstS = Engine.addVertices(K, TailPtr);
      Ref.growUniverse(OldN + K, TailPtr);
      if (FirstP != static_cast<VertexId>(OldN) ||
          FirstS != static_cast<VertexId>(OldN)) {
        Tag(Round) << "vertex insertion ids diverge: plain=" << FirstP
                   << " sharded=" << FirstS << " want=" << OldN;
        return Fail.str();
      }
      for (DistanceState &R : Repaired)
        R.resize(Ref.numNodes()); // growth alone changes no distance
      for (Count I = 0; I < K; ++I) {
        VertexId NewV = static_cast<VertexId>(OldN + I);
        Weight W =
            static_cast<Weight>(Rng.nextInt(kMinWeight, kMaxWeight));
        Batch.push_back(EdgeUpdate{Anchors[static_cast<size_t>(I)], NewV,
                                   W, UpdateKind::Upsert});
        Batch.push_back(EdgeUpdate{NewV, Anchors[static_cast<size_t>(I)],
                                   W, UpdateKind::Upsert});
      }
    } else if (!RemoveRound) {
      Batch = randomBatch(Ref, C.BatchSize, Rng);
      // Coalescing stress: duplicate an entry so one directed edge sees
      // several transitions inside a single batch.
      if (!Batch.empty() && Rng.nextInt(0, 2) == 0)
        Batch.push_back(
            Batch[static_cast<size_t>(Rng.nextInt(0, Batch.size()))]);
      // Malformed writes: every store must skip them identically.
      if (Rng.nextInt(0, 3) == 0) {
        Batch.push_back(EdgeUpdate{
            static_cast<VertexId>(Ref.numNodes() + 5), 0, 7,
            UpdateKind::Upsert});
        Batch.push_back(EdgeUpdate{1, 1, 3, UpdateKind::Upsert});
        Batch.push_back(EdgeUpdate{0, 2, -4, UpdateKind::Upsert});
      }
    }

    SnapshotStore::ApplyResult PA;
    ShardedSnapshotStore::ApplyResult SA;
    std::vector<AppliedUpdate> RefApplied;
    if (RemoveRound) {
      // Vertex removal + id reuse, differentially: the stores detach the
      // vertex through removeVertex; the reference applies the equivalent
      // delete batch (it never removes anything) — every check below then
      // proves a removed-and-reacquired universe is bit-identical to one
      // that only ever deleted edges.
      PA = Plain.removeVertex(RemoveV);
      SA = Engine.removeVertex(RemoveV);
      disarmFaults();
      std::vector<EdgeUpdate> Deletes;
      for (WNode E : Ref.outNeighbors(RemoveV))
        Deletes.push_back(EdgeUpdate{RemoveV, E.V, 0, UpdateKind::Delete});
      if (!Ref.isSymmetric() && Ref.hasInEdges())
        for (WNode E : Ref.inNeighbors(RemoveV))
          Deletes.push_back(EdgeUpdate{E.V, RemoveV, 0, UpdateKind::Delete});
      RefApplied = coalesceApplied(Ref.apply(Deletes));

      if (Plain.freeVertexCount() != 1 || Engine.freeVertexCount() != 1) {
        Tag(Round) << "free-list sizes after removeVertex: plain="
                   << Plain.freeVertexCount()
                   << " sharded=" << Engine.freeVertexCount() << " want=1";
        return Fail.str();
      }
      VertexId GotP = Plain.acquireVertex();
      VertexId GotS = Engine.acquireVertex();
      if (GotP != RemoveV || GotS != RemoveV) {
        Tag(Round) << "acquireVertex did not recycle the freed id: plain="
                   << GotP << " sharded=" << GotS << " want=" << RemoveV;
        return Fail.str();
      }
      if (Plain.freeVertexCount() != 0 || Engine.freeVertexCount() != 0 ||
          PA.Snap->numNodes() != Ref.numNodes()) {
        Tag(Round) << "id reuse grew the universe or leaked free ids";
        return Fail.str();
      }
    } else {
      PA = Plain.applyUpdates(Batch);
      SA = Engine.applyUpdates(Batch);
      disarmFaults();
      RefApplied = coalesceApplied(Ref.apply(Batch));
    }

    // --- Applied-transition differential (external id space) ------------
    std::vector<AppliedUpdate> PExt =
        toExternal(PA.Applied, Plain.mapping());
    std::vector<AppliedUpdate> SExt =
        toExternal(SA.Applied, Sharded.mapping());
    if (RemoveRound) {
      // A detachment enumerates each store's own (possibly permuted)
      // adjacency, so record order is layout-dependent; the coalesced
      // multiset is not.
      auto ByEdge = [](const AppliedUpdate &A, const AppliedUpdate &B) {
        return std::tie(A.Src, A.Dst, A.OldW, A.NewW) <
               std::tie(B.Src, B.Dst, B.OldW, B.NewW);
      };
      std::sort(PExt.begin(), PExt.end(), ByEdge);
      std::sort(SExt.begin(), SExt.end(), ByEdge);
      std::sort(RefApplied.begin(), RefApplied.end(), ByEdge);
    }
    if (PExt.size() != SExt.size() || PExt.size() != RefApplied.size()) {
      Tag(Round) << "applied-stream sizes diverge: plain=" << PExt.size()
                 << " sharded=" << SExt.size()
                 << " reference=" << RefApplied.size();
      return Fail.str();
    }
    for (size_t I = 0; I < PExt.size(); ++I) {
      auto Same = [](const AppliedUpdate &A, const AppliedUpdate &B) {
        return A.Src == B.Src && A.Dst == B.Dst && A.OldW == B.OldW &&
               A.NewW == B.NewW;
      };
      if (!Same(PExt[I], RefApplied[I]) || !Same(SExt[I], RefApplied[I])) {
        Tag(Round) << "applied record " << I
                   << " diverges: plain=" << describe(PExt[I])
                   << " sharded=" << describe(SExt[I])
                   << " reference=" << describe(RefApplied[I]);
        return Fail.str();
      }
    }

    // --- Structural invariants ------------------------------------------
    if (PA.Snap->numNodes() != Ref.numNodes() ||
        SA.Snap->numNodes() != Ref.numNodes() ||
        PA.Snap->numEdges() != Ref.numEdges() ||
        SA.Snap->numEdges() != Ref.numEdges()) {
      Tag(Round) << "node/edge counts diverge: plain=" << PA.Snap->numNodes()
                 << "/" << PA.Snap->numEdges()
                 << " sharded=" << SA.Snap->numNodes() << "/"
                 << SA.Snap->numEdges() << " reference=" << Ref.numNodes()
                 << "/" << Ref.numEdges();
      return Fail.str();
    }

    // --- {ordering x schedule} SSSP differential ------------------------
    const Count N = Ref.numNodes();
    VertexId Sources[2] = {RepairSrcExt,
                           static_cast<VertexId>(Rng.nextInt(0, N))};
    for (VertexId SrcExt : Sources) {
      std::vector<Priority> FirstSchedule;
      for (size_t SI = 0; SI < std::size(Schedules); ++SI) {
        const Schedule &S = *Schedules[SI];
        SSSPResult DR = deltaSteppingSSSP(Ref, SrcExt, S);
        // Schedule independence on the reference itself: every
        // {ordering x schedule} point must agree bit-for-bit.
        if (SI == 0) {
          FirstSchedule = DR.Dist;
        } else if (DR.Dist != FirstSchedule) {
          Tag(Round) << "schedule point " << SchedNames[SI]
                     << " diverges from " << SchedNames[0]
                     << " on the reference overlay (src=" << SrcExt << ")";
          return Fail.str();
        }
        SSSPResult DP = deltaSteppingSSSP(
            *PA.Snap, Plain.mapping().toInternal(SrcExt), S);
        SSSPResult DS = deltaSteppingSSSP(
            *SA.Snap, Sharded.mapping().toInternal(SrcExt), S);
        for (Count V = 0; V < N; ++V) {
          VertexId Ext = static_cast<VertexId>(V);
          Priority Want = DR.Dist[Ext];
          Priority GotP = DP.Dist[Plain.mapping().toInternal(Ext)];
          Priority GotS = DS.Dist[Sharded.mapping().toInternal(Ext)];
          if (GotP != Want || GotS != Want) {
            Tag(Round) << "SSSP(" << SchedNames[SI] << ", src=" << SrcExt
                       << ") diverges at vertex " << Ext
                       << ": plain=" << GotP << " sharded=" << GotS
                       << " reference=" << Want;
            return Fail.str();
          }
        }
      }

      // Engine-served SSSP over the sharded store: submit/collect with
      // results in external ids, cross-checked against the reference
      // distances just computed. Repeating source[0] every round drives
      // the hot-state warm/repair/hit paths.
      Query EQ;
      EQ.Kind = QueryKind::SSSP;
      EQ.Source = SrcExt;
      EQ.CollectReached = true;
      QueryResult ER = Engine.runBatch({EQ})[0];
      if (ER.Status != QueryStatus::Ok) {
        Tag(Round) << "engine SSSP (src=" << SrcExt
                   << ") resolved non-Ok: "
                   << static_cast<int>(ER.Status);
        return Fail.str();
      }
      Count Finite = 0;
      for (Count V = 0; V < N; ++V)
        if (FirstSchedule[V] != kInfiniteDistance)
          ++Finite;
      if (static_cast<Count>(ER.Reached.size()) != Finite) {
        Tag(Round) << "engine SSSP (src=" << SrcExt << ") reached "
                   << ER.Reached.size() << " vertices, reference reaches "
                   << Finite;
        return Fail.str();
      }
      for (const std::pair<VertexId, Priority> &P : ER.Reached)
        if (FirstSchedule[P.first] != P.second) {
          Tag(Round) << "engine SSSP (src=" << SrcExt
                     << ") diverges at vertex " << P.first << ": engine="
                     << P.second << " reference=" << FirstSchedule[P.first];
          return Fail.str();
        }
      // The repeated source again without CollectReached: a hot hit then
      // reports Touched from the state's kept reach count alone.
      if (SrcExt == RepairSrcExt) {
        EQ.CollectReached = false;
        QueryResult EC = Engine.runBatch({EQ})[0];
        if (EC.Status != QueryStatus::Ok || EC.Touched != Finite) {
          Tag(Round) << "engine SSSP (src=" << SrcExt
                     << ", no CollectReached) touched " << EC.Touched
                     << " (status " << static_cast<int>(EC.Status)
                     << "), reference reaches " << Finite;
          return Fail.str();
        }
      }
    }

    // --- Repaired-vs-recomputed differential ----------------------------
    SSSPResult FreshP = deltaSteppingSSSP(
        *PA.Snap, Plain.mapping().toInternal(RepairSrcExt), Eager);
    std::vector<VertexId> FreshReached;
    for (Count V = 0; V < PA.Snap->numNodes(); ++V)
      if (FreshP.Dist[V] != kInfiniteDistance)
        FreshReached.push_back(static_cast<VertexId>(V));
    for (size_t I = 0; I < Repaired.size(); ++I) {
      {
        ScopedThreads Scope(RepairThreads[I]);
        repairAfterUpdates(*PA.Snap, PA.Applied, Repaired[I], Eager,
                           Scratch[I]);
      }
      const std::vector<Priority> &Got = Repaired[I].distances();
      for (Count V = 0; V < PA.Snap->numNodes(); ++V)
        if (Got[V] != FreshP.Dist[V]) {
          Tag(Round) << "repair at " << RepairThreads[I]
                     << " thread(s) diverges from recompute at internal "
                        "vertex "
                     << V << ": repaired=" << Got[V]
                     << " fresh=" << FreshP.Dist[V];
          return Fail.str();
        }
      const std::vector<VertexId> Reached = reachedVertices(Repaired[I]);
      if (Reached != FreshReached ||
          Repaired[I].numReached() !=
              static_cast<Count>(FreshReached.size())) {
        Tag(Round) << "repair at " << RepairThreads[I]
                   << " thread(s) reports reach " << Repaired[I].numReached()
                   << " and visits " << Reached.size()
                   << " vertices, recompute reaches " << FreshReached.size();
        return Fail.str();
      }
    }

    // --- PPSP spot checks (exact early exit vs full distances) ----------
    for (int Q = 0; Q < 3; ++Q) {
      VertexId S = static_cast<VertexId>(Rng.nextInt(0, N));
      VertexId T = static_cast<VertexId>(Rng.nextInt(0, N));
      SSSPResult DR = deltaSteppingSSSP(Ref, S, Eager);
      PPSPResult P = pointToPointShortestPath(
          *PA.Snap, Plain.mapping().toInternal(S),
          Plain.mapping().toInternal(T), Eager);
      if (P.Dist != DR.Dist[T]) {
        Tag(Round) << "PPSP(" << S << " -> " << T
                   << ") diverges: plain=" << P.Dist
                   << " reference=" << DR.Dist[T];
        return Fail.str();
      }
      // The same point query through the engine, with the deadline
      // plumbing engaged: a generous budget never fires, so the answer
      // must come back Ok and exact.
      Query EP;
      EP.Kind = QueryKind::PPSP;
      EP.Source = S;
      EP.Target = T;
      EP.DeadlineMicros = 30'000'000;
      QueryResult QR = Engine.runBatch({EP})[0];
      if (QR.Status != QueryStatus::Ok || QR.Dist != DR.Dist[T]) {
        Tag(Round) << "engine PPSP(" << S << " -> " << T
                   << ") diverges: engine=" << QR.Dist << " (status "
                   << static_cast<int>(QR.Status)
                   << ") reference=" << DR.Dist[T];
        return Fail.str();
      }
    }
  }

  // --- Hot-path determinism over the sharded engine ----------------------
  // Two same-source queries with no write in between: the second must be
  // served from the (warmed or repaired) hot state, bit-identical to the
  // first run and to the fault-free reference. Quiesce in-flight
  // background folds first — a fold publishing between the two queries
  // would (correctly) invalidate the warmed state.
  Sharded.waitForCompaction();
  {
    Query HQ;
    HQ.Kind = QueryKind::SSSP;
    HQ.Source = RepairSrcExt;
    HQ.CollectReached = true;
    QueryResult H1 = Engine.runBatch({HQ})[0];
    const uint64_t HitsBefore = Engine.hotHits();
    QueryResult H2 = Engine.runBatch({HQ})[0];
    if (Engine.hotHits() <= HitsBefore) {
      Tag(C.Rounds) << "second same-source engine SSSP missed the hot "
                       "cache (hits stayed at "
                    << HitsBefore << ")";
      return Fail.str();
    }
    SSSPResult DR = deltaSteppingSSSP(Ref, RepairSrcExt, Eager);
    if (H1.Reached != H2.Reached) {
      Tag(C.Rounds) << "hot-served SSSP diverges from the fresh run that "
                       "warmed it (src="
                    << RepairSrcExt << ")";
      return Fail.str();
    }
    for (const std::pair<VertexId, Priority> &P : H2.Reached)
      if (DR.Dist[P.first] != P.second) {
        Tag(C.Rounds) << "hot-served SSSP diverges from reference at "
                      << P.first << ": hot=" << P.second
                      << " reference=" << DR.Dist[P.first];
        return Fail.str();
      }
  }
  return "";
}
