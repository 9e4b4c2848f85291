//===- algorithms/IncrementalSSSP.h - Incremental distance repair -*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental SSSP/PPSP repair for live graphs: given the delta batch
/// that produced a new snapshot version (graph/DeltaGraph.h) and a pooled
/// `DistanceState` holding a *complete* SSSP solution for the previous
/// version, patch the distances in O(affected region) instead of
/// recomputing from scratch — with results bit-identical to a full
/// recompute (shortest-path distances are unique).
///
/// The classic affected-set scheme, mapped onto the ordered runtime:
///
///  1. *Invalidate.* A deleted or weight-increased edge (u,v) that was
///     tight (dist(v) == dist(u) + oldW) may have carried v's shortest
///     path; v and everything reachable from it along tight edges joins
///     the affected set (every edge of a shortest path is tight, so this
///     set over-approximates the vertices whose distance can grow — safe,
///     they are recomputed below). Affected distances are reset to ∞.
///  2. *Seed.* Every affected vertex is re-relaxed from its unaffected
///     in-neighbors (the boundary of the affected region); every inserted
///     or weight-decreased edge relaxes its head. The vertices whose
///     tentative distance improved become seeds.
///  3. *Settle.* The seeds are pushed into the eager or lazy bucket queue
///     at their coarsened keys (`distanceOrderedSeededRun`) and the
///     ordinary Δ-stepping engine runs to quiescence — the same machinery
///     as a fresh query, just started mid-flight at the affected boundary.
///
/// Repair keeps the state's reach count exact in O(affected): each vertex
/// it invalidates leaves the count (`DistanceState::invalidate`), and each
/// write that replaces ∞ — in the seed loop or the settle — joins it, as
/// in a fresh run. An invalidated vertex keeps its line marked, so after
/// repair the marked lines may hold vertices at ∞ that deletions cut off;
/// `beginQuery` refills them all the same, and `forEachReached` skips
/// them. PPSP over a live graph is served by repairing the source's full
/// SSSP state and reading `State.dist(target)`.
///
/// Repair needs incoming adjacency to scan the affected boundary; on
/// graphs built without it (and for affected sets so large that repair
/// would cost more than a fresh run) it falls back to a full recompute —
/// same results, `RepairStats::RecomputeFallback` set.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_INCREMENTALSSSP_H
#define GRAPHIT_ALGORITHMS_INCREMENTALSSSP_H

#include "algorithms/DistanceEngine.h"
#include "algorithms/QueryState.h"
#include "graph/DeltaGraph.h"
#include "support/Abort.h"

#include <unordered_map>
#include <vector>

namespace graphit {

/// Work counters for one repair call.
struct RepairStats {
  /// Vertices invalidated by the affected-set sweep.
  Count AffectedVertices = 0;
  /// Vertices seeded into the bucket queue (affected boundary + decrease
  /// heads whose tentative distance improved).
  Count SeedVertices = 0;
  /// True when repair degenerated to a full recompute (no in-adjacency,
  /// or the affected set crossed the recompute threshold).
  bool RecomputeFallback = false;
  /// Engine counters of the settle phase (or of the fallback run).
  OrderedStats Engine;
};

/// Reusable O(V) mark space for the affected-set sweep, epoch-stamped so
/// consecutive repairs pay O(affected), not O(V). Keep one per worker
/// alongside its DistanceState.
class RepairScratch {
public:
  void ensure(Count NumNodes) {
    if (static_cast<Count>(Mark.size()) != NumNodes) {
      Mark.assign(static_cast<size_t>(NumNodes), 0);
      Epoch = 0;
    }
  }

  /// Reserves two fresh epochs (affected, seeded) and returns the first.
  uint32_t takeEpochPair() {
    if (Epoch >= 0xfffffffdu) { // wrap: clear once per ~2 billion repairs
      std::fill(Mark.begin(), Mark.end(), 0u);
      Epoch = 0;
    }
    Epoch += 2;
    return Epoch - 1;
  }

  std::vector<uint32_t> Mark;

private:
  uint32_t Epoch = 0;
};

/// Repairs \p State (a complete SSSP solution for the pre-delta graph,
/// produced by the pooled `deltaSteppingSSSP` with no early exit) so it
/// holds the exact distances on \p G, the post-delta view. \p Delta is the
/// directed transition list `DeltaGraph::apply` / the snapshot store
/// returned for the batch — at most one record per directed edge
/// (coalesced old→new weights). Works on `Graph` and `DeltaGraph` alike.
template <typename GraphT>
RepairStats repairAfterUpdates(const GraphT &G,
                               const std::vector<AppliedUpdate> &Delta,
                               DistanceState &State, const Schedule &S,
                               RepairScratch &Scratch) {
  RepairStats R;
  const Count N = G.numNodes();
  // A state larger than the graph is fine (it was grown for a newer
  // universe while this repair targets an older pinned view; the extra
  // slots stay at infinity). Smaller would index out of bounds.
  if (State.numNodes() < N)
    fatalError("repairAfterUpdates: state sized for a smaller graph "
               "(resize it after vertex insertion)");
  const VertexId Source = State.source();
  if (Source == kInvalidVertex)
    fatalError("repairAfterUpdates: state holds no query");
  std::vector<Priority> &Dist = State.distances();

  Scratch.ensure(N);
  const uint32_t AffectedEpoch = Scratch.takeEpochPair();
  const uint32_t SeedEpoch = AffectedEpoch + 1;

  // Phase 1a: initial affected set — tight deleted/increased edges. The
  // source is never affected: its distance is 0 by definition.
  std::vector<VertexId> Affected;
  auto MarkAffected = [&](VertexId V) {
    if (V == Source || Scratch.Mark[V] == AffectedEpoch)
      return;
    Scratch.Mark[V] = AffectedEpoch;
    Affected.push_back(V);
  };
  for (const AppliedUpdate &U : Delta) {
    const bool Increase =
        U.OldW != kAbsentEdge && (U.NewW == kAbsentEdge || U.NewW > U.OldW);
    if (!Increase)
      continue;
    Priority DS = Dist[U.Src];
    if (DS < kInfiniteDistance && Dist[U.Dst] == DS + U.OldW)
      MarkAffected(U.Dst);
  }

  // Phase 1b: propagate along tight out-edges while old distances are
  // still in place. Tightness is a statement about the *pre-delta* graph,
  // so edges this batch touched must be tested with their old weight: a
  // decreased edge that was tight at its old weight still carried its
  // head's shortest path (the new-weight test would miss it), and an
  // inserted edge can never be old-tight. Deleted tight edges are already
  // in the initial set above. Unchanged edges keep their weight across
  // versions, so the post-delta adjacency is the right one to walk.
  std::unordered_map<uint64_t, Weight> OldWeightOf;
  OldWeightOf.reserve(Delta.size());
  for (const AppliedUpdate &U : Delta)
    OldWeightOf.emplace((static_cast<uint64_t>(U.Src) << 32) | U.Dst,
                        U.OldW);
  for (size_t I = 0; I < Affected.size(); ++I) {
    VertexId V = Affected[I];
    Priority DV = Dist[V];
    if (DV >= kInfiniteDistance)
      continue;
    for (WNode E : G.outNeighbors(V)) {
      Weight W = E.W;
      auto It =
          OldWeightOf.find((static_cast<uint64_t>(V) << 32) | E.V);
      if (It != OldWeightOf.end()) {
        if (It->second == kAbsentEdge)
          continue; // inserted this batch: cannot carry an old path
        W = It->second;
      }
      if (Dist[E.V] == DV + W)
        MarkAffected(E.V);
    }
  }
  R.AffectedVertices = static_cast<Count>(Affected.size());

  // Fallback before any distance is clobbered: boundary seeding needs
  // in-edges, and past ~a quarter of the graph a fresh run is cheaper
  // than invalidate + boundary scan + settle.
  if ((!Affected.empty() && !G.hasInEdges()) ||
      R.AffectedVertices > N / 4) {
    R.RecomputeFallback = true;
    State.beginQuery(Source);
    DistanceState::RunTouch Touch = State.makeTouchFn();
    R.Engine = detail::distanceOrderedRun(
        G, Source, State.distances(), S,
        [](VertexId) { return Priority{0}; }, [](int64_t) { return false; },
        Touch);
    Touch.close();
    return R;
  }

  // Every affected vertex is finite: the sweep only follows tight edges
  // out of finite vertices.
  for (VertexId V : Affected)
    State.invalidate(V);

  // Phase 2: seed. Serial — the affected region is small by construction
  // (that is the point of taking this path instead of the fallback).
  std::vector<VertexId> Seeds;
  auto RelaxSeed = [&](VertexId V, Priority ND, VertexId From) {
    const Priority Old = Dist[V];
    if (ND >= Old)
      return;
    Dist[V] = ND;
    State.recordImprovementSerial(V, From, Old == kInfiniteDistance);
    if (Scratch.Mark[V] != SeedEpoch) {
      Scratch.Mark[V] = SeedEpoch;
      Seeds.push_back(V);
    }
  };
  for (VertexId V : Affected)
    for (WNode E : G.inNeighbors(V)) {
      Priority DU = Dist[E.V];
      if (DU < kInfiniteDistance)
        RelaxSeed(V, DU + E.W, E.V);
    }
  for (const AppliedUpdate &U : Delta) {
    const bool Decrease =
        U.NewW != kAbsentEdge && (U.OldW == kAbsentEdge || U.NewW < U.OldW);
    if (!Decrease)
      continue;
    Priority DS = Dist[U.Src];
    if (DS < kInfiniteDistance)
      RelaxSeed(U.Dst, DS + U.NewW, U.Src);
  }
  R.SeedVertices = static_cast<Count>(Seeds.size());

  // Phase 3: settle from the seeds through the ordinary ordered engine.
  DistanceState::RunTouch Touch = State.makeTouchFn();
  R.Engine = detail::distanceOrderedSeededRun(G, Seeds, Dist, S, Touch);
  Touch.close();
  return R;
}

} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_INCREMENTALSSSP_H
