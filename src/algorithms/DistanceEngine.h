//===- algorithms/DistanceEngine.h - Shared Δ-stepping core -----*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution core shared by the four distance-style ordered algorithms
/// (SSSP, wBFS, PPSP, A*). Each is Δ-stepping with a different priority
/// function and stop condition:
///
///   SSSP : priority = dist(v),          no early stop
///   wBFS : same, Δ fixed to 1
///   PPSP : same, stop when iΔ ≥ dist(target)
///   A*   : priority = dist(v) + h(v),   stop when iΔ ≥ dist(target)
///
/// This header corresponds to the code the GraphIt compiler *generates* for
/// those programs: `distanceOrderedRun` dispatches on the schedule to the
/// eager engine (with or without bucket fusion, §5.2) or to the lazy
/// bucket-update loop with direction-optimized traversal (§5.1).
///
/// Everything is generic over the graph type: `Graph` (immutable CSR) and
/// `DeltaGraph` (delta-overlay snapshot view, graph/DeltaGraph.h) run
/// through the same code. `distanceOrderedSeededRun` is the multi-source
/// variant incremental repair uses to settle an affected region from its
/// boundary instead of re-running from the original source.
///
/// It is an internal header of the algorithms library, not public API.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_DISTANCEENGINE_H
#define GRAPHIT_ALGORITHMS_DISTANCEENGINE_H

#include "core/OrderedProcess.h"
#include "core/Schedule.h"
#include "graph/Graph.h"
#include "runtime/LazyBucketQueue.h"
#include "runtime/Traversal.h"
#include "support/Abort.h"
#include "support/Atomics.h"
#include "support/Prefetch.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace graphit {
namespace detail {

/// Default (no-op) improvement observer for `distanceOrderedRun`.
struct NoTouchFn {
  void operator()(VertexId, VertexId, bool) const {}
};

/// The eager engine's relaxation closure over a distance array: re-checks
/// staleness against the fine key being processed, CASes improvements in,
/// reports each to \p Touch with whether it replaced ∞, and pushes
/// improved neighbors at their fine key.
template <typename GraphT, typename HeurFn, typename TouchFn>
auto makeEagerRelax(const GraphT &G, std::vector<Priority> &Dist,
                    const int64_t Delta, HeurFn &Heur, TouchFn &Touch) {
  const PriorityCoarsener C = PriorityCoarsener::of(Delta);
  // Single-threaded runs (serving mode pins OmpThreadsPerQuery=1; small
  // machines) take a non-atomic fast path: an uncontended lock-prefixed
  // CAS still costs ~20 cycles per successful relaxation, which is a
  // double-digit share of a road SSSP. The flag is fixed at closure
  // creation — the engine's parallel region uses the same ICV.
  const bool Concurrent = omp_get_max_threads() > 1;
  return [&G, &Dist, C, &Heur, &Touch, Concurrent](VertexId U,
                                                   int64_t CurrKey,
                                                   auto &&Push) {
    // Relaxed atomic loads: other threads CAS these slots concurrently;
    // the pre-check needs no ordering (atomicWriteMin re-validates) but
    // a plain load would be a data race.
    Priority DU = Concurrent ? atomicLoadRelaxed(&Dist[U]) : Dist[U];
    if (C.fineKey(DU + Heur(U)) < CurrKey)
      return; // stale: settled under an earlier key
    auto R = G.outNeighbors(U);
    const Count Deg = R.size();
    for (Count I = 0; I < Deg; ++I) {
      // The adjacency row streams; the destination's distance word is the
      // scattered load. Prefetch it a few edges ahead so the miss overlaps
      // the CAS/push work of the current edge.
      if (I + kPrefetchDistance < Deg)
        prefetchWrite(&Dist[R.id(I + kPrefetchDistance)]);
      VertexId V = R.id(I);
      Priority ND = DU + R.weight(I);
      // The value seen, which a successful CAS overwrites with the value
      // it replaced.
      Priority Old;
      bool Improved;
      if (Concurrent) {
        Old = atomicLoadRelaxed(&Dist[V]);
        Improved = ND < Old && atomicWriteMin(&Dist[V], ND, &Old);
      } else {
        Old = Dist[V];
        Improved = ND < Old;
        if (Improved)
          Dist[V] = ND;
      }
      if (Improved) {
        Touch(V, U, Old == kInfiniteDistance);
        // ND derives from the DU that passed the stale check (the relax
        // contract, core/OrderedProcess.h), so the key is never below
        // CurrKey on an edge where the heuristic is consistent.
        const int64_t Key = C.fineKey(ND + Heur(V));
        assert((Key >= CurrKey || Heur(U) > R.weight(I) + Heur(V)) &&
               "pushed key below the key being relaxed");
        Push(V, std::max(Key, CurrKey));
      }
    }
  };
}

/// The lazy bucket-update drain loop (Fig. 5 / Fig. 9(a)-(b)) over an
/// already-seeded queue.
template <typename GraphT, typename HeurFn, typename StopFn,
          typename TouchFn>
void lazyDistanceLoop(const GraphT &G, LazyBucketQueue &Queue,
                      std::vector<Priority> &Dist, const Schedule &S,
                      HeurFn &Heur, StopFn &Stop, TouchFn &Touch,
                      OrderedStats &Stats,
                      const CancelToken *Cancel = nullptr) {
  const PriorityCoarsener C = PriorityCoarsener::of(S.Delta);
  Timer Clock;
  TraversalBuffers Buffers(G);

  // See makeEagerRelax: single-threaded runs skip the atomic RMW cost.
  const bool Concurrent = omp_get_max_threads() > 1;
  auto Push = [&](VertexId Sv, VertexId Dv, Weight W) {
    if (!Concurrent) {
      Priority ND = Dist[Sv] + W;
      Priority Old = Dist[Dv];
      if (ND < Old) {
        Dist[Dv] = ND;
        Touch(Dv, Sv, Old == kInfiniteDistance);
        return true;
      }
      return false;
    }
    Priority ND = atomicLoadRelaxed(&Dist[Sv]) + W;
    Priority Old = atomicLoadRelaxed(&Dist[Dv]);
    if (ND < Old && atomicWriteMin(&Dist[Dv], ND, &Old)) {
      Touch(Dv, Sv, Old == kInfiniteDistance);
      return true;
    }
    return false;
  };
  auto Pull = [&](VertexId Sv, VertexId Dv, Weight W) {
    Priority ND = atomicLoad(&Dist[Sv]) + W;
    Priority Old = Dist[Dv];
    if (ND < Old) {
      // Dv is owned by this thread during a pull round, but other threads
      // read it concurrently as a source — store atomically (relaxed).
      atomicStoreRelaxed(&Dist[Dv], ND);
      Touch(Dv, Sv, Old == kInfiniteDistance);
      return true;
    }
    return false;
  };

  while (Queue.nextBucket()) {
    int64_t CurrKey = Queue.currentKey();
    // The control loop is sequential (parallelism lives inside
    // edgeApplyOut), so the bucket boundary is a safe cancellation point:
    // every bucket before CurrKey is fully drained, making CurrKey * Δ
    // the settled prefix bound.
    if (Cancel && Cancel->expired()) {
      Stats.Cancelled = true;
      Stats.CancelKey = CurrKey;
      break;
    }
    if (Stop(CurrKey))
      break;
    ++Stats.Rounds;
    const std::vector<VertexId> &Bucket = Queue.currentBucket();
    Stats.VerticesProcessed += static_cast<int64_t>(Bucket.size());

    // Fused handoff (§5.1): the changed destinations scatter straight into
    // buckets, computing each key inline from the priority vector — no
    // second (vertices, keys) array pair and no separate key-fill pass.
    // The prefetch hook pulls the distance word of the edge a block ahead
    // (the only scattered load in Push/Pull) into cache early — exclusive
    // for push destinations (about to be CAS-ed), shared for pull sources
    // (read by many destination owners in the same round).
    const std::vector<VertexId> &Changed = edgeApplyOut(
        G, Bucket, S.Dir, S.Par, Buffers, Push, Pull, /*Stats=*/nullptr,
        [&](VertexId V, bool IsPull) {
          if (IsPull)
            prefetchRead(&Dist[V]);
          else
            prefetchWrite(&Dist[V]);
        });
    Queue.updateBucketsWith(
        Changed.data(), static_cast<Count>(Changed.size()),
        [&](Count, VertexId V) {
          return std::max(C.key(Dist[V] + Heur(V)), CurrKey);
        });
  }
  Stats.OverflowRebuckets = Queue.overflowRebuckets();
  Stats.Seconds = Clock.seconds();
}

/// Runs the ordered distance computation. \p Dist must be initialized
/// (kInfiniteDistance everywhere except the source). \p Heur maps a vertex
/// to an admissible, consistent lower bound on its remaining distance
/// (return 0 for plain SSSP). \p Stop is evaluated on round-stable state at
/// bucket boundaries with the current bucket key. \p Touch is invoked as
/// `Touch(V, U, First)` after every successful relaxation that lowered
/// `Dist[V]` via the edge (U, V). `First` is true iff the write replaced
/// kInfiniteDistance: distances only fall during a run, and only one write
/// (one CAS, under concurrency) can replace ∞, so it holds for exactly one
/// call per vertex the run lifts off ∞. Unless the run has a one-thread team,
/// \p Touch runs concurrently from many threads and must synchronize
/// internally. The pooled `DistanceState::makeTouchFn` records parents,
/// and on each `First` call marks the vertex's line and counts it as
/// reached, with plain stores or atomics by that same test; it relies on
/// `First` holding exactly once per vertex for an exact count. The default
/// is a no-op.
template <typename GraphT, typename HeurFn, typename StopFn,
          typename TouchFn = NoTouchFn>
OrderedStats distanceOrderedRun(const GraphT &G, VertexId Source,
                                std::vector<Priority> &Dist,
                                const Schedule &S, HeurFn &&Heur,
                                StopFn &&Stop, TouchFn &&Touch = TouchFn{},
                                const CancelToken *Cancel = nullptr) {
  OrderedStats Stats;
  const int64_t Delta = S.Delta;
  if (Dist[Source] != 0)
    fatalError("distanceOrderedRun: source distance must start at 0");

  if (S.isEager()) {
    auto Relax = makeEagerRelax(G, Dist, Delta, Heur, Touch);
    const int64_t SourceKey =
        PriorityCoarsener::of(Delta).fineKey(Heur(Source));
    eagerOrderedProcess(G.numNodes(), Source, SourceKey, S, Relax, Stop,
                        &Stats,
                        [&G, &Dist](VertexId V) {
                          prefetchWrite(&Dist[V]);
                          G.prefetchOutRow(V);
                        },
                        Cancel);
    return Stats;
  }

  // Lazy bucket update (Fig. 5 / Fig. 9(a)-(b)).
  LazyBucketQueue Queue(G.numNodes(), S.NumOpenBuckets,
                        PriorityOrder::LowerFirst);
  Queue.insert(Source, Heur(Source) / Delta);
  lazyDistanceLoop(G, Queue, Dist, S, Heur, Stop, Touch, Stats, Cancel);
  return Stats;
}

/// Multi-source variant for incremental repair: \p Seeds are vertices
/// whose tentative distance in \p Dist was just lowered (by a boundary
/// re-relaxation or a decreased edge); the engine settles everything
/// reachable from them, leaving exact distances. No heuristic, no early
/// stop — repair serves SSSP-complete states. Runs to quiescence in
/// O(affected region), not O(V + E).
template <typename GraphT, typename TouchFn = NoTouchFn>
OrderedStats distanceOrderedSeededRun(const GraphT &G,
                                      const std::vector<VertexId> &Seeds,
                                      std::vector<Priority> &Dist,
                                      const Schedule &S,
                                      TouchFn &&Touch = TouchFn{}) {
  OrderedStats Stats;
  const int64_t Delta = S.Delta;
  auto Heur = [](VertexId) { return Priority{0}; };
  auto Stop = [](int64_t) { return false; };
  if (Seeds.empty())
    return Stats;

  if (S.isEager()) {
    auto Relax = makeEagerRelax(G, Dist, Delta, Heur, Touch);
    const PriorityCoarsener C = PriorityCoarsener::of(Delta);
    std::vector<std::pair<VertexId, int64_t>> SeedKeys;
    SeedKeys.reserve(Seeds.size());
    for (VertexId V : Seeds)
      SeedKeys.push_back({V, C.fineKey(Dist[V])});
    eagerOrderedProcessSeeds(
        G.numNodes(), SeedKeys.data(), static_cast<Count>(SeedKeys.size()),
        S, Relax, Stop, &Stats, [&G, &Dist](VertexId V) {
          prefetchWrite(&Dist[V]);
          G.prefetchOutRow(V);
        });
    return Stats;
  }

  LazyBucketQueue Queue(G.numNodes(), S.NumOpenBuckets,
                        PriorityOrder::LowerFirst);
  for (VertexId V : Seeds)
    Queue.insert(V, Dist[V] / Delta);
  lazyDistanceLoop(G, Queue, Dist, S, Heur, Stop, Touch, Stats);
  return Stats;
}

/// Shared result container for the distance family.
struct DistanceRun {
  std::vector<Priority> Dist;
  OrderedStats Stats;
};

/// Convenience wrapper: allocate/initialize distances and run.
template <typename GraphT, typename HeurFn, typename StopFn>
DistanceRun runDistanceAlgorithm(const GraphT &G, VertexId Source,
                                 const Schedule &S, HeurFn &&Heur,
                                 StopFn &&Stop) {
  DistanceRun R;
  R.Dist.assign(static_cast<size_t>(G.numNodes()), kInfiniteDistance);
  R.Dist[Source] = 0;
  R.Stats = distanceOrderedRun(G, Source, R.Dist, S,
                               std::forward<HeurFn>(Heur),
                               std::forward<StopFn>(Stop));
  return R;
}

} // namespace detail
} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_DISTANCEENGINE_H
