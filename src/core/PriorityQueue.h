//===- core/PriorityQueue.h - The priority-based programming model -*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing abstract priority queue of the paper's algorithm
/// language (Table 1): `dequeueReadySet`, `finished`, `finishedVertex`,
/// `getCurrentPriority`, and the three priority-update operators
/// `updatePriorityMin` / `updatePriorityMax` / `updatePrioritySum`.
///
/// This facade executes the `while (pq.finished() == false)` programming
/// pattern of Fig. 3 directly (library users and the code generator's
/// facade lowering drive it); the eager execution path instead lowers the
/// whole loop to `eagerOrderedProcess` (core/OrderedProcess.h), exactly as
/// the compiler transformation of §5.2 does.
///
/// Updates arriving from inside a parallel `applyUpdatePriority` are
/// buffered per thread and folded into the bucket structure lazily at the
/// next `dequeueReadySet`/`finished` call — i.e. the facade implements the
/// *lazy bucket update* semantics of §3.1, with one bucket move per updated
/// vertex per round.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_CORE_PRIORITYQUEUE_H
#define GRAPHIT_CORE_PRIORITYQUEUE_H

#include "core/Schedule.h"
#include "graph/Graph.h"
#include "runtime/Dedup.h"
#include "runtime/LazyBucketQueue.h"
#include "runtime/VertexSubset.h"

#include <vector>

namespace graphit {

/// Abstract priority queue over a user-owned priority vector.
class PriorityQueue {
public:
  /// Mirrors the paper's constructor (Table 1): whether priority
  /// coarsening is allowed (Δ is taken from \p S only if so), the
  /// processing direction ("lower_first"/"higher_first"), the priority
  /// vector backing store, and an optional start vertex. Without a start
  /// vertex, every vertex whose priority is not null is enqueued.
  PriorityQueue(bool AllowCoarsening, PriorityOrder Order,
                std::vector<Priority> &PriorityVector, const Schedule &S,
                VertexId StartVertex = kInvalidVertex);

  /// True when no bucket remains to process (pending updates are flushed
  /// first).
  bool finished();

  /// True when \p V's priority can no longer change, i.e. the current
  /// bucket's priority has passed it (PPSP/A* stop condition).
  bool finishedVertex(VertexId V) const;

  /// Priority value of the current bucket (its lower bound, ⌊key⌋·Δ).
  Priority getCurrentPriority() const { return CurrentPriority; }

  /// Extracts the next ready bucket as a vertexset. Returns an empty
  /// subset when finished.
  VertexSubset dequeueReadySet();

  /// Lowers the priority of \p V to \p NewVal if smaller (atomic).
  /// Thread-safe; usable inside parallel edge applies.
  void updatePriorityMin(VertexId V, Priority NewVal);

  /// Raises the priority of \p V to \p NewVal if larger (atomic).
  void updatePriorityMax(VertexId V, Priority NewVal);

  /// Adds \p SumDiff to the priority of \p V, clamping at
  /// \p MinThreshold (atomic). Values already at or below the threshold
  /// are frozen (the `priority > k` guard of Fig. 10) — that keeps
  /// finalized k-core vertices finalized.
  void updatePrioritySum(VertexId V, Priority SumDiff,
                         Priority MinThreshold);

  /// ⌊P / Δ⌋ — the bucket key of priority \p P.
  int64_t coarsen(Priority P) const { return P / Delta; }

  /// The coarsening factor in effect (1 when coarsening is disallowed).
  int64_t delta() const { return Delta; }

  /// Number of `dequeueReadySet` rounds so far (stats).
  int64_t rounds() const { return Rounds; }

private:
  /// Folds the per-thread changed-vertex buffers into the bucket queue.
  void flushPending();

  /// Records that \p V's priority changed (claims once per round).
  void notePriorityChange(VertexId V);

  std::vector<Priority> &Prio;
  LazyBucketQueue Queue;
  PriorityOrder Order;
  int64_t Delta;
  Priority CurrentPriority = kNullPriority;
  int64_t Rounds = 0;

  DedupFlags ChangedFlags;
  std::vector<std::vector<VertexId>> PendingPerThread;
  std::vector<VertexId> ScratchIds;
};

/// The `edges.from(bucket).applyUpdatePriority(f)` operator of the
/// algorithm language: applies \p EdgeFn(src, dst, weight) to every
/// out-edge of \p Bucket in parallel. \p EdgeFn typically calls the
/// priority-update operators on \p PQ.
template <typename EdgeFn>
void applyUpdatePriority(const Graph &G, VertexSubset &Bucket,
                         EdgeFn &&Body,
                         Parallelization Par =
                             Parallelization::DynamicVertexParallel) {
  const std::vector<VertexId> &Ids = Bucket.sparse();
  parallelFor(
      0, static_cast<Count>(Ids.size()),
      [&](Count I) {
        VertexId S = Ids[I];
        for (WNode E : G.outNeighbors(S))
          Body(S, E.V, E.W);
      },
      Par);
}

} // namespace graphit

#endif // GRAPHIT_CORE_PRIORITYQUEUE_H
