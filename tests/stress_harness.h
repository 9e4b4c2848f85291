//===- tests/stress_harness.h - Shared randomized stress harness -*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared randomized workload generators and the differential stress
/// driver for the live-serving stack.
///
/// Every suite that fuzzes the update path draws from the SAME update
/// space — `randomBatch` below is the one canonical mixed batch (deletes,
/// weight doublings/halvings, fresh inserts in [kMinWeight, kMaxWeight]).
/// The per-test copies it replaced had subtly different weight ranges, so
/// a bug reachable only under one suite's distribution could hide from
/// the others.
///
/// `runLiveStress` is the differential harness proper: a seeded stream of
/// mixed update batches (optionally including vertex insertion and
/// removal/id-reuse) is fed to an unsharded `SnapshotStore`, a
/// `ShardedSnapshotStore` — the sharded side driven end to end through
/// the unified `ShardedQueryEngine` (updates, growth, vertex removal, and
/// queries all routed through the engine, hot-state repair and deadline
/// plumbing engaged) — and a plain reference `DeltaGraph`, and every
/// round cross-checks
///
///   * applied-transition streams (external-id space, record for record),
///   * SSSP distance arrays across {ordering x schedule} points
///     (eager vs lazy, identity vs permuted, sharded vs unsharded) —
///     bit-identical, as PriorityGraph's schedule-independence guarantees,
///   * engine-served query results (submit/collect) vs those distances,
///   * incrementally repaired states vs fresh recomputes,
///   * PPSP spot answers vs the reference distances.
///
/// Everything is deterministic from `StressConfig::Seed`; a failure
/// message embeds the seed so the exact stream replays.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_TESTS_STRESS_HARNESS_H
#define GRAPHIT_TESTS_STRESS_HARNESS_H

#include "algorithms/QueryState.h"
#include "graph/DeltaGraph.h"
#include "graph/Reorder.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace graphit {
namespace stress {

/// The canonical fuzzed update space: every randomized suite inserts
/// fresh edges with weights uniform in [kMinWeight, kMaxWeight] and
/// perturbs existing ones by doubling/halving (clamped at kMinWeight).
inline constexpr Weight kMinWeight = 1;
inline constexpr Weight kMaxWeight = 400;

/// Random small update batch against the current view: deletes, weight
/// doublings/halvings of existing edges, insertions of fresh edges, and
/// occasional whole-vertex detachments (every out-edge of one vertex
/// deleted at once — the same batch the stores' `removeVertex`
/// materializes, so tombstoned patch rows and their fold-time reclamation
/// see fuzzed coverage). Works over any graph-compatible view (Graph,
/// DeltaGraph, ShardedDeltaView). Ids are the view's own id space —
/// generate from an identity-layout view when the batch will be fed to
/// reordered stores.
template <typename GraphT>
std::vector<EdgeUpdate> randomBatch(const GraphT &G, Count HowMany,
                                    SplitMix64 &Rng) {
  std::vector<EdgeUpdate> Batch;
  const Count N = G.numNodes();
  if (N < 2)
    return Batch;
  while (static_cast<Count>(Batch.size()) < HowMany) {
    VertexId U = static_cast<VertexId>(Rng.nextInt(0, N));
    int Action = static_cast<int>(Rng.nextInt(0, 4));
    if (Action == 3) {
      VertexId V = static_cast<VertexId>(Rng.nextInt(0, N));
      if (U == V)
        continue;
      Batch.push_back(EdgeUpdate{
          U, V,
          static_cast<Weight>(Rng.nextInt(kMinWeight, kMaxWeight)),
          UpdateKind::Upsert});
      continue;
    }
    if (Rng.nextInt(0, 16) == 0) {
      // Vertex detachment: delete U's whole out-row in one shot.
      for (WNode E : G.outNeighbors(U))
        Batch.push_back(EdgeUpdate{U, E.V, 0, UpdateKind::Delete});
      continue;
    }
    Count Deg = G.outDegree(U);
    if (Deg == 0)
      continue;
    Count Pick = Rng.nextInt(0, Deg);
    Count I = 0;
    for (WNode E : G.outNeighbors(U)) {
      if (I++ != Pick)
        continue;
      if (Action == 0)
        Batch.push_back(EdgeUpdate{U, E.V, 0, UpdateKind::Delete});
      else if (Action == 1)
        Batch.push_back(EdgeUpdate{U, E.V,
                                   static_cast<Weight>(E.W * 2),
                                   UpdateKind::Upsert});
      else
        Batch.push_back(EdgeUpdate{
            U, E.V,
            static_cast<Weight>(std::max<Weight>(kMinWeight, E.W / 2)),
            UpdateKind::Upsert});
      break;
    }
  }
  return Batch;
}

/// Insert-only batch safe for the A* coordinate heuristic: every new
/// edge's weight clears 100 x the graph's coordinate-bounding-box
/// diagonal, so it can never undercut the Euclidean bound regardless of
/// its endpoints (graph/Generators.h invariant). Requires coordinates.
template <typename GraphT>
std::vector<EdgeUpdate> coordinateSafeInsertBatch(const GraphT &G,
                                                  Count HowMany,
                                                  SplitMix64 &Rng) {
  const Coordinates &C = G.coordinates();
  if (C.empty())
    return {};
  double MinX = C.X[0], MaxX = C.X[0], MinY = C.Y[0], MaxY = C.Y[0];
  for (size_t I = 1; I < C.X.size(); ++I) {
    MinX = std::min(MinX, C.X[I]);
    MaxX = std::max(MaxX, C.X[I]);
    MinY = std::min(MinY, C.Y[I]);
    MaxY = std::max(MaxY, C.Y[I]);
  }
  double Diag = std::hypot(MaxX - MinX, MaxY - MinY);
  Weight Floor = static_cast<Weight>(100.0 * Diag) + 1;
  std::vector<EdgeUpdate> Batch;
  const Count N = G.numNodes();
  while (static_cast<Count>(Batch.size()) < HowMany) {
    VertexId A = static_cast<VertexId>(Rng.nextInt(0, N));
    VertexId B = static_cast<VertexId>(Rng.nextInt(0, N));
    if (A == B)
      continue;
    Batch.push_back(EdgeUpdate{
        A, B, static_cast<Weight>(Floor + Rng.nextInt(0, 1000)),
        UpdateKind::Upsert});
  }
  return Batch;
}

/// Sets the OpenMP thread count for one test case and restores the
/// previous count when the case ends, pass or fail.
class ScopedThreads {
public:
  explicit ScopedThreads(int Threads) : Saved(getNumWorkers()) {
    setNumWorkers(Threads);
  }
  ~ScopedThreads() { setNumWorkers(Saved); }
  ScopedThreads(const ScopedThreads &) = delete;
  ScopedThreads &operator=(const ScopedThreads &) = delete;

private:
  int Saved;
};

/// The vertices `State.forEachReached` visits, in visiting order.
inline std::vector<VertexId> reachedVertices(const DistanceState &State) {
  std::vector<VertexId> Out;
  State.forEachReached([&Out](VertexId V, Priority) { Out.push_back(V); });
  return Out;
}

/// One configuration point of the differential stress harness.
struct StressConfig {
  /// Workload seed. The failure string embeds it; replay by re-running
  /// with the same value (GRAPHIT_STRESS_SEED in the ctest binaries).
  uint64_t Seed = 0xC0FFEE;
  /// Update rounds (GRAPHIT_STRESS_ROUNDS scales this in CI stress runs).
  int Rounds = 8;
  /// Undirected updates per edge batch.
  Count BatchSize = 48;
  /// Shards of the sharded store under test.
  int NumShards = 4;
  /// true: symmetric road grid with coordinates (A* checked too);
  /// false: directed weighted R-MAT (in-adjacency, no coordinates).
  bool Symmetric = true;
  Count GridSide = 28; ///< symmetric case
  int RmatScale = 9;   ///< directed case: 2^Scale vertices
  /// Interleave vertex-insertion batches (every third round).
  bool InsertVertices = true;
  /// Interleave vertex removal/id-reuse rounds (every third round,
  /// offset from insertion): `removeVertex` on both stores against the
  /// equivalent delete batch on the reference, then `acquireVertex` must
  /// hand the freed id back on both — distances stay bit-identical to
  /// the never-removed (edge-deletes-only) reference throughout.
  bool RemoveVertices = true;
  /// Run the sharded store's per-shard folds on background threads
  /// (Options::BackgroundCompaction) so writer batches race in-flight
  /// folds and land in the replay logs — the only way the
  /// `compaction.replay` fail point sees fuzzed traffic.
  bool ShardedBackground = false;
  /// Layout axis of the {ordering x schedule} matrix.
  ReorderKind PlainReorder = ReorderKind::None;
  ReorderKind ShardedReorder = ReorderKind::None;
  /// Arm every registered fail point (support/FailPoint.h) with
  /// FaultProbability for the store-mutation phase of each round, reseeded
  /// deterministically from (Seed, round). The differential checks then
  /// prove the stores converge bit-identically to the fault-free reference
  /// *through* injected publish/lock/compaction faults. No-op unless the
  /// library was built with -DGRAPHIT_FAILPOINTS=ON.
  bool InjectFaults = false;
  double FaultProbability = 0.05;
};

/// Runs the differential harness; returns "" on success or a failure
/// description (with the seed) for the caller's ASSERT.
std::string runLiveStress(const StressConfig &Config);

/// Reads GRAPHIT_STRESS_SEED / GRAPHIT_STRESS_ROUNDS into \p Config (CI
/// runs the same ctest binaries with a random seed and a larger budget)
/// and returns a human-readable "seed=... rounds=..." banner the tests
/// print so failures are replayable from the log alone.
std::string applyStressEnv(StressConfig &Config);

} // namespace stress
} // namespace graphit

#endif // GRAPHIT_TESTS_STRESS_HARNESS_H
