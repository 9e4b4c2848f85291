//===- examples/live_road_server.cpp - Live-updating routing service ------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The live-graph serving demo: a road network that changes while queries
// are in flight.
//
//   * a snapshot store publishes refcounted graph versions; a writer thread
//     feeds it traffic incidents (closures triple a segment's weight,
//     reopenings push it back toward free-flow);
//   * a query engine in live mode serves point-to-point queries, each
//     pinning the latest version for its lifetime — publishes never block
//     queries, queries never block publishes;
//   * a dispatcher keeps a full SSSP tree from a depot current with
//     incremental repair (O(affected) per batch) instead of recomputing.
//
// The serving loop also demonstrates the overload controls: every query
// carries a deadline and an importance class, admission control sheds the
// least-important work when the queue overfills, and results come back
// through tickets + tryCollect — nothing in the client path can abort on
// a bad ticket, and every submitted query resolves with a typed status.
//
// Pass `--sharded` to serve the same demo from a ShardedSnapshotStore
// through the identical engine code (both stores share one surface, and
// BasicQueryEngine is instantiated for each): writers take per-shard
// locks, compaction folds one shard at a time in the background, and the
// final report breaks the fold counters out per shard.
//
// Build: cmake --build build --target example_live_road_server
//
//===----------------------------------------------------------------------===//

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "service/SnapshotStore.h"
#include "support/LatencyHistogram.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <chrono>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

using namespace graphit;
using namespace graphit::service;

namespace {

constexpr Count kSide = 150;

/// Lowest weight the live A* coordinate heuristic tolerates on (U, V):
/// the road generator guarantees weight >= 100 x Euclidean length, and
/// every reopening must respect the same floor or the heuristic loses
/// admissibility (see algorithms/AStar.h). Templated so the sharded
/// composite view (ShardedDeltaView) serves the same helper.
template <typename GraphT>
Weight heuristicFloor(const GraphT &G, VertexId U, VertexId V) {
  const Coordinates &C = G.coordinates();
  double DX = C.X[U] - C.X[V];
  double DY = C.Y[U] - C.Y[V];
  return static_cast<Weight>(
      std::ceil(100.0 * std::sqrt(DX * DX + DY * DY)));
}

/// One round of traffic incidents against the current map version.
template <typename GraphT>
std::vector<EdgeUpdate> incidents(const GraphT &G, Count HowMany,
                                  SplitMix64 &Rng) {
  std::vector<EdgeUpdate> Batch;
  const Count N = G.numNodes();
  while (static_cast<Count>(Batch.size()) < HowMany) {
    VertexId U = static_cast<VertexId>(Rng.nextInt(0, N));
    Count Deg = G.outDegree(U);
    if (Deg == 0)
      continue;
    Count Pick = Rng.nextInt(0, Deg);
    Count I = 0;
    for (WNode E : G.outNeighbors(U)) {
      if (I++ != Pick)
        continue;
      bool Closure = Rng.nextInt(0, 2) == 0;
      // Weight changes keep the A* coordinate bound admissible: closures
      // only increase weights (always safe), reopenings are clamped to
      // this edge's 100 x Euclidean floor — a constant floor would let a
      // long diagonal drop below its own bound and silently corrupt the
      // demo's A* answers.
      Weight W = Closure
                     ? static_cast<Weight>(E.W * 3)
                     : std::max(heuristicFloor(G, U, E.V),
                                static_cast<Weight>(E.W / 3));
      Batch.push_back(EdgeUpdate{U, E.V, W, UpdateKind::Upsert});
      break;
    }
  }
  return Batch;
}

Count overlayEdgesOf(const DeltaGraph &G) { return G.overlayEdges(); }
Count overlayEdgesOf(const ShardedDeltaView &V) {
  Count Sum = 0;
  for (const std::shared_ptr<const DeltaGraph> &S : V.shards())
    Sum += S->overlayEdges();
  return Sum;
}

/// The whole demo, generic over the store — the exact code path the
/// engine runs in production for either one.
template <typename StoreT>
int runServer(StoreT &Store) {
  Schedule S;
  S.configApplyPriorityUpdateDelta(1024); // local point-to-point Δ

  typename BasicQueryEngine<StoreT>::Options Opts;
  Opts.NumWorkers = 4;
  Opts.DefaultSchedule = S;
  // Overload policy: past 512 queued queries shed the least-important
  // pending work (typed QueryStatus::Shed, never a silent drop); past 128
  // impose deadlines on point queries so the queue drains gracefully.
  Opts.AdmissionHighWater = 512;
  Opts.AdmissionSoftWater = 128;
  BasicQueryEngine<StoreT> Engine(Store, Opts);

  // Writer: a steady stream of incident batches racing the queries.
  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    SplitMix64 Rng(99);
    while (!Done.load())
      Engine.applyUpdates(incidents(*Store.current(), 32, Rng));
  });

  // Query mix: local trips, half PPSP, half A* on the live coordinates.
  std::vector<std::pair<VertexId, VertexId>> Pairs =
      localGridQueryPairs(kSide, kSide, kSide / 24, 256, 777);
  for (int Round = 0; Round < 4; ++Round) {
    // Ticketed submission: deadlines on every trip (generous — they only
    // fire if the box is badly oversubscribed), importance split so that
    // under shedding the "navigation reroute" class survives the
    // "speculative prefetch" class.
    Timer Clock;
    std::vector<uint64_t> Tickets;
    std::vector<std::chrono::steady_clock::time_point> Submitted;
    Tickets.reserve(Pairs.size());
    Submitted.reserve(Pairs.size());
    for (size_t I = 0; I < Pairs.size(); ++I) {
      Query Q;
      Q.Kind = (I & 1) ? QueryKind::AStar : QueryKind::PPSP;
      Q.Source = Pairs[I].first;
      Q.Target = Pairs[I].second;
      Q.DeadlineMicros = 200 * 1000; // 200 ms per trip
      Q.Importance = (I % 4 == 0) ? 0 : 1; // every 4th is speculative
      Submitted.push_back(std::chrono::steady_clock::now());
      Tickets.push_back(Engine.submit(Q));
    }
    // Per-trip end-to-end latency (submit -> collect) for the round,
    // summarized with the same log-scale histogram the service benchmark
    // gates on (support/LatencyHistogram.h).
    LatencyHistogram Lat;
    size_t Ok = 0, Expired = 0, Shed = 0, Reached = 0;
    for (size_t I = 0; I < Tickets.size(); ++I) {
      // Drain with tryCollect (unknown or double-collected tickets are a
      // typed nullopt, never an abort), falling back to the blocking
      // collect for tickets still in flight — every submitted query
      // resolves exactly once with a typed status.
      std::optional<QueryResult> Maybe = Engine.tryCollect(Tickets[I]);
      QueryResult R =
          Maybe.has_value() ? std::move(*Maybe) : Engine.collect(Tickets[I]);
      if (R.Status == QueryStatus::Ok)
        Lat.record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Submitted[I])
                .count()));
      switch (R.Status) {
      case QueryStatus::Ok:
        ++Ok;
        if (R.Dist < kInfiniteDistance)
          ++Reached;
        break;
      case QueryStatus::DeadlineExceeded:
        ++Expired;
        break;
      case QueryStatus::Shed:
        ++Shed;
        break;
      case QueryStatus::Failed:
        break;
      }
    }
    double Sec = Clock.seconds();
    typename StoreT::Snapshot Snap = Store.current();
    std::printf("round %d: %zu queries in %.3fs (%.0f qps) | ok %zu, "
                "expired %zu, shed %zu | version %llu, overlay %lld edges, "
                "%llu compactions\n",
                Round, Tickets.size(), Sec, Tickets.size() / Sec, Ok,
                Expired, Shed, (unsigned long long)Store.version(),
                (long long)overlayEdgesOf(*Snap),
                (unsigned long long)Store.compactions());
    std::printf("  latency (us): p50 %llu, p95 %llu, p99 %llu, max %llu "
                "over %llu completed trips\n",
                (unsigned long long)Lat.percentile(50),
                (unsigned long long)Lat.percentile(95),
                (unsigned long long)Lat.percentile(99),
                (unsigned long long)Lat.max(),
                (unsigned long long)Lat.count());
    if (Reached < Ok * 9 / 10)
      std::printf("  (note: %zu/%zu completed trips reachable this round)\n",
                  Reached, Ok);
  }
  Done = true;
  Writer.join();

  // Dispatcher view: keep a depot's full SSSP tree current with
  // incremental repair while more incidents land.
  std::printf("-- dispatcher: incremental repair vs recompute --\n");
  DistanceState Dispatch(Store.current()->numNodes());
  deltaSteppingSSSP(*Store.current(), /*Depot=*/0, S, Dispatch);
  RepairScratch Scratch;
  SplitMix64 Rng(7);
  for (int B = 0; B < 3; ++B) {
    typename StoreT::ApplyResult A =
        Store.applyUpdates(incidents(*Store.current(), 16, Rng));
    Timer RepairClock;
    RepairStats R =
        repairAfterUpdates(*A.Snap, A.Applied, Dispatch, S, Scratch);
    double RepairSec = RepairClock.seconds();
    Timer FullClock;
    SSSPResult Full = deltaSteppingSSSP(*A.Snap, 0, S);
    double FullSec = FullClock.seconds();
    bool Identical = true;
    for (size_t V = 0; V < Full.Dist.size(); ++V)
      if (Dispatch.distances()[V] != Full.Dist[V])
        Identical = false;
    std::printf("batch %d: %zu transitions, %lld affected -> repair %.4fs "
                "vs recompute %.4fs (%.1fx), identical: %s\n",
                B, A.Applied.size(), (long long)R.AffectedVertices,
                RepairSec, FullSec, FullSec / RepairSec,
                Identical ? "yes" : "NO");
    if (!Identical)
      return 1;
  }
  Store.waitForCompaction();
  std::printf("final: version %llu, %llu compactions, overlay %lld edges\n",
              (unsigned long long)Store.version(),
              (unsigned long long)Store.compactions(),
              (long long)overlayEdgesOf(*Store.current()));
  if constexpr (std::is_same_v<StoreT, ShardedSnapshotStore>) {
    // Per-shard compaction report: every fold here held exactly one
    // shard's writer lock while the other shards kept publishing.
    std::printf("per-shard folds:");
    for (int Sh = 0; Sh < Store.numShards(); ++Sh)
      std::printf(" [%d] %llu%s", Sh,
                  (unsigned long long)Store.shardFolds(Sh),
                  Store.shardDegraded(Sh) ? " (degraded)" : "");
    std::printf(" | tombstones reclaimed %llu | degraded: %s\n",
                (unsigned long long)Store.reclaimedTombstones(),
                Store.degraded() ? "yes" : "no");
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Sharded = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--sharded") == 0) {
      Sharded = true;
    } else {
      std::fprintf(stderr, "usage: %s [--sharded]\n", argv[0]);
      return 2;
    }
  }

  RoadNetwork Net = roadGrid(kSide, kSide, 4242);
  BuildOptions Options;
  Options.Symmetrize = true;
  Graph Base = GraphBuilder(Options).build(Net.NumNodes, Net.Edges,
                                           std::move(Net.Coords));
  std::printf("== live road server: %lldx%lld grid, %lld nodes, "
              "%lld directed edges (%s store) ==\n",
              (long long)kSide, (long long)kSide,
              (long long)Base.numNodes(), (long long)Base.numEdges(),
              Sharded ? "sharded" : "unsharded");

  if (Sharded) {
    ShardedSnapshotStore::Options StoreOpts;
    StoreOpts.NumShards = 8;
    StoreOpts.CompactionThreshold = 0.02; // compact early for the demo
    StoreOpts.MinOverlayEdges = 1 << 10;
    StoreOpts.BackgroundCompaction = true;
    ShardedSnapshotStore Store(std::move(Base), StoreOpts);
    return runServer(Store);
  }
  SnapshotStore::Options StoreOpts;
  StoreOpts.CompactionThreshold = 0.02; // compact early for the demo
  StoreOpts.MinOverlayEdges = 1 << 10;
  StoreOpts.BackgroundCompaction = true;
  SnapshotStore Store(std::move(Base), StoreOpts);
  return runServer(Store);
}
