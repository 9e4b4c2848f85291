//===- bench/update_throughput.cpp - Incremental repair vs recompute ------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures the live-graph update path: batches of edge updates (closures,
// weight changes, new shortcuts) are applied through the SnapshotStore,
// and a dispatcher-style full SSSP state is brought up to date two ways:
//
//   recompute — pooled beginQuery + a fresh Δ-stepping run over the new
//               snapshot at the default OpenMP thread count (the strongest
//               non-incremental baseline: it already skips the O(V)
//               infinity fill). It moves with the pooled state's
//               multi-thread touch cost, and `speedup` with it; the gate
//               reads `repair_s` on these lines;
//   repair    — algorithms/IncrementalSSSP.h: invalidate the affected
//               set, re-relax its boundary, settle the seeds through the
//               ordered engine. O(affected), not O(V + E).
//
// Both must produce bit-identical distance arrays (verified every batch;
// any divergence exits non-zero). One JSON line per batch size:
//
//   {"bench": "update_throughput", "updates": K, "edge_frac": ...,
//    "repair_s": ..., "recompute_s": ..., "speedup": ...,
//    "affected": ..., "check": ...}
//
// `updates` is the number of undirected edge updates per batch (each is
// two directed transitions); `edge_frac` is their share of all directed
// edges — the paper-relevant regime is the small end (≤ 0.1%), where
// repair should win by an order of magnitude or more.
//
// Two scale-out variants ride along:
//
//   update_throughput_hot — the QueryEngine's hot-source cache: per
//     version, applyUpdates (which repairs the cached depot state in
//     O(affected)) + a depot SSSP query, against the same engine with the
//     cache off (pooled recompute per query). Metric: "speedup" of the
//     end-to-end apply+query round; checksums must match exactly.
//
//   update_throughput_sharded — T writer threads on distinct vertex-range
//     shards pushing batches through a ShardedSnapshotStore vs the same
//     batches through the single-writer-mutex SnapshotStore. Metric:
//     "speedup" of wall-clock apply time; final adjacency checksums must
//     match exactly.
//
//   sharded_compacting — the same multi-writer streams with compaction
//     thresholds low enough that per-shard folds (one shard writer lock
//     each, O(shard)) trip throughout the run. Two gated lines: "mode":
//     "p99" with "p99_us" (per-batch apply latency) and "mode": "qps"
//     with "achieved_qps" (batch throughput). The binary exits non-zero
//     if no fold tripped or if the final distance array differs from a
//     SnapshotStore fed the same streams.
//
// Knobs: GRAPHIT_SCALE (graph side multiplier), GRAPHIT_BENCH_TRIALS.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "service/SnapshotStore.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

using namespace graphit;
using namespace graphit::bench;
using namespace graphit::service;

namespace {

/// A road-incident update mix against the current snapshot: mostly weight
/// changes (closures slow a segment, reopenings speed it back up), some
/// deletions, some new diagonal shortcuts. \p HowMany undirected updates.
std::vector<EdgeUpdate> incidentBatch(const DeltaGraph &G, Count Side,
                                      Count HowMany, SplitMix64 &Rng) {
  std::vector<EdgeUpdate> Batch;
  const Count N = G.numNodes();
  while (static_cast<Count>(Batch.size()) < HowMany) {
    int Action = static_cast<int>(Rng.nextInt(0, 10));
    if (Action == 9) {
      // New diagonal shortcut near a random intersection.
      Count R = Rng.nextInt(0, Side - 1), C = Rng.nextInt(0, Side - 1);
      VertexId U = static_cast<VertexId>(R * Side + C);
      VertexId V = static_cast<VertexId>((R + 1) * Side + C + 1);
      if (static_cast<Count>(V) >= N || U == V)
        continue;
      Batch.push_back(EdgeUpdate{
          U, V, static_cast<Weight>(Rng.nextInt(200, 400)),
          UpdateKind::Upsert});
      continue;
    }
    VertexId U = static_cast<VertexId>(Rng.nextInt(0, N));
    Count Deg = G.outDegree(U);
    if (Deg == 0)
      continue;
    Count Pick = Rng.nextInt(0, Deg);
    Count I = 0;
    for (WNode E : G.outNeighbors(U)) {
      if (I++ != Pick)
        continue;
      if (Action == 8)
        Batch.push_back(EdgeUpdate{U, E.V, 0, UpdateKind::Delete});
      else if (Action < 5) // closure: segment slows down
        Batch.push_back(EdgeUpdate{U, E.V,
                                   static_cast<Weight>(E.W * 3),
                                   UpdateKind::Upsert});
      else // reopening: back toward free-flow
        Batch.push_back(EdgeUpdate{
            U, E.V, static_cast<Weight>(std::max<Weight>(100, E.W / 3)),
            UpdateKind::Upsert});
      break;
    }
  }
  return Batch;
}

struct Measurement {
  double RepairSeconds = 0;
  double RecomputeSeconds = 0;
  int64_t Affected = 0;
  int64_t Check = 0;
  bool Mismatch = false;
};

/// Runs `Batches` update batches of `UpdatesPerBatch` against a fresh
/// store, timing repair and recompute per batch. Deterministic: the same
/// seeds produce the same versions on every trial.
Measurement runExperiment(const Graph &Base, Count Side,
                          Count UpdatesPerBatch, int Batches,
                          const Schedule &S, VertexId Depot) {
  // High threshold: compaction cost is a separate (amortized) story and
  // would pollute per-batch repair timings.
  SnapshotStore::Options Opts;
  Opts.CompactionThreshold = 1e9;
  SnapshotStore Store(Base, Opts);

  DistanceState Repaired(Base.numNodes());
  DistanceState Recomputed(Base.numNodes());
  deltaSteppingSSSP(*Store.current(), Depot, S, Repaired);
  RepairScratch Scratch;
  SplitMix64 Rng(0xC0FFEE ^ static_cast<uint64_t>(UpdatesPerBatch));

  Measurement M;
  for (int B = 0; B < Batches; ++B) {
    std::vector<EdgeUpdate> Batch =
        incidentBatch(*Store.current(), Side, UpdatesPerBatch, Rng);
    SnapshotStore::ApplyResult A = Store.applyUpdates(Batch);

    Timer RepairClock;
    RepairStats R =
        repairAfterUpdates(*A.Snap, A.Applied, Repaired, S, Scratch);
    M.RepairSeconds += RepairClock.seconds();
    M.Affected += R.AffectedVertices;

    Timer RecomputeClock;
    deltaSteppingSSSP(*A.Snap, Depot, S, Recomputed);
    M.RecomputeSeconds += RecomputeClock.seconds();

    const std::vector<Priority> &D1 = Repaired.distances();
    const std::vector<Priority> &D2 = Recomputed.distances();
    for (size_t V = 0; V < D1.size(); ++V)
      if (D1[V] != D2[V]) {
        M.Mismatch = true;
        return M;
      }
  }
  M.Check = resultChecksum(Repaired.distances());
  return M;
}

/// Hot-source serving experiment: `Batches` rounds of applyUpdates + one
/// depot SSSP query through a live QueryEngine, with the hot cache on or
/// off. Deterministic per (UpdatesPerBatch, Hot-independent) seed so both
/// flavors see the same version history. Returns total seconds; *Check
/// receives the final depot distance checksum.
double runHotExperiment(const Graph &Base, Count Side,
                        Count UpdatesPerBatch, int Batches,
                        const Schedule &S, VertexId Depot, bool Hot,
                        int64_t *Check) {
  SnapshotStore::Options SO;
  SO.CompactionThreshold = 1e9;
  SnapshotStore Store(Base, SO);
  QueryEngine::Options QO;
  QO.NumWorkers = 1;
  QO.DefaultSchedule = S;
  QO.HotSourceCapacity = Hot ? 2 : 0;
  QueryEngine Engine(Store, QO);

  Query Q;
  Q.Kind = QueryKind::SSSP;
  Q.Source = Depot;
  Engine.runBatch({Q}); // warm: installs the hot state / pooled arrays

  SplitMix64 Rng(0xC0FFEE ^ static_cast<uint64_t>(UpdatesPerBatch));
  double Total = 0;
  for (int B = 0; B < Batches; ++B) {
    std::vector<EdgeUpdate> Batch =
        incidentBatch(*Store.current(), Side, UpdatesPerBatch, Rng);
    Timer Clock;
    Engine.applyUpdates(Batch); // hot flavor repairs the depot state here
    Engine.runBatch({Q});
    Total += Clock.seconds();
  }

  // Checksum outside the timed loop: same batches => same final version,
  // so hot and cold flavors must agree exactly.
  Query C = Q;
  C.CollectReached = true;
  QueryResult R = Engine.runBatch({C})[0];
  int64_t Sum = 0;
  for (const std::pair<VertexId, Priority> &P : R.Reached)
    Sum += P.second;
  *Check = Sum;
  return Total;
}

/// Sharded write-path experiment: \p Writers threads each apply their own
/// pre-generated shard-local batch stream; returns wall seconds. The same
/// per-writer streams go through both store flavors.
template <typename StoreT>
double runApplyThreads(StoreT &Store,
                       const std::vector<std::vector<std::vector<EdgeUpdate>>>
                           &PerWriter) {
  Timer Clock;
  std::vector<std::thread> Threads;
  Threads.reserve(PerWriter.size());
  for (const std::vector<std::vector<EdgeUpdate>> &Stream : PerWriter)
    Threads.emplace_back([&Store, &Stream] {
      for (const std::vector<EdgeUpdate> &B : Stream)
        Store.applyUpdates(B);
    });
  for (std::thread &T : Threads)
    T.join();
  return Clock.seconds();
}

/// Per-writer shard-local streams (writer w owns shard w's vertex range —
/// the power-of-two span over-covers the universe, so only the low shards
/// are guaranteed non-empty), generated once and replayed into every
/// store flavor — disjoint ranges make the final adjacency
/// interleaving-independent. Returns empty on an empty writer range.
std::vector<std::vector<std::vector<EdgeUpdate>>>
makeWriterStreams(const Graph &Base, Count Span, int Writers,
                  Count UpdatesPerBatch, int BatchesPerWriter,
                  uint64_t Seed) {
  std::vector<std::vector<std::vector<EdgeUpdate>>> PerWriter(
      static_cast<size_t>(Writers));
  for (int W = 0; W < Writers; ++W) {
    SplitMix64 Rng(Seed ^ static_cast<uint64_t>(W));
    Count Lo = static_cast<Count>(W) * Span;
    Count Hi = std::min<Count>(Base.numNodes(), Lo + Span);
    if (Hi - Lo < 2) {
      std::fprintf(stderr, "!! empty writer range %d [%lld, %lld)\n", W,
                   (long long)Lo, (long long)Hi);
      return {};
    }
    for (int B = 0; B < BatchesPerWriter; ++B) {
      std::vector<EdgeUpdate> Batch;
      while (static_cast<Count>(Batch.size()) < UpdatesPerBatch) {
        VertexId A = static_cast<VertexId>(Rng.nextInt(Lo, Hi));
        VertexId D = static_cast<VertexId>(Rng.nextInt(Lo, Hi));
        if (A == D)
          continue;
        Batch.push_back(EdgeUpdate{
            A, D, static_cast<Weight>(Rng.nextInt(100, 400)),
            Rng.nextInt(0, 6) == 0 ? UpdateKind::Delete
                                   : UpdateKind::Upsert});
      }
      PerWriter[static_cast<size_t>(W)].push_back(std::move(Batch));
    }
  }
  return PerWriter;
}

struct LatencyRun {
  double WallSeconds = 0;
  double P99Micros = 0;
};

/// Like runApplyThreads, but times every applyUpdates call so the fold
/// cost lands in the per-batch latency distribution.
LatencyRun runCompactingWriters(
    ShardedSnapshotStore &Store,
    const std::vector<std::vector<std::vector<EdgeUpdate>>> &PerWriter) {
  std::vector<std::vector<double>> Lat(PerWriter.size());
  Timer Clock;
  std::vector<std::thread> Threads;
  Threads.reserve(PerWriter.size());
  for (size_t W = 0; W < PerWriter.size(); ++W)
    Threads.emplace_back([&Store, &Stream = PerWriter[W], &Out = Lat[W]] {
      Out.reserve(Stream.size());
      for (const std::vector<EdgeUpdate> &B : Stream) {
        Timer T;
        Store.applyUpdates(B);
        Out.push_back(T.seconds() * 1e6);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  LatencyRun R;
  R.WallSeconds = Clock.seconds();
  std::vector<double> All;
  for (const std::vector<double> &L : Lat)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  R.P99Micros = All[All.size() * 99 / 100];
  return R;
}

} // namespace

int main() {
  Count Side = static_cast<Count>(300 * datasetScaleFromEnv());
  Side = std::max<Count>(Side, 60);
  RoadNetwork Net = roadGrid(Side, Side, 4242);
  BuildOptions Options;
  Options.Symmetrize = true;
  Graph Base = GraphBuilder(Options).build(Net.NumNodes, Net.Edges,
                                           std::move(Net.Coords));

  Schedule S;
  S.configApplyPriorityUpdateDelta(8192); // §6.2 road Δ (full SSSP runs)
  const VertexId Depot = 0;
  const int Batches = 8;

  std::fprintf(stderr, "# road %lldx%lld: %lld nodes, %lld directed edges\n",
               (long long)Side, (long long)Side,
               (long long)Base.numNodes(), (long long)Base.numEdges());

  for (Count Updates : {Count{8}, Count{64}, Count{512}}) {
    Measurement Best;
    double BestRepair = 1e30;
    for (int T = 0; T < numTrials(); ++T) {
      Measurement M =
          runExperiment(Base, Side, Updates, Batches, S, Depot);
      if (M.Mismatch) {
        std::fprintf(stderr,
                     "!! repair/recompute mismatch at %lld updates\n",
                     (long long)Updates);
        return 1;
      }
      if (M.RepairSeconds < BestRepair) {
        BestRepair = M.RepairSeconds;
        Best = M;
      }
    }
    double Frac = static_cast<double>(2 * Updates) /
                  static_cast<double>(Base.numEdges());
    std::printf("{\"bench\": \"update_throughput\", \"updates\": %lld, "
                "\"edge_frac\": %.6f, \"repair_s\": %.6f, "
                "\"recompute_s\": %.6f, \"speedup\": %.2f, "
                "\"affected\": %lld, \"check\": %lld}\n",
                (long long)Updates, Frac, Best.RepairSeconds,
                Best.RecomputeSeconds,
                Best.RecomputeSeconds / Best.RepairSeconds,
                (long long)(Best.Affected / Batches),
                (long long)Best.Check);
    std::fflush(stdout);
  }

  // --- Hot-source serving: repaired repeat-source queries vs pooled
  // recompute through the live QueryEngine (acceptance: repair wins at
  // the low-churn end).
  for (Count Updates : {Count{8}, Count{64}}) {
    double BestHot = 1e30, BestCold = 1e30;
    int64_t Check = 0;
    for (int T = 0; T < numTrials(); ++T) {
      int64_t HotCheck = 0, ColdCheck = 0;
      double Hot = runHotExperiment(Base, Side, Updates, Batches, S, Depot,
                                    /*Hot=*/true, &HotCheck);
      double Cold = runHotExperiment(Base, Side, Updates, Batches, S, Depot,
                                     /*Hot=*/false, &ColdCheck);
      if (HotCheck != ColdCheck) {
        std::fprintf(stderr,
                     "!! hot/recompute checksum mismatch at %lld updates: "
                     "%lld vs %lld\n",
                     (long long)Updates, (long long)HotCheck,
                     (long long)ColdCheck);
        return 1;
      }
      BestHot = std::min(BestHot, Hot);
      BestCold = std::min(BestCold, Cold);
      Check = HotCheck;
    }
    double Frac = static_cast<double>(2 * Updates) /
                  static_cast<double>(Base.numEdges());
    std::printf("{\"bench\": \"update_throughput_hot\", \"updates\": %lld, "
                "\"edge_frac\": %.6f, \"hot_s\": %.6f, "
                "\"recompute_s\": %.6f, \"speedup\": %.2f, "
                "\"check\": %lld, \"tolerance\": 0.35}\n",
                (long long)Updates, Frac, BestHot, BestCold,
                BestCold / BestHot, (long long)Check);
    std::fflush(stdout);
  }

  // --- Sharded write path: T writers on distinct vertex-range shards vs
  // the single-writer-mutex store, same per-writer batch streams.
  {
    const int Writers = 4;
    const Count UpdatesPerBatch = 64;
    const int BatchesPerWriter = 48;
    ShardedSnapshotStore::Options ShOpts;
    ShOpts.NumShards = 8;
    ShOpts.CompactionThreshold = 1e9; // apply cost only, like the repair runs
    SnapshotStore::Options PlOpts;
    PlOpts.CompactionThreshold = 1e9;

    Count Span;
    {
      ShardedSnapshotStore Probe(Base, ShOpts);
      Span = Probe.shardSpan();
    }
    std::vector<std::vector<std::vector<EdgeUpdate>>> PerWriter =
        makeWriterStreams(Base, Span, Writers, UpdatesPerBatch,
                          BatchesPerWriter, 0x5A4D);
    if (PerWriter.empty())
      return 1;

    double BestSharded = 1e30, BestPlain = 1e30;
    for (int T = 0; T < numTrials(); ++T) {
      ShardedSnapshotStore Sharded(Base, ShOpts);
      SnapshotStore Plain(Base, PlOpts);
      BestSharded = std::min(BestSharded, runApplyThreads(Sharded, PerWriter));
      BestPlain = std::min(BestPlain, runApplyThreads(Plain, PerWriter));
      int64_t CS = resultChecksum(
          deltaSteppingSSSP(*Sharded.current(), Depot, S).Dist);
      int64_t CP = resultChecksum(
          deltaSteppingSSSP(*Plain.current(), Depot, S).Dist);
      if (CS != CP) {
        std::fprintf(stderr,
                     "!! sharded/unsharded adjacency checksum mismatch: "
                     "%lld vs %lld\n",
                     (long long)CS, (long long)CP);
        return 1;
      }
    }
    std::printf("{\"bench\": \"update_throughput_sharded\", "
                "\"updates\": %lld, \"threads\": %d, \"sharded_s\": %.6f, "
                "\"unsharded_s\": %.6f, \"speedup\": %.2f, "
                "\"tolerance\": 0.50}\n",
                (long long)UpdatesPerBatch, Writers, BestSharded, BestPlain,
                BestPlain / BestSharded);
    std::fflush(stdout);
  }

  // --- Per-shard incremental compaction: the same multi-writer streams
  // with thresholds low enough that folds trip throughout. Each fold holds
  // one shard's writer lock while the other writers keep publishing.
  // Gated on the per-batch p99 and the batch throughput; the bench itself
  // fails unless folds tripped and the final distances match a
  // SnapshotStore fed the same streams bit for bit.
  {
    const int Writers = 4;
    const Count UpdatesPerBatch = 64;
    const int BatchesPerWriter = 48;
    ShardedSnapshotStore::Options ShOpts;
    ShOpts.NumShards = 8;
    ShOpts.CompactionThreshold = 0.001;
    ShOpts.MinOverlayEdges = 256;

    Count Span;
    {
      ShardedSnapshotStore Probe(Base, ShOpts);
      Span = Probe.shardSpan();
    }
    std::vector<std::vector<std::vector<EdgeUpdate>>> PerWriter =
        makeWriterStreams(Base, Span, Writers, UpdatesPerBatch,
                          BatchesPerWriter, 0x5A4E);
    if (PerWriter.empty())
      return 1;

    // Disjoint writer ranges make the final adjacency independent of the
    // interleaving, so one serial replay is the reference for every trial.
    std::vector<Priority> Want;
    {
      SnapshotStore Plain(Base);
      for (const std::vector<std::vector<EdgeUpdate>> &Stream : PerWriter)
        for (const std::vector<EdgeUpdate> &B : Stream)
          Plain.applyUpdates(B);
      Want = deltaSteppingSSSP(*Plain.current(), Depot, S).Dist;
    }

    const double TotalBatches =
        static_cast<double>(Writers) * BatchesPerWriter;
    double P99 = 1e30, Wall = 1e30;
    uint64_t Folds = 0, Reclaimed = 0;
    for (int T = 0; T < numTrials(); ++T) {
      ShardedSnapshotStore Sharded(Base, ShOpts);
      LatencyRun Run = runCompactingWriters(Sharded, PerWriter);
      if (deltaSteppingSSSP(*Sharded.current(), Depot, S).Dist != Want) {
        std::fprintf(stderr, "!! sharded/unsharded distance mismatch "
                             "after compacting run\n");
        return 1;
      }
      P99 = std::min(P99, Run.P99Micros);
      Wall = std::min(Wall, Run.WallSeconds);
      Folds = 0;
      for (int Sh = 0; Sh < Sharded.numShards(); ++Sh)
        Folds += Sharded.shardFolds(Sh);
      Reclaimed = Sharded.reclaimedTombstones();
    }
    if (Folds == 0) {
      std::fprintf(stderr, "!! compacting run tripped no per-shard fold — "
                           "thresholds are miscalibrated\n");
      return 1;
    }
    std::printf("{\"bench\": \"sharded_compacting\", \"mode\": \"p99\", "
                "\"updates\": %lld, \"threads\": %d, \"p99_us\": %.1f, "
                "\"folds\": %llu, \"reclaimed_tombstones\": %llu, "
                "\"tolerance\": 0.50}\n",
                (long long)UpdatesPerBatch, Writers, P99,
                (unsigned long long)Folds, (unsigned long long)Reclaimed);
    std::printf("{\"bench\": \"sharded_compacting\", \"mode\": \"qps\", "
                "\"updates\": %lld, \"threads\": %d, "
                "\"achieved_qps\": %.1f, \"tolerance\": 0.50}\n",
                (long long)UpdatesPerBatch, Writers, TotalBatches / Wall);
    std::fflush(stdout);
  }
  return 0;
}
