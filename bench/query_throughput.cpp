//===- bench/query_throughput.cpp - Batched query serving throughput ------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures the query-serving subsystem against naive per-query execution
// on a road-network routing workload: batches of point-to-point queries
// (mixed PPSP / A*) with locally-distributed endpoints, the shape a
// routing service actually sees.
//
//   naive  — one fresh pointToPointShortestPath/aStarSearch per query:
//            every query allocates and infinity-fills O(V) arrays.
//   pooled — QueryEngine::runBatch: per-worker pooled DistanceState
//            (O(touched) setup) + ALT landmark heuristic for A*.
//
// One JSON line per batch size:
//
//   {"bench": "query_throughput", "batch": N, "naive_qps": ...,
//    "pooled_qps": ..., "speedup": ..., "check": <sum of distances>}
//
// The check field must be identical between modes (and across runs) —
// distances are unique, so any divergence is a correctness bug.
//
// Knobs: GRAPHIT_SCALE (graph side multiplier), GRAPHIT_BENCH_TRIALS.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "algorithms/AStar.h"
#include "algorithms/PPSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "support/Random.h"

#include <cstdio>
#include <thread>
#include <vector>

using namespace graphit;
using namespace graphit::bench;
using namespace graphit::service;

namespace {

struct Workload {
  Graph G;
  Count Side = 0;
  std::vector<Query> Queries;
};

/// Road grid plus a locally-distributed query mix: sources uniform,
/// targets within a bounded grid window of the source (routing queries
/// are overwhelmingly local).
Workload makeWorkload(Count MaxBatch) {
  Workload W;
  W.Side = static_cast<Count>(300 * datasetScaleFromEnv());
  W.Side = std::max<Count>(W.Side, 60);
  RoadNetwork Net = roadGrid(W.Side, W.Side, 4242);
  BuildOptions Options;
  Options.Symmetrize = true;
  W.G = GraphBuilder(Options).build(Net.NumNodes, Net.Edges,
                                    std::move(Net.Coords));

  // Fixed locality window: a routing service's typical query radius is a
  // property of the workload (trips), not of the map size — growing the
  // graph grows the *fleet* of concurrent local queries, which is exactly
  // the regime where per-query O(V)+O(E) setup dwarfs the O(touched)
  // search.
  const Count Window = std::max<Count>(W.Side / 24, 8);
  std::vector<std::pair<VertexId, VertexId>> Pairs =
      localGridQueryPairs(W.Side, W.Side, Window, MaxBatch, 777);
  for (Count I = 0; I < MaxBatch; ++I) {
    Query Q;
    Q.Kind = (I & 1) ? QueryKind::AStar : QueryKind::PPSP;
    Q.Source = Pairs[static_cast<size_t>(I)].first;
    Q.Target = Pairs[static_cast<size_t>(I)].second;
    W.Queries.push_back(Q);
  }
  return W;
}

int64_t naiveBatch(const Workload &W, const Schedule &S, Count N) {
  int64_t Check = 0;
  for (Count I = 0; I < N; ++I) {
    const Query &Q = W.Queries[static_cast<size_t>(I)];
    PPSPResult R =
        Q.Kind == QueryKind::AStar
            ? aStarSearch(W.G, Q.Source, Q.Target, S)
            : pointToPointShortestPath(W.G, Q.Source, Q.Target, S);
    if (R.Dist < kInfiniteDistance)
      Check += R.Dist;
  }
  return Check;
}

int64_t pooledBatch(QueryEngine &Engine, const Workload &W, Count N) {
  std::vector<Query> Batch(W.Queries.begin(), W.Queries.begin() + N);
  std::vector<QueryResult> Results = Engine.runBatch(Batch);
  int64_t Check = 0;
  for (const QueryResult &R : Results)
    if (R.Dist < kInfiniteDistance)
      Check += R.Dist;
  return Check;
}

} // namespace

int main() {
  constexpr Count kMaxBatch = 1024;
  Workload W = makeWorkload(kMaxBatch);

  Schedule S;
  // Δ tuned for *local point-to-point* queries, not full-graph SSSP: the
  // early-exit granularity is one bucket = Δ distance units, so the §6.2
  // road Δ of 8192 would force every local query to settle an ~8192-radius
  // ball before it can stop. Per-query schedule selection is exactly the
  // point of the serving API.
  S.configApplyPriorityUpdateDelta(1024);

  QueryEngine::Options Opts;
  Opts.DefaultSchedule = S;
  Opts.NumLandmarks = 8;
  Opts.NumWorkers =
      std::max(1u, std::thread::hardware_concurrency());
  QueryEngine Engine(W.G, Opts); // landmark build cost paid once, up front

  std::fprintf(stderr,
               "# road %lldx%lld (%lld nodes), %d workers, %d landmarks\n",
               (long long)W.Side, (long long)W.Side,
               (long long)W.G.numNodes(), Engine.numWorkers(),
               Opts.NumLandmarks);

  for (Count Batch : {Count{1}, Count{4}, Count{16}, Count{64}, Count{256},
                      Count{1024}}) {
    int64_t NaiveCheck = 0, PooledCheck = 0;
    double NaiveT =
        timeBest([&] { NaiveCheck = naiveBatch(W, S, Batch); });
    double PooledT =
        timeBest([&] { PooledCheck = pooledBatch(Engine, W, Batch); });
    if (NaiveCheck != PooledCheck) {
      std::fprintf(stderr, "!! mismatch at batch %lld: %lld vs %lld\n",
                   (long long)Batch, (long long)NaiveCheck,
                   (long long)PooledCheck);
      return 1;
    }
    std::printf("{\"bench\": \"query_throughput\", \"batch\": %lld, "
                "\"naive_qps\": %.1f, \"pooled_qps\": %.1f, "
                "\"speedup\": %.2f, \"check\": %lld}\n",
                (long long)Batch, Batch / NaiveT, Batch / PooledT,
                NaiveT / PooledT, (long long)PooledCheck);
    std::fflush(stdout);
  }

  // Deadline-overhead guard: queries carrying a deadline that never fires
  // must cost the same as queries without one — the cancellation hook is
  // a relaxed per-round flag check, and it is compiled out entirely when
  // no token is attached. Gated by scripts/check_bench.py against
  // BENCH_deadline.json at a 2% bound (its own --threshold, far tighter
  // than the cross-run perf gate, because off and on are measured
  // back-to-back in the SAME process on the SAME workload).
  {
    constexpr Count kGuardBatch = 256;
    std::vector<Query> On(W.Queries.begin(), W.Queries.begin() + kGuardBatch);
    for (Query &Q : On)
      Q.DeadlineMicros = 10LL * 1000 * 1000; // 10 s: can never fire here
    int64_t OffCheck = 0, OnCheck = 0;
    double OffT = timeBest([&] { OffCheck = pooledBatch(Engine, W, kGuardBatch); });
    double OnT = timeBest([&] {
      int64_t Check = 0;
      for (const QueryResult &R : Engine.runBatch(On)) {
        if (R.Status != QueryStatus::Ok) {
          std::fprintf(stderr, "!! 10s deadline fired on a local query\n");
          std::exit(1);
        }
        if (R.Dist < kInfiniteDistance)
          Check += R.Dist;
      }
      OnCheck = Check;
    });
    if (OnCheck != OffCheck) {
      std::fprintf(stderr, "!! deadline-on check mismatch: %lld vs %lld\n",
                   (long long)OnCheck, (long long)OffCheck);
      return 1;
    }
    std::printf("{\"bench\": \"deadline_overhead\", \"batch\": %lld, "
                "\"off_qps\": %.1f, \"on_qps\": %.1f, \"speedup\": %.3f, "
                "\"check\": %lld}\n",
                (long long)kGuardBatch, kGuardBatch / OffT,
                kGuardBatch / OnT, OffT / OnT, (long long)OnCheck);
    std::fflush(stdout);
  }
  return 0;
}
