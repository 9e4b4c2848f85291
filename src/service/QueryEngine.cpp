//===- service/QueryEngine.cpp - Concurrent batched query serving ---------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/QueryEngine.h"

#include "algorithms/AStar.h"
#include "algorithms/SSSP.h"
#include "support/Abort.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <omp.h>

using namespace graphit;
using namespace graphit::service;

template <class StoreT>
void BasicQueryEngine<StoreT>::startWorkers() {
  int N = Opts.NumWorkers > 0
              ? Opts.NumWorkers
              : static_cast<int>(std::thread::hardware_concurrency());
  N = std::max(N, 1);
  Workers.reserve(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

template <class StoreT>
BasicQueryEngine<StoreT>::BasicQueryEngine(const Graph &G, Options O)
    : StaticG(&G), NumNodes(G.numNodes()),
      HasCoordinates(G.hasCoordinates()), Opts(O), OwnMap(G.numNodes()),
      Map(&OwnMap), Policy(O, std::chrono::steady_clock::now()) {
  if (Opts.Reorder != ReorderKind::None) {
    // Serve a cache-conscious layout internally; the boundary translation
    // in runOne keeps callers in original-id space.
    OwnedG =
        std::make_unique<Graph>(reorderGraph(G, Opts.Reorder, &OwnMap));
    StaticG = OwnedG.get();
  }
  if (Opts.NumLandmarks > 0)
    Landmarks = std::make_shared<LandmarkCache>(
        *StaticG, Opts.NumLandmarks, Opts.DefaultSchedule);
  startWorkers();
}

template <class StoreT>
BasicQueryEngine<StoreT>::BasicQueryEngine(StoreT &S, Options O)
    : Store(&S), NumNodes(S.current()->numNodes()),
      HasCoordinates(S.current()->hasCoordinates()), Opts(O),
      Map(&S.mapping()), Policy(O, std::chrono::steady_clock::now()) {
  if (Opts.SharedHotCache)
    HotCache = Opts.SharedHotCache;
  else if (Opts.HotSourceCapacity > 0)
    HotCache = std::make_shared<HotStateCache>(
        static_cast<size_t>(Opts.HotSourceCapacity));
  // Built once, on a compacted copy of the current version; the header's
  // constructor contract says why it never needs a rebuild.
  if (Opts.NumLandmarks > 0)
    Landmarks = std::make_shared<LandmarkCache>(
        std::make_shared<const Graph>(S.current()->compact()),
        Opts.NumLandmarks, Opts.DefaultSchedule);
  startWorkers();
}

template <class StoreT>
typename StoreT::ApplyResult
BasicQueryEngine<StoreT>::applyUpdates(const std::vector<EdgeUpdate> &Batch) {
  if (!Store)
    fatalError("QueryEngine::applyUpdates: engine serves a fixed graph");
  // Deletions and upserts at or above the build weight keep every landmark
  // bound admissible, whatever order concurrent batches land in. Anything
  // else retires the cache before the store publishes it; a record the
  // store then skips as malformed retires it too, conservatively.
  if (landmarksUsable())
    for (const EdgeUpdate &U : Batch)
      if (U.Kind == UpdateKind::Upsert &&
          !Landmarks->admits(Map->toInternal(U.Src), Map->toInternal(U.Dst),
                             U.W)) {
        LandmarksRetired.store(true);
        break;
      }
  // The coordinate bound likewise, against the coordinates the upserts
  // will be read with (tail vertices included).
  if (coordinateBoundUsable()) {
    const typename StoreT::Snapshot Snap = Store->current();
    for (const EdgeUpdate &U : Batch)
      if (U.Kind == UpdateKind::Upsert &&
          !aStarAdmits(Snap->coordinates(), Map->toInternal(U.Src),
                       Map->toInternal(U.Dst), U.W)) {
        CoordinatesRetired.store(true);
        break;
      }
  }
  typename StoreT::ApplyResult R = Store->applyUpdates(Batch);
  // A rejected strict batch published nothing: hot states are still at
  // the current version and stay serveable — repairing (which expects to
  // advance exactly one version) would wrongly drop them all.
  if (HotCache && R.Status == ApplyStatus::Ok)
    HotCache->repairAll(*R.Snap, R.Applied, R.Version,
                        Opts.DefaultSchedule);
  return R;
}

template <class StoreT>
VertexId BasicQueryEngine<StoreT>::addVertices(Count HowMany,
                                               const Coordinates *TailCoords) {
  if (!Store)
    fatalError("QueryEngine::addVertices: engine serves a fixed graph");
  return growUniverse(
      [&] { return Store->addVertices(HowMany, TailCoords); });
}

template <class StoreT>
VertexId BasicQueryEngine<StoreT>::acquireVertex(const Coordinates *OneCoord) {
  if (!Store)
    fatalError("QueryEngine::acquireVertex: engine serves a fixed graph");
  return growUniverse([&] { return Store->acquireVertex(OneCoord); });
}

template <class StoreT>
template <typename StoreGrowFn>
VertexId
BasicQueryEngine<StoreT>::growUniverse(const StoreGrowFn &StoreGrow) {
  MutexLock Guard(GrowthMu);
  const Count Before = Store->numNodes();
  const VertexId Id = StoreGrow();
  const Count NewNodes = Store->numNodes();
  if (NewNodes == Before)
    return Id; // a recycled id or an empty request: nothing grew
  const uint64_t NewVersion = Store->version();

  // The landmark arrays cover the build universe only. Retiring before
  // submit() can accept a new id means no query asks for a tail vertex's
  // bound; a tail vertex joins the graph only through an upsert, which
  // applyUpdates would not admit anyway.
  LandmarksRetired.store(true);
  NumNodes.store(NewNodes);

  // Pure growth publishes a version whose distances are unchanged (new
  // vertices are unreachable until an edge batch seeds them): resize and
  // re-tag cached states instead of repairing.
  if (HotCache)
    HotCache->growAll(NewNodes, NewVersion);
  return Id;
}

template <class StoreT>
bool BasicQueryEngine<StoreT>::serveFromHot(const Query &QI, uint64_t Ver,
                               QueryResult &R) const {
  std::shared_ptr<const DistanceState> St = HotCache->lookup(QI.Source, Ver);
  if (!St)
    return false;
  HotHits_.fetch_add(1, std::memory_order_relaxed);

  // The copy-out runs with no lock: the state is an immutable published
  // snapshot (repair clones instead of mutating anything a reader holds).
  if (QI.Target != kInvalidVertex)
    R.Dist = St->dist(QI.Target);
  R.Touched = St->numReached();
  if (QI.CollectReached) {
    // The state yields its finite vertices in increasing id (vertices
    // deletions cut off since it was warmed are not among them), so the
    // copy needs no sort.
    R.Reached.reserve(static_cast<size_t>(R.Touched));
    St->forEachReached(
        [&R](VertexId V, Priority D) { R.Reached.emplace_back(V, D); });
    assert(static_cast<Count>(R.Reached.size()) == R.Touched &&
           "the reach count is the number of finite vertices");
  }
  return true;
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::hotHits() const {
  return HotHits_.load(std::memory_order_relaxed);
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::hotRepairs() const {
  return HotCache ? HotCache->repairs() : 0;
}

template <class StoreT>
size_t BasicQueryEngine<StoreT>::hotStatesCached() const {
  return HotCache ? HotCache->size() : 0;
}

template <class StoreT>
int64_t BasicQueryEngine<StoreT>::batchWindowMicros() const {
  MutexLock Lock(Mu);
  return Policy.batchWindowMicros();
}

template <class StoreT> BasicQueryEngine<StoreT>::~BasicQueryEngine() {
  {
    MutexLock Lock(Mu);
    ShuttingDown = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::submit(Query Q) {
  // Malformed requests must not abort a serving process: reject them as
  // an immediately-collectible failed result. SSSP may omit the target
  // (kInvalidVertex); any *present* target must be in range, and A* needs
  // a heuristic to exist (landmarks or coordinates).
  bool TargetOk = Q.Kind == QueryKind::SSSP && Q.Target == kInvalidVertex
                      ? true
                      : static_cast<Count>(Q.Target) < NumNodes;
  // A* needs some heuristic configured. A live engine whose landmark cache
  // has lapsed (and that lacks coordinates) still accepts the query and
  // degrades to plain PPSP in runOneOn — same answers, no pruning.
  bool HeurOk = Q.Kind != QueryKind::AStar || Opts.NumLandmarks > 0 ||
                HasCoordinates;
  const bool Valid =
      static_cast<Count>(Q.Source) < NumNodes && TargetOk && HeurOk;
  const auto Now = std::chrono::steady_clock::now();
  uint64_t Ticket;
  uint64_t Shed = 0;
  {
    MutexLock Lock(Mu);
    Ticket = NextTicket++;
    Outstanding.insert(Ticket);
    if (Valid)
      Shed = Policy.admit(Ticket, std::move(Q), Now);
    else
      Finished[Ticket].Status = QueryStatus::Failed;
    // Shedding is typed and immediate, never a silent drop: the victim's
    // ticket (this one or a pending query's) resolves right here.
    // `runBatch` funnels through this exact path, so single submits and
    // batches shed identically.
    if (Shed != 0)
      Finished[Shed].Status = QueryStatus::Shed;
  }
  if (Valid && Shed != Ticket)
    WorkCv.notify_one();
  if (!Valid || Shed != 0)
    DoneCv.notify_all();
  return Ticket;
}

template <class StoreT>
QueryResult BasicQueryEngine<StoreT>::collect(uint64_t Ticket) {
  MutexLock Lock(Mu);
  // An unknown or already-collected ticket would block forever below —
  // that is a caller bug, so fail fast instead of wedging the thread. The
  // ticket is claimed (erased) before waiting so a concurrent second
  // collect of the same ticket trips this guard instead of deadlocking.
  if (Outstanding.erase(Ticket) == 0)
    fatalError("QueryEngine::collect: unknown or already-collected ticket");
  while (Finished.count(Ticket) == 0)
    DoneCv.wait(Lock.native());
  auto It = Finished.find(Ticket);
  QueryResult R = std::move(It->second);
  Finished.erase(It);
  return R;
}

template <class StoreT>
std::optional<QueryResult>
BasicQueryEngine<StoreT>::tryCollect(uint64_t Ticket) {
  MutexLock Lock(Mu);
  // Same claim-then-wait protocol as collect(), but an unknown or
  // already-collected ticket is a recoverable nullopt — a server loop
  // handling retried or duplicated client requests shouldn't die for it.
  if (Outstanding.erase(Ticket) == 0)
    return std::nullopt;
  while (Finished.count(Ticket) == 0)
    DoneCv.wait(Lock.native());
  auto It = Finished.find(Ticket);
  QueryResult R = std::move(It->second);
  Finished.erase(It);
  return R;
}

template <class StoreT>
std::vector<QueryResult>
BasicQueryEngine<StoreT>::runBatch(const std::vector<Query> &Batch) {
  std::vector<uint64_t> Tickets;
  Tickets.reserve(Batch.size());
  for (const Query &Q : Batch)
    Tickets.push_back(submit(Q));
  std::vector<QueryResult> Results;
  Results.reserve(Batch.size());
  for (uint64_t T : Tickets)
    Results.push_back(collect(T));
  return Results;
}

template <class StoreT>
OrderedStats BasicQueryEngine<StoreT>::aggregateStats() const {
  MutexLock Lock(Mu);
  return Aggregate;
}

template <class StoreT>
ServingPolicy::Counters BasicQueryEngine<StoreT>::policyCounters() const {
  MutexLock Lock(Mu);
  return Policy.counters();
}

template <class StoreT>
LatencyHistogram::Snapshot
BasicQueryEngine<StoreT>::classLatencySnapshot(int Class) const {
  // Lock-free: the histograms are relaxed atomics, no Mu needed.
  return ClassLatency[static_cast<size_t>(
      std::clamp(Class, 0, kNumImportanceClasses - 1))]
      .snapshot();
}

template <class StoreT>
std::vector<ControllerEvent>
BasicQueryEngine<StoreT>::controllerTrace() const {
  MutexLock Lock(Mu);
  return Policy.controllerTrace();
}

template <class StoreT>
size_t BasicQueryEngine<StoreT>::queueDepth() const {
  MutexLock Lock(Mu);
  return Policy.queueDepth();
}

template <class StoreT>
void BasicQueryEngine<StoreT>::workerLoop() {
  // Per-thread OpenMP ICV: each query's engine run forks this many
  // threads. Serving throughput wants 1 (queries are the parallelism);
  // the knob exists for few-but-huge query mixes.
  omp_set_num_threads(std::max(1, Opts.OmpThreadsPerQuery));
  // The worker's own state for its whole life; runOne resizes it to each
  // pinned snapshot, so universe growth needs nothing here.
  DistanceState State(NumNodes.load(), Opts.TrackParents);

  struct Done {
    QueryResult R;
    double Micros;
  };
  std::vector<ServingPolicy::Task> Batch;
  std::vector<Done> Results;

  while (true) {
    Batch.clear();
    Results.clear();
    {
      MutexLock Lock(Mu);
      // Explicit wait loop (not the predicate overload): the guarded
      // fields are read in this function's scope, where the analysis can
      // see the lock held.
      while (!ShuttingDown && Policy.queueDepth() == 0)
        WorkCv.wait(Lock.native());
      if (Policy.queueDepth() == 0)
        return; // shutting down, queue drained
      Batch.push_back(Policy.dequeue());
      // With the policy's batch window open (the engine saw backlog
      // recently), keep taking queued queries and hold the window open for
      // stragglers. A closed window limits the batch to this one task, and
      // sibling workers pick up the rest of the queue in parallel.
      const size_t Limit = Policy.batchLimit();
      if (Limit > 1) {
        const auto Until =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(Policy.batchWindowMicros());
        while (Batch.size() < Limit && !ShuttingDown) {
          if (Policy.queueDepth() > 0) {
            Batch.push_back(Policy.dequeue());
            continue;
          }
          if (WorkCv.wait_until(Lock.native(), Until) ==
              std::cv_status::timeout)
            break;
        }
      }
      Policy.batchFormed();
    }

    // Run every task in the batch outside the lock, then publish all the
    // results under one acquisition — amortizing the lock and the wakeup
    // is where batching pays.
    for (ServingPolicy::Task &T : Batch) {
      CancelToken Token;
      const CancelToken *Cancel = nullptr;
      if (T.DeadlineMicros > 0) {
        Token.setDeadline(T.Enqueued +
                          std::chrono::microseconds(T.DeadlineMicros));
        Cancel = &Token;
      }

      const auto Start = std::chrono::steady_clock::now();
      QueryResult R;
      if (Cancel && Token.expired()) {
        // Expired while queued: resolve deterministically before touching
        // any snapshot or hot state. Nothing was settled.
        R.Status = QueryStatus::DeadlineExceeded;
        R.SettledBound = 0;
      } else {
        R = runOne(T.Q, State, Cancel);
      }
      R.Degraded = T.Degraded;
      const double Micros =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - Start)
              .count();
      Results.push_back(Done{std::move(R), Micros});
    }

    // Per-class end-to-end latency (submit → publish, the quantity the
    // class SLOs target): recorded lock-free before taking Mu.
    const auto PubTime = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Batch.size(); ++I)
      if (Results[I].R.Status == QueryStatus::Ok)
        ClassLatency[static_cast<size_t>(Batch[I].Class)].record(
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    PubTime - Batch[I].Enqueued)
                    .count()));

    {
      MutexLock Lock(Mu);
      for (size_t I = 0; I < Batch.size(); ++I) {
        Aggregate.merge(Results[I].R.Stats);
        Policy.completed(Batch[I], Results[I].R.Status, Results[I].Micros);
        Finished.emplace(Batch[I].Ticket, std::move(Results[I].R));
      }
      // The controller ticks here, at most once per interval: no thread
      // of its own, so an idle engine ticks only when traffic resumes.
      Policy.maybeTick(PubTime, ClassLatency);
    }
    DoneCv.notify_all();
  }
}

namespace {

/// Walks the parent chain target → source, verifying each hop against the
/// final distances (under concurrent relaxation a stored parent can lag
/// the final distance) and repairing bad hops by scanning the vertex's
/// in-neighbors for a predecessor on a true shortest path.
template <typename GraphT>
std::vector<VertexId> extractPath(const GraphT &G, DistanceState &State,
                                  VertexId Source, VertexId Target) {
  auto HopIsTight = [&](VertexId P, VertexId V) {
    if (P == kInvalidVertex)
      return false;
    for (WNode E : G.outNeighbors(P))
      if (E.V == V && State.dist(P) + E.W == State.dist(V))
        return true;
    return false;
  };
  auto FindPredecessor = [&](VertexId V) -> VertexId {
    if (!G.hasInEdges())
      return kInvalidVertex;
    for (WNode E : G.inNeighbors(V))
      if (State.dist(E.V) + E.W == State.dist(V))
        return E.V;
    return kInvalidVertex;
  };

  std::vector<VertexId> Path;
  VertexId V = Target;
  Path.push_back(V);
  Count Guard = 0;
  while (V != Source) {
    VertexId P = State.parent(V);
    if (!HopIsTight(P, V))
      P = FindPredecessor(V);
    if (P == kInvalidVertex || ++Guard > G.numNodes())
      return {}; // no verifiable path (or a cycle — corrupt state)
    Path.push_back(P);
    V = P;
  }
  std::reverse(Path.begin(), Path.end());
  return Path;
}

} // namespace

template <class StoreT>
QueryResult BasicQueryEngine<StoreT>::runOne(const Query &Q,
                                             DistanceState &State,
                                             const CancelToken *Cancel) const {
  // Translate endpoints into the internal layout; results are translated
  // back below, so callers only ever see original ids.
  Query QI = Q;
  if (!Map->isIdentity()) {
    QI.Source = Map->toInternal(Q.Source);
    if (QI.Target != kInvalidVertex)
      QI.Target = Map->toInternal(Q.Target);
  }

  QueryResult R;
  if (Store) {
    // Pin the latest version for this query's whole lifetime: concurrent
    // applyUpdates() publishes the next version, it never mutates ours.
    auto [Snap, Ver] = Store->currentVersioned();
    // Path extraction wants a private parent array, so CollectPath
    // queries bypass the shared hot states; a PPSP/A* with
    // CollectReached does too (its fresh-run reach is the early-exited
    // search, not the full solution a hot state holds). Serving a *hit*
    // under a deadline is fine (it's a copy-out, no engine run), but a
    // deadline-carrying run must not *warm* the cache — a cancelled run
    // would install a partial solution that repair would then propagate
    // as if complete.
    const bool HotEligible =
        HotCache != nullptr && !QI.CollectPath &&
        (QI.Kind == QueryKind::SSSP || !QI.CollectReached);
    if (HotEligible && serveFromHot(QI, Ver, R)) {
      // Served from the repaired hot state: bit-identical distances, no
      // engine run.
    } else if (HotEligible && QI.Kind == QueryKind::SSSP && !Cancel) {
      // Cold SSSP source: warm the cache by running into a cache-owned
      // state (full solution, repairable on the next applyUpdates). The
      // state storage is recycled from the LRU victim when the cache is
      // full and nothing else still references it, so steady-state
      // misses usually allocate nothing.
      std::shared_ptr<DistanceState> HotState =
          HotCache->takeSlot(QI.Source);
      if (HotState)
        HotState->resize(Snap->numNodes());
      else
        HotState = std::make_shared<DistanceState>(Snap->numNodes(),
                                                   Opts.TrackParents);
      R = runOneOn(*Snap, QI, *HotState, nullptr);
      HotCache->install(QI.Source, Ver, std::move(HotState));
    } else {
      // Vertex insertion may have outgrown the worker's state.
      State.resize(Snap->numNodes());
      R = runOneOn(*Snap, QI, State, Cancel);
    }
  } else {
    R = runOneOn(*StaticG, QI, State, Cancel);
  }

  if (!Map->isIdentity()) {
    for (std::pair<VertexId, Priority> &P : R.Reached)
      P.first = Map->toExternal(P.first);
    std::sort(R.Reached.begin(), R.Reached.end()); // keep the sorted contract
    Map->mapToExternal(R.Path);
  }
  return R;
}

template <class StoreT>
template <typename GraphT>
QueryResult BasicQueryEngine<StoreT>::runOneOn(
    const GraphT &G, const Query &Q, DistanceState &State,
    const CancelToken *Cancel) const {
  const Schedule &S = Q.Sched ? *Q.Sched : Opts.DefaultSchedule;
  RunLimits Limits;
  Limits.Cancel = Cancel;
  Limits.MaxDistance = Q.MaxDistance;
  QueryResult R;
  // When the run stops early (deadline or MaxDistance budget), only
  // distances strictly below this bound are provably exact; everything
  // reported is filtered to it below.
  bool Interrupted = false;
  Priority SettledBound = kInfiniteDistance;

  switch (Q.Kind) {
  case QueryKind::SSSP:
    R.Stats = deltaSteppingSSSP(G, Q.Source, S, State, Cancel);
    if (R.Stats.Cancelled) {
      Interrupted = true;
      SettledBound = R.Stats.CancelKey * S.Delta;
    }
    break;
  case QueryKind::PPSP: {
    PPSPResult P =
        pointToPointShortestPath(G, Q.Source, Q.Target, S, State, Limits);
    R.Dist = P.Dist;
    R.Stats = P.Stats;
    Interrupted = P.Interrupted;
    SettledBound = P.SettledBound;
    break;
  }
  case QueryKind::AStar: {
    PPSPResult P;
    // The query pinned its version before this check, so a retirement
    // published with that version (or earlier) is visible here.
    if (landmarksUsable()) {
      // Snapshot the target-side landmark distances once per query; the
      // per-relaxation estimate then avoids K scattered |V|-vector reads.
      LandmarkCache::TargetBound Bound = Landmarks->boundFor(Q.Target);
      P = aStarSearch(G, Q.Source, Q.Target, S, State, &Bound, Limits);
    } else if (coordinateBoundUsable()) {
      P = aStarSearch(G, Q.Source, Q.Target, S, State, nullptr, Limits);
    } else {
      // Landmarks lapsed and there is no (or a retired) coordinate bound:
      // degrade to plain PPSP (identical answers, no pruning) rather than
      // fail.
      P = pointToPointShortestPath(G, Q.Source, Q.Target, S, State, Limits);
    }
    R.Dist = P.Dist;
    R.Stats = P.Stats;
    Interrupted = P.Interrupted;
    SettledBound = P.SettledBound;
    break;
  }
  }

  if (Interrupted) {
    R.SettledBound = SettledBound;
    // A deadline stop is the DeadlineExceeded outcome; a MaxDistance
    // budget stop is a normal completion of the bounded search the
    // caller asked for.
    R.Status = R.Stats.Cancelled ? QueryStatus::DeadlineExceeded
                                 : QueryStatus::Ok;
  }

  R.Touched = State.numReached();
  if (Q.Kind == QueryKind::SSSP && Q.Target != kInvalidVertex) {
    // submit() range-checked the target; report it only when provably
    // settled (always, unless interrupted).
    Priority D = State.dist(Q.Target);
    R.Dist = D < SettledBound ? D : kInfiniteDistance;
  }

  if (Interrupted) {
    // Report only the settled prefix: vertices at tentative distances at
    // or above the bound might still improve had the run continued.
    Count Settled = 0;
    State.forEachReached([&](VertexId, Priority D) {
      Settled += D < SettledBound;
    });
    R.Touched = Settled;
  }

  if (Q.CollectReached) {
    // Increasing id, so already in the sorted order Reached promises.
    R.Reached.reserve(static_cast<size_t>(R.Touched));
    State.forEachReached([&](VertexId V, Priority D) {
      if (D < SettledBound)
        R.Reached.emplace_back(V, D);
    });
  }

  // Path extraction also requires a settled target (an interrupted run's
  // tentative parent chain can dead-end or detour).
  if (Q.CollectPath && State.tracksParents() &&
      Q.Target != kInvalidVertex && State.dist(Q.Target) < SettledBound)
    R.Path = extractPath(G, State, Q.Source, Q.Target);

  return R;
}

template <class StoreT>
typename StoreT::ApplyResult
BasicQueryEngine<StoreT>::removeVertex(VertexId External) {
  if (!Store)
    fatalError("QueryEngine::removeVertex: engine serves a fixed graph");
  // A detachment is pure deletions: every landmark bound stays admissible.
  typename StoreT::ApplyResult R = Store->removeVertex(External);
  // Hot states repair from the Applied transitions exactly like an
  // ordinary delete batch (an out-of-range no-op published nothing and
  // repairAll keeps same-version entries untouched).
  if (HotCache && R.Status == ApplyStatus::Ok)
    HotCache->repairAll(*R.Snap, R.Applied, R.Version,
                        Opts.DefaultSchedule);
  return R;
}

template <class StoreT>
Count BasicQueryEngine<StoreT>::freeVertexCount() const {
  return Store ? Store->freeVertexCount() : 0;
}

// The serving tier is compiled here once per store; the header declares
// these as extern.
namespace graphit {
namespace service {
template class BasicQueryEngine<SnapshotStore>;
template class BasicQueryEngine<ShardedSnapshotStore>;
} // namespace service
} // namespace graphit
