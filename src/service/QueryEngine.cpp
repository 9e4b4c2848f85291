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
#include "support/FailPoint.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <omp.h>

using namespace graphit;
using namespace graphit::service;

namespace {
/// Bounded feedback-controller history kept for controllerTrace().
constexpr size_t kControllerTraceCap = 256;

/// Clamps a caller-supplied class index into range (the public per-class
/// getters accept anything).
int clampClass(int C) {
  if (C < 0)
    return 0;
  if (C >= kNumImportanceClasses)
    return kNumImportanceClasses - 1;
  return C;
}
} // namespace

template <class StoreT>
void BasicQueryEngine<StoreT>::startWorkers() {
  {
    // The controlled knobs start at (and, with the controller off, stay
    // at) their configured values; the configured values remain the
    // ceilings the controller may relax back to.
    MutexLock Lock(Mu);
    CurBatchDelay_ = Opts.MaxBatchDelayMicros;
    CurHighWater_ = Opts.AdmissionHighWater;
    CurSoftWater_ = Opts.AdmissionSoftWater;
    if (Opts.ControllerIntervalMicros > 0)
      CtlNextTick_ =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(Opts.ControllerIntervalMicros);
  }
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
      Map(&OwnMap), Pool(G.numNodes(), O.TrackParents) {
  if (Opts.Reorder != ReorderKind::None) {
    // Serve a cache-conscious layout internally; the boundary translation
    // in runOne keeps callers in original-id space.
    OwnedG = std::make_unique<Graph>(reorderGraph(
        G, Opts.Reorder, &OwnMap, /*Seed=*/0x0EDE5, Opts.ReorderSourceHint));
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
      Map(&S.mapping()), Pool(NumNodes, O.TrackParents) {
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
  // Pool growth is a fail-point site (statepool.grow): a transient fault
  // must not leave the pool sized below the already-published universe,
  // so retry until it lands — the operation itself is idempotent.
  for (int Attempt = 0;; ++Attempt) {
    try {
      Pool.grow(NewNodes);
      break;
    } catch (const std::exception &) {
      if (Attempt >= 256)
        fatalError("QueryEngine: state pool growth kept failing");
    }
  }

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
    // After repairs the touched log is a superset of the finite vertices
    // (a vertex cut off by deletions stays logged): filter on finiteness
    // so Reached matches what a fresh run reports.
    R.Reached.reserve(static_cast<size_t>(R.Touched));
    const Count Logged = St->numTouched();
    for (Count I = 0; I < Logged; ++I) {
      VertexId V = St->touched(I);
      Priority D = St->dist(V);
      if (D < kInfiniteDistance)
        R.Reached.emplace_back(V, D);
    }
    assert(static_cast<Count>(R.Reached.size()) == R.Touched &&
           "the cut-off list holds exactly the logged vertices at infinity");
    std::sort(R.Reached.begin(), R.Reached.end());
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
  return BatchWindow_;
}

template <class StoreT>
int64_t BasicQueryEngine<StoreT>::maxBatchWindowMicros() const {
  MutexLock Lock(Mu);
  return BatchWindowMax_;
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
  bool Valid =
      static_cast<Count>(Q.Source) < NumNodes && TargetOk && HeurOk;
  const int Class = importanceClass(Q.Importance);
  const auto Now = std::chrono::steady_clock::now();
  uint64_t Ticket;
  bool Enqueued = false;
  bool Resolved = false; // a ticket (this one or a victim's) was finished
  {
    MutexLock Lock(Mu);
    Ticket = NextTicket++;
    Outstanding.insert(Ticket);
    if (!Valid) {
      QueryResult R;
      R.Status = QueryStatus::Failed;
      R.Failed = true;
      Finished.emplace(Ticket, std::move(R));
      Resolved = true;
    } else {
      // Admission control: past the high-water mark, something must give —
      // shed the lowest-importance pending query, or the incoming one when
      // nothing queued is strictly less important (ties shed the incomer:
      // queued work has already waited). Among equally-least-important
      // *pending* queries the same rationale picks the newest — it has
      // waited least — so the scan keeps updating on ties. Shedding is
      // typed and immediate, never a silent drop — the victim's ticket
      // resolves Shed right here. `runBatch` funnels through this exact
      // path, so single submits and batches shed identically.
      if (CurHighWater_ > 0 && Pending.size() >= CurHighWater_) {
        auto Victim = Pending.end();
        int MinImportance = Q.Importance;
        for (auto It = Pending.begin(); It != Pending.end(); ++It)
          if (It->Q.Importance < MinImportance ||
              (Victim != Pending.end() &&
               It->Q.Importance == MinImportance)) {
            MinImportance = It->Q.Importance;
            Victim = It;
          }
        QueryResult R;
        R.Status = QueryStatus::Shed;
        Resolved = true;
        if (Victim == Pending.end()) {
          ++Sheds_[Class];
          Finished.emplace(Ticket, std::move(R));
          Valid = false; // incoming query sheds; nothing to enqueue
        } else {
          ++Sheds_[Victim->Class];
          Finished.emplace(Victim->Ticket, std::move(R));
          Pending.erase(Victim);
        }
      }

      if (Valid) {
        Task T{Ticket, std::move(Q), Now, 0, false, Class};
        T.DeadlineMicros = T.Q.DeadlineMicros;
        // Graceful degradation: under moderate pressure, bound PPSP/A*
        // queries that brought no deadline of their own. A class with a
        // p99 target gets the target itself as its budget — the SLO is
        // the class's latency contract, known a priori, so imposition
        // does not wait for a warm EWMA (and must not hand a premium
        // class the tiny EWMA-derived budget meant for bulk traffic).
        // SLO-less classes fall back to a fraction of the recent service
        // time *of their own (kind, class) cell* — a slow class must not
        // shrink another class's budget. Bounded answers for everyone
        // beat full answers for some and Shed for the rest.
        if (CurSoftWater_ > 0 && Pending.size() >= CurSoftWater_ &&
            T.Q.Kind != QueryKind::SSSP && T.DeadlineMicros <= 0) {
          const int64_t Slo = Opts.ClassSlo[static_cast<size_t>(T.Class)];
          if (Slo > 0) {
            T.DeadlineMicros = std::max(Opts.DegradeFloorMicros, Slo);
            T.Degraded = true;
            ++Degraded_[T.Class];
          } else {
            const double Ewma =
                EwmaMicros[static_cast<int>(T.Q.Kind)][T.Class];
            if (Ewma > 0.0) {
              T.DeadlineMicros = std::max(
                  Opts.DegradeFloorMicros,
                  static_cast<int64_t>(Ewma * Opts.DegradeFactor));
              T.Degraded = true;
              ++Degraded_[T.Class];
            }
          }
        }
        Pending.push_back(std::move(T));
        Enqueued = true;
      }
    }
  }
  if (Enqueued)
    WorkCv.notify_one();
  if (Resolved)
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
uint64_t BasicQueryEngine<StoreT>::queriesServed() const {
  MutexLock Lock(Mu);
  return Served;
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::queriesShed() const {
  MutexLock Lock(Mu);
  uint64_t Total = 0;
  for (uint64_t C : Sheds_)
    Total += C;
  return Total;
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::deadlinesExceeded() const {
  MutexLock Lock(Mu);
  uint64_t Total = 0;
  for (uint64_t C : DeadlineExceeded_)
    Total += C;
  return Total;
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::queriesDegraded() const {
  MutexLock Lock(Mu);
  uint64_t Total = 0;
  for (uint64_t C : Degraded_)
    Total += C;
  return Total;
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::queriesServedInClass(int Class) const {
  MutexLock Lock(Mu);
  return ServedClass_[clampClass(Class)];
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::queriesShedInClass(int Class) const {
  MutexLock Lock(Mu);
  return Sheds_[clampClass(Class)];
}

template <class StoreT>
uint64_t
BasicQueryEngine<StoreT>::deadlinesExceededInClass(int Class) const {
  MutexLock Lock(Mu);
  return DeadlineExceeded_[clampClass(Class)];
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::queriesDegradedInClass(int Class) const {
  MutexLock Lock(Mu);
  return Degraded_[clampClass(Class)];
}

template <class StoreT>
double BasicQueryEngine<StoreT>::serviceEwmaMicros(QueryKind Kind,
                                                   int Class) const {
  MutexLock Lock(Mu);
  return EwmaMicros[static_cast<int>(Kind)][clampClass(Class)];
}

template <class StoreT>
LatencyHistogram::Snapshot
BasicQueryEngine<StoreT>::classLatencySnapshot(int Class) const {
  // Lock-free: the histograms are relaxed atomics, no Mu needed.
  return ClassLatency_[clampClass(Class)].snapshot();
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::controllerTicks() const {
  MutexLock Lock(Mu);
  return CtlTicks_;
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::controllerTightens() const {
  MutexLock Lock(Mu);
  return CtlTightens_;
}

template <class StoreT>
uint64_t BasicQueryEngine<StoreT>::controllerRelaxes() const {
  MutexLock Lock(Mu);
  return CtlRelaxes_;
}

template <class StoreT>
int64_t BasicQueryEngine<StoreT>::currentBatchDelayMicros() const {
  MutexLock Lock(Mu);
  return CurBatchDelay_;
}

template <class StoreT>
size_t BasicQueryEngine<StoreT>::currentHighWater() const {
  MutexLock Lock(Mu);
  return CurHighWater_;
}

template <class StoreT>
size_t BasicQueryEngine<StoreT>::currentSoftWater() const {
  MutexLock Lock(Mu);
  return CurSoftWater_;
}

template <class StoreT>
std::vector<ControllerEvent>
BasicQueryEngine<StoreT>::controllerTrace() const {
  MutexLock Lock(Mu);
  return std::vector<ControllerEvent>(CtlTrace_.begin(), CtlTrace_.end());
}

template <class StoreT>
size_t BasicQueryEngine<StoreT>::queueDepth() const {
  MutexLock Lock(Mu);
  return Pending.size();
}

template <class StoreT>
void BasicQueryEngine<StoreT>::workerLoop() {
  // Per-thread OpenMP ICV: each query's engine run forks this many
  // threads. Serving throughput wants 1 (queries are the parallelism);
  // the knob exists for few-but-huge query mixes.
  omp_set_num_threads(std::max(1, Opts.OmpThreadsPerQuery));
  StatePool::Lease State = Pool.acquire();

  // Smallest non-zero formation window: far below a query's service time,
  // so the first adaptation step costs next to nothing.
  constexpr int64_t kBatchWindowFloorMicros = 50;

  struct Done {
    uint64_t Ticket;
    QueryKind Kind;
    bool Degraded;
    int Class;
    std::chrono::steady_clock::time_point Enqueued;
    double Micros;
    QueryResult R;
  };
  std::vector<Task> Batch;
  std::vector<Done> Results;

  while (true) {
    Batch.clear();
    Results.clear();
    {
      MutexLock Lock(Mu);
      // Explicit wait loop (not the predicate overload): the guarded
      // fields are read in this function's scope, where the analysis can
      // see the lock held.
      while (!ShuttingDown && Pending.empty())
        WorkCv.wait(Lock.native());
      if (Pending.empty())
        return; // shutting down, queue drained
      Batch.push_back(std::move(Pending.front()));
      Pending.pop_front();

      // Adaptive batch formation: with a non-zero window (the engine saw
      // backlog recently), greedily drain the queue up to MaxBatchSize,
      // then hold the window open for stragglers. With the window at 0 —
      // always, when MaxBatchDelayMicros is off — this worker takes
      // exactly one task, the historical behavior, and sibling workers
      // pick up the rest of the queue in parallel.
      const size_t MaxBatch =
          static_cast<size_t>(std::max(1, Opts.MaxBatchSize));
      if (CurBatchDelay_ > 0 && BatchWindow_ > 0) {
        while (Batch.size() < MaxBatch && !Pending.empty()) {
          Batch.push_back(std::move(Pending.front()));
          Pending.pop_front();
        }
        const auto Until =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(BatchWindow_);
        while (Batch.size() < MaxBatch && !ShuttingDown) {
          if (!Pending.empty()) {
            Batch.push_back(std::move(Pending.front()));
            Pending.pop_front();
            continue;
          }
          if (WorkCv.wait_until(Lock.native(), Until) ==
              std::cv_status::timeout)
            break;
        }
      }
      if (CurBatchDelay_ > 0) {
        // Grow the window while backlog persists (each batch still left
        // the queue non-empty); collapse it the moment the queue drains
        // so idle-engine latency stays untouched. The cap is the
        // *controlled* delay — under controller tightening the window
        // shrinks with it.
        if (!Pending.empty()) {
          BatchWindow_ = std::min(
              CurBatchDelay_,
              std::max(int64_t{2} * BatchWindow_, kBatchWindowFloorMicros));
          BatchWindowMax_ = std::max(BatchWindowMax_, BatchWindow_);
        } else {
          BatchWindow_ = 0;
        }
      }
    }

    // Run every task in the batch outside the lock, then publish all the
    // results under one acquisition — amortizing the lock and the wakeup
    // is where batching pays.
    for (Task &T : Batch) {
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
        R = runOne(T.Q, State.get(), Cancel);
      }
      R.Degraded = T.Degraded;
      const double Micros =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - Start)
              .count();
      Results.push_back(Done{T.Ticket, T.Q.Kind, T.Degraded, T.Class,
                             T.Enqueued, Micros, std::move(R)});
    }

    // Per-class end-to-end latency (submit → publish, the quantity the
    // class SLOs target): recorded lock-free before taking Mu.
    const auto PubTime = std::chrono::steady_clock::now();
    for (Done &D : Results)
      if (D.R.Status == QueryStatus::Ok)
        ClassLatency_[D.Class].record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                PubTime - D.Enqueued)
                .count()));

    {
      MutexLock Lock(Mu);
      for (Done &D : Results) {
        Aggregate.merge(D.R.Stats);
        ++Served;
        ++ServedClass_[D.Class];
        if (D.R.Status == QueryStatus::DeadlineExceeded)
          ++DeadlineExceeded_[D.Class];
        // The admission EWMA samples only clean, un-degraded completions
        // — cut-short runs would drag imposed deadlines toward zero —
        // and only its own (kind, class) cell, so a slow class cannot
        // poison another's imposed deadlines.
        if (D.R.Status == QueryStatus::Ok && !D.Degraded) {
          double &Ewma = EwmaMicros[static_cast<int>(D.Kind)][D.Class];
          Ewma = Ewma == 0.0 ? D.Micros : 0.8 * Ewma + 0.2 * D.Micros;
        }
        Finished.emplace(D.Ticket, std::move(D.R));
      }
    }
    DoneCv.notify_all();
    maybeControllerTick();
  }
}

template <class StoreT>
void BasicQueryEngine<StoreT>::maybeControllerTick() {
  if (Opts.ControllerIntervalMicros <= 0)
    return;
  const auto Now = std::chrono::steady_clock::now();
  MutexLock Lock(Mu);
  if (Now < CtlNextTick_)
    return;
  // Exactly one publisher wins each interval: the deadline moved before
  // any other worker re-checks it under Mu.
  CtlNextTick_ =
      Now + std::chrono::microseconds(Opts.ControllerIntervalMicros);
  ++CtlTicks_;

  // Windowed per-class p99 since the previous tick, via snapshot deltas —
  // no reset of histograms that workers are concurrently recording into.
  ControllerEvent E;
  E.Tick = CtlTicks_;
  bool AnyMiss = false;
  bool SawEvidence = false; // ≥1 targeted class with a thick-enough window
  bool AllSlack = true;     // every such class comfortably under target
  for (int C = 0; C < kNumImportanceClasses; ++C) {
    LatencyHistogram::Snapshot Cur = ClassLatency_[C].snapshot();
    LatencyHistogram::Snapshot Win =
        LatencyHistogram::windowSince(Cur, CtlPrev_[C]);
    CtlPrev_[C] = Cur;
    E.WindowCount[static_cast<size_t>(C)] = Win.count();
    E.WindowP99Micros[static_cast<size_t>(C)] = Win.percentile(99);
    const int64_t Slo = Opts.ClassSlo[static_cast<size_t>(C)];
    if (Slo <= 0)
      continue;
    if (Win.count() < Opts.ControllerMinSamples)
      continue; // thin window: evidence for neither a miss nor slack
    SawEvidence = true;
    const uint64_t P99 = E.WindowP99Micros[static_cast<size_t>(C)];
    if (P99 > static_cast<uint64_t>(Slo))
      AnyMiss = true;
    else if (static_cast<double>(P99) >=
             Opts.ControllerSlackFraction * static_cast<double>(Slo))
      AllSlack = false; // dead band: under target but not slack
  }

  // AIMD with hysteresis and a dead band: a miss tightens additively at
  // once; relaxing needs ControllerHysteresisTicks consecutive all-slack
  // ticks and then doubles toward the configured ceilings; the dead band
  // (and hitting a floor/ceiling) holds. Settling is structural — every
  // trajectory ends pinned in the dead band or at a bound. Knobs whose
  // configured value is 0 (feature off) are never touched.
  int Action = 0;
  if (AnyMiss) {
    CtlSlackStreak_ = 0;
    if (Opts.MaxBatchDelayMicros > 0) {
      const int64_t Step =
          std::max<int64_t>(Opts.MaxBatchDelayMicros / 8, 1);
      const int64_t Floor = std::min(Opts.ControllerMinBatchDelayMicros,
                                     Opts.MaxBatchDelayMicros);
      const int64_t Next = std::max(Floor, CurBatchDelay_ - Step);
      if (Next != CurBatchDelay_) {
        CurBatchDelay_ = Next;
        Action = -1;
      }
      // An already-grown formation window must shrink with its cap.
      BatchWindow_ = std::min(BatchWindow_, CurBatchDelay_);
    }
    if (Opts.AdmissionHighWater > 0) {
      const size_t Step = std::max<size_t>(Opts.AdmissionHighWater / 8, 1);
      const size_t Floor =
          std::min(Opts.ControllerMinHighWater, Opts.AdmissionHighWater);
      const size_t Next =
          CurHighWater_ > Floor + Step ? CurHighWater_ - Step : Floor;
      if (Next != CurHighWater_) {
        CurHighWater_ = Next;
        Action = -1;
      }
    }
    if (Opts.AdmissionSoftWater > 0) {
      const size_t Step = std::max<size_t>(Opts.AdmissionSoftWater / 8, 1);
      const size_t Floor =
          std::min(Opts.ControllerMinSoftWater, Opts.AdmissionSoftWater);
      const size_t Next =
          CurSoftWater_ > Floor + Step ? CurSoftWater_ - Step : Floor;
      if (Next != CurSoftWater_) {
        CurSoftWater_ = Next;
        Action = -1;
      }
    }
    if (Action == -1)
      ++CtlTightens_;
  } else if (SawEvidence && AllSlack) {
    if (++CtlSlackStreak_ >=
        std::max(Opts.ControllerHysteresisTicks, 1)) {
      CtlSlackStreak_ = 0;
      if (Opts.MaxBatchDelayMicros > 0) {
        const int64_t Seed =
            std::max<int64_t>(Opts.MaxBatchDelayMicros / 8, 1);
        const int64_t Next =
            std::min(Opts.MaxBatchDelayMicros,
                     std::max(CurBatchDelay_ * 2, Seed));
        if (Next != CurBatchDelay_) {
          CurBatchDelay_ = Next;
          Action = 1;
        }
      }
      if (Opts.AdmissionHighWater > 0) {
        const size_t Next =
            std::min(Opts.AdmissionHighWater,
                     std::max<size_t>(CurHighWater_ * 2, 1));
        if (Next != CurHighWater_) {
          CurHighWater_ = Next;
          Action = 1;
        }
      }
      if (Opts.AdmissionSoftWater > 0) {
        const size_t Next =
            std::min(Opts.AdmissionSoftWater,
                     std::max<size_t>(CurSoftWater_ * 2, 1));
        if (Next != CurSoftWater_) {
          CurSoftWater_ = Next;
          Action = 1;
        }
      }
      if (Action == 1)
        ++CtlRelaxes_;
    }
  } else {
    // Dead band or thin windows: hold, and require the slack run to be
    // consecutive.
    CtlSlackStreak_ = 0;
  }

  E.Action = Action;
  E.BatchDelayMicros = CurBatchDelay_;
  E.HighWater = CurHighWater_;
  E.SoftWater = CurSoftWater_;
  CtlTrace_.push_back(E);
  if (CtlTrace_.size() > kControllerTraceCap)
    CtlTrace_.pop_front();
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
      // Vertex insertion may have outgrown a pooled worker state.
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
    } else if (HasCoordinates) {
      P = aStarSearch(G, Q.Source, Q.Target, S, State, nullptr, Limits);
    } else {
      // Landmarks lapsed and there is no coordinate bound: degrade to
      // plain PPSP (identical answers, no pruning) rather than fail.
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

  R.Touched = State.numTouched();
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
    for (Count I = 0; I < R.Touched; ++I)
      if (State.dist(State.touched(I)) < SettledBound)
        ++Settled;
    R.Touched = Settled;
  }

  if (Q.CollectReached) {
    R.Reached.reserve(static_cast<size_t>(R.Touched));
    const Count Logged = State.numTouched();
    for (Count I = 0; I < Logged; ++I) {
      VertexId V = State.touched(I);
      Priority D = State.dist(V);
      if (D < SettledBound)
        R.Reached.emplace_back(V, D);
    }
    std::sort(R.Reached.begin(), R.Reached.end());
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

// The serving tier is compiled here once per supported store; the header
// declares these as extern (see the Store concept in service/Store.h).
namespace graphit {
namespace service {
template class BasicQueryEngine<SnapshotStore>;
template class BasicQueryEngine<ShardedSnapshotStore>;
} // namespace service
} // namespace graphit
