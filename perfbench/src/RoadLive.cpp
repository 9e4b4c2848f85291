//===- perfbench/src/RoadLive.cpp - Live road serving workload ------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// road_live: the serving tier under live writes, and the only workload that
// runs src/service. A QueryEngine (2 workers, 1 OpenMP thread per query,
// Δ=1024, 400us batch window, 16-entry hot cache) serves a 300x300 road
// grid from a SnapshotStore with default options, so compaction runs
// inside applyUpdates.
//
//  * Reads are a closed loop: three client threads each submit one query
//    and collect it before the next. Every 4th query is a depot PPSP (the
//    8 depots are warmed into the hot cache during set-up), the rest
//    alternate PPSP and A* city trips. A closed loop keeps the workers
//    busy, so latency measures the program rather than how late idle
//    threads wake up; its rate (ops_per_s) is the capacity measure.
//  * Writes: one writer applies a 16-edge incident batch every 20ms on a
//    fixed cadence. An incident multiplies an edge's weight by 2-4; half
//    the updates clear an earlier incident, restoring the weight, so the
//    graph stays statistically stationary over a run and every weight
//    stays at or above the original — the coordinate A* bound stays
//    admissible.
//
// Set-up (timed, repeated, median reported) covers generating and
// building the graph, constructing store and engine, warming the depots,
// a fixed number of incident batches and a fixed number of warm-up
// queries: a fixed amount of work, so set-up time does not depend on how
// many writer slots a slow set-up would span. The writer's cadence starts
// with the measured window. After the window the writer stops and a
// seeded sample of the run's cold and depot queries is re-answered by the
// engine and compared with Dijkstra PPSP on the final compacted snapshot.
//
// The gated op_cpu_ms is the serving side's CPU per Ok query: the engine
// workers (the process's CPU minus the clients', the main thread's and
// the writer's), the clients' CPU inside submit and collect, and the CPU
// spent inside applyUpdates. The speed probe that scales it runs only
// while the serving side is idle, in short pauses of the window that hold
// every client and the writer between operations and that the window's
// figures leave out. Set-up times are scaled by a probe sampled after
// each set-up.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Speed.h"

#include "algorithms/AStar.h"
#include "algorithms/Dijkstra.h"
#include "algorithms/PPSP.h"
#include "algorithms/QueryState.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "service/QueryEngine.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <omp.h>
#include <pthread.h>
#include <thread>

namespace perfbench {

using namespace graphit;
using namespace graphit::service;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kNumWorkers = 2;
constexpr int kNumClients = 3;
constexpr int kNumDepots = 8;
constexpr int kHotCapacity = 16;
constexpr int kSetupOmpThreads = 4;
/// The writer's repairs and compactions run OpenMP regions; with the
/// default (nproc) threads they would oversubscribe the two busy workers.
constexpr int kWriterOmpThreads = 1;
constexpr auto kWriterPeriod = std::chrono::milliseconds(20);
constexpr int kBatchEdges = 16;
/// Open incidents the writer keeps on the graph in steady state.
constexpr size_t kIncidentTarget = 256;
constexpr size_t kOpListLength = 4096;
/// Queries per verification sample, per class (cold, depot).
constexpr int kVerifySample = 64;
/// Cold queries re-run directly through the algorithms layer (traced).
constexpr int kDirectSample = 128;
/// The window pauses this often to sample the speed probe, this many
/// times: 2-3% of the window, with a sample every half second.
constexpr auto kPausePeriod = std::chrono::milliseconds(1000);
constexpr int kProbesPerPause = 2;

/// Operation ids: warm-up queries, measured queries, writer batches.
constexpr uint64_t kWarmupOpBase = 500000;
constexpr uint64_t kWindowOpBase = 1000000;
constexpr uint64_t kWriterOpBase = 1ULL << 40;

/// The engine's schedule, shared by the direct re-runs.
Schedule servingSchedule() {
  Schedule S;
  S.Delta = 1024;
  return S;
}

struct LiveQuery {
  Query Q;
  bool Depot = false;
};

/// The seeded operation list: what the clients submit, in order.
struct OpList {
  uint64_t GraphSeed = 0;
  uint64_t WriterSeed = 0;
  std::vector<VertexId> Depots;
  std::vector<LiveQuery> Queries;
  std::string Checksum;
};

OpList makeOpList(uint64_t Seed, Count Side) {
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ULL + 0x11);
  OpList L;
  L.GraphSeed = Rng.next();
  L.WriterSeed = Rng.next();
  const Count Window = Side / 4;
  for (int D = 0; D < kNumDepots; ++D)
    L.Depots.push_back(static_cast<VertexId>(Rng.nextInt(0, Side * Side)));
  const auto Cold =
      localGridQueryPairs(Side, Side, Window, kOpListLength, Rng.next());
  size_t NextCold = 0;
  for (size_t I = 0; I < kOpListLength; ++I) {
    LiveQuery LQ;
    if (I % 4 == 0) {
      const VertexId Depot = L.Depots[static_cast<size_t>(
          Rng.nextInt(0, kNumDepots))];
      const Count R = Depot / Side, Col = Depot % Side;
      const Count TR = std::clamp<Count>(
          R + Rng.nextInt(-Window, Window + 1), 0, Side - 1);
      const Count TC = std::clamp<Count>(
          Col + Rng.nextInt(-Window, Window + 1), 0, Side - 1);
      LQ.Depot = true;
      LQ.Q.Kind = QueryKind::PPSP;
      LQ.Q.Source = Depot;
      LQ.Q.Target = static_cast<VertexId>(TR * Side + TC);
    } else {
      LQ.Q.Kind = NextCold % 2 ? QueryKind::AStar : QueryKind::PPSP;
      LQ.Q.Source = Cold[NextCold].first;
      LQ.Q.Target = Cold[NextCold].second;
      ++NextCold;
    }
    L.Queries.push_back(LQ);
  }
  Checksum Sum;
  for (uint64_t V :
       {static_cast<uint64_t>(Side), L.GraphSeed, L.WriterSeed,
        static_cast<uint64_t>(kBatchEdges),
        static_cast<uint64_t>(kWriterPeriod.count())})
    Sum.add(V);
  for (VertexId D : L.Depots)
    Sum.add(D);
  for (const LiveQuery &LQ : L.Queries) {
    Sum.add(static_cast<uint64_t>(LQ.Q.Kind));
    Sum.add(LQ.Q.Source);
    Sum.add(LQ.Q.Target);
  }
  L.Checksum = Sum.hex();
  return L;
}

/// One measured query, as its client saw it.
struct QueryRecord {
  uint32_t Index = 0; ///< into OpList::Queries
  bool Depot = false;
  bool Ok = false;
  double Latency = 0;       ///< submit to the return of collect, seconds
  OrderedStats Stats;        ///< Stats.Seconds: engine time the result reports
  Count Touched = 0;
};

/// One writer cadence slot.
struct WriterRecord {
  Clock::time_point Due;
  bool Applied = false;
  double LagSeconds = 0;    ///< start minus due
  double UpdateSeconds = 0; ///< applyUpdates wall time
  double UpdateCpu = 0;     ///< applyUpdates CPU time (the writer thread)
  Count OverlayEdges = 0;   ///< of the snapshot the writer pinned
  size_t QueueDepth = 0;
  int64_t BatchWindowMicros = 0;
  double HeapMb = 0; ///< heap in use after the batch
};

/// Holds the clients and the writer between operations while the main
/// thread samples the speed probe. Sampled beside the serving side, the
/// probe would slow with the serving side's own use of the shared cache
/// and divide part of a library change out of op_cpu_ms. A party enrolls
/// before its thread starts and leaves when it ends.
class ProbeGate {
public:
  void enroll(int Parties) {
    std::lock_guard<std::mutex> Lock(Mu);
    Active += Parties;
  }

  void leave() {
    std::lock_guard<std::mutex> Lock(Mu);
    --Active;
    Cv.notify_all();
  }

  /// Called by a party between operations: parks it while a pause is on.
  /// \returns how long it was parked.
  Clock::duration checkpoint() {
    if (!Paused.load(std::memory_order_acquire))
      return Clock::duration::zero();
    const auto T0 = Clock::now();
    std::unique_lock<std::mutex> Lock(Mu);
    ++Parked;
    Cv.notify_all();
    Cv.wait(Lock, [this] { return !Paused.load(); });
    --Parked;
    return Clock::now() - T0;
  }

  /// Parks every enrolled party, runs \p Fn and releases them.
  /// \returns the length of the pause.
  template <class Fn> Clock::duration pause(Fn &&F) {
    const auto T0 = Clock::now();
    std::unique_lock<std::mutex> Lock(Mu);
    Paused.store(true);
    Cv.wait(Lock, [this] { return Parked == Active; });
    Lock.unlock();
    F();
    Lock.lock();
    Paused.store(false);
    Cv.notify_all();
    return Clock::now() - T0;
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  std::atomic<bool> Paused{false};
  int Active = 0, Parked = 0; // guarded by Mu
};

/// The incident stream: opens incidents (weight x2-4) and clears them
/// (original weight back), keeping about kIncidentTarget open. Reads
/// weights from a snapshot that already holds every earlier batch.
class IncidentWriter {
public:
  explicit IncidentWriter(uint64_t Seed) : Rng(Seed) {}

  std::vector<EdgeUpdate> nextBatch(const DeltaGraph &Snap) {
    std::vector<EdgeUpdate> Batch;
    const Count N = Snap.numNodes();
    while (static_cast<int>(Batch.size()) < kBatchEdges) {
      // Clearing with probability |Open| / (2 * target) holds the open
      // set near the target: there, opens and clears balance.
      const bool Clear =
          static_cast<size_t>(Rng.nextInt(0, 2 * kIncidentTarget)) <
          Open.size();
      if (Clear) {
        const size_t I = static_cast<size_t>(
            Rng.nextInt(0, static_cast<int64_t>(Open.size())));
        Batch.push_back(Open[I]);
        Open[I] = Open.back();
        Open.pop_back();
        continue;
      }
      const auto U = static_cast<VertexId>(Rng.nextInt(0, N));
      for (WNode E : Snap.outNeighbors(U)) {
        // An edge with an open incident, or one cleared in this batch and
        // not yet applied, does not show its original weight.
        const auto SameEdge = [&](const EdgeUpdate &O) {
          return (O.Src == U && O.Dst == E.V) || (O.Src == E.V && O.Dst == U);
        };
        if (std::any_of(Open.begin(), Open.end(), SameEdge) ||
            std::any_of(Batch.begin(), Batch.end(), SameEdge))
          break;
        EdgeUpdate Up;
        Up.Src = U;
        Up.Dst = E.V;
        Up.W = E.W * static_cast<Weight>(Rng.nextInt(2, 5));
        Batch.push_back(Up);
        Up.W = E.W; // what clearing the incident restores
        Open.push_back(Up);
        break;
      }
    }
    return Batch;
  }

private:
  SplitMix64 Rng;
  std::vector<EdgeUpdate> Open;
};

/// Store, engine and writer for one set-up. Destruction stops the writer
/// before the engine and store go away.
class LiveInstance {
public:
  LiveInstance(Count Side, const OpList &L) : Incidents(L.WriterSeed) {
    RoadNetwork Net;
    {
      ScopedSpan S("graph.generate");
      Net = roadGrid(Side, Side, L.GraphSeed);
    }
    Graph G;
    {
      ScopedSpan S("graph.build");
      BuildOptions Options;
      Options.Symmetrize = true;
      G = GraphBuilder(Options).build(Net.NumNodes, std::move(Net.Edges),
                                      std::move(Net.Coords));
    }
    NumNodes = G.numNodes();
    NumEdges = G.numEdges();
    {
      ScopedSpan S("service.store_init");
      Store = std::make_unique<SnapshotStore>(std::move(G));
    }
    QueryEngine::Options Opts;
    Opts.NumWorkers = kNumWorkers;
    Opts.OmpThreadsPerQuery = 1;
    Opts.DefaultSchedule = servingSchedule();
    Opts.MaxBatchDelayMicros = 400;
    Opts.HotSourceCapacity = kHotCapacity;
    {
      ScopedSpan S("service.engine_init");
      Engine = std::make_unique<QueryEngine>(*Store, Opts);
    }
    ScopedSpan S("service.warm_depots");
    std::vector<uint64_t> Tickets;
    for (VertexId D : L.Depots) {
      Query Q;
      Q.Kind = QueryKind::SSSP;
      Q.Source = D;
      Tickets.push_back(Engine->submit(Q));
    }
    for (uint64_t T : Tickets)
      (void)Engine->collect(T);
  }

  ~LiveInstance() { stopWriter(); }
  LiveInstance(const LiveInstance &) = delete;
  LiveInstance &operator=(const LiveInstance &) = delete;

  /// Applies \p Batches incident batches from the calling thread, as
  /// the writer would, with the writer's OpenMP thread count.
  void warmWrites(int Batches) {
    ScopedSpan S("bench.warm_writes");
    const int Threads = omp_get_max_threads();
    omp_set_num_threads(kWriterOmpThreads);
    for (int I = 0; I < Batches; ++I)
      (void)write();
    omp_set_num_threads(Threads);
  }

  /// Starts the writer's fixed cadence: one batch every kWriterPeriod.
  /// The writer parks at \p Pauses; a pause holds its cadence.
  void startWriter(ProbeGate &Pauses) {
    Gate = &Pauses;
    Gate->enroll(1);
    Writer = std::thread([this] { writerLoop(); });
  }

  void stopWriter() {
    StopWriter.store(true);
    if (Writer.joinable())
      Writer.join();
  }

  /// Writer slots; read only after stopWriter().
  const std::vector<WriterRecord> &writerRecords() const { return Records; }

  /// CPU seconds the writer thread has used so far.
  double writerCpuSeconds() {
    clockid_t Id;
    timespec T;
    if (pthread_getcpuclockid(Writer.native_handle(), &Id) != 0 ||
        clock_gettime(Id, &T) != 0)
      return 0;
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_nsec) * 1e-9;
  }

  SnapshotStore &store() { return *Store; }
  QueryEngine &engine() { return *Engine; }
  Count NumNodes = 0, NumEdges = 0;

private:
  /// Pins the current snapshot, makes the next incident batch from it
  /// and applies it.
  WriterRecord write() {
    WriterRecord W;
    ScopedSpan Op("bench.write", kWriterOpBase + NextBatch++);
    std::vector<EdgeUpdate> Updates;
    {
      SnapshotStore::Snapshot Snap;
      {
        ScopedSpan S("service.pin");
        Snap = Store->current();
      }
      W.OverlayEdges = Snap->overlayEdges();
      ScopedSpan S("bench.make_batch");
      Updates = Incidents.nextBatch(*Snap);
    }
    const auto T0 = Clock::now();
    const double C0 = threadCpuSeconds();
    ScopedSpan S("service.apply_updates");
    (void)Engine->applyUpdates(Updates);
    W.UpdateCpu = threadCpuSeconds() - C0;
    W.UpdateSeconds = secondsSince(T0);
    return W;
  }

  void writerLoop() {
    omp_set_num_threads(kWriterOmpThreads);
    auto Due = Clock::now() + kWriterPeriod;
    for (;;) {
      std::this_thread::sleep_until(Due);
      if (StopWriter.load()) {
        Gate->leave();
        return;
      }
      if (const Clock::duration Held = Gate->checkpoint();
          Held > Clock::duration::zero()) {
        Due += Held;
        continue;
      }
      const double Lag =
          std::chrono::duration<double>(Clock::now() - Due).count();
      WriterRecord W = write();
      W.Due = Due;
      W.LagSeconds = Lag;
      W.Applied = true;
      W.QueueDepth = Engine->queueDepth();
      W.BatchWindowMicros = Engine->batchWindowMicros();
      W.HeapMb = heapMegabytes();
      Records.push_back(W);
      // Fixed cadence: a late batch does not bring the next one forward;
      // slots that passed while it ran are recorded as skipped.
      Due += kWriterPeriod;
      for (auto Now = Clock::now(); Due < Now; Due += kWriterPeriod) {
        WriterRecord Skipped;
        Skipped.Due = Due;
        Records.push_back(Skipped);
      }
    }
  }

  std::unique_ptr<SnapshotStore> Store;
  std::unique_ptr<QueryEngine> Engine;
  IncidentWriter Incidents; ///< used by one thread at a time
  uint64_t NextBatch = 0;
  std::vector<WriterRecord> Records;
  ProbeGate *Gate = nullptr;
  std::atomic<bool> StopWriter{false};
  std::thread Writer; // last: joined before the members it uses go away
};

/// What the clients of one closed loop did.
struct LoopResult {
  std::vector<QueryRecord> Queries;
  double ClientCpu = 0;  ///< CPU seconds of the client threads
  double ServingCpu = 0; ///< of those, spent inside submit and collect
};

/// Runs the closed loop: kNumClients threads draw list positions from
/// \p Next, each submitting one query and collecting it before the next,
/// until \p Stop says so; they park at \p Pauses between queries.
/// Meanwhile the calling thread runs \p Idle repeatedly.
template <class StopFn, class IdleFn>
LoopResult closedLoop(QueryEngine &Engine, const OpList &L,
                      std::atomic<uint64_t> &Next, uint64_t OpBase,
                      ProbeGate &Pauses, StopFn Stop, IdleFn Idle) {
  std::vector<std::vector<QueryRecord>> PerClient(kNumClients);
  std::vector<double> Cpu(kNumClients), Serving(kNumClients);
  std::atomic<int> Running{kNumClients};
  std::vector<std::thread> Clients;
  Pauses.enroll(kNumClients);
  for (int C = 0; C < kNumClients; ++C)
    Clients.emplace_back([&, C] {
      const double C0 = threadCpuSeconds();
      std::vector<QueryRecord> &Mine = PerClient[static_cast<size_t>(C)];
      Mine.reserve(1 << 15);
      for (;;) {
        (void)Pauses.checkpoint();
        const uint64_t I = Next.fetch_add(1);
        if (Stop(I)) {
          Cpu[static_cast<size_t>(C)] = threadCpuSeconds() - C0;
          Pauses.leave();
          Running.fetch_sub(1);
          return;
        }
        const LiveQuery &LQ = L.Queries[I % L.Queries.size()];
        QueryRecord Rec;
        Rec.Index = static_cast<uint32_t>(I % L.Queries.size());
        Rec.Depot = LQ.Depot;
        ScopedSpan Op("bench.query", OpBase + I);
        // Admission, lock waits and wake-ups inside submit and collect
        // are serving cost, even though a client thread pays it.
        const double Cpu0 = threadCpuSeconds();
        const auto T0 = Clock::now();
        uint64_t Ticket;
        {
          ScopedSpan S("service.submit");
          Ticket = Engine.submit(LQ.Q);
        }
        QueryResult Res;
        {
          ScopedSpan S("service.collect");
          Res = Engine.collect(Ticket);
        }
        Rec.Latency = secondsSince(T0);
        Serving[static_cast<size_t>(C)] += threadCpuSeconds() - Cpu0;
        Rec.Ok = Res.Status == QueryStatus::Ok;
        Rec.Stats = Res.Stats;
        Rec.Touched = Res.Touched;
        Mine.push_back(Rec);
      }
    });
  while (Running.load() > 0)
    Idle();
  for (std::thread &T : Clients)
    T.join();
  LoopResult Out;
  for (int C = 0; C < kNumClients; ++C) {
    auto &Mine = PerClient[static_cast<size_t>(C)];
    Out.Queries.insert(Out.Queries.end(), Mine.begin(), Mine.end());
    Out.ClientCpu += Cpu[static_cast<size_t>(C)];
    Out.ServingCpu += Serving[static_cast<size_t>(C)];
  }
  return Out;
}

} // namespace

RunRecord runRoadLive(const RunConfig &C) {
  const Count Side = C.Tiny ? 40 : 300;
  const uint64_t WarmupQueries = C.Tiny ? 200 : 2000;
  const int WarmupBatches = C.Tiny ? 5 : 50;
  omp_set_num_threads(kSetupOmpThreads);
  const OpList L = makeOpList(C.Seed, Side);
  const auto Sleep = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };

  SpeedProbe SetupProbe(SpeedProbe::Kind::CacheWalk);
  SpeedProbe WindowProbe(SpeedProbe::Kind::CacheWalk);
  RunRecord R;
  Measured M;
  ProbeGate Pauses; // outlives Live, whose writer parks at it
  std::unique_ptr<LiveInstance> Live;
  std::atomic<uint64_t> Next{0};
  for (int K = 0; K < setupRepeats(C); ++K) {
    Live.reset();
    const double C0 = processCpuSeconds();
    const auto T0 = Clock::now();
    {
      ScopedSpan Setup("bench.setup", static_cast<uint64_t>(K) + 1);
      Live = std::make_unique<LiveInstance>(Side, L);
      Live->warmWrites(WarmupBatches);
    }
    Next.store(0);
    (void)closedLoop(
        Live->engine(), L, Next, kWarmupOpBase, Pauses,
        [&](uint64_t I) { return I >= WarmupQueries; }, Sleep);
    R.Warmup += WarmupQueries;
    M.SetupWall.push_back(secondsSince(T0));
    M.SetupCpu.push_back(processCpuSeconds() - C0);
    // The serving side is idle here: no client, no writer, no query.
    for (int I = 0; I < kProbesPerSetup; ++I)
      SetupProbe.sample();
  }

  // The measured window. The writer starts its cadence with it; the main
  // thread pauses it every kPausePeriod to sample the probe. The pauses
  // are not part of the window's length, and no query or batch spans one.
  QueryEngine &Engine = Live->engine();
  SnapshotStore &Store = Live->store();
  const uint64_t HitsBefore = Engine.hotHits();
  const uint64_t RepairsBefore = Engine.hotRepairs();
  const uint64_t CompactionsBefore = Store.compactions();
  const int64_t WindowFromNs = trace::nowNs();
  const double ProcessCpu0 = processCpuSeconds();
  const double MainCpu0 = threadCpuSeconds();
  const auto WindowStart = Clock::now();
  Live->startWriter(Pauses);
  const double WriterCpu0 = Live->writerCpuSeconds();
  const auto Deadline =
      WindowStart + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(C.Seconds));
  auto NextPause = WindowStart + kPausePeriod;
  Clock::duration Paused = Clock::duration::zero();
  LoopResult Loop = closedLoop(
      Engine, L, Next, kWindowOpBase, Pauses,
      [&](uint64_t) { return Clock::now() >= Deadline; },
      [&] {
        const auto Now = Clock::now();
        if (Now >= NextPause && Now < Deadline) {
          Paused += Pauses.pause([&] {
            for (int I = 0; I < kProbesPerPause; ++I)
              WindowProbe.sample();
          });
          NextPause += kPausePeriod;
        }
        Sleep();
      });
  const auto WindowEnd = Clock::now();
  const int64_t WindowToNs = trace::nowNs();
  const double WriterCpu = Live->writerCpuSeconds() - WriterCpu0;
  const double MainCpu = threadCpuSeconds() - MainCpu0;
  const double ProcessCpu = processCpuSeconds() - ProcessCpu0;
  Live->stopWriter();
  M.WindowSeconds =
      std::chrono::duration<double>(WindowEnd - WindowStart - Paused).count();
  const uint64_t Hits = Engine.hotHits() - HitsBefore;
  const uint64_t Repairs = Engine.hotRepairs() - RepairsBefore;
  const uint64_t Compactions = Store.compactions() - CompactionsBefore;
  const std::vector<QueryRecord> &Queries = Loop.Queries;

  std::vector<double> ColdLatency, DepotLatency, QueueSeconds;
  uint64_t DepotQueries = 0;
  CoreCounts ColdCore; // the engine's own runs, for cold queries
  for (const QueryRecord &Q : Queries) {
    ++R.Attempted;
    DepotQueries += Q.Depot;
    if (!Q.Ok) {
      ++R.Failed;
      continue;
    }
    ++R.Ok;
    M.OkLatency.push_back(Q.Latency);
    QueueSeconds.push_back(Q.Latency - Q.Stats.Seconds);
    (Q.Depot ? DepotLatency : ColdLatency).push_back(Q.Latency);
    if (!Q.Depot)
      ColdCore.add(Q.Stats, static_cast<double>(Q.Touched));
  }

  // Writer slots whose due time fell inside the window.
  uint64_t Scheduled = 0, Applied = 0;
  double WorstLag = 0, ApplyCpu = 0;
  std::vector<double> UpdateSeconds, UpdateCpu, Overlay, Depth, BatchWindow,
      Heap;
  for (const WriterRecord &W : Live->writerRecords()) {
    if (W.Due < WindowStart || W.Due >= WindowEnd)
      continue;
    ++Scheduled;
    if (!W.Applied)
      continue;
    ++Applied;
    WorstLag = std::max(WorstLag, W.LagSeconds);
    ApplyCpu += W.UpdateCpu;
    UpdateSeconds.push_back(W.UpdateSeconds);
    UpdateCpu.push_back(W.UpdateCpu);
    Overlay.push_back(static_cast<double>(W.OverlayEdges));
    Depth.push_back(static_cast<double>(W.QueueDepth));
    BatchWindow.push_back(static_cast<double>(W.BatchWindowMicros));
    Heap.push_back(W.HeapMb);
  }
  // The serving side's CPU: the engine's workers (everything the clients,
  // the main thread and the writer did not use), the clients' time inside
  // submit and collect, and the writer's inside applyUpdates. Only the
  // load generator's own bookkeeping is left out.
  const double WorkerCpu = ProcessCpu - Loop.ClientCpu - MainCpu - WriterCpu;
  M.OpCpu = R.Ok ? (WorkerCpu + Loop.ServingCpu + ApplyCpu) /
                       static_cast<double>(R.Ok)
                 : 0;
  // A single heap sample depends on where the store is in its compaction
  // cycle; the median over the writer's slots does not.
  M.HeapMb = median(Heap);

  // Oracle: the writer is stopped; a seeded sample of the run's cold and
  // depot queries is re-answered by the engine on the final version and
  // compared with Dijkstra PPSP on the compacted final snapshot.
  const SnapshotStore::Snapshot Final = Store.current();
  const Graph FinalGraph = Final->compact();
  {
    SplitMix64 Rng(C.Seed ^ 0xc0ffee);
    std::vector<uint32_t> Cold, Depot;
    for (const QueryRecord &Q : Queries)
      (Q.Depot ? Depot : Cold).push_back(Q.Index);
    std::vector<uint32_t> Sample;
    for (auto *Pool : {&Cold, &Depot})
      for (int I = 0; I < kVerifySample && !Pool->empty(); ++I)
        Sample.push_back((*Pool)[static_cast<size_t>(
            Rng.nextInt(0, static_cast<int64_t>(Pool->size())))]);
    for (size_t I = 0; I < Sample.size(); ++I) {
      const Query &Q = L.Queries[Sample[I]].Q;
      QueryResult Got = Engine.collect(Engine.submit(Q));
      if (C.Corrupt && I == 0)
        Got.Dist += 1;
      ++R.OracleChecked;
      if (Got.Status != QueryStatus::Ok ||
          Got.Dist != dijkstraPPSP(FinalGraph, Q.Source, Q.Target)) {
        ++R.OracleMismatches;
        ++R.Failed;
      }
    }
  }

  // Direct re-runs of cold queries through the algorithms layer on the
  // pinned final snapshot, one OpenMP thread like a serving worker: the
  // gap to service.cold_p50_ms is serving overhead.
  std::vector<double> Direct;
  if (C.Trace) {
    omp_set_num_threads(1);
    DistanceState State(Final->numNodes());
    const Schedule Sched = servingSchedule();
    SplitMix64 Rng(C.Seed ^ 0xd12ec7);
    for (int I = 0; I < kDirectSample;) {
      const LiveQuery &LQ = L.Queries[static_cast<size_t>(
          Rng.nextInt(0, static_cast<int64_t>(L.Queries.size())))];
      if (LQ.Depot)
        continue;
      const auto T0 = Clock::now();
      if (LQ.Q.Kind == QueryKind::AStar) {
        ScopedSpan S("algorithms.astar");
        (void)aStarSearch(*Final, LQ.Q.Source, LQ.Q.Target, Sched, State);
      } else {
        ScopedSpan S("algorithms.ppsp");
        (void)pointToPointShortestPath(*Final, LQ.Q.Source, LQ.Q.Target,
                                       Sched, State);
      }
      Direct.push_back(secondsSince(T0));
      ++I;
    }
    omp_set_num_threads(kSetupOmpThreads);
  }

  R.meta("depots", std::to_string(L.Depots.size()));
  addRunMeta(R, C,
             {kNumWorkers, 1, kNumClients, 1, kWriterOmpThreads,
              kSetupOmpThreads},
             Live->NumNodes, Live->NumEdges, L.Checksum);
  R.count("depot_queries", static_cast<double>(DepotQueries));
  R.count("writer_batches_scheduled", static_cast<double>(Scheduled));
  R.count("writer_batches_applied", static_cast<double>(Applied));
  R.count("writer_worst_lag_ms", WorstLag * 1e3);
  R.count("compactions", static_cast<double>(Compactions));
  R.count("hot_hits", static_cast<double>(Hits));
  R.count("worker_cpu_s", WorkerCpu);
  R.count("client_serving_cpu_s", Loop.ServingCpu);
  R.count("apply_cpu_s", ApplyCpu);

  reportEndToEnd(R, M, SetupProbe, WindowProbe);
  R.endToEnd("p99_ms", percentile(M.OkLatency, 99) * 1e3, "ms");
  R.endToEnd("update_p50_ms", median(UpdateSeconds) * 1e3, "ms");

  if (C.Trace) {
    R.Spans = trace::collect();
    const auto InWindow = [&](const char *Name) {
      return trace::durations(R.Spans, Name, WindowFromNs, WindowToNs);
    };
    reportGraphLayers(R);
    R.layer("graph.overlay_edges", mean(Overlay), "count");
    ColdCore.report(R);
    R.layer("algorithms.ppsp_ms", median(Direct) * 1e3, "ms");
    R.layer("service.submit_us", median(InWindow("service.submit")) * 1e6,
            "us");
    R.layer("service.queue_ms", median(QueueSeconds) * 1e3, "ms");
    R.layer("service.cold_p50_ms", median(ColdLatency) * 1e3, "ms");
    R.layer("service.depot_p50_ms", median(DepotLatency) * 1e3, "ms");
    R.layer("service.queue_depth", mean(Depth), "count");
    R.layer("service.batch_window_us", mean(BatchWindow), "us");
    R.layer("service.hot_hit_ratio",
            DepotQueries ? static_cast<double>(Hits) /
                               static_cast<double>(DepotQueries)
                         : 0,
            "ratio");
    R.layer("service.hot_repairs", static_cast<double>(Repairs), "count");
    R.layer("service.compactions", static_cast<double>(Compactions), "count");
    R.layer("service.pin_us", median(InWindow("service.pin")) * 1e6, "us");
    R.layer("service.hot_states",
            static_cast<double>(Engine.hotStatesCached()), "count");
    R.layer("service.update_p50_ms", median(UpdateSeconds) * 1e3, "ms");
    R.layer("service.update_cpu_ms", median(UpdateCpu) * 1e3, "ms");
  }
  return R;
}

} // namespace perfbench
