//===- service/QueryEngine.h - Concurrent batched query serving -*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The query-serving layer over the ordered engines: a pool of worker
/// threads executes batches of concurrent SSSP/PPSP/A* queries against a
/// shared immutable graph snapshot.
///
/// What makes serving different from the paper's single-run setting:
///
///  * every worker builds one `DistanceState` (distance/parent arrays
///    plus a bitmap of the 8-vertex lines each query wrote) when it starts
///    and reuses it for every query it runs, so a query pays O(touched)
///    setup instead of the O(V) infinity-fill a fresh run pays;
///  * an optional `LandmarkCache` (ALT) sharpens the A* bound beyond the
///    coordinate heuristic, shared read-only by all workers;
///  * each query runs through the ordinary ordered engine — eager with
///    fusion, eager, or lazy, selectable per query — one engine run per
///    query, many queries in flight.
///
/// The O(touched) setup applies to the eager engines: the distance array
/// is the worker's, and the engine's own bins and round shares grow with the
/// vertices a query pushes, not with V or E. Lazy-schedule queries reuse the
/// worker's distance array but still construct their bucket queue and
/// traversal buffers per run (O(V)); serve latency-sensitive point
/// queries with an eager schedule.
///
/// The API is submit/collect (tickets) with a `runBatch` convenience;
/// results are bit-identical to sequential per-query runs (shortest-path
/// distances are unique, and the early-exit predicates are exact).
///
/// The engine is mechanism: worker threads, the queue mutex and its two
/// condition variables, tickets, per-class latency histograms, and query
/// execution. *Policy* — admission, soft-water degradation, the adaptive
/// batch window, and the AIMD controller — is the non-template,
/// single-threaded `ServingPolicy` (service/ServingPolicy.h), which owns
/// the pending queue; the engine calls it under the queue mutex with
/// `steady_clock::now()`.
///
/// The engine is a template over the live store:
/// `BasicQueryEngine<SnapshotStore>` (aliased `QueryEngine`) serves the
/// single-writer store, `BasicQueryEngine<ShardedSnapshotStore>` (aliased
/// `ShardedQueryEngine`) the sharded multi-writer store. Both stores share
/// one surface (`detail::StoreCore`, service/SnapshotStore.h), so this is
/// one serving implementation, every feature (worker states, landmarks,
/// hot-state repair and sharing, admission control, deadlines) available
/// over both.
///
/// The operator's guide to the serving tier — every Options knob, the
/// deadline/settled-prefix contract, admission control, adaptive
/// batching, and hot-state sharing — is docs/serving.md; the options
/// tables there are kept in sync with this header and
/// service/ServingPolicy.h by scripts/check_docs.py (the `docs_check`
/// ctest entry).
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SERVICE_QUERYENGINE_H
#define GRAPHIT_SERVICE_QUERYENGINE_H

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/PPSP.h"
#include "algorithms/QueryState.h"
#include "core/OrderedProcess.h"
#include "core/Schedule.h"
#include "graph/Graph.h"
#include "service/HotStateCache.h"
#include "service/LandmarkCache.h"
#include "service/ServingPolicy.h"
#include "service/SnapshotStore.h"
#include "support/Cancellation.h"
#include "support/LatencyHistogram.h"
#include "support/ThreadSafety.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace graphit {
namespace service {

/// Result of one query.
struct QueryResult {
  /// How the query ended; see QueryStatus. `DeadlineExceeded` still
  /// carries valid partial results (everything below `SettledBound`);
  /// `Failed` (out-of-range source/target) leaves every other field
  /// default-valued — a malformed request must not take down a serving
  /// process.
  QueryStatus Status = QueryStatus::Ok;
  /// True when admission control degraded this query (imposed its class
  /// SLO or a deadline derived from recent service times) because the
  /// engine was past the soft-water mark. The result may still be
  /// complete (`Ok`).
  bool Degraded = false;
  /// When the run was interrupted (deadline) or budget-bounded
  /// (MaxDistance): every true distance strictly below this bound is
  /// settled and exact; Reached/Touched/Dist are filtered to it.
  /// kInfiniteDistance for an ordinary complete run.
  Priority SettledBound = kInfiniteDistance;
  /// PPSP/A*: the target distance (kInfiniteDistance if unreachable).
  /// SSSP: kInfiniteDistance (per-vertex distances via Reached).
  Priority Dist = kInfiniteDistance;
  OrderedStats Stats;
  /// Vertices the query improved (== vertices at finite distance). A
  /// hot-state hit reads it in O(1) from the state's kept reach count.
  Count Touched = 0;
  /// See Query::CollectReached.
  std::vector<std::pair<VertexId, Priority>> Reached;
  /// See Query::CollectPath: source → target vertex chain. Empty if the
  /// target is unreachable, the path was not requested, or no hop-by-hop
  /// verifiable path could be reconstructed (possible on directed graphs
  /// without incoming adjacency, where a concurrency-stale parent pointer
  /// cannot be repaired by a predecessor scan).
  std::vector<VertexId> Path;
};

/// Thread-pool query engine over one immutable graph snapshot — or, in
/// *live mode*, over a `SnapshotStore` or `ShardedSnapshotStore`: each query
/// pins the latest published version for its lifetime, and
/// `applyUpdates()` publishes the next version without blocking in-flight
/// queries (they finish on the version they pinned). The graph / store
/// must outlive the engine.
template <class StoreT>
class BasicQueryEngine {
public:
  /// The five serving-policy settings (`MaxBatchDelayMicros`,
  /// `AdmissionHighWater`, `AdmissionSoftWater`, `ClassSlo`,
  /// `ControllerIntervalMicros`) are inherited from ServingPolicy::Config.
  struct Options : ServingPolicy::Config {
    Options() {} // usable as a `{}` default argument under GCC 12
    /// Worker threads; 0 = hardware concurrency.
    int NumWorkers = 0;
    /// Schedule for queries that don't carry their own.
    Schedule DefaultSchedule;
    /// Landmarks to precompute for the ALT A* bound; 0 disables the cache
    /// (A* then uses the coordinate heuristic).
    int NumLandmarks = 0;
    /// Maintain parent arrays so queries can return paths.
    bool TrackParents = false;
    /// OpenMP threads *inside* each query's engine run. Serving many
    /// concurrent queries usually wants 1 (parallelism across queries,
    /// not within them); large single queries may want more.
    int OmpThreadsPerQuery = 1;
    /// Fixed-graph mode only: permute the served graph into this
    /// cache-conscious layout at construction (graph/Reorder.h). Queries,
    /// paths, and reached lists keep speaking the caller's original ids —
    /// the engine translates at its boundary. Live mode inherits the
    /// layout (and mapping) of the SnapshotStore instead.
    ReorderKind Reorder = ReorderKind::None;
    /// Live mode: keep up to this many *hot source states* — complete
    /// SSSP solutions keyed by (source, version) in an LRU — and, on
    /// `applyUpdates`, repair them via incremental SSSP (O(affected))
    /// instead of discarding. Queries from a hot source (the serving
    /// common case: the same depots asked again every version) are
    /// answered straight from the repaired state; an SSSP query from a
    /// cold source warms it. 0 disables the cache. Ignored when
    /// `SharedHotCache` is set.
    ///
    /// The repair protocol tracks versions one publish at a time, so any
    /// publish outside applyUpdates drops every cached state; only SSSP
    /// queries re-warm them (PPSP and A* misses do not). A background
    /// compaction publishes that way on both stores, and on
    /// `ShardedSnapshotStore` so does every shard fold, synchronous ones
    /// included: hot states there last until the first fold. Pair the
    /// hot cache with `SnapshotStore` and synchronous compaction (the
    /// store default) for uninterrupted repair.
    int HotSourceCapacity = 0;
    /// Live mode: serve hot states out of this *shared* cache instead of
    /// a private one, so several engines over the same store share warm
    /// sources — a PPSP warm miss on one engine hits a state another
    /// engine computed. All sharing engines must route every update batch
    /// through engine applyUpdates against the same store (the cache
    /// tracks store versions one publish at a time, exactly like the
    /// private cache). Overrides `HotSourceCapacity` when set.
    std::shared_ptr<HotStateCache> SharedHotCache;
  };

  BasicQueryEngine(const Graph &G, Options Opts = {});

  /// Live mode: queries run against `Store.current()`, pinned per query.
  /// With `Options::NumLandmarks > 0` the engine builds an ALT cache once,
  /// from a compacted copy of the construction-time version, and serves it
  /// while every current edge weighs at least its *build weight* and
  /// nothing has been added — true distances can then only have grown, so
  /// the bounds stay admissible and consistent through deletions, weight
  /// increases, and restores back to the build weight. `applyUpdates`
  /// checks each upsert against the build graph
  /// (`LandmarkCache::admits`); the first absent or lighter edge, or any
  /// growth of the universe, retires the cache for good before the store
  /// publishes (A* then falls back to the coordinate heuristic, or plain
  /// PPSP without coordinates). Compactions change nothing. The check
  /// sees only batches applied through this engine — route updates through
  /// the engine, not the store, when landmarks are enabled.
  ///
  /// The coordinate bound is kept the same way: `applyUpdates` checks each
  /// upsert with `aStarAdmits` (weight >= 50 x the endpoints' Euclidean
  /// distance), and the first one it refuses retires the bound for good
  /// before the store publishes; A* then runs as plain PPSP unless
  /// landmarks still serve.
  BasicQueryEngine(StoreT &Store, Options Opts = {});

  ~BasicQueryEngine();

  BasicQueryEngine(const BasicQueryEngine &) = delete;
  BasicQueryEngine &operator=(const BasicQueryEngine &) = delete;

  /// Enqueues \p Q; returns a ticket for collect(). Thread-safe. A query
  /// with an out-of-range source/target is not enqueued: its ticket
  /// resolves immediately to a `QueryStatus::Failed` result. A valid one
  /// goes through ServingPolicy::admit, which may shed it or a pending
  /// query (`QueryStatus::Shed`, resolved right away).
  uint64_t submit(Query Q);

  /// Blocks until the query behind \p Ticket finishes and returns its
  /// result. Each ticket may be collected exactly once; collecting an
  /// unknown or already-collected ticket is a fatal error (it would
  /// otherwise block forever). Thread-safe.
  QueryResult collect(uint64_t Ticket);

  /// Non-fatal sibling of collect(): returns std::nullopt for an unknown
  /// or already-collected ticket instead of aborting. A valid ticket
  /// still blocks until its query finishes — under deadlines and
  /// admission control every submitted query resolves (Ok,
  /// DeadlineExceeded, Shed, or Failed), so the wait is bounded.
  /// Thread-safe.
  std::optional<QueryResult> tryCollect(uint64_t Ticket);

  /// Submits the whole batch and collects the results in input order.
  std::vector<QueryResult> runBatch(const std::vector<Query> &Batch);

  /// Live mode only: applies \p Batch through the snapshot store and
  /// publishes the next version. In-flight queries keep the versions they
  /// pinned; queries submitted after this call see the new one. With a
  /// hot-source cache (`Options::HotSourceCapacity`), every cached state
  /// is repaired to the new version before this returns — repeat-source
  /// queries pay O(affected) per version instead of a fresh run. An upsert
  /// the landmark cache does not admit retires it first (see the live
  /// constructor). Takes no engine lock.
  typename StoreT::ApplyResult
  applyUpdates(const std::vector<EdgeUpdate> &Batch);

  /// Live mode only: grows the vertex universe through the store (see
  /// SnapshotStore::addVertices) and threads the growth through the
  /// engine — worker states and hot states resize, submit() accepts the
  /// new ids, and the landmark cache (sized to the build universe) retires
  /// for good. Route insertions through the engine, not the store, exactly
  /// like update batches.
  VertexId addVertices(Count HowMany,
                       const Coordinates *TailCoords = nullptr);

  /// Live mode only: detaches \p External (deletes every incident edge
  /// through the store — see Store::removeVertex) and recycles its id.
  /// Deletions only grow true distances, so the landmark cache keeps
  /// serving; hot states are repaired from the batch's applied
  /// transitions exactly like applyUpdates. The vertex stays in-universe
  /// (isolated), so in-flight and future queries naming it stay valid.
  /// Takes no engine lock.
  typename StoreT::ApplyResult removeVertex(VertexId External);

  /// Live mode only: pops a freed id (zero-growth reuse, which keeps the
  /// landmark cache serving) or grows the universe by one exactly like
  /// addVertices. See Store::acquireVertex for the reused-coordinate
  /// caveat.
  VertexId acquireVertex(const Coordinates *OneCoord = nullptr);

  /// Freed ids awaiting reuse in the underlying store (live mode; 0 in
  /// fixed-graph mode).
  Count freeVertexCount() const;

  /// True when serving a live store rather than a fixed graph.
  bool isLive() const { return Store != nullptr; }

  /// Hot-source cache counters (live mode; all 0 when disabled).
  /// hotHits() counts *this engine's* cache hits; hotRepairs() and
  /// hotStatesCached() report the backing cache, which is shared-wide
  /// when `Options::SharedHotCache` is set.
  uint64_t hotHits() const;
  uint64_t hotRepairs() const;
  size_t hotStatesCached() const;

  /// The backing hot-state cache (null when disabled) — hand it to other
  /// engines' `Options::SharedHotCache` to share warm sources.
  std::shared_ptr<HotStateCache> hotCache() const { return HotCache; }

  /// Current adaptive batch-formation window (µs); 0 whenever the queue
  /// was last seen drained (see Options::MaxBatchDelayMicros).
  int64_t batchWindowMicros() const;

  /// The ALT cache (null when Options::NumLandmarks == 0), built at
  /// construction and kept for the engine's lifetime — retirement stops
  /// serving it but never replaces it.
  std::shared_ptr<const LandmarkCache> landmarks() const { return Landmarks; }

  /// True while A* queries use the landmark cache: it exists and, in live
  /// mode, no upsert it does not admit and no growth has retired it.
  /// Fixed-graph caches are always usable.
  bool landmarksUsable() const {
    return Landmarks && !LandmarksRetired.load();
  }

  /// True while A* queries may use the coordinate bound: the graph has
  /// coordinates and, in live mode, every upsert so far kept the bound
  /// consistent (`aStarAdmits`).
  bool coordinateBoundUsable() const {
    return HasCoordinates && !CoordinatesRetired.load();
  }

  /// The external-to-internal id mapping in effect (identity unless the
  /// engine or its store reorders).
  const VertexMapping &mapping() const { return *Map; }

  /// Aggregate engine counters over all completed queries.
  OrderedStats aggregateStats() const;

  /// A copy of the serving policy's counters: per-class served, shed,
  /// deadline-exceeded and degraded counts, the (kind, class) degradation
  /// EWMAs, controller activity, the knob values in force (the configured
  /// Options until the controller moves them), and the widest batch
  /// window so far.
  ServingPolicy::Counters policyCounters() const;

  /// Point-in-time copy of one class's end-to-end latency histogram
  /// (Ok completions, submit → publish, microseconds). What the
  /// controller windows; exported for benches and tests. Out-of-range
  /// classes clamp.
  LatencyHistogram::Snapshot classLatencySnapshot(int Class) const;

  /// The most recent controller ticks, oldest first (bounded history —
  /// see ServingPolicy::kControllerTraceCap); empty while the controller
  /// is disabled.
  std::vector<ControllerEvent> controllerTrace() const;

  /// Pending (not yet running) queries right now.
  size_t queueDepth() const;
  /// Worker threads in the pool.
  int numWorkers() const { return static_cast<int>(Workers.size()); }

private:
  void startWorkers();
  void workerLoop();
  QueryResult runOne(const Query &Q, DistanceState &State,
                     const CancelToken *Cancel) const;
  template <typename GraphT>
  QueryResult runOneOn(const GraphT &G, const Query &Q, DistanceState &State,
                       const CancelToken *Cancel) const;

  /// Serves \p QI from a hot source state if one exists at exactly the
  /// pinned version \p Ver (distances are unique, so a repaired state
  /// answers SSSP/PPSP/A* queries bit-identically to a fresh run; the
  /// `Touched` counter reports the full solution's reach, which for
  /// PPSP/A* differs from an early-exited fresh run's engine counter).
  /// A hit costs O(1): `Touched` is the state's kept reach count
  /// (`DistanceState::numReached`), and only `CollectReached` walks the
  /// state's marked lines (`forEachReached`, already in id order). The
  /// copy-out runs lock-free on an immutable shared_ptr
  /// snapshot — repair never mutates a state a reader still references
  /// (it clones). \returns false on miss; results are in internal id
  /// space.
  bool serveFromHot(const Query &QI, uint64_t Ver, QueryResult &R) const;

  /// The growth routine behind addVertices and acquireVertex: runs the
  /// store call \p StoreGrow under GrowthMu and, when the universe grew,
  /// retires the landmark cache, publishes the new size to submit(), and
  /// grows the hot states (each worker's own state grows in runOne).
  template <typename StoreGrowFn>
  VertexId growUniverse(const StoreGrowFn &StoreGrow) EXCLUDES(GrowthMu);

  const Graph *StaticG = nullptr;   ///< fixed-graph mode
  StoreT *Store = nullptr;          ///< live mode
  /// Vertex universe for request validation; grows on addVertices (fixed
  /// graphs never grow). Atomic: submit() races engine-routed insertion.
  std::atomic<Count> NumNodes;
  bool HasCoordinates;              ///< A* feasibility (base coordinates)
  Options Opts;
  std::unique_ptr<Graph> OwnedG;    ///< fixed-graph mode, reordered layout
  VertexMapping OwnMap;             ///< fixed-graph mode mapping storage
  const VertexMapping *Map;         ///< mapping in effect (never null)

  /// The ALT cache: set in the constructor, before any worker starts, and
  /// never reassigned, so workers read it without a lock.
  std::shared_ptr<const LandmarkCache> Landmarks;
  /// One-way: set before the store publishes the first version the cache
  /// might not bound. Pinning and publishing share the store's lock, so a
  /// query that pins that version sees the flag.
  std::atomic<bool> LandmarksRetired{false};
  /// One-way, like LandmarksRetired: set before the store publishes the
  /// first upsert `aStarAdmits` refuses.
  std::atomic<bool> CoordinatesRetired{false};
  /// Serializes engine-routed universe growth, so growUniverse's
  /// before/after size comparison sees only its own store call. (The hot
  /// cache's internal locks are leaves reached from under it via
  /// growAll.)
  Mutex GrowthMu;

  /// Hot source states: a striped (source, version)-keyed cache of warm
  /// SSSP solutions, private to this engine unless the caller passed
  /// `Options::SharedHotCache`. All synchronization lives inside the
  /// cache (brief stripe locks; copy-outs are lock-free on shared_ptr
  /// snapshots). Null when the hot cache is disabled or in fixed-graph
  /// mode.
  std::shared_ptr<HotStateCache> HotCache;
  /// This engine's own hit count (the cache's hits() aggregates every
  /// sharing engine). Atomic: workers serve hits from const runOne.
  mutable std::atomic<uint64_t> HotHits_{0};

  /// The queue mutex. Never nested with the growth or hot-state locks:
  /// workers drop it before running a query and re-take it to publish the
  /// result.
  mutable Mutex Mu;
  std::condition_variable WorkCv;
  std::condition_variable DoneCv;
  /// Admission, degradation, the batch window and the controller, with
  /// the pending queue they decide over.
  ServingPolicy Policy GUARDED_BY(Mu);
  std::unordered_map<uint64_t, QueryResult> Finished GUARDED_BY(Mu);
  /// Issued, not yet collected.
  std::unordered_set<uint64_t> Outstanding GUARDED_BY(Mu);
  uint64_t NextTicket GUARDED_BY(Mu) = 1;
  OrderedStats Aggregate GUARDED_BY(Mu);
  bool ShuttingDown GUARDED_BY(Mu) = false;

  /// Per-class end-to-end latency (Ok completions, submit → publish).
  /// Lock-free histograms: workers record outside Mu; the controller and
  /// the public snapshot getter read via relaxed snapshots.
  std::array<LatencyHistogram, kNumImportanceClasses> ClassLatency;

  std::vector<std::thread> Workers;
};

/// The two stores every serving feature is built and tested against. The
/// engine template is explicitly instantiated for exactly these in
/// QueryEngine.cpp.
extern template class BasicQueryEngine<SnapshotStore>;
extern template class BasicQueryEngine<ShardedSnapshotStore>;

/// The historical name: the engine over the single-writer store.
using QueryEngine = BasicQueryEngine<SnapshotStore>;
/// The engine over the sharded multi-writer store.
using ShardedQueryEngine = BasicQueryEngine<ShardedSnapshotStore>;

} // namespace service
} // namespace graphit

#endif // GRAPHIT_SERVICE_QUERYENGINE_H
