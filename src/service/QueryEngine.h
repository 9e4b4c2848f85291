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
///  * every worker owns a pooled `DistanceState` (epoch-versioned
///    distance/parent arrays), so a query pays O(touched) setup instead of
///    the O(V) infinity-fill a fresh run pays;
///  * an optional `LandmarkCache` (ALT) sharpens the A* bound beyond the
///    coordinate heuristic, shared read-only by all workers;
///  * each query runs through the ordinary ordered engine — eager with
///    fusion, eager, or lazy, selectable per query — one engine run per
///    query, many queries in flight.
///
/// The O(touched) setup applies to the eager engines: the distance array
/// is pooled, and the engine's own bins and round shares grow with the
/// vertices a query pushes, not with V or E. Lazy-schedule queries reuse the
/// pooled distance array but still construct their bucket queue and
/// traversal buffers per run (O(V)); serve latency-sensitive point
/// queries with an eager schedule.
///
/// The API is submit/collect (tickets) with a `runBatch` convenience;
/// results are bit-identical to sequential per-query runs (shortest-path
/// distances are unique, and the early-exit predicates are exact).
///
/// The engine is a template over the *Store* concept (service/Store.h):
/// `BasicQueryEngine<SnapshotStore>` (aliased `QueryEngine`) serves the
/// single-writer store, `BasicQueryEngine<ShardedSnapshotStore>` (aliased
/// `ShardedQueryEngine`) the sharded multi-writer store — one serving
/// implementation, every feature (pooled states, landmarks, hot-state
/// repair and sharing, admission control, deadlines) available over both.
///
/// The operator's guide to the serving tier — every Options knob, the
/// deadline/settled-prefix contract, admission control, adaptive
/// batching, and hot-state sharing — is docs/serving.md; the options
/// tables there are kept in sync with this header by scripts/check_docs.py
/// (the `docs_check` ctest entry).
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SERVICE_QUERYENGINE_H
#define GRAPHIT_SERVICE_QUERYENGINE_H

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/PPSP.h"
#include "core/OrderedProcess.h"
#include "core/Schedule.h"
#include "graph/Graph.h"
#include "service/HotStateCache.h"
#include "service/LandmarkCache.h"
#include "service/SnapshotStore.h"
#include "service/StatePool.h"
#include "service/Store.h"
#include "support/Cancellation.h"
#include "support/LatencyHistogram.h"
#include "support/ThreadSafety.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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

/// Which algorithm a query runs.
enum class QueryKind { SSSP, PPSP, AStar };

/// How a query's lifetime ended. Anything but `Ok` is a *typed, non-fatal*
/// outcome — overload and expiry are expected operating conditions for a
/// serving process, never reasons to crash or to block a caller forever.
enum class QueryStatus : uint8_t {
  Ok,               ///< ran to completion (possibly budget-bounded)
  DeadlineExceeded, ///< interrupted at a round boundary; partial results
  Shed,             ///< rejected by admission control without running
  Failed,           ///< malformed request (out-of-range source/target)
};

/// Importance classes tracked for per-class SLOs, counters, and the
/// degradation EWMA. Queries map to a class through importanceClass():
/// class 0 is the *most* important tier (the ops "tier-0" convention),
/// class kNumImportanceClasses-1 the least. `Query::Importance` keeps its
/// historical meaning (higher = more important, sheds last).
inline constexpr int kNumImportanceClasses = 4;

/// Importance → class index. Importance saturates at
/// kNumImportanceClasses-1, so every importance above that shares class 0
/// and negatives clamp into the least-important class.
inline int importanceClass(int Importance) {
  if (Importance < 0)
    Importance = 0;
  if (Importance >= kNumImportanceClasses)
    Importance = kNumImportanceClasses - 1;
  return kNumImportanceClasses - 1 - Importance;
}

/// One feedback-controller tick, exported through controllerTrace() so
/// benches and tests can print or assert on the trajectory: the windowed
/// per-class p99s the tick observed, the knob values *after* its action,
/// and the action itself.
struct ControllerEvent {
  uint64_t Tick = 0;            ///< 1-based tick ordinal
  int Action = 0;               ///< -1 tightened, 0 held, +1 relaxed
  int64_t BatchDelayMicros = 0; ///< knob values after the action
  uint64_t HighWater = 0;
  uint64_t SoftWater = 0;
  /// Windowed p99 per class since the previous tick (0 = no samples).
  std::array<uint64_t, kNumImportanceClasses> WindowP99Micros{};
  /// Windowed Ok completions per class since the previous tick.
  std::array<uint64_t, kNumImportanceClasses> WindowCount{};
};

/// One point(-to-point) query against the engine's graph snapshot.
struct Query {
  QueryKind Kind = QueryKind::PPSP;
  VertexId Source = 0;
  /// Required for PPSP/A*; ignored for SSSP.
  VertexId Target = kInvalidVertex;
  /// Per-query schedule override; the engine default applies when absent.
  std::optional<Schedule> Sched;
  /// SSSP only: return the (vertex, distance) pairs of every reached
  /// vertex, sorted by vertex id (O(touched log touched) extra work).
  bool CollectReached = false;
  /// PPSP/A* with parent tracking enabled: return the shortest path.
  bool CollectPath = false;
  /// Wall-clock deadline in microseconds, measured from submit() (so time
  /// spent queued counts). 0 = none. An expired query resolves with
  /// `QueryStatus::DeadlineExceeded` and only *settled* partial results —
  /// the engines check the clock once per bucket round, so enforcement
  /// granularity is one round, not one edge relaxation.
  int64_t DeadlineMicros = 0;
  /// PPSP/A* only: stop once every distance below this bound is settled
  /// (the target, if closer, is still reported exactly). A budget stop is
  /// a normal `Ok` completion with `SettledBound` set.
  Priority MaxDistance = kInfiniteDistance;
  /// Admission priority under overload: past the high-water mark the
  /// engine sheds the lowest-importance work first (ties shed the
  /// incoming query). Irrelevant until `Options::AdmissionHighWater`.
  int Importance = 0;
};

/// Result of one query.
struct QueryResult {
  /// How the query ended; see QueryStatus. `DeadlineExceeded` still
  /// carries valid partial results (everything below `SettledBound`).
  QueryStatus Status = QueryStatus::Ok;
  /// True when the query was rejected without running (out-of-range
  /// source/target); every other field is then default-valued. A malformed
  /// request must not take down a serving process. (Mirrors
  /// `Status == QueryStatus::Failed`; kept for existing callers.)
  bool Failed = false;
  /// True when admission control degraded this query (imposed a deadline
  /// derived from recent service times) because the engine was past the
  /// soft-water mark. The result may still be complete (`Ok`).
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
/// *live mode*, over any model of the Store concept (service/Store.h;
/// `SnapshotStore` and `ShardedSnapshotStore` both qualify): each query
/// pins the latest published version for its lifetime, and
/// `applyUpdates()` publishes the next version without blocking in-flight
/// queries (they finish on the version they pinned). The graph / store
/// must outlive the engine.
template <class StoreT>
class BasicQueryEngine {
  static_assert(is_store_v<StoreT>,
                "BasicQueryEngine requires a type modeling the Store "
                "concept (see service/Store.h)");

public:
  struct Options {
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
    /// Root hint for the Bfs ordering, in original ids (see makeOrdering).
    VertexId ReorderSourceHint = 0;
    /// Live mode: keep up to this many *hot source states* — complete
    /// SSSP solutions keyed by (source, version) in an LRU — and, on
    /// `applyUpdates`, repair them via incremental SSSP (O(affected))
    /// instead of discarding. Queries from a hot source (the serving
    /// common case: the same depots asked again every version) are
    /// answered straight from the repaired state; an SSSP query from a
    /// cold source warms it. 0 disables the cache. Ignored when
    /// `SharedHotCache` is set.
    ///
    /// The repair protocol tracks versions one publish at a time, so a
    /// *background* compaction (whose rebuilt base publishes its own
    /// version outside applyUpdates) invalidates the cache until the
    /// sources are re-warmed — pair the hot cache with synchronous
    /// compaction (the store default) for uninterrupted repair.
    int HotSourceCapacity = 0;
    /// Live mode: serve hot states out of this *shared* cache instead of
    /// a private one, so several engines over the same store share warm
    /// sources — a PPSP warm miss on one engine hits a state another
    /// engine computed. All sharing engines must route every update batch
    /// through engine applyUpdates against the same store (the cache
    /// tracks store versions one publish at a time, exactly like the
    /// private cache). Overrides `HotSourceCapacity` when set.
    std::shared_ptr<HotStateCache> SharedHotCache;
    /// Adaptive batch formation (0 disables, the default): when the
    /// pending queue stays non-empty, each worker's batch-formation
    /// window doubles (from a ~50µs floor) up to this many microseconds,
    /// letting it drain several queued queries and publish their results
    /// under one lock acquisition; the moment a worker sees the queue
    /// drained the window collapses back to zero, so an idle engine adds
    /// no latency. Bounds the extra p99 a queued query can pay to one
    /// window. See batchWindowMicros()/maxBatchWindowMicros().
    int64_t MaxBatchDelayMicros = 0;
    /// Largest number of queries one worker runs per formed batch.
    int MaxBatchSize = 16;
    /// Admission control: when the pending queue holds at least this many
    /// queries, submitting one more sheds the lowest-importance pending
    /// query (or the incoming one, on ties) as `QueryStatus::Shed` —
    /// typed, immediate, never silent. 0 disables shedding (unbounded
    /// queue, the historical behavior).
    size_t AdmissionHighWater = 0;
    /// Graceful degradation: when the pending queue holds at least this
    /// many queries, PPSP/A* queries *without their own deadline* get one
    /// imposed — `DegradeFactor` × the EWMA of recent same-kind service
    /// times, floored at `DegradeFloorMicros` — and their results are
    /// marked `Degraded`. Bounded work under pressure beats shedding;
    /// SSSP is exempt (its full solution is what warms the hot cache).
    /// 0 disables degradation.
    size_t AdmissionSoftWater = 0;
    /// Fraction of the recent same-kind service time a degraded query is
    /// allowed (see AdmissionSoftWater).
    double DegradeFactor = 0.5;
    /// Lower bound for an imposed degraded deadline, so cold EWMAs never
    /// degrade queries into zero-work rejections.
    int64_t DegradeFloorMicros = 500;
    /// Per-class p99 latency targets in microseconds, indexed by
    /// importance class (importanceClass(); class 0 = most important).
    /// 0 = no target for that class. A target does two things: soft-water
    /// degradation clamps the imposed deadline to the class target (never
    /// below DegradeFloorMicros), and the feedback controller treats a
    /// targeted class's windowed p99 above its target as an SLO miss.
    std::array<int64_t, kNumImportanceClasses> ClassSlo = {};
    /// Feedback-controller cadence in microseconds; 0 disables the
    /// controller (knobs stay at their configured values). Worker-driven:
    /// ticks piggyback on result publication — no extra thread — so a
    /// fully idle engine ticks only when traffic resumes. Each tick reads
    /// per-class windowed p99s (LatencyHistogram snapshot deltas) and
    /// moves MaxBatchDelayMicros and the admission watermarks AIMD-style:
    /// additive tighten while any targeted class misses its SLO,
    /// multiplicative relax toward the configured values when every
    /// targeted class has slack.
    int64_t ControllerIntervalMicros = 0;
    /// Windowed observations a class needs before its p99 counts as
    /// evidence (for a miss or for slack); thinner windows hold.
    uint64_t ControllerMinSamples = 16;
    /// A targeted class has *slack* when its windowed p99 is below this
    /// fraction of its SLO. Between slack and the SLO is the dead band —
    /// no action — which is what makes the controller settle instead of
    /// oscillating around the target.
    double ControllerSlackFraction = 0.7;
    /// Consecutive all-slack ticks required before each relax step.
    int ControllerHysteresisTicks = 2;
    /// Floor the controller may tighten MaxBatchDelayMicros down to; the
    /// configured value is the matching ceiling. A knob configured 0
    /// (feature disabled) is never controller-enabled.
    int64_t ControllerMinBatchDelayMicros = 0;
    /// Floor for AdmissionHighWater under controller tightening.
    size_t ControllerMinHighWater = 16;
    /// Floor for AdmissionSoftWater under controller tightening.
    size_t ControllerMinSoftWater = 8;
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
  BasicQueryEngine(StoreT &Store, Options Opts = {});

  ~BasicQueryEngine();

  BasicQueryEngine(const BasicQueryEngine &) = delete;
  BasicQueryEngine &operator=(const BasicQueryEngine &) = delete;

  /// Enqueues \p Q; returns a ticket for collect(). Thread-safe. A query
  /// with an out-of-range source/target is not enqueued: its ticket
  /// resolves immediately to a result with `Failed == true`.
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
  /// engine — pooled states and hot states resize, submit() accepts the
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
  /// High-water mark of the window over the engine's lifetime — shows
  /// whether batching ever engaged, without racing its collapse.
  int64_t maxBatchWindowMicros() const;

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

  /// The external-to-internal id mapping in effect (identity unless the
  /// engine or its store reorders).
  const VertexMapping &mapping() const { return *Map; }

  /// Aggregate engine counters over all completed queries.
  OrderedStats aggregateStats() const;
  /// Queries completed so far.
  uint64_t queriesServed() const;
  /// Queries rejected by admission control (Status == Shed).
  uint64_t queriesShed() const;
  /// Queries that resolved DeadlineExceeded (expired queued or mid-run).
  uint64_t deadlinesExceeded() const;
  /// Queries admission control degraded (imposed deadline); counted
  /// whether or not the imposed deadline ended up firing.
  uint64_t queriesDegraded() const;

  /// Per-importance-class views of the counters above (Class =
  /// importanceClass(Importance); out-of-range clamps). The class-less
  /// getters are the sums of these.
  uint64_t queriesServedInClass(int Class) const;
  uint64_t queriesShedInClass(int Class) const;
  uint64_t deadlinesExceededInClass(int Class) const;
  uint64_t queriesDegradedInClass(int Class) const;

  /// The degradation EWMA for one (kind, class) cell, in microseconds
  /// (0 until the first un-degraded Ok completion of that cell). Split by
  /// class so a flood of slow traffic in one class cannot poison the
  /// imposed deadlines of another — the class-isolation regression test
  /// reads this directly.
  double serviceEwmaMicros(QueryKind Kind, int Class) const;

  /// Point-in-time copy of one class's end-to-end latency histogram
  /// (Ok completions, submit → publish, microseconds). What the
  /// controller windows; exported for benches and tests.
  LatencyHistogram::Snapshot classLatencySnapshot(int Class) const;

  /// Feedback-controller observability (all 0 / empty / the configured
  /// knob values while the controller is disabled).
  uint64_t controllerTicks() const;
  uint64_t controllerTightens() const;
  uint64_t controllerRelaxes() const;
  /// The knob values currently in force (equal to the configured
  /// Options while the controller is off or has never acted).
  int64_t currentBatchDelayMicros() const;
  size_t currentHighWater() const;
  size_t currentSoftWater() const;
  /// The most recent controller ticks, oldest first (bounded history —
  /// see kControllerTraceCap in QueryEngine.cpp).
  std::vector<ControllerEvent> controllerTrace() const;

  /// Pending (not yet running) queries right now.
  size_t queueDepth() const;
  /// Worker threads in the pool.
  int numWorkers() const { return static_cast<int>(Workers.size()); }

private:
  struct Task {
    uint64_t Ticket;
    Query Q;
    /// submit() time; deadlines are measured from here so queueing delay
    /// counts against the budget.
    std::chrono::steady_clock::time_point Enqueued;
    /// Effective deadline (the query's own, or one imposed by soft-water
    /// degradation); 0 = none.
    int64_t DeadlineMicros = 0;
    bool Degraded = false;
    /// importanceClass(Q.Importance), computed once at submit.
    int Class = 0;
  };

  void startWorkers();
  void workerLoop();
  /// Worker-driven feedback controller: runs at most one tick per
  /// Options::ControllerIntervalMicros, called from result publication.
  /// No-op while the controller is disabled.
  void maybeControllerTick();
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
  /// (`DistanceState::numReached`), and only `CollectReached` scans the
  /// touched log. The copy-out runs lock-free on an immutable shared_ptr
  /// snapshot — repair never mutates a state a reader still references
  /// (it clones). \returns false on miss; results are in internal id
  /// space.
  bool serveFromHot(const Query &QI, uint64_t Ver, QueryResult &R) const;

  /// The growth routine behind addVertices and acquireVertex: runs the
  /// store call \p StoreGrow under GrowthMu and, when the universe grew,
  /// retires the landmark cache, publishes the new size to submit(), and
  /// grows the pooled and hot states.
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
  StatePool Pool;

  /// The ALT cache: set in the constructor, before any worker starts, and
  /// never reassigned, so workers read it without a lock.
  std::shared_ptr<const LandmarkCache> Landmarks;
  /// One-way: set before the store publishes the first version the cache
  /// might not bound. Pinning and publishing share the store's lock, so a
  /// query that pins that version sees the flag.
  std::atomic<bool> LandmarksRetired{false};
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
  std::deque<Task> Pending GUARDED_BY(Mu);
  std::unordered_map<uint64_t, QueryResult> Finished GUARDED_BY(Mu);
  /// Issued, not yet collected.
  std::unordered_set<uint64_t> Outstanding GUARDED_BY(Mu);
  uint64_t NextTicket GUARDED_BY(Mu) = 1;
  uint64_t Served GUARDED_BY(Mu) = 0;
  OrderedStats Aggregate GUARDED_BY(Mu);
  bool ShuttingDown GUARDED_BY(Mu) = false;

  /// Adaptive batch formation (Options::MaxBatchDelayMicros): the
  /// current per-engine formation window in microseconds. Doubles (from
  /// a ~50µs floor) whenever a worker finishes forming a batch and the
  /// queue is still non-empty; collapses to 0 the moment a worker drains
  /// it, so batching only ever delays queries that would have queued
  /// anyway. BatchWindowMax_ is the lifetime high-water mark (tests
  /// observe it without racing the collapse).
  int64_t BatchWindow_ GUARDED_BY(Mu) = 0;
  int64_t BatchWindowMax_ GUARDED_BY(Mu) = 0;

  /// Overload-behavior counters, split by importance class (the
  /// aggregate getters sum them), and the (kind × class) EWMA of service
  /// times (microseconds; 0 until the first completed query of that
  /// cell). The EWMA only samples un-degraded Ok completions so imposed
  /// deadlines can't feed back into ever-shrinking budgets — and it is
  /// split by class so one slow class can't poison another's imposed
  /// deadlines.
  uint64_t Sheds_[kNumImportanceClasses] GUARDED_BY(Mu) = {};
  uint64_t DeadlineExceeded_[kNumImportanceClasses] GUARDED_BY(Mu) = {};
  uint64_t Degraded_[kNumImportanceClasses] GUARDED_BY(Mu) = {};
  uint64_t ServedClass_[kNumImportanceClasses] GUARDED_BY(Mu) = {};
  /// Indexed [QueryKind][importance class].
  double EwmaMicros[3][kNumImportanceClasses] GUARDED_BY(Mu) = {};

  /// Per-class end-to-end latency (Ok completions, submit → publish).
  /// Lock-free histograms: workers record outside Mu; the controller and
  /// the public snapshot getter read via relaxed snapshots.
  LatencyHistogram ClassLatency_[kNumImportanceClasses];

  /// Feedback-controller state (Options::ControllerIntervalMicros). The
  /// Cur* knobs are the values actually enforced by submit() and the
  /// batch-formation loop; they start at the configured Options values
  /// and stay there while the controller is off.
  int64_t CurBatchDelay_ GUARDED_BY(Mu) = 0;
  size_t CurHighWater_ GUARDED_BY(Mu) = 0;
  size_t CurSoftWater_ GUARDED_BY(Mu) = 0;
  std::chrono::steady_clock::time_point CtlNextTick_ GUARDED_BY(Mu);
  /// Previous tick's per-class snapshots; windowSince() against these
  /// yields the per-interval view without resetting live histograms.
  LatencyHistogram::Snapshot CtlPrev_[kNumImportanceClasses]
      GUARDED_BY(Mu);
  int CtlSlackStreak_ GUARDED_BY(Mu) = 0;
  uint64_t CtlTicks_ GUARDED_BY(Mu) = 0;
  uint64_t CtlTightens_ GUARDED_BY(Mu) = 0;
  uint64_t CtlRelaxes_ GUARDED_BY(Mu) = 0;
  std::deque<ControllerEvent> CtlTrace_ GUARDED_BY(Mu);

  std::vector<std::thread> Workers;
};

/// The two stores every serving feature is built and tested against. The
/// engine template is explicitly instantiated for exactly these in
/// QueryEngine.cpp; a custom store needs its own explicit instantiation
/// (or the definitions pulled into a header).
extern template class BasicQueryEngine<SnapshotStore>;
extern template class BasicQueryEngine<ShardedSnapshotStore>;

/// The historical name: the engine over the single-writer store.
using QueryEngine = BasicQueryEngine<SnapshotStore>;
/// The engine over the sharded multi-writer store.
using ShardedQueryEngine = BasicQueryEngine<ShardedSnapshotStore>;

} // namespace service
} // namespace graphit

#endif // GRAPHIT_SERVICE_QUERYENGINE_H
