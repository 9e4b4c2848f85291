//===- service/SnapshotStore.h - Versioned live-graph snapshots -*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned snapshot store behind live-graph serving: readers pin
/// immutable, refcounted graph versions while writers apply batched edge
/// updates and publish new ones — queries never block on writes and writes
/// never block on queries.
///
///  * A *snapshot* is a `shared_ptr<const DeltaGraph>` (base CSR + patch
///    overlay, graph/DeltaGraph.h). Pinning is one refcount; a query holds
///    its snapshot for its lifetime and is immune to later publishes.
///  * `applyUpdates` mutates the writer's private overlay, coalesces the
///    per-edge transitions (old → new weight across the whole batch, the
///    form incremental repair consumes), and publishes a copy as the next
///    version. Writers are serialized; readers only ever touch published
///    copies.
///  * Once the overlay exceeds `CompactionThreshold × base edges`, it is
///    compacted into a fresh base CSR — synchronously by default, or on a
///    background thread (`StoreOptions::BackgroundCompaction`) that
///    rebuilds from a pinned snapshot while the writer keeps accepting
///    batches; the intervening batches are replayed onto the new base
///    before it is published. Old versions stay alive until their last
///    reader unpins.
///
/// The vertex universe *grows*: `addVertices` appends fresh ids at the
/// tail (DeltaGraph's appendable tail region) and publishes the grown
/// universe as the next version; worker query states resize lazily
/// (`DistanceState::resize`). Under a reordered layout, tail ids map to
/// themselves in both id spaces (VertexMapping's identity tail).
///
/// `ShardedSnapshotStore` (below) is the scale-out variant: the update
/// stream is partitioned by vertex-range shard, each shard with its own
/// writer mutex, patch overlay, and compaction trigger, so writers on
/// distinct shards only contend on the final (cheap) composite publish —
/// and compaction is per-shard and *incremental* (DeltaGraph segments),
/// so a fold costs O(shard) under one shard lock, not O(V + E) under all.
/// Readers pin one `ShardedDeltaView` — a consistent cross-shard version
/// vector — and run the templated engines directly over it.
///
/// Both stores present one surface: they derive from
/// `detail::StoreCore`, which holds their shared options (`StoreOptions`),
/// the apply result, the published pointer with its version, the health
/// state and the vertex mapping. They differ only in storage layout and
/// fold mechanics. `BasicQueryEngine` (service/QueryEngine.h) is
/// explicitly instantiated for exactly these two stores.
///
/// Operator documentation (compaction failure semantics, option tables
/// for both stores) lives in docs/serving.md; the tables are kept in
/// sync with this header by scripts/check_docs.py (the `docs_check`
/// ctest entry).
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SERVICE_SNAPSHOTSTORE_H
#define GRAPHIT_SERVICE_SNAPSHOTSTORE_H

#include "graph/DeltaGraph.h"
#include "graph/Reorder.h"
#include "support/ThreadSafety.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace graphit {
namespace service {

/// Batch-level outcome of an applyUpdates call (both stores).
enum class ApplyStatus : uint8_t {
  Ok,
  /// Strict mode only: the batch contained a malformed update, nothing
  /// was applied, and no version was published (`Snap` is the unchanged
  /// current version). The offending record is described in `Error`.
  RejectedBatch,
};

/// Settings both stores share. `SnapshotStore::Options` is this struct;
/// `ShardedSnapshotStore::Options` adds only `NumShards`.
struct StoreOptions {
  StoreOptions() {} // usable as a `{}` default argument under GCC 12
  /// Compact once overlayEdges() exceeds this fraction of the base
  /// graph's edges (a sharded store measures each shard against its
  /// slice of them) ...
  double CompactionThreshold = 0.10;
  /// ... and at least this many edges (tiny graphs aren't worth it).
  Count MinOverlayEdges = 1 << 12;
  /// Compact on a background thread (pin, fold, replay the writes that
  /// landed meanwhile) instead of inside the triggering applyUpdates.
  bool BackgroundCompaction = false;
  /// Cache-conscious layout: permute the base graph on construction
  /// (graph/Reorder.h) and serve the permuted CSR internally. Callers
  /// keep speaking original ids: update batches are translated on the
  /// way in (`mapping()` translates results on the way out).
  ReorderKind Reorder = ReorderKind::None;
  /// All-or-nothing batches: reject a batch containing any malformed
  /// update with a typed error (`ApplyStatus::RejectedBatch`) instead
  /// of skipping the bad records and applying the rest.
  bool StrictBatches = false;
};

namespace detail {

/// The store surface both snapshot stores share, over the view type a
/// store publishes (`DeltaGraph` or `ShardedDeltaView`): the options, the
/// apply result, the published pointer and its version, the health state,
/// the compaction count and the vertex mapping, with their getters. Each
/// store keeps its own storage layout, writer locks and fold mechanics;
/// the helpers they share live in SnapshotStore.cpp.
template <class ViewT> class StoreCore {
public:
  /// A pinned, immutable graph version. Holding it keeps the version (and
  /// its base CSR) alive regardless of later publishes or compactions.
  using Snapshot = std::shared_ptr<const ViewT>;

  struct ApplyResult {
    /// Batch-level outcome. A rejected batch carries `Error` and the
    /// unchanged current `Version` and `Snap`; `Applied` and
    /// `CompactionTriggered` are meaningful only for Ok.
    ApplyStatus Status = ApplyStatus::Ok;
    /// Human-readable description of the rejected record (strict mode).
    std::string Error;
    /// Non-empty when a compaction failure is being surfaced, exactly
    /// once: a failure since the previous writer call, or on
    /// `SnapshotStore` the failure of the synchronous compaction this
    /// call ran. The store keeps serving its un-compacted overlay either
    /// way (see degraded()).
    std::string CompactionError;
    /// Version published for this batch.
    uint64_t Version = 0;
    /// Directed, batch-coalesced transitions (at most one per directed
    /// edge: the first old weight to the last new weight), ready for
    /// `repairAfterUpdates`. Empty records (no net change) are dropped.
    /// In *internal* (layout) id space when the store reorders — the same
    /// space the snapshots and any query distance states live in;
    /// translate through `mapping()` for display. Byte-identical across
    /// the two stores for the same batch.
    std::vector<AppliedUpdate> Applied;
    /// The published snapshot, pre-pinned for the caller.
    Snapshot Snap;
    /// True if this batch tripped a compaction trigger (a background or
    /// per-shard fold publishes its own, later version).
    bool CompactionTriggered = false;
  };

  /// The latest published version. Thread-safe, never blocks on writers
  /// beyond the publish pointer swap.
  Snapshot current() const;

  /// The latest published version together with its version number, read
  /// atomically (a separate current() + version() pair can tear across a
  /// concurrent publish). Consumers that cache auxiliary structures per
  /// version (the QueryEngine's hot source states) need the pair.
  std::pair<Snapshot, uint64_t> currentVersioned() const;

  /// Monotonic version counter (0 = the seed base graph).
  uint64_t version() const;

  /// Vertex universe of the latest published version. Thread-safe.
  Count numNodes() const;

  /// External-to-internal vertex-id mapping (identity unless
  /// `StoreOptions::Reorder` was set). Queries and update batches arrive
  /// in external ids; snapshots, applied transitions, and distance states
  /// live in internal ids.
  const VertexMapping &mapping() const { return Map; }

  /// Compactions performed so far (a sharded store counts shard folds).
  uint64_t compactions() const;

  /// Degraded-but-serving: the last compaction failed (after its bounded
  /// retries) and its overlay has not been folded since. Queries keep
  /// running over the un-compacted snapshots. Cleared by the next
  /// successful compaction (a sharded store: once no shard is left
  /// degraded).
  bool degraded() const;

  /// The last compaction failure message ("" when none). Sticky until the
  /// store recovers; independent of the one-shot
  /// ApplyResult::CompactionError surfacing.
  std::string lastError() const;

  /// Freed ids awaiting reuse (see the stores' removeVertex).
  Count freeVertexCount() const;

protected:
  explicit StoreCore(StoreOptions O) : Opts(O) {}
  ~StoreCore() = default;

  /// \p Batch in internal ids: \p Batch itself unless the store reorders,
  /// else a translated copy held in \p Translated. Out-of-range endpoints
  /// pass through untranslated and are skipped (or rejected) later like
  /// any other malformed write.
  const std::vector<EdgeUpdate> &
  toInternal(const std::vector<EdgeUpdate> &Batch,
             std::vector<EdgeUpdate> &Translated) const;
  /// Strict mode: when \p Batch holds an update that is malformed against
  /// a universe of \p N vertices, marks \p R rejected, stamps it with the
  /// unchanged current version, and returns true. Runs before any
  /// mutation, so a rejection publishes nothing.
  bool rejectMalformed(const std::vector<EdgeUpdate> &Batch, Count N,
                       ApplyResult &R) const EXCLUDES(ReadMu);
  /// Moves the one-shot compaction error (if any) into \p R.
  void takePendingError(ApplyResult &R) REQUIRES(ReadMu);
  /// Health bookkeeping. A successful fold counts one compaction and,
  /// once nothing is left degraded (\p Recovered), clears the degraded
  /// flag and the sticky error; a failed one marks the store degraded and
  /// queues \p Message for the next writer call.
  void noteFoldOk(bool Recovered) REQUIRES(ReadMu);
  void noteFoldFailure(const std::string &Message) REQUIRES(ReadMu);
  /// Pops a freed id into \p Out; false when none is waiting.
  bool takeFreed(VertexId &Out) EXCLUDES(ReadMu);

  /// Guards the publish pointer, version counter, health state, and the
  /// mapping's freed-id list.
  mutable Mutex ReadMu;
  Snapshot Current GUARDED_BY(ReadMu);
  uint64_t Version GUARDED_BY(ReadMu) = 0;
  bool Degraded GUARDED_BY(ReadMu) = false;
  std::string LastError GUARDED_BY(ReadMu);
  /// One-shot surfacing on the next writer call.
  std::string PendingError GUARDED_BY(ReadMu);
  uint64_t Compactions GUARDED_BY(ReadMu) = 0;
  /// Permutation tables immutable after construction (read lock-free by
  /// the translate paths); only the freed-id list mutates, under ReadMu.
  VertexMapping Map;
  const StoreOptions Opts;
};

extern template class StoreCore<DeltaGraph>;
extern template class StoreCore<ShardedDeltaView>;

} // namespace detail

/// Versioned publisher of `DeltaGraph` snapshots over one base graph.
class SnapshotStore : public detail::StoreCore<DeltaGraph> {
public:
  using Options = StoreOptions;

  explicit SnapshotStore(Graph Base, Options Opts = {});
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore &) = delete;
  SnapshotStore &operator=(const SnapshotStore &) = delete;

  /// Applies \p Batch and publishes the next version. Serialized across
  /// callers; concurrent readers keep their pinned versions.
  ApplyResult applyUpdates(const std::vector<EdgeUpdate> &Batch);

  /// Grows the vertex universe by \p HowMany fresh vertices and publishes
  /// the next version. \returns the first new id — ids are contiguous and
  /// identical in external and internal space (the tail sits past any
  /// reorder permutation). New vertices start with empty adjacency; on
  /// coordinate-bearing graphs \p TailCoords may supply one (X, Y) per
  /// new vertex (see DeltaGraph::growUniverse for the A* contract).
  VertexId addVertices(Count HowMany,
                       const Coordinates *TailCoords = nullptr);

  /// --- Vertex deletion and id reuse --------------------------------------
  ///
  /// The universe never shrinks (distance states, snapshots and engines
  /// all index by vertex id), but ids *recycle*: `removeVertex` deletes
  /// every incident edge of \p External (publishing the batch like any
  /// other applyUpdates — the Applied records feed incremental repair) and
  /// pushes the id onto the mapping's free list; `acquireVertex` pops a
  /// freed id if one exists — handing back an isolated, in-universe vertex
  /// at zero growth cost — and only grows the universe when the free list
  /// is empty. A removed vertex keeps serving as an isolated vertex, so
  /// distances stay bit-identical to a universe that merely deleted the
  /// same edges; its tombstoned patch row is reclaimed by the next fold
  /// covering it (`DeltaGraph::reclaimedTombstones`).
  ///
  /// On directed graphs without incoming adjacency the store cannot
  /// enumerate in-edges, so only the out-edges are deleted; symmetric and
  /// in-edge-carrying graphs detach fully. A reused id keeps its old
  /// coordinates — callers wiring it back into a coordinate-bearing graph
  /// must pick weights respecting the A* floor of the *existing*
  /// coordinates (or route only PPSP/SSSP at it).
  ApplyResult removeVertex(VertexId External);
  VertexId acquireVertex(const Coordinates *OneCoord = nullptr);

  /// Blocks until no background compaction is in flight (its rebuilt base
  /// is published). No-op in synchronous mode.
  void waitForCompaction();

  /// Bounded wait; returns false if a compaction is still in flight after
  /// \p TimeoutMillis.
  bool waitForCompactionFor(int64_t TimeoutMillis);

private:
  /// Copies the writer overlay into an immutable snapshot and swaps the
  /// publish pointer (the entire read-side critical section). The
  /// REQUIRES contract replaces the old pass-the-unique-lock-as-proof
  /// parameter: the analysis now verifies every caller actually holds
  /// WriteMu.
  void publish() REQUIRES(WriteMu);
  void compactorBody(Snapshot Pinned) EXCLUDES(WriteMu);

  /// Writers always nest the read lock inside the write lock (publish,
  /// failure notes); the analysis owns that ordering.
  Mutex WriteMu ACQUIRED_BEFORE(ReadMu);

  std::condition_variable CompactionCv;
  DeltaGraph Writer GUARDED_BY(WriteMu);
  bool CompactionRunning GUARDED_BY(WriteMu) = false;
  std::thread Compactor GUARDED_BY(WriteMu);
  /// One writer-side operation recorded while a background compaction
  /// runs, replayed onto the rebuilt base before it replaces the writer
  /// overlay. Either an edge batch or a universe growth — growth must
  /// replay too, or batches referencing the new ids would be range-
  /// rejected against the pre-growth rebuild.
  struct ReplayOp {
    std::vector<EdgeUpdate> Batch;
    Count GrowTo = 0; ///< 0 = edge batch; else grow universe to this size
    std::shared_ptr<const Coordinates> TailCoords;
  };
  std::vector<ReplayOp> Replay GUARDED_BY(WriteMu);
};

/// Scale-out snapshot store: the vertex universe is partitioned into
/// contiguous ranges (one per shard; see ShardedDeltaView::shiftFor), and
/// each shard owns a private `DeltaGraph` overlay over the shared base
/// CSR plus its own writer mutex and compaction counter. A batch locks
/// only the shards its endpoints touch — the directed edge (u, v) patches
/// shard(u)'s out-adjacency and shard(v)'s in-adjacency (on symmetric
/// graphs, the reverse edge is shard(v)'s own out-edge) — so writers on
/// disjoint shard sets apply concurrently and only serialize on the final
/// composite pointer swap.
///
/// Readers pin a `ShardedDeltaView` snapshot carrying the cross-shard
/// version vector: per-shard versions bump exactly when that shard's
/// overlay changed, the global version on every publish, and a pinned
/// composite is immutable — so two pins can be compared component-wise
/// (monotone, never torn; the concurrency stress test asserts this).
///
/// Compaction is *per shard and incremental*: a shard that trips its
/// trigger folds its own vertex range — patches included — into a fresh
/// `BaseSegment` that replaces the shard's previous one
/// (DeltaGraph::compactRange) while every other shard keeps serving its
/// existing rows. The fold costs O(shard), holds exactly one
/// shard writer lock (never more — asserted by the fault-isolation stress
/// schedule), and can run on a background thread per shard
/// (`StoreOptions::BackgroundCompaction`): the fold works off a pinned
/// copy, batches accepted meanwhile are recorded in a shard-local replay
/// log and re-applied onto the folded copy before it atomically replaces
/// the writer. A failed fold degrades only that shard; the others keep
/// folding. Batch-level semantics (applied-update coalescing,
/// malformed-write skipping, vertex insertion and removal) are
/// bit-compatible with `SnapshotStore`; the stress harness differentially
/// asserts it.
class ShardedSnapshotStore : public detail::StoreCore<ShardedDeltaView> {
public:
  struct Options : StoreOptions {
    Options() {} // usable as a `{}` default argument under GCC 12
    /// Vertex-range shards (writer concurrency). Clamped to >= 1.
    int NumShards = 8;
  };

  explicit ShardedSnapshotStore(Graph Base, Options Opts = {});
  ~ShardedSnapshotStore();

  ShardedSnapshotStore(const ShardedSnapshotStore &) = delete;
  ShardedSnapshotStore &operator=(const ShardedSnapshotStore &) = delete;

  /// Applies \p Batch and publishes the next version. Callers whose
  /// batches touch disjoint shard sets run concurrently.
  ApplyResult applyUpdates(const std::vector<EdgeUpdate> &Batch);

  /// Grows the universe (all shards in lockstep; tail ids clamp into the
  /// last shard) and publishes. See SnapshotStore::addVertices.
  VertexId addVertices(Count HowMany,
                       const Coordinates *TailCoords = nullptr);

  /// Vertex deletion and id reuse — see the SnapshotStore block comment;
  /// semantics are bit-compatible. Detaching may touch arbitrary neighbor
  /// shards, so removeVertex takes every shard lock (the rare heavyweight
  /// write, like addVertices); the one-shard-lock guarantee is about
  /// *compaction*, which never detaches.
  ApplyResult removeVertex(VertexId External);
  VertexId acquireVertex(const Coordinates *OneCoord = nullptr);

  /// Blocks until no background shard fold is in flight. No-op in
  /// synchronous mode.
  void waitForCompaction();

  int numShards() const { return static_cast<int>(Shards.size()); }
  /// The shard owning vertex \p V (internal id space).
  int shardOf(VertexId V) const;
  /// Vertices per shard (power-of-two span; the last shard also owns the
  /// remainder and any inserted tail).
  Count shardSpan() const { return Count{1} << Shift; }

  /// Per-shard observability: successful incremental folds, the shard's
  /// degraded flag, and (summed across shards) tombstoned patch rows
  /// reclaimed by folds.
  uint64_t shardFolds(int S) const;
  bool shardDegraded(int S) const;
  uint64_t reclaimedTombstones() const;

private:
  /// One writer-side mutation recorded while this shard's background fold
  /// is in flight, replayed onto the folded copy before it replaces the
  /// writer (the sharded analogue of SnapshotStore::ReplayOp — but
  /// element-wise: a batch interleaves out-rows, in-mirrors, and
  /// symmetric reverse rows across shards, so each shard logs exactly the
  /// per-row calls it received).
  struct ShardOp {
    enum class Kind : uint8_t { Out, InMirror, Grow };
    Kind Op = Kind::Out;
    EdgeUpdate U; ///< internal-id row op (Out / InMirror)
    Count GrowTo = 0;
    std::shared_ptr<const Coordinates> TailCoords;
  };

  struct Shard {
    /// Writer lock for this shard's overlay. The fields below are
    /// protected by it, but intentionally carry no GUARDED_BY: shard
    /// locks are acquired as a *runtime-sized* ascending set (see
    /// `DynamicLockSet` in support/ThreadSafety.h), which is beyond what
    /// the static analysis can express — the one audited helper confines
    /// the unanalyzable part, and everything above it stays annotated.
    Mutex Mu;
    DeltaGraph Writer;
    /// Incremental-compaction state (all under Mu). The fold thread takes
    /// only *this* shard's Mu — cross-shard lock coupling in a fold path
    /// is a bug (the fault-isolation stress schedule would deadlock).
    bool Compacting = false;    ///< background fold in flight
    bool FoldScheduled = false; ///< trigger absorbed, fold queued/running
    uint64_t Folds = 0;         ///< successful incremental folds
    bool Degraded = false;      ///< last fold failed, not refolded since
    std::vector<ShardOp> Replay;
    std::thread Compactor;
    std::condition_variable FoldCv;
  };

  /// The writer mutexes of \p ShardIds in the same order — \p ShardIds
  /// must already be the sorted-ascending, deduplicated lock order that
  /// `DynamicLockSet` requires.
  std::vector<Mutex *> shardMutexes(const std::vector<int> &ShardIds);

  /// Publishes a new composite from the current shard writers. Caller
  /// holds the Mu of every shard in \p Touched (sorted) via a
  /// DynamicLockSet; bumps their shard versions and the global version.
  /// It leaves the one-shot compaction error pending: a fold's own
  /// publish drops its result, so only the writer calls that return one
  /// (applyUpdates, removeVertex) take the error.
  ApplyResult publishLocked(const std::vector<int> &Touched,
                            std::vector<AppliedUpdate> Applied)
      EXCLUDES(ReadMu);
  /// Applies one validated update's rows to the owning shard writers
  /// (out, in-mirror, symmetric reverse), collecting Applied transitions
  /// and dirty shard ids, and recording replay ops into any shard whose
  /// background fold is in flight. Caller holds the locks of every shard
  /// the update touches.
  void applyRowLocked(const EdgeUpdate &U, std::vector<AppliedUpdate> &Applied,
                      std::vector<int> &Dirty);
  /// The vertex range shard \p S owns under a universe of \p N vertices:
  /// {first, count}. The last shard runs through N (remainder + inserted
  /// tail); shards past the universe get an empty range.
  std::pair<Count, Count> shardRangeFor(int S, Count N) const;
  /// Synchronous incremental fold of shard \p S: takes that one shard
  /// lock, folds its range into a fresh segment in O(shard), publishes.
  void compactShard(int S) EXCLUDES(ReadMu);
  /// Background variant: pins the shard writer, spawns the fold thread.
  void foldShardAsync(int S) EXCLUDES(ReadMu);
  void foldShardBody(int S, std::shared_ptr<const DeltaGraph> Pinned)
      EXCLUDES(ReadMu);
  /// Fold health bookkeeping; both require the shard's Mu (unannotated —
  /// see Shard).
  void noteShardFoldOk(Shard &Sh) EXCLUDES(ReadMu);
  void noteShardFoldFailure(Shard &Sh, int S, const std::string &Why)
      EXCLUDES(ReadMu);

  /// Per-shard versions of the published composite.
  std::vector<uint64_t> ShardVersions GUARDED_BY(ReadMu);
  /// Shards whose last fold failed (keeps `Degraded` exact without
  /// touching other shards' locks from a fold path).
  int DegradedShards GUARDED_BY(ReadMu) = 0;

  int Shift = 0;          ///< immutable after construction
  bool Symmetric = false; ///< immutable after construction
  bool MirrorsIn = false; ///< directed base carrying incoming adjacency
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace service
} // namespace graphit

#endif // GRAPHIT_SERVICE_SNAPSHOTSTORE_H
