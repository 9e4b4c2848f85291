//===- service/SnapshotStore.cpp - Versioned live-graph snapshots ---------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/SnapshotStore.h"

#include "support/FailPoint.h"

#include <algorithm>
#include <chrono>
#include <utility>

using namespace graphit;
using namespace graphit::service;
using namespace graphit::service::detail;

namespace {

/// Bounded retries for snapshot publication. Publication allocates (the
/// overlay copy), so a transient failure — or the `snapshot.publish` fail
/// point — is retried; read-side state mutates only after the fallible
/// part succeeded, so a failed attempt changes nothing.
constexpr int kPublishRetryLimit = 64;

/// Bounded retries for a failed background fold or replay step (transient
/// faults — allocation failure, injected fail points). A fault that
/// outlasts them leaves the store degraded-but-serving.
constexpr int kFoldRetryLimit = 3;

/// Builds the next published view with \p Make, retrying transient
/// failures; rethrows after kPublishRetryLimit retries.
template <class MakeFn> auto retryPublish(const MakeFn &Make) {
  for (int Attempt = 0;; ++Attempt) {
    try {
      GRAPHIT_FAIL_POINT("snapshot.publish");
      return Make();
    } catch (const std::exception &) {
      if (Attempt >= kPublishRetryLimit)
        throw;
    }
  }
}

/// Runs one background fold or replay step until it returns without
/// throwing, retrying at once at most kFoldRetryLimit times. Nothing
/// escapes (an exception leaving a fold thread would std::terminate): a
/// failed attempt's message lands in \p Err. Every attempt starts from
/// scratch, so a half-done one never leaks. \returns whether one succeeded.
template <class StepFn>
bool retryBounded(const StepFn &Step, std::string &Err) {
  for (int Attempt = 0; Attempt <= kFoldRetryLimit; ++Attempt) {
    try {
      Step();
      return true;
    } catch (const std::exception &E) {
      Err = E.what();
    } catch (...) {
      Err = "unknown compaction error";
    }
  }
  return false;
}

/// The deletes that detach \p V (internal id) in \p Owner, the overlay
/// holding its rows: every out-edge, plus the in-edges on a directed graph
/// that carries them (symmetric graphs detach both directions from the
/// out-row alone). Materialized before any is applied, since the neighbor
/// ranges point into the rows being deleted.
std::vector<EdgeUpdate> incidentDeletes(const DeltaGraph &Owner, VertexId V) {
  std::vector<EdgeUpdate> Deletes;
  for (WNode E : Owner.outNeighbors(V))
    Deletes.push_back(EdgeUpdate{V, E.V, 0, UpdateKind::Delete});
  if (!Owner.isSymmetric() && Owner.hasInEdges())
    for (WNode E : Owner.inNeighbors(V))
      Deletes.push_back(EdgeUpdate{E.V, V, 0, UpdateKind::Delete});
  return Deletes;
}

/// Describes the first malformed record of a strict-mode rejected batch.
std::string describeRejected(const EdgeUpdate &U, size_t Index) {
  return "rejected batch: malformed update #" + std::to_string(Index) +
         " (" + std::to_string(U.Src) + " -> " + std::to_string(U.Dst) +
         ", w=" + std::to_string(U.W) + ")";
}

} // namespace

//===----------------------------------------------------------------------===//
// StoreCore: what both stores share
//===----------------------------------------------------------------------===//

template <class ViewT>
typename StoreCore<ViewT>::Snapshot StoreCore<ViewT>::current() const {
  MutexLock Lock(ReadMu);
  return Current;
}

template <class ViewT>
std::pair<typename StoreCore<ViewT>::Snapshot, uint64_t>
StoreCore<ViewT>::currentVersioned() const {
  MutexLock Lock(ReadMu);
  return {Current, Version};
}

template <class ViewT> uint64_t StoreCore<ViewT>::version() const {
  MutexLock Lock(ReadMu);
  return Version;
}

template <class ViewT> Count StoreCore<ViewT>::numNodes() const {
  MutexLock Lock(ReadMu);
  return Current->numNodes();
}

template <class ViewT> uint64_t StoreCore<ViewT>::compactions() const {
  MutexLock Lock(ReadMu);
  return Compactions;
}

template <class ViewT> bool StoreCore<ViewT>::degraded() const {
  MutexLock Lock(ReadMu);
  return Degraded;
}

template <class ViewT> std::string StoreCore<ViewT>::lastError() const {
  MutexLock Lock(ReadMu);
  return LastError;
}

template <class ViewT> Count StoreCore<ViewT>::freeVertexCount() const {
  MutexLock Lock(ReadMu);
  return Map.freeCount();
}

template <class ViewT>
const std::vector<EdgeUpdate> &
StoreCore<ViewT>::toInternal(const std::vector<EdgeUpdate> &Batch,
                             std::vector<EdgeUpdate> &Translated) const {
  // The snapshots, applied transitions, and any repaired distance states
  // all live in internal (layout) ids.
  if (Map.isIdentity())
    return Batch;
  Translated = Batch;
  for (EdgeUpdate &U : Translated) {
    U.Src = Map.toInternal(U.Src);
    U.Dst = Map.toInternal(U.Dst);
  }
  return Translated;
}

template <class ViewT>
bool StoreCore<ViewT>::rejectMalformed(const std::vector<EdgeUpdate> &Batch,
                                       Count N, ApplyResult &R) const {
  if (!Opts.StrictBatches)
    return false;
  for (size_t I = 0; I < Batch.size(); ++I) {
    if (DeltaGraph::validUpdate(Batch[I], N))
      continue;
    R.Status = ApplyStatus::RejectedBatch;
    R.Error = describeRejected(Batch[I], I);
    MutexLock Lock(ReadMu);
    R.Version = Version;
    R.Snap = Current;
    return true;
  }
  return false;
}

template <class ViewT>
void StoreCore<ViewT>::takePendingError(ApplyResult &R) {
  if (PendingError.empty())
    return;
  R.CompactionError = std::move(PendingError);
  PendingError.clear();
}

template <class ViewT> void StoreCore<ViewT>::noteFoldOk(bool Recovered) {
  ++Compactions;
  if (Recovered) {
    Degraded = false;
    LastError.clear();
  }
}

template <class ViewT>
void StoreCore<ViewT>::noteFoldFailure(const std::string &Message) {
  Degraded = true;
  LastError = Message;
  PendingError = Message;
}

template <class ViewT> bool StoreCore<ViewT>::takeFreed(VertexId &Out) {
  MutexLock Lock(ReadMu);
  return Map.takeFreed(Out);
}

namespace graphit {
namespace service {
namespace detail {
template class StoreCore<DeltaGraph>;
template class StoreCore<ShardedDeltaView>;
} // namespace detail
} // namespace service
} // namespace graphit

//===----------------------------------------------------------------------===//
// SnapshotStore
//===----------------------------------------------------------------------===//

SnapshotStore::SnapshotStore(Graph Base, Options O) : StoreCore(O) {
  // Reorder-on-load before the base CSR is frozen (no-op move for None).
  Writer = DeltaGraph(std::make_shared<const Graph>(
      reorderLoadedGraph(std::move(Base), Opts.Reorder, &Map)));
  Current = std::make_shared<const DeltaGraph>(Writer);
}

SnapshotStore::~SnapshotStore() {
  waitForCompaction();
  if (Compactor.joinable())
    Compactor.join();
}

void SnapshotStore::publish() {
  // Caller holds WriteMu (REQUIRES(WriteMu) on the declaration): Writer is
  // stable, so copying it into an immutable snapshot and swapping the
  // publish pointer is the entire read-side critical section.
  const DeltaGraph &Stable = Writer;
  Snapshot Snap =
      retryPublish([&] { return std::make_shared<const DeltaGraph>(Stable); });
  MutexLock Lock(ReadMu);
  Current = std::move(Snap);
  ++Version;
}

SnapshotStore::ApplyResult
SnapshotStore::applyUpdates(const std::vector<EdgeUpdate> &Batch) {
  MutexLock WriterLock(WriteMu);
  ApplyResult R;

  // Surface a background-compaction failure exactly once, on the first
  // writer call after it happened (the sticky form stays in lastError()).
  {
    MutexLock Lock(ReadMu);
    takePendingError(R);
  }

  std::vector<EdgeUpdate> Translated;
  const std::vector<EdgeUpdate> &Apply = toInternal(Batch, Translated);
  if (rejectMalformed(Apply, Writer.numNodes(), R))
    return R;

  R.Applied = coalesceApplied(Writer.apply(Apply));

  if (CompactionRunning)
    Replay.push_back(ReplayOp{Apply, 0, nullptr});

  // Compaction bookkeeping before publishing, so a synchronous compaction
  // is part of the same published version.
  const Count Overlay = Writer.overlayEdges();
  const bool OverThreshold =
      Overlay >= Opts.MinOverlayEdges &&
      static_cast<double>(Overlay) >
          Opts.CompactionThreshold *
              static_cast<double>(Writer.base().numEdges());
  if (OverThreshold && !CompactionRunning) {
    R.CompactionTriggered = true;
    if (!Opts.BackgroundCompaction) {
      try {
        GRAPHIT_FAIL_POINT("compaction.rebuild");
        Writer = DeltaGraph(std::make_shared<const Graph>(Writer.compact()));
        MutexLock Lock(ReadMu);
        noteFoldOk(true);
      } catch (const std::exception &E) {
        // Failed fold: the un-compacted overlay keeps serving and the
        // next threshold trip retries. Surfaced on this very result (the
        // pending slot is cleared so it is not reported twice).
        MutexLock Lock(ReadMu);
        noteFoldFailure(std::string("compaction failed: ") + E.what());
        takePendingError(R);
      }
    } else {
      if (Compactor.joinable())
        Compactor.join(); // previous compactor already finished
      CompactionRunning = true;
      Replay.clear();
      // Pin the writer's exact content for the compactor; readers are
      // unaffected (they pin published versions).
      Snapshot Pinned = std::make_shared<const DeltaGraph>(Writer);
      Compactor = std::thread([this, Pinned = std::move(Pinned)]() mutable {
        compactorBody(std::move(Pinned));
      });
    }
  }

  publish();
  {
    MutexLock Lock(ReadMu);
    R.Version = Version;
    R.Snap = Current;
  }
  return R;
}

void SnapshotStore::compactorBody(Snapshot Pinned) {
  // A terminal failure downgrades to "keep serving the pre-compaction
  // state, surface the error on the next writer call".
  //
  // Phase 1: the expensive O(V + E) rebuild, with no lock held.
  std::string Err;
  std::shared_ptr<const Graph> NewBase;
  retryBounded(
      [&] {
        GRAPHIT_FAIL_POINT("compaction.rebuild");
        NewBase = std::make_shared<const Graph>(Pinned->compact());
      },
      Err);
  Pinned.reset();

  MutexLock WriterLock(WriteMu);
  // Phase 2: replay the writer-side operations accepted while we were
  // compacting onto the new base. Upsert/delete/growth semantics are
  // deterministic, so the result equals the writer's current adjacency
  // with an (almost) empty overlay. Universe growth replays too —
  // otherwise a later batch referencing the new ids would be
  // range-rejected. Each attempt replays onto a fresh overlay over the
  // rebuilt base.
  const std::vector<ReplayOp> &Ops = Replay;
  DeltaGraph Rebuilt;
  auto ReplayOnto = [&] {
    DeltaGraph Next(NewBase);
    for (const ReplayOp &Op : Ops) {
      GRAPHIT_FAIL_POINT("compaction.replay");
      if (Op.GrowTo > 0)
        Next.growUniverse(Op.GrowTo, Op.TailCoords.get());
      else
        Next.apply(Op.Batch);
    }
    Rebuilt = std::move(Next);
  };
  const bool Ok = NewBase && retryBounded(ReplayOnto, Err);
  if (Ok)
    Writer = std::move(Rebuilt);

  Replay.clear();
  CompactionRunning = false;
  if (Ok) {
    {
      MutexLock Lock(ReadMu);
      noteFoldOk(true);
    }
    try {
      publish();
    } catch (...) {
      // Publication failed terminally: the compacted writer state is
      // intact and the next writer call publishes it — readers just keep
      // the previous version a little longer.
    }
  } else {
    // Fallback: the pre-compaction writer (already holding every replayed
    // batch) stays authoritative and published — serving never stalls on
    // the failed fold. The failure is surfaced on the next writer call.
    MutexLock Lock(ReadMu);
    noteFoldFailure("background compaction failed: " + Err);
  }
  CompactionCv.notify_all();
}

void SnapshotStore::waitForCompaction() {
  // Explicit wait loop (not the predicate-lambda overload): the analysis
  // is intra-procedural, so the guarded CompactionRunning read stays in a
  // scope where WriteMu is visibly held.
  MutexLock WriterLock(WriteMu);
  while (CompactionRunning)
    CompactionCv.wait(WriterLock.native());
}

bool SnapshotStore::waitForCompactionFor(int64_t TimeoutMillis) {
  MutexLock WriterLock(WriteMu);
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(TimeoutMillis);
  while (CompactionRunning) {
    if (CompactionCv.wait_until(WriterLock.native(), Deadline) ==
        std::cv_status::timeout)
      return !CompactionRunning;
  }
  return true;
}

VertexId SnapshotStore::addVertices(Count HowMany,
                                    const Coordinates *TailCoords) {
  MutexLock WriterLock(WriteMu);
  VertexId First = static_cast<VertexId>(Writer.numNodes());
  if (HowMany <= 0)
    return First; // nothing to grow; no version published
  const Count GrowTo = Writer.numNodes() + HowMany;
  Writer.growUniverse(GrowTo, TailCoords);
  if (CompactionRunning)
    Replay.push_back(ReplayOp{
        {},
        GrowTo,
        TailCoords ? std::make_shared<Coordinates>(*TailCoords) : nullptr});
  publish();
  return First;
}

SnapshotStore::ApplyResult SnapshotStore::removeVertex(VertexId External) {
  MutexLock WriterLock(WriteMu);
  ApplyResult R;
  {
    MutexLock Lock(ReadMu);
    takePendingError(R);
  }
  const VertexId V = Map.toInternal(External);
  if (static_cast<Count>(V) >= Writer.numNodes()) {
    MutexLock Lock(ReadMu);
    R.Version = Version;
    R.Snap = Current; // out-of-range id: no-op, nothing published
    return R;
  }

  // Push the incident deletes through the normal batch path, so the
  // Applied transitions, replay recording, and publish are exactly what
  // the equivalent delete batch would produce. The id stays in the
  // universe as an isolated vertex.
  std::vector<EdgeUpdate> Deletes = incidentDeletes(Writer, V);
  R.Applied = coalesceApplied(Writer.apply(Deletes));
  if (CompactionRunning)
    Replay.push_back(ReplayOp{std::move(Deletes), 0, nullptr});
  publish();
  MutexLock Lock(ReadMu);
  R.Version = Version;
  R.Snap = Current;
  Map.recordFreed(External);
  return R;
}

VertexId SnapshotStore::acquireVertex(const Coordinates *OneCoord) {
  VertexId Freed = 0;
  if (takeFreed(Freed))
    return Freed; // already an isolated in-universe vertex; no publish
  return addVertices(1, OneCoord);
}

//===----------------------------------------------------------------------===//
// ShardedSnapshotStore
//===----------------------------------------------------------------------===//

ShardedSnapshotStore::ShardedSnapshotStore(Graph Base, Options O)
    : StoreCore(O) {
  const int NumShards = std::max(1, O.NumShards);
  auto BasePtr = std::make_shared<const Graph>(
      reorderLoadedGraph(std::move(Base), Opts.Reorder, &Map));
  Shift = ShardedDeltaView::shiftFor(BasePtr->numNodes(), NumShards);
  Symmetric = BasePtr->isSymmetric();
  MirrorsIn = !Symmetric && BasePtr->hasInEdges();
  Shards.reserve(static_cast<size_t>(NumShards));
  std::vector<std::shared_ptr<const DeltaGraph>> Snaps;
  for (int S = 0; S < NumShards; ++S) {
    auto Sh = std::make_unique<Shard>();
    Sh->Writer = DeltaGraph(BasePtr);
    Snaps.push_back(std::make_shared<const DeltaGraph>(Sh->Writer));
    Shards.push_back(std::move(Sh));
  }
  ShardVersions.assign(Shards.size(), 0);
  auto View = std::make_shared<ShardedDeltaView>(std::move(Snaps), Shift);
  View->setVersions(0, ShardVersions);
  Current = std::move(View);
}

ShardedSnapshotStore::~ShardedSnapshotStore() {
  waitForCompaction();
  for (auto &ShPtr : Shards) {
    std::thread Done;
    {
      MutexLock Lock(ShPtr->Mu);
      Done = std::move(ShPtr->Compactor);
    }
    if (Done.joinable())
      Done.join();
  }
}

void ShardedSnapshotStore::waitForCompaction() {
  // One shard at a time — never two shard locks at once, even here.
  for (auto &ShPtr : Shards) {
    MutexLock Lock(ShPtr->Mu);
    while (ShPtr->Compacting)
      ShPtr->FoldCv.wait(Lock.native());
  }
}

uint64_t ShardedSnapshotStore::shardFolds(int S) const {
  Shard &Sh = *Shards[static_cast<size_t>(S)];
  MutexLock Lock(Sh.Mu);
  return Sh.Folds;
}

bool ShardedSnapshotStore::shardDegraded(int S) const {
  Shard &Sh = *Shards[static_cast<size_t>(S)];
  MutexLock Lock(Sh.Mu);
  return Sh.Degraded;
}

uint64_t ShardedSnapshotStore::reclaimedTombstones() const {
  uint64_t Total = 0;
  for (auto &ShPtr : Shards) {
    MutexLock Lock(ShPtr->Mu);
    Total += ShPtr->Writer.reclaimedTombstones();
  }
  return Total;
}

std::vector<Mutex *>
ShardedSnapshotStore::shardMutexes(const std::vector<int> &ShardIds) {
  std::vector<Mutex *> Mus;
  Mus.reserve(ShardIds.size());
  for (int S : ShardIds)
    Mus.push_back(&Shards[static_cast<size_t>(S)]->Mu);
  return Mus;
}

int ShardedSnapshotStore::shardOf(VertexId V) const {
  Count S = static_cast<Count>(V) >> Shift;
  return static_cast<int>(
      std::min<Count>(S, static_cast<Count>(Shards.size()) - 1));
}

ShardedSnapshotStore::ApplyResult
ShardedSnapshotStore::publishLocked(const std::vector<int> &Touched,
                                    std::vector<AppliedUpdate> Applied) {
  // Caller holds the writer mutex of every shard in Touched, so copying
  // those writers into immutable snapshots here is race-free; untouched
  // shards keep the pointers of the previous composite (read under ReadMu,
  // which also makes the version vector update atomic with the swap).
  ApplyResult R;
  R.Applied = std::move(Applied);
  MutexLock Lock(ReadMu);
  // Publication is all-or-nothing: every fallible step (the snapshot
  // copies and the composite view) runs before any version state mutates,
  // so a failed attempt leaves the versions and the composite untouched.
  const std::vector<std::shared_ptr<const DeltaGraph>> &Prev =
      Current->shards();
  std::shared_ptr<ShardedDeltaView> View = retryPublish([&] {
    std::vector<std::shared_ptr<const DeltaGraph>> Snaps = Prev;
    for (int S : Touched)
      Snaps[static_cast<size_t>(S)] = std::make_shared<const DeltaGraph>(
          Shards[static_cast<size_t>(S)]->Writer);
    return std::make_shared<ShardedDeltaView>(std::move(Snaps), Shift);
  });
  for (int S : Touched)
    ++ShardVersions[static_cast<size_t>(S)];
  ++Version;
  View->setVersions(Version, ShardVersions);
  Current = std::move(View);
  R.Version = Version;
  R.Snap = Current;
  return R;
}

ShardedSnapshotStore::ApplyResult
ShardedSnapshotStore::applyUpdates(const std::vector<EdgeUpdate> &Batch) {
  std::vector<EdgeUpdate> Translated;
  const std::vector<EdgeUpdate> &Apply = toInternal(Batch, Translated);

  // Involved shards: shard(src) always (out-adjacency); shard(dst) when a
  // mirror or symmetric reverse edge will land there. Computed without any
  // lock — shardOf clamps arbitrary ids, and the universe size is only
  // read once a shard lock pins it.
  const bool NeedDst = Symmetric || MirrorsIn;
  std::vector<int> Touched;
  Touched.reserve(Apply.size() * (NeedDst ? 2 : 1));
  for (const EdgeUpdate &U : Apply) {
    Touched.push_back(shardOf(U.Src));
    if (NeedDst)
      Touched.push_back(shardOf(U.Dst));
  }
  std::sort(Touched.begin(), Touched.end());
  Touched.erase(std::unique(Touched.begin(), Touched.end()), Touched.end());

  // Lock involved shards in ascending order (deadlock-free total order),
  // held through the publish so versions of one shard can never regress.
  // A simulated acquisition failure (the `shard.lock` fail point) makes
  // DynamicLockSet release everything taken and retry the whole set.
  DynamicLockSet ShardLocks(shardMutexes(Touched), "shard.lock");

  // Any held shard lock pins the universe size (growth takes them all);
  // an empty batch locks nothing and applies nothing.
  const Count N = Touched.empty()
                      ? 0
                      : Shards[static_cast<size_t>(Touched.front())]
                            ->Writer.numNodes();

  // Strict mode validates the whole batch before mutating any shard, so a
  // poisoned batch rejects atomically — bit-compatible with the unsharded
  // store (same batches rejected, no version published).
  ApplyResult Rejected;
  if (rejectMalformed(Apply, N, Rejected)) {
    MutexLock Lock(ReadMu);
    takePendingError(Rejected);
    return Rejected; // ShardLocks releases on scope exit
  }

  // Shards whose overlay actually changed: the version-vector contract is
  // "bump exactly when that shard changed", so a locked shard that only
  // saw no-ops (same-weight upserts, deletes of missing edges, malformed
  // writes) is neither re-snapshotted nor bumped.
  std::vector<int> Dirty;
  std::vector<AppliedUpdate> Applied;
  Applied.reserve(Apply.size() * (Symmetric ? 2 : 1));
  for (const EdgeUpdate &U : Apply) {
    if (DeltaGraph::validUpdate(U, N)) // malformed write: skip it
      applyRowLocked(U, Applied, Dirty);
  }
  std::sort(Dirty.begin(), Dirty.end());
  Dirty.erase(std::unique(Dirty.begin(), Dirty.end()), Dirty.end());

  // Per-shard compaction triggers, measured against the shard's slice of
  // the shared base; each tripped shard is absorbed into at most one
  // queued fold (FoldScheduled).
  std::vector<int> TriggeredShards;
  for (int S : Dirty) {
    Shard &Sh = *Shards[static_cast<size_t>(S)];
    const Count Overlay = Sh.Writer.overlayEdges();
    const Count BaseSlice =
        Sh.Writer.base().numEdges() / static_cast<Count>(Shards.size());
    if (Overlay >= Opts.MinOverlayEdges &&
        static_cast<double>(Overlay) >
            Opts.CompactionThreshold * static_cast<double>(BaseSlice) &&
        !Sh.FoldScheduled && !Sh.Compacting) {
      Sh.FoldScheduled = true;
      TriggeredShards.push_back(S);
    }
  }

  ApplyResult R = publishLocked(Dirty, coalesceApplied(Applied));

  ShardLocks.release();

  // Incremental per-shard folds, each under exactly one shard lock.
  // Synchronous folds publish their own (later) version; background
  // folds publish when the fold thread finishes — either way this
  // batch's snapshot is the pre-fold one, as with the unsharded
  // store's background compaction.
  for (int S : TriggeredShards) {
    if (Opts.BackgroundCompaction)
      foldShardAsync(S);
    else
      compactShard(S);
  }
  R.CompactionTriggered = !TriggeredShards.empty();
  // Surface a fold failure exactly once: this batch's own synchronous
  // folds have run, so their failure lands here; a background fold's
  // lands on a later writer call. Fold publishes leave the slot alone.
  MutexLock Lock(ReadMu);
  takePendingError(R);
  return R;
}

void ShardedSnapshotStore::applyRowLocked(const EdgeUpdate &U,
                                          std::vector<AppliedUpdate> &Applied,
                                          std::vector<int> &Dirty) {
  // Caller holds the writer lock of every shard U touches. Every
  // effective row op lands in the replay log of a shard whose background
  // fold is in flight, so the folded copy converges to the writer.
  auto Record = [&](int S, ShardOp::Kind K, const EdgeUpdate &Row) {
    Shard &Sh = *Shards[static_cast<size_t>(S)];
    if (Sh.Compacting)
      Sh.Replay.push_back(ShardOp{K, Row, 0, nullptr});
  };
  const int SrcS = shardOf(U.Src);
  DeltaGraph &SrcW = Shards[static_cast<size_t>(SrcS)]->Writer;
  AppliedUpdate A = SrcW.applyShardOut(U.Src, U.Dst, U.W, U.Kind);
  if (A.OldW != kAbsentEdge || A.NewW != kAbsentEdge) {
    Applied.push_back(A);
    Dirty.push_back(SrcS);
    Record(SrcS, ShardOp::Kind::Out, U);
    if (MirrorsIn) {
      const int DstS = shardOf(U.Dst);
      Shards[static_cast<size_t>(DstS)]->Writer.applyShardInMirror(
          U.Src, U.Dst, U.W, U.Kind);
      Dirty.push_back(DstS);
      Record(DstS, ShardOp::Kind::InMirror, U);
    }
  }
  if (Symmetric) {
    const int DstS = shardOf(U.Dst);
    DeltaGraph &DstW = Shards[static_cast<size_t>(DstS)]->Writer;
    AppliedUpdate B = DstW.applyShardOut(U.Dst, U.Src, U.W, U.Kind);
    if (B.OldW != kAbsentEdge || B.NewW != kAbsentEdge) {
      Applied.push_back(B);
      Dirty.push_back(DstS);
      Record(DstS, ShardOp::Kind::Out, EdgeUpdate{U.Dst, U.Src, U.W, U.Kind});
    }
  }
}

VertexId ShardedSnapshotStore::addVertices(Count HowMany,
                                           const Coordinates *TailCoords) {
  // Universe growth is store-wide state: every shard's overlay must agree
  // on the node count (range checks, coordinate extents), so insertion
  // takes every shard lock. It is the rare, heavyweight operation of the
  // write path — edge batches on disjoint shards stay concurrent.
  std::vector<int> All(Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I)
    All[I] = static_cast<int>(I);
  DynamicLockSet ShardLocks(shardMutexes(All), "shard.lock");
  VertexId First = static_cast<VertexId>(Shards.front()->Writer.numNodes());
  if (HowMany > 0) {
    const Count GrowTo = static_cast<Count>(First) + HowMany;
    std::shared_ptr<const Coordinates> Tail =
        TailCoords ? std::make_shared<Coordinates>(*TailCoords) : nullptr;
    for (auto &S : Shards) {
      S->Writer.growUniverse(GrowTo, TailCoords);
      // Growth replays onto any in-flight fold copy, or later replayed
      // batches referencing the new ids would be range-rejected.
      if (S->Compacting)
        S->Replay.push_back(
            ShardOp{ShardOp::Kind::Grow, EdgeUpdate{}, GrowTo, Tail});
    }
    publishLocked(All, {});
  }
  return First;
}

std::pair<Count, Count> ShardedSnapshotStore::shardRangeFor(int S,
                                                            Count N) const {
  const uint64_t Span = static_cast<uint64_t>(shardSpan());
  const Count First = static_cast<Count>(
      std::min<uint64_t>(static_cast<uint64_t>(S) * Span, N));
  const Count Next =
      S + 1 == numShards()
          ? N
          : static_cast<Count>(
                std::min<uint64_t>(static_cast<uint64_t>(First) + Span, N));
  return {First, Next - First};
}

void ShardedSnapshotStore::noteShardFoldOk(Shard &Sh) {
  ++Sh.Folds;
  const bool WasDegraded = Sh.Degraded;
  Sh.Degraded = false;
  MutexLock Lock(ReadMu);
  DegradedShards -= WasDegraded ? 1 : 0;
  noteFoldOk(DegradedShards == 0);
}

void ShardedSnapshotStore::noteShardFoldFailure(Shard &Sh, int S,
                                                const std::string &Why) {
  const bool WasDegraded = Sh.Degraded;
  Sh.Degraded = true;
  MutexLock Lock(ReadMu);
  DegradedShards += WasDegraded ? 0 : 1;
  noteFoldFailure("shard " + std::to_string(S) + " compaction failed: " +
                  Why);
}

void ShardedSnapshotStore::compactShard(int S) {
  Shard &Sh = *Shards[static_cast<size_t>(S)];
  // Exactly one shard writer lock for the whole fold — the incremental
  // compaction guarantee. Everything below nests only ReadMu inside it,
  // the same order publishLocked always uses.
  MutexLock Lock(Sh.Mu);
  if (Sh.Compacting)
    return; // the in-flight background fold already covers this shard
  const std::pair<Count, Count> Range =
      shardRangeFor(S, Sh.Writer.numNodes());
  try {
    GRAPHIT_FAIL_POINT("compaction.rebuild");
    Sh.Writer.compactRange(Range.first, Range.second);
  } catch (const std::exception &E) {
    noteShardFoldFailure(Sh, S, E.what());
    Sh.FoldScheduled = false;
    return;
  }
  noteShardFoldOk(Sh);
  try {
    publishLocked({S}, {});
  } catch (...) {
    // Terminal publish failure: the folded writer is intact; the next
    // publish touching this shard carries it — readers just keep the
    // previous version a little longer.
  }
  Sh.FoldScheduled = false;
}

void ShardedSnapshotStore::foldShardAsync(int S) {
  Shard &Sh = *Shards[static_cast<size_t>(S)];
  MutexLock Lock(Sh.Mu);
  if (Sh.Compacting) {
    Sh.FoldScheduled = false; // defensive: the running fold covers it
    return;
  }
  if (Sh.Compactor.joinable())
    Sh.Compactor.join(); // previous fold thread already finished
  try {
    // Pin the writer's exact content for the fold thread; readers are
    // unaffected (they pin published composites).
    auto Pinned = std::make_shared<const DeltaGraph>(Sh.Writer);
    Sh.Replay.clear();
    Sh.Compacting = true;
    Sh.Compactor = std::thread([this, S, Pinned = std::move(Pinned)]() mutable {
      foldShardBody(S, std::move(Pinned));
    });
  } catch (const std::exception &E) {
    Sh.Compacting = false;
    Sh.FoldScheduled = false;
    noteShardFoldFailure(Sh, S, E.what());
  }
}

void ShardedSnapshotStore::foldShardBody(
    int S, std::shared_ptr<const DeltaGraph> Pinned) {
  // Phase 1 folds the pinned copy's range into a segment with *no lock
  // held*; phase 2 re-acquires only this shard's Mu, adopts the segment
  // onto a copy of the pinned state, replays the row ops recorded
  // meanwhile, and atomically swaps the result in. A terminal failure
  // degrades this shard only — every other shard keeps serving and
  // folding.
  Shard &Sh = *Shards[static_cast<size_t>(S)];
  const std::pair<Count, Count> Range = shardRangeFor(S, Pinned->numNodes());

  std::string Err;
  std::shared_ptr<const BaseSegment> Seg;
  retryBounded(
      [&] {
        GRAPHIT_FAIL_POINT("compaction.rebuild");
        Seg = Pinned->foldRange(Range.first, Range.second);
      },
      Err);

  MutexLock Lock(Sh.Mu);
  // Copy-adopt-replay-swap: each attempt restarts from a fresh copy of
  // the pinned state, so a half-replayed attempt can never leak into the
  // serving writer.
  DeltaGraph Folded;
  auto ReplayOnto = [&] {
    DeltaGraph Next(*Pinned);
    Next.adoptSegment(Seg);
    for (const ShardOp &Op : Sh.Replay) {
      GRAPHIT_FAIL_POINT("compaction.replay");
      switch (Op.Op) {
      case ShardOp::Kind::Out:
        Next.applyShardOut(Op.U.Src, Op.U.Dst, Op.U.W, Op.U.Kind);
        break;
      case ShardOp::Kind::InMirror:
        Next.applyShardInMirror(Op.U.Src, Op.U.Dst, Op.U.W, Op.U.Kind);
        break;
      case ShardOp::Kind::Grow:
        Next.growUniverse(Op.GrowTo, Op.TailCoords.get());
        break;
      }
    }
    Folded = std::move(Next);
  };
  const bool Ok = Seg && retryBounded(ReplayOnto, Err);
  if (Ok)
    Sh.Writer = std::move(Folded);
  Pinned.reset();
  Sh.Replay.clear();
  Sh.Compacting = false;
  Sh.FoldScheduled = false;
  if (Ok) {
    noteShardFoldOk(Sh);
    try {
      publishLocked({S}, {});
    } catch (...) {
      // As in compactShard: the folded writer is intact either way.
    }
  } else {
    noteShardFoldFailure(Sh, S, Err);
  }
  Sh.FoldCv.notify_all();
}

ShardedSnapshotStore::ApplyResult
ShardedSnapshotStore::removeVertex(VertexId External) {
  const VertexId V = Map.toInternal(External);

  // Detaching reaches into the shard of every neighbor, so removal takes
  // all shard locks — the rare heavyweight write, like addVertices. (The
  // one-shard-lock guarantee is about compaction, which never detaches.)
  std::vector<int> All(Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I)
    All[I] = static_cast<int>(I);
  DynamicLockSet ShardLocks(shardMutexes(All), "shard.lock");

  if (static_cast<Count>(V) >= Shards.front()->Writer.numNodes()) {
    ApplyResult R;
    MutexLock Lock(ReadMu);
    R.Version = Version;
    R.Snap = Current;
    return R; // out-of-range id: no-op, nothing published
  }

  // Same per-row machinery as the batch path: bit-compatible Applied
  // coalescing, replay recording for any shard whose fold is in flight.
  std::vector<int> Dirty;
  std::vector<AppliedUpdate> Applied;
  for (const EdgeUpdate &U :
       incidentDeletes(Shards[static_cast<size_t>(shardOf(V))]->Writer, V))
    applyRowLocked(U, Applied, Dirty);
  std::sort(Dirty.begin(), Dirty.end());
  Dirty.erase(std::unique(Dirty.begin(), Dirty.end()), Dirty.end());

  ApplyResult R = publishLocked(Dirty, coalesceApplied(Applied));
  ShardLocks.release();
  MutexLock Lock(ReadMu);
  takePendingError(R);
  Map.recordFreed(External);
  return R;
}

VertexId ShardedSnapshotStore::acquireVertex(const Coordinates *OneCoord) {
  VertexId Freed = 0;
  if (takeFreed(Freed))
    return Freed; // already an isolated in-universe vertex; no publish
  return addVertices(1, OneCoord);
}
