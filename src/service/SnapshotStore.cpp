//===- service/SnapshotStore.cpp - Versioned live-graph snapshots ---------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/SnapshotStore.h"

#include "support/FailPoint.h"

#include <chrono>
#include <unordered_map>
#include <utility>

using namespace graphit;
using namespace graphit::service;

namespace {

/// Bounded retries for snapshot publication. Publication allocates (the
/// overlay copy), so a transient failure — or the `snapshot.publish` fail
/// point — is retried; read-side state mutates only after the fallible
/// part succeeded, so a failed attempt changes nothing.
constexpr int kPublishRetryLimit = 64;

/// Describes the first malformed record of a strict-mode rejected batch.
std::string describeRejected(const EdgeUpdate &U, size_t Index) {
  return "rejected batch: malformed update #" + std::to_string(Index) +
         " (" + std::to_string(U.Src) + " -> " + std::to_string(U.Dst) +
         ", w=" + std::to_string(U.W) + ")";
}

} // namespace

SnapshotStore::SnapshotStore(Graph Base, Options O) : Opts(O) {
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

SnapshotStore::Snapshot SnapshotStore::current() const {
  MutexLock Lock(ReadMu);
  return Current;
}

std::pair<SnapshotStore::Snapshot, uint64_t>
SnapshotStore::currentVersioned() const {
  MutexLock Lock(ReadMu);
  return {Current, Version};
}

uint64_t SnapshotStore::version() const {
  MutexLock Lock(ReadMu);
  return Version;
}

uint64_t SnapshotStore::compactions() const {
  MutexLock Lock(ReadMu);
  return Compactions;
}

Count SnapshotStore::numNodes() const {
  MutexLock Lock(ReadMu);
  return Current->numNodes();
}

void SnapshotStore::publish() {
  // Caller holds WriteMu (REQUIRES(WriteMu) on the declaration): Writer is
  // stable, so copying it into an immutable snapshot and swapping the
  // publish pointer is the entire read-side critical section.
  for (int Attempt = 0;; ++Attempt) {
    try {
      GRAPHIT_FAIL_POINT("snapshot.publish");
      auto Snap = std::make_shared<const DeltaGraph>(Writer);
      MutexLock Lock(ReadMu);
      Current = std::move(Snap);
      ++Version;
      return;
    } catch (const std::exception &) {
      if (Attempt >= kPublishRetryLimit)
        throw;
    }
  }
}

void SnapshotStore::noteCompactionFailure(const std::string &Message) {
  PendingError = Message; // WriteMu held by the caller
  MutexLock Lock(ReadMu);
  Degraded = true;
  LastError = Message;
}

bool SnapshotStore::degraded() const {
  MutexLock Lock(ReadMu);
  return Degraded;
}

std::string SnapshotStore::lastError() const {
  MutexLock Lock(ReadMu);
  return LastError;
}

SnapshotStore::ApplyResult
SnapshotStore::applyUpdates(const std::vector<EdgeUpdate> &Batch) {
  MutexLock WriterLock(WriteMu);
  ApplyResult R;

  // Surface a background-compaction failure exactly once, on the first
  // writer call after it happened (the sticky form stays in lastError()).
  if (!PendingError.empty()) {
    R.CompactionError = std::move(PendingError);
    PendingError.clear();
  }

  // Reordered stores translate the batch into internal (layout) ids; the
  // snapshots, applied transitions, and any repaired distance states all
  // live in that space. Out-of-range endpoints pass through untranslated —
  // DeltaGraph::apply skips them like any other malformed write.
  const std::vector<EdgeUpdate> *Apply = &Batch;
  std::vector<EdgeUpdate> Translated;
  if (!Map.isIdentity()) {
    Translated = Batch;
    const Count N = Map.size();
    for (EdgeUpdate &U : Translated) {
      if (static_cast<Count>(U.Src) < N)
        U.Src = Map.toInternal(U.Src);
      if (static_cast<Count>(U.Dst) < N)
        U.Dst = Map.toInternal(U.Dst);
    }
    Apply = &Translated;
  }

  // Strict mode: a poisoned batch is all-or-nothing. Validation runs
  // before any mutation, so a rejection leaves the writer untouched and
  // publishes no version — the caller gets a typed error plus the
  // unchanged current snapshot.
  if (Opts.StrictBatches) {
    const Count N = Writer.numNodes();
    for (size_t I = 0; I < Apply->size(); ++I) {
      if (!DeltaGraph::validUpdate((*Apply)[I], N)) {
        R.Status = ApplyStatus::RejectedBatch;
        R.Error = describeRejected((*Apply)[I], I);
        MutexLock Lock(ReadMu);
        R.Version = Version;
        R.Snap = Current;
        return R;
      }
    }
  }

  R.Applied = coalesceApplied(Writer.apply(*Apply));

  if (CompactionRunning)
    Replay.push_back(ReplayOp{*Apply, 0, nullptr});

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
        ++Compactions;
        Degraded = false;
        LastError.clear();
      } catch (const std::exception &E) {
        // Failed fold: the un-compacted overlay keeps serving and the
        // next threshold trip retries. Surfaced on this very result (the
        // pending slot is cleared so it is not reported twice).
        noteCompactionFailure(std::string("compaction failed: ") + E.what());
        R.CompactionError = std::move(PendingError);
        PendingError.clear();
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
  // Nothing may escape this thread (an uncaught exception would
  // std::terminate the process): every fallible step runs under a catch,
  // and any terminal failure downgrades to "keep serving the
  // pre-compaction state, surface the error on the next writer call".
  using SteadyClock = std::chrono::steady_clock;
  const bool HasWatchdog = Opts.CompactionWatchdogMillis > 0;
  const SteadyClock::time_point Watchdog =
      SteadyClock::now() +
      std::chrono::milliseconds(HasWatchdog ? Opts.CompactionWatchdogMillis
                                            : 0);
  auto watchdogExpired = [&] {
    return HasWatchdog && SteadyClock::now() >= Watchdog;
  };

  // Phase 1: the expensive O(V + E) rebuild, with no lock held. Bounded
  // retries with exponential backoff absorb transient faults (allocation
  // failure, injected fail points); the watchdog caps the total budget so
  // a repeatedly failing fold can never wedge writers or shutdown.
  std::string Err;
  std::shared_ptr<const Graph> NewBase;
  int64_t BackoffMillis = std::max<int64_t>(Opts.CompactionBackoffMillis, 1);
  for (int Attempt = 0;; ++Attempt) {
    try {
      GRAPHIT_FAIL_POINT("compaction.rebuild");
      NewBase = std::make_shared<const Graph>(Pinned->compact());
      break;
    } catch (const std::exception &E) {
      Err = E.what();
    } catch (...) {
      Err = "unknown compaction error";
    }
    if (Attempt >= Opts.CompactionRetryLimit || watchdogExpired())
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMillis));
    BackoffMillis *= 2;
  }
  Pinned.reset();

  MutexLock WriterLock(WriteMu);
  // Phase 2: replay the writer-side operations accepted while we were
  // compacting onto the new base. Upsert/delete/growth semantics are
  // deterministic, so the result equals the writer's current adjacency
  // with an (almost) empty overlay. Universe growth replays too —
  // otherwise a later batch referencing the new ids would be
  // range-rejected. Each retry restarts from a fresh overlay over the
  // rebuilt base, so a half-replayed attempt can never leak; no backoff
  // here — WriteMu is held and sleeping would block writers.
  bool Ok = false;
  if (NewBase) {
    for (int Attempt = 0; !Ok; ++Attempt) {
      try {
        DeltaGraph Rebuilt(NewBase);
        for (const ReplayOp &Op : Replay) {
          GRAPHIT_FAIL_POINT("compaction.replay");
          if (Op.GrowTo > 0)
            Rebuilt.growUniverse(Op.GrowTo, Op.TailCoords.get());
          else
            Rebuilt.apply(Op.Batch);
        }
        Writer = std::move(Rebuilt);
        Ok = true;
      } catch (const std::exception &E) {
        Err = E.what();
      } catch (...) {
        Err = "unknown compaction error";
      }
      if (!Ok && (Attempt >= Opts.CompactionRetryLimit || watchdogExpired()))
        break;
    }
  }

  Replay.clear();
  CompactionRunning = false;
  if (Ok) {
    {
      MutexLock Lock(ReadMu);
      ++Compactions;
      Degraded = false;
      LastError.clear();
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
    // the wedged fold. The failure is surfaced on the next writer call.
    noteCompactionFailure("background compaction failed: " + Err);
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
  if (!PendingError.empty()) {
    R.CompactionError = std::move(PendingError);
    PendingError.clear();
  }
  VertexId V = External;
  if (!Map.isIdentity() && static_cast<Count>(V) < Map.size())
    V = Map.toInternal(V);
  if (static_cast<Count>(V) >= Writer.numNodes()) {
    MutexLock Lock(ReadMu);
    R.Version = Version;
    R.Snap = Current; // out-of-range id: no-op, nothing published
    return R;
  }

  // Materialize the incident edges first (the neighbor ranges point into
  // the rows being deleted), then push them through the normal batch path
  // so the Applied transitions, replay recording, and publish are exactly
  // what the equivalent delete batch would produce. Symmetric graphs
  // detach both directions from the out-row alone; directed graphs with
  // incoming adjacency also delete the in-edges. The id stays in the
  // universe as an isolated vertex.
  std::vector<EdgeUpdate> Deletes;
  for (WNode E : Writer.outNeighbors(V))
    Deletes.push_back(EdgeUpdate{V, E.V, 0, UpdateKind::Delete});
  if (!Writer.isSymmetric() && Writer.hasInEdges())
    for (WNode E : Writer.inNeighbors(V))
      Deletes.push_back(EdgeUpdate{E.V, V, 0, UpdateKind::Delete});

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
  {
    MutexLock Lock(ReadMu);
    VertexId Freed = 0;
    if (Map.takeFreed(Freed))
      return Freed; // already an isolated in-universe vertex; no publish
  }
  return addVertices(1, OneCoord);
}

Count SnapshotStore::freeVertexCount() const {
  MutexLock Lock(ReadMu);
  return Map.freeCount();
}

//===----------------------------------------------------------------------===//
// ShardedSnapshotStore
//===----------------------------------------------------------------------===//

ShardedSnapshotStore::ShardedSnapshotStore(Graph Base, Options O)
    : Opts(O) {
  this->Opts.NumShards = std::max(1, Opts.NumShards);
  auto BasePtr = std::make_shared<const Graph>(
      reorderLoadedGraph(std::move(Base), Opts.Reorder, &Map));
  Shift =
      ShardedDeltaView::shiftFor(BasePtr->numNodes(), this->Opts.NumShards);
  Symmetric = BasePtr->isSymmetric();
  MirrorsIn = !Symmetric && BasePtr->hasInEdges();
  Shards.reserve(static_cast<size_t>(this->Opts.NumShards));
  std::vector<std::shared_ptr<const DeltaGraph>> Snaps;
  for (int S = 0; S < this->Opts.NumShards; ++S) {
    auto Sh = std::make_unique<Shard>();
    Sh->Writer = DeltaGraph(BasePtr);
    Snaps.push_back(std::make_shared<const DeltaGraph>(Sh->Writer));
    Shards.push_back(std::move(Sh));
  }
  ShardVersions.assign(Shards.size(), 0);
  auto View = std::make_shared<ShardedDeltaView>(std::move(Snaps), Shift);
  View->setVersions(0, ShardVersions);
  Cur = std::move(View);
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

ShardedSnapshotStore::Snapshot ShardedSnapshotStore::current() const {
  MutexLock Lock(ReadMu);
  return Cur;
}

std::pair<ShardedSnapshotStore::Snapshot, uint64_t>
ShardedSnapshotStore::currentVersioned() const {
  MutexLock Lock(ReadMu);
  return {Cur, Version};
}

uint64_t ShardedSnapshotStore::version() const {
  MutexLock Lock(ReadMu);
  return Version;
}

Count ShardedSnapshotStore::numNodes() const {
  MutexLock Lock(ReadMu);
  return Cur->numNodes();
}

uint64_t ShardedSnapshotStore::compactions() const {
  MutexLock Lock(ReadMu);
  return Compactions;
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

bool ShardedSnapshotStore::degraded() const {
  MutexLock Lock(ReadMu);
  return Degraded;
}

std::string ShardedSnapshotStore::lastError() const {
  MutexLock Lock(ReadMu);
  return LastError;
}

ShardedSnapshotStore::ApplyResult
ShardedSnapshotStore::publishLocked(const std::vector<int> &Touched,
                                    std::vector<AppliedUpdate> Applied,
                                    bool CompactionTriggered) {
  // Caller holds the writer mutex of every shard in Touched, so copying
  // those writers into immutable snapshots here is race-free; untouched
  // shards keep the pointers of the previous composite (read under ReadMu,
  // which also makes the version vector update atomic with the swap).
  ApplyResult R;
  R.Applied = std::move(Applied);
  R.CompactionTriggered = CompactionTriggered;
  MutexLock Lock(ReadMu);
  if (!PendingError.empty()) {
    R.CompactionError = std::move(PendingError);
    PendingError.clear();
  }
  // Publication is all-or-nothing: every fallible step (the snapshot
  // copies and the composite view — plus the snapshot.publish fail point)
  // runs before any version state mutates, with bounded retries, so a
  // failed attempt leaves the versions and the composite untouched.
  std::shared_ptr<ShardedDeltaView> View;
  for (int Attempt = 0;; ++Attempt) {
    try {
      GRAPHIT_FAIL_POINT("snapshot.publish");
      std::vector<std::shared_ptr<const DeltaGraph>> Snaps = Cur->shards();
      for (int S : Touched)
        Snaps[static_cast<size_t>(S)] = std::make_shared<const DeltaGraph>(
            Shards[static_cast<size_t>(S)]->Writer);
      View = std::make_shared<ShardedDeltaView>(std::move(Snaps), Shift);
      break;
    } catch (const std::exception &) {
      if (Attempt >= kPublishRetryLimit)
        throw;
    }
  }
  for (int S : Touched)
    ++ShardVersions[static_cast<size_t>(S)];
  ++Version;
  View->setVersions(Version, ShardVersions);
  Cur = std::move(View);
  R.Version = Version;
  R.Snap = Cur;
  // Only the caller that flips the pending flag runs the compaction; a
  // trigger firing while one is pending has already been absorbed.
  R.CompactionTriggered = CompactionTriggered && !CompactionPending;
  if (R.CompactionTriggered)
    CompactionPending = true;
  return R;
}

ShardedSnapshotStore::ApplyResult
ShardedSnapshotStore::applyUpdates(const std::vector<EdgeUpdate> &Batch) {
  // Reordered stores translate into internal ids, exactly like the
  // unsharded store (out-of-range endpoints pass through untranslated and
  // are skipped by the validity test below).
  const std::vector<EdgeUpdate> *Apply = &Batch;
  std::vector<EdgeUpdate> Translated;
  if (!Map.isIdentity()) {
    Translated = Batch;
    const Count N = Map.size();
    for (EdgeUpdate &U : Translated) {
      if (static_cast<Count>(U.Src) < N)
        U.Src = Map.toInternal(U.Src);
      if (static_cast<Count>(U.Dst) < N)
        U.Dst = Map.toInternal(U.Dst);
    }
    Apply = &Translated;
  }

  // Involved shards: shard(src) always (out-adjacency); shard(dst) when a
  // mirror or symmetric reverse edge will land there. Computed without any
  // lock — shardOf clamps arbitrary ids, and the universe size is only
  // read once a shard lock pins it.
  const bool NeedDst = Symmetric || MirrorsIn;
  std::vector<int> Touched;
  Touched.reserve(Apply->size() * (NeedDst ? 2 : 1));
  for (const EdgeUpdate &U : *Apply) {
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

  // Strict mode: validate the whole batch against the pinned universe
  // size before mutating any shard, so a poisoned batch rejects
  // atomically — bit-compatible with the unsharded store (same batches
  // rejected, no version published).
  if (Opts.StrictBatches && !Touched.empty()) {
    const Count N =
        Shards[static_cast<size_t>(Touched.front())]->Writer.numNodes();
    for (size_t I = 0; I < Apply->size(); ++I) {
      if (!DeltaGraph::validUpdate((*Apply)[I], N)) {
        ApplyResult R;
        R.Status = ApplyStatus::RejectedBatch;
        R.Error = describeRejected((*Apply)[I], I);
        {
          MutexLock Lock(ReadMu);
          R.Version = Version;
          R.Snap = Cur;
        }
        return R; // ShardLocks releases on scope exit

      }
    }
  }

  // Shards whose overlay actually changed: the version-vector contract is
  // "bump exactly when that shard changed", so a locked shard that only
  // saw no-ops (same-weight upserts, deletes of missing edges, malformed
  // writes) is neither re-snapshotted nor bumped.
  std::vector<int> Dirty;
  std::vector<AppliedUpdate> Applied;
  bool LegacyTrigger = false;
  std::vector<int> TriggeredShards;
  if (!Touched.empty()) {
    const Count N =
        Shards[static_cast<size_t>(Touched.front())]->Writer.numNodes();
    Applied.reserve(Apply->size() * (Symmetric ? 2 : 1));
    for (const EdgeUpdate &U : *Apply) {
      if (!DeltaGraph::validUpdate(U, N))
        continue; // malformed write: skip, don't take the store down
      applyRowLocked(U, Applied, Dirty);
    }
    std::sort(Dirty.begin(), Dirty.end());
    Dirty.erase(std::unique(Dirty.begin(), Dirty.end()), Dirty.end());
    // Per-shard compaction triggers, measured against the shard's slice
    // of the shared base. In incremental mode each tripped shard is
    // absorbed into at most one queued fold (FoldScheduled); the legacy
    // mode keeps the one-global-fold absorption in publishLocked.
    const Count BaseSlice =
        Shards[static_cast<size_t>(Touched.front())]->Writer.base().numEdges() /
        static_cast<Count>(Shards.size());
    for (int S : Dirty) {
      Shard &Sh = *Shards[static_cast<size_t>(S)];
      const Count Overlay = Sh.Writer.overlayEdges();
      if (Overlay >= Opts.MinOverlayEdges &&
          static_cast<double>(Overlay) >
              Opts.CompactionThreshold * static_cast<double>(BaseSlice)) {
        if (Opts.LegacyGlobalRebuild) {
          LegacyTrigger = true;
        } else if (!Sh.FoldScheduled && !Sh.Compacting) {
          Sh.FoldScheduled = true;
          TriggeredShards.push_back(S);
        }
      }
    }
  }

  ApplyResult R =
      publishLocked(Dirty, coalesceApplied(Applied), LegacyTrigger);

  ShardLocks.release();

  if (Opts.LegacyGlobalRebuild) {
    if (R.CompactionTriggered)
      compactAllGlobal();
  } else {
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
  }
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
    publishLocked(All, {}, false);
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
  int Delta = 0;
  if (Sh.Degraded) {
    Sh.Degraded = false;
    Delta = 1;
  }
  MutexLock Lock(ReadMu);
  ++Compactions;
  DegradedShards -= Delta;
  if (DegradedShards <= 0) {
    DegradedShards = 0;
    Degraded = false;
    LastError.clear();
  }
}

void ShardedSnapshotStore::noteShardFoldFailure(Shard &Sh, int S,
                                                const std::string &Why) {
  const std::string Message =
      "shard " + std::to_string(S) + " compaction failed: " + Why;
  int Delta = 0;
  if (!Sh.Degraded) {
    Sh.Degraded = true;
    Delta = 1;
  }
  MutexLock Lock(ReadMu);
  DegradedShards += Delta;
  Degraded = true;
  LastError = Message;
  PendingError = Message;
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
    publishLocked({S}, {}, false);
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
  // Nothing may escape this thread (an uncaught exception would
  // std::terminate). Phase 1 folds the pinned copy's range into a segment
  // with *no lock held*; phase 2 re-acquires only this shard's Mu, adopts
  // the segment onto a copy of the pinned state, replays the row ops
  // recorded meanwhile, and atomically swaps the result in. A terminal
  // failure degrades this shard only — every other shard keeps serving
  // and folding.
  Shard &Sh = *Shards[static_cast<size_t>(S)];
  const std::pair<Count, Count> Range = shardRangeFor(S, Pinned->numNodes());

  std::string Err;
  std::shared_ptr<const BaseSegment> Seg;
  for (int Attempt = 0;; ++Attempt) {
    try {
      GRAPHIT_FAIL_POINT("compaction.rebuild");
      Seg = Pinned->foldRange(Range.first, Range.second);
      break;
    } catch (const std::exception &E) {
      Err = E.what();
    } catch (...) {
      Err = "unknown compaction error";
    }
    if (Attempt >= Opts.CompactionRetryLimit)
      break;
  }

  MutexLock Lock(Sh.Mu);
  bool Ok = false;
  if (Seg) {
    // Copy-adopt-replay-swap: each retry restarts from a fresh copy of
    // the pinned state, so a half-replayed attempt can never leak into
    // the serving writer.
    for (int Attempt = 0; !Ok; ++Attempt) {
      try {
        DeltaGraph Folded(*Pinned);
        Folded.adoptSegment(Seg);
        for (const ShardOp &Op : Sh.Replay) {
          GRAPHIT_FAIL_POINT("compaction.replay");
          switch (Op.Op) {
          case ShardOp::Kind::Out:
            Folded.applyShardOut(Op.U.Src, Op.U.Dst, Op.U.W, Op.U.Kind);
            break;
          case ShardOp::Kind::InMirror:
            Folded.applyShardInMirror(Op.U.Src, Op.U.Dst, Op.U.W, Op.U.Kind);
            break;
          case ShardOp::Kind::Grow:
            Folded.growUniverse(Op.GrowTo, Op.TailCoords.get());
            break;
          }
        }
        Sh.Writer = std::move(Folded);
        Ok = true;
      } catch (const std::exception &E) {
        Err = E.what();
      } catch (...) {
        Err = "unknown compaction error";
      }
      if (!Ok && Attempt >= Opts.CompactionRetryLimit)
        break;
    }
  }
  Pinned.reset();
  Sh.Replay.clear();
  Sh.Compacting = false;
  Sh.FoldScheduled = false;
  if (Ok) {
    noteShardFoldOk(Sh);
    try {
      publishLocked({S}, {}, false);
    } catch (...) {
      // As in compactShard: the folded writer is intact either way.
    }
  } else {
    noteShardFoldFailure(Sh, S, Err);
  }
  Sh.FoldCv.notify_all();
}

void ShardedSnapshotStore::compactAllGlobal() {
  // Legacy store-wide rebuild (Options::LegacyGlobalRebuild): one global
  // compaction at a time; a trigger that fires while another compaction
  // is pending was already absorbed by the CompactionPending flag in
  // publishLocked.
  MutexLock CompactGuard(CompactMu);
  std::vector<int> All(Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I)
    All[I] = static_cast<int>(I);
  DynamicLockSet ShardLocks(shardMutexes(All), "shard.lock");

  // Fold every shard's overlay into a fresh shared base. The expensive
  // O(V + E) rebuild runs under the shard locks — the sharded store
  // trades the unsharded store's background-compaction machinery for
  // per-shard write concurrency the rest of the time. A failed fold
  // (transient allocation fault, injected fail point) downgrades to
  // "keep serving the overlays": the writers are only replaced after the
  // rebuild fully succeeded, the next trigger retries, and the error is
  // surfaced on the next apply.
  try {
    GRAPHIT_FAIL_POINT("compaction.rebuild");
    std::vector<std::shared_ptr<const DeltaGraph>> Raw;
    Raw.reserve(Shards.size());
    for (auto &S : Shards)
      Raw.push_back(std::make_shared<const DeltaGraph>(S->Writer));
    ShardedDeltaView Whole(std::move(Raw), Shift);
    auto NewBase = std::make_shared<const Graph>(Whole.compact());
    for (auto &S : Shards)
      S->Writer = DeltaGraph(NewBase);

    {
      MutexLock Lock(ReadMu);
      ++Compactions;
      CompactionPending = false;
      Degraded = false;
      LastError.clear();
    }
    publishLocked(All, {}, false);
  } catch (const std::exception &E) {
    MutexLock Lock(ReadMu);
    CompactionPending = false; // a later trigger may retry
    Degraded = true;
    LastError = std::string("compaction failed: ") + E.what();
    PendingError = LastError;
  }
}

ShardedSnapshotStore::ApplyResult
ShardedSnapshotStore::removeVertex(VertexId External) {
  VertexId V = External;
  if (!Map.isIdentity() && static_cast<Count>(V) < Map.size())
    V = Map.toInternal(V);

  // Detaching reaches into the shard of every neighbor, so removal takes
  // all shard locks — the rare heavyweight write, like addVertices. (The
  // one-shard-lock guarantee is about compaction, which never detaches.)
  std::vector<int> All(Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I)
    All[I] = static_cast<int>(I);
  DynamicLockSet ShardLocks(shardMutexes(All), "shard.lock");

  const Count N = Shards.front()->Writer.numNodes();
  if (static_cast<Count>(V) >= N) {
    ApplyResult R;
    MutexLock Lock(ReadMu);
    R.Version = Version;
    R.Snap = Cur;
    return R; // out-of-range id: no-op, nothing published
  }

  DeltaGraph &Owner = Shards[static_cast<size_t>(shardOf(V))]->Writer;
  std::vector<EdgeUpdate> Deletes;
  for (WNode E : Owner.outNeighbors(V))
    Deletes.push_back(EdgeUpdate{V, E.V, 0, UpdateKind::Delete});
  if (MirrorsIn)
    for (WNode E : Owner.inNeighbors(V))
      Deletes.push_back(EdgeUpdate{E.V, V, 0, UpdateKind::Delete});

  // Same per-row machinery as the batch path: bit-compatible Applied
  // coalescing, replay recording for any shard whose fold is in flight.
  std::vector<int> Dirty;
  std::vector<AppliedUpdate> Applied;
  for (const EdgeUpdate &U : Deletes)
    applyRowLocked(U, Applied, Dirty);
  std::sort(Dirty.begin(), Dirty.end());
  Dirty.erase(std::unique(Dirty.begin(), Dirty.end()), Dirty.end());

  ApplyResult R = publishLocked(Dirty, coalesceApplied(Applied), false);
  ShardLocks.release();
  MutexLock Lock(ReadMu);
  Map.recordFreed(External);
  return R;
}

VertexId ShardedSnapshotStore::acquireVertex(const Coordinates *OneCoord) {
  {
    MutexLock Lock(ReadMu);
    VertexId Freed = 0;
    if (Map.takeFreed(Freed))
      return Freed; // already an isolated in-universe vertex; no publish
  }
  return addVertices(1, OneCoord);
}

Count ShardedSnapshotStore::freeVertexCount() const {
  MutexLock Lock(ReadMu);
  return Map.freeCount();
}
