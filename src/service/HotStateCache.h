//===- service/HotStateCache.h - Shared hot-source state cache --*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A striped, version-tagged cache of warm `DistanceState`s keyed by
/// source vertex, shareable across `QueryEngine` instances so a PPSP warm
/// miss on one engine can hit a state another engine computed.
///
/// Each cached state is published behind a `shared_ptr<DistanceState>`:
/// readers (`lookup`) take a reference under a brief stripe lock and then
/// copy answers out lock-free, while the single repair writer
/// (`repairAll`, called once per applied update batch) mutates a state in
/// place only when it holds the *sole* reference — otherwise it clones
/// first (`DistanceState` is plain vectors, so copies are cheap relative
/// to a recompute) and republishes the repaired clone. A keep-newer
/// version guard on every publish makes concurrent install/repair races
/// converge on the newest version instead of resurrecting stale states.
///
/// Lock ordering: stripe locks are leaves — nothing is acquired under
/// them. `RepairMu` (serializes repair/grow passes and guards the shared
/// scratch) is acquired before stripe locks, never the reverse.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SERVICE_HOTSTATECACHE_H
#define GRAPHIT_SERVICE_HOTSTATECACHE_H

#include "algorithms/IncrementalSSSP.h"
#include "algorithms/QueryState.h"
#include "core/Schedule.h"
#include "graph/DeltaGraph.h"
#include "support/SoleOwner.h"
#include "support/ThreadSafety.h"
#include "support/Types.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace graphit {

/// Striped shared cache of warm single-source distance states.
///
/// Thread-safe: any number of engines/workers may call `lookup`,
/// `install`, and `takeSlot` concurrently; `repairAll`/`growAll` are
/// serialized against each other internally and safe against concurrent
/// readers. States handed out by `lookup` are immutable snapshots — a
/// later repair that finds the state still referenced clones instead of
/// mutating it, so a reader's copy-out never races a write.
class HotStateCache {
public:
  /// \p Capacity is the total number of cached states across all
  /// stripes; each stripe evicts LRU locally once its share is full.
  explicit HotStateCache(size_t Capacity)
      : Capacity_(Capacity ? Capacity : 1),
        Stripes(stripeCountFor(Capacity_)) {
    size_t Base = Capacity_ / Stripes.size();
    size_t Extra = Capacity_ % Stripes.size();
    for (size_t I = 0; I < Stripes.size(); ++I)
      Stripes[I].Capacity = Base + (I < Extra ? 1 : 0);
  }

  HotStateCache(const HotStateCache &) = delete;
  HotStateCache &operator=(const HotStateCache &) = delete;

  /// Returns the cached state for \p Source if one exists at exactly
  /// snapshot \p Version, bumping its LRU clock; nullptr otherwise. The
  /// returned state is safe to read without any lock.
  std::shared_ptr<const DistanceState> lookup(VertexId Source,
                                              uint64_t Version) {
    Stripe &S = stripeFor(Source);
    MutexLock Lock(S.Mu);
    auto It = S.Map.find(Source);
    if (It == S.Map.end() || !It->second.State ||
        It->second.Version != Version)
      return nullptr;
    It->second.LastUsed = ++S.Tick;
    Hits_.fetch_add(1, std::memory_order_relaxed);
    return It->second.State;
  }

  /// Publishes a freshly computed \p State for \p Source at \p Version.
  /// Keep-newer guard: a slot already holding an equal-or-newer version
  /// wins and \p State is dropped. Evicts the stripe's LRU entry when
  /// over capacity.
  void install(VertexId Source, uint64_t Version,
               std::shared_ptr<DistanceState> State) {
    Stripe &S = stripeFor(Source);
    MutexLock Lock(S.Mu);
    Entry &E = S.Map[Source];
    if (E.State && E.Version >= Version)
      return;
    E.State = std::move(State);
    E.Version = Version;
    E.LastUsed = ++S.Tick;
    evictOverCapacity(S);
  }

  /// Reclaims a state allocation for the cold path: if \p Source's
  /// stripe is at capacity, the LRU victim is evicted and its state
  /// returned for reuse iff nothing else still references it. Returns
  /// nullptr when the stripe has room or the victim is still shared —
  /// callers then allocate fresh.
  std::shared_ptr<DistanceState> takeSlot(VertexId Source) {
    Stripe &S = stripeFor(Source);
    MutexLock Lock(S.Mu);
    if (S.Map.size() < S.Capacity)
      return nullptr;
    auto Victim = S.Map.end();
    for (auto It = S.Map.begin(); It != S.Map.end(); ++It)
      if (Victim == S.Map.end() ||
          It->second.LastUsed < Victim->second.LastUsed)
        Victim = It;
    if (Victim == S.Map.end())
      return nullptr;
    std::shared_ptr<DistanceState> Out = std::move(Victim->second.State);
    S.Map.erase(Victim);
    if (isSoleOwner(Out))
      return Out;
    return nullptr; // still referenced by a reader; let it expire there
  }

  /// Brings every cached state forward to snapshot \p NewVersion after an
  /// applied update batch: entries at exactly NewVersion-1 are repaired
  /// incrementally (O(affected) via repairAfterUpdates), entries already
  /// at NewVersion are kept, anything older is dropped. Repair happens
  /// outside the stripe locks; a state still referenced by a reader is
  /// cloned so the reader's snapshot stays immutable.
  template <typename GraphT>
  void repairAll(const GraphT &G, const std::vector<AppliedUpdate> &Applied,
                 uint64_t NewVersion, const Schedule &Sched) {
    MutexLock RepairLock(RepairMu);
    for (Stripe &S : Stripes) {
      // Detach repairable entries under the stripe lock; once detached,
      // no new references can appear, so a use_count of 1 is stable.
      std::vector<std::pair<VertexId, std::shared_ptr<DistanceState>>>
          Work;
      {
        MutexLock Lock(S.Mu);
        for (auto It = S.Map.begin(); It != S.Map.end();) {
          if (It->second.Version == NewVersion) {
            ++It;
          } else if (It->second.State &&
                     It->second.Version + 1 == NewVersion) {
            Work.emplace_back(It->first, std::move(It->second.State));
            It = S.Map.erase(It);
          } else {
            It = S.Map.erase(It);
          }
        }
      }
      for (auto &[Source, St] : Work) {
        (void)Source;
        if (!isSoleOwner(St))
          St = std::make_shared<DistanceState>(*St); // reader holds a ref
        St->resize(G.numNodes());
        repairAfterUpdates(G, Applied, *St, Sched, Scratch);
        Repairs_.fetch_add(1, std::memory_order_relaxed);
      }
      {
        MutexLock Lock(S.Mu);
        for (auto &[Source, St] : Work) {
          Entry &E = S.Map[Source];
          if (E.State && E.Version >= NewVersion)
            continue; // a concurrent install already published newer
          E.State = std::move(St);
          E.Version = NewVersion;
          E.LastUsed = ++S.Tick;
        }
        evictOverCapacity(S);
      }
    }
  }

  /// Brings cached states forward across a vertex insertion to
  /// \p NewVersion: states at exactly NewVersion-1 are grown to
  /// \p NewNodes entries in place (sole owner) or via clone (shared);
  /// anything older is dropped.
  void growAll(size_t NewNodes, uint64_t NewVersion) {
    MutexLock RepairLock(RepairMu);
    for (Stripe &S : Stripes) {
      MutexLock Lock(S.Mu);
      for (auto It = S.Map.begin(); It != S.Map.end();) {
        Entry &E = It->second;
        if (E.Version == NewVersion) {
          ++It;
          continue;
        }
        if (!E.State || E.Version + 1 != NewVersion) {
          It = S.Map.erase(It);
          continue;
        }
        // Map lookups require this stripe lock, so a use_count of 1
        // here means no reader can gain a reference concurrently.
        if (!isSoleOwner(E.State))
          E.State = std::make_shared<DistanceState>(*E.State);
        E.State->resize(NewNodes);
        E.Version = NewVersion;
        ++It;
      }
    }
  }

  /// Number of successful version-matched lookups since construction.
  uint64_t hits() const { return Hits_.load(std::memory_order_relaxed); }

  /// Number of incremental state repairs performed by repairAll.
  uint64_t repairs() const {
    return Repairs_.load(std::memory_order_relaxed);
  }

  /// Current number of cached states across all stripes.
  size_t size() const {
    size_t N = 0;
    for (const Stripe &S : Stripes) {
      MutexLock Lock(S.Mu);
      N += S.Map.size();
    }
    return N;
  }

  /// Total capacity across all stripes.
  size_t capacity() const { return Capacity_; }

private:
  struct Entry {
    std::shared_ptr<DistanceState> State;
    uint64_t Version = 0;
    uint64_t LastUsed = 0;
  };

  struct Stripe {
    mutable Mutex Mu;
    std::unordered_map<VertexId, Entry> Map GUARDED_BY(Mu);
    uint64_t Tick GUARDED_BY(Mu) = 0;
    size_t Capacity = 1; // set once at construction, then read-only
  };

  /// Largest power of two <= max(1, Capacity / 4), clamped to 16, so
  /// small caches (the tests use capacities 2..3) stay single-striped
  /// with strict global LRU while large shared caches spread contention.
  static size_t stripeCountFor(size_t Capacity) {
    size_t Want = Capacity / 4;
    size_t N = 1;
    while (N * 2 <= Want && N < 16)
      N *= 2;
    return N;
  }

  Stripe &stripeFor(VertexId Source) {
    return Stripes[static_cast<size_t>(Source) & (Stripes.size() - 1)];
  }

  void evictOverCapacity(Stripe &S) REQUIRES(S.Mu) {
    while (S.Map.size() > S.Capacity) {
      auto Victim = S.Map.end();
      for (auto It = S.Map.begin(); It != S.Map.end(); ++It)
        if (Victim == S.Map.end() ||
            It->second.LastUsed < Victim->second.LastUsed)
          Victim = It;
      S.Map.erase(Victim);
    }
  }

  const size_t Capacity_;
  std::vector<Stripe> Stripes;
  /// Serializes repairAll/growAll passes and guards the shared repair
  /// scratch. Acquired before stripe locks, never the reverse.
  Mutex RepairMu;
  RepairScratch Scratch GUARDED_BY(RepairMu);
  std::atomic<uint64_t> Hits_{0};
  std::atomic<uint64_t> Repairs_{0};
};

} // namespace graphit

#endif // GRAPHIT_SERVICE_HOTSTATECACHE_H
