//===- core/OrderedProcess.h - Eager engine with bucket fusion --*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ordered processing operator the compiler substitutes for the user's
/// `while (pq.finished() == false)` loop under eager schedules (§5.2), plus
/// the paper's new *bucket fusion* optimization (§3.3, Fig. 7).
///
/// Structure (one OpenMP parallel region for the whole run, Fig. 9(c)):
///
///   - each thread owns a `LocalBinWindow`, a sliding circular window of
///     buckets keyed by coarsened priority (keys beyond the window go to a
///     per-thread overflow list that is migrated as the window slides),
///     and a *round share*: its slice of the current global round;
///   - a round relaxes every share, pushing improved vertices into
///     thread-local bins — no atomics on buckets. A thread works through
///     its own share first, claiming `kDynamicGrain`-vertex chunks with a
///     fetch-and-add on the share's cursor, then steals chunks from the
///     other shares the same way. Most of a round therefore runs on the
///     thread that pushed it, next to the region it just relaxed;
///   - bucket fusion: while a thread's bin for the *current* key is
///     non-empty and below `FusionThreshold`, the thread drains it
///     immediately, with no global barrier (same-priority rounds fuse;
///     ordering is preserved because only equal-priority work is executed);
///   - threads then propose the minimum non-empty bin key — an O(1)
///     amortized resume from a tracked per-thread minimum, folded into the
///     shared next key with an atomic min (no critical section). After the
///     first barrier each thread swaps its bin for the agreed key into its
///     own share: no copy, and no shared O(E) frontier. The swap recycles
///     storage both ways, and the window is circular, so a slot whose key
///     has passed is reused (still warm) for the keys that slide into it.
///
/// The engine is generic over the relaxation: `Relax(U, CurrKey, Push)`
/// re-checks staleness and calls `Push(V, Key)` for every improved
/// neighbor. A `Stop` predicate evaluated at round boundaries supports the
/// early exits of PPSP and A* (it must read only round-stable state so all
/// threads decide identically).
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_CORE_ORDEREDPROCESS_H
#define GRAPHIT_CORE_ORDEREDPROCESS_H

#include "core/Schedule.h"
#include "support/Atomics.h"
#include "support/Cancellation.h"
#include "support/Parallel.h"
#include "support/Prefetch.h"
#include "support/TSanAnnotate.h"
#include "support/Timer.h"
#include "support/Types.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <omp.h>
#include <utility>
#include <vector>

namespace graphit {

/// Counters reported by the ordered engines. `Rounds` counts globally
/// synchronized rounds (each costs two barriers in the eager engine);
/// `FusedRounds` counts the extra rounds bucket fusion executed locally —
/// Table 6 reports `Rounds` with and without fusion.
struct OrderedStats {
  int64_t Rounds = 0;
  int64_t FusedRounds = 0;
  int64_t VerticesProcessed = 0;
  int64_t OverflowRebuckets = 0;
  double Seconds = 0.0;
  /// True when the run was interrupted by a CancelToken at a bucket-round
  /// boundary instead of running to quiescence.
  bool Cancelled = false;
  /// When Cancelled: the coarsened key of the first unprocessed bucket.
  /// Every priority strictly below `CancelKey * Delta` was settled when
  /// the run stopped (the classic Δ-stepping invariant), so callers can
  /// report that exact prefix of the final answer.
  int64_t CancelKey = 0;

  /// Total rounds the algorithm executed, local or global.
  int64_t totalRounds() const { return Rounds + FusedRounds; }

  /// Accumulates \p Other into this (used by the query service to report
  /// aggregate work across many per-query runs; Seconds adds up to total
  /// engine time, not wall clock).
  void merge(const OrderedStats &Other) {
    Rounds += Other.Rounds;
    FusedRounds += Other.FusedRounds;
    VerticesProcessed += Other.VerticesProcessed;
    OverflowRebuckets += Other.OverflowRebuckets;
    Seconds += Other.Seconds;
    Cancelled |= Other.Cancelled;
  }
};

/// Sentinel key meaning "no bucket" inside the eager engine.
inline constexpr int64_t kMaxEagerKey =
    std::numeric_limits<int64_t>::max() / 2;

/// Default (no-op) per-vertex prefetch hook for the eager engine's frontier
/// loops. Distance algorithms pass a hook that prefetches `Dist[V]` for the
/// frontier vertex a few slots ahead — the first scattered load `Relax`
/// performs — so the miss overlaps the current vertex's relaxation.
struct NoVertexPrefetch {
  void operator()(VertexId) const {}
};

namespace detail {

/// Per-thread bucket store of the eager engine: a sliding circular window
/// of `WindowSize` bins over coarsened keys plus an overflow list for keys
/// beyond it.
///
/// Invariants:
///  - all bins with keys below `Base` are empty (the global round key is
///    monotonically non-decreasing, and `advanceTo` only moves `Base` to a
///    key every thread agreed no earlier work exists for);
///  - `MinKey` is a lower bound on the smallest non-empty in-window key,
///    so `proposeMin` resumes where the previous scan stopped instead of
///    rescanning from key 0 — O(1) amortized per round;
///  - `OverflowMin` is the exact minimum valid key in `Overflow`.
///
/// Storage recycling: the window is circular (`slot = key % WindowSize`),
/// so bins for passed keys are reused, capacity intact, for the keys that
/// slide into their slot; the engine's memory is O(WindowSize + overflow)
/// instead of O(max key ever seen).
class LocalBinWindow {
public:
  explicit LocalBinWindow(int64_t WindowSize)
      : Slots(static_cast<size_t>(roundUpPow2(std::max<int64_t>(WindowSize,
                                                                2)))),
        Window(static_cast<int64_t>(Slots.size())) {}

  /// Files \p V under \p Key. Keys below the window base (possible only
  /// with ε-inconsistent A* heuristics) are clamped up to it, which
  /// re-processes the vertex in the current bucket — the same behavior the
  /// engine's callers implement by clamping pushed keys at `CurrKey`.
  void push(VertexId V, int64_t Key) {
    assert(Key >= 0 && Key < kMaxEagerKey && "bad bucket key");
    if (Key < Base)
      Key = Base;
    if (Key >= Base + Window) {
      Overflow.push_back({Key, V});
      OverflowMin = std::min(OverflowMin, Key);
      return;
    }
    Slots[slotOf(Key)].push_back(V);
    MinKey = std::min(MinKey, Key);
  }

  /// The bin for in-window key \p Key.
  std::vector<VertexId> &bin(int64_t Key) { return Slots[slotOf(Key)]; }

  /// True when \p Key is in-window and its bin is non-empty.
  bool nonEmptyAt(int64_t Key) const {
    return Key >= Base && Key < Base + Window && !Slots[slotOf(Key)].empty();
  }

  /// Smallest key with pending work, or kMaxEagerKey. Resumes the scan at
  /// `MinKey`; every empty slot is skipped at most once per window pass.
  int64_t proposeMin() {
    const int64_t End = Base + Window;
    while (MinKey < End && Slots[slotOf(MinKey)].empty())
      ++MinKey;
    return std::min(MinKey < End ? MinKey : kMaxEagerKey, OverflowMin);
  }

  /// Slides the window so it starts at \p NewBase (the key the round
  /// agreed to process next) and migrates overflow entries that now fall
  /// inside it.
  void advanceTo(int64_t NewBase) {
    if (NewBase >= kMaxEagerKey || NewBase <= Base)
      return;
    Base = NewBase;
    MinKey = std::max(MinKey, Base);
    if (OverflowMin < Base + Window)
      migrateOverflow();
  }

private:
  /// The window is sized to a power of two so the hot-path slot lookup
  /// (every push, every proposeMin scan step) is a mask, not a division.
  static int64_t roundUpPow2(int64_t X) {
    int64_t P = 1;
    while (P < X)
      P <<= 1;
    return P;
  }

  size_t slotOf(int64_t Key) const {
    return static_cast<size_t>(Key & (Window - 1));
  }

  void migrateOverflow() {
    size_t Keep = 0;
    int64_t NewMin = kMaxEagerKey;
    for (const auto &[Key, V] : Overflow) {
      // Keys below the new base cannot occur: the base is the global
      // minimum over every thread's bins *and* overflow.
      assert(Key >= Base && "overflow entry precedes the window");
      if (Key < Base + Window) {
        Slots[slotOf(Key)].push_back(V);
        MinKey = std::min(MinKey, Key);
      } else {
        Overflow[Keep++] = {Key, V};
        NewMin = std::min(NewMin, Key);
      }
    }
    Overflow.resize(Keep);
    OverflowMin = NewMin;
  }

  std::vector<std::vector<VertexId>> Slots;
  std::vector<std::pair<int64_t, VertexId>> Overflow;
  int64_t Window;
  int64_t Base = 0;
  int64_t MinKey = kMaxEagerKey;
  int64_t OverflowMin = kMaxEagerKey;
};

/// One thread's slice of a global round: the bin it swapped in for the
/// round's key. The owner relaxes it first; threads that finish their own
/// share steal from it. Both claim `kDynamicGrain`-vertex chunks by
/// fetch-and-add on `Next`. Aligned to a cache line so the cursors of
/// different shares do not share one.
struct alignas(64) RoundShare {
  std::vector<VertexId> Items;
  int64_t Next = 0; ///< first unclaimed index of Items
};

} // namespace detail

/// Runs the eager ordered processing loop (with or without bucket fusion,
/// per `S.Update`) from an arbitrary set of (vertex, key) seeds — the
/// multi-source entry incremental distance repair uses to resume from an
/// affected boundary instead of the single original source. Keys must be
/// non-negative and monotonically non-decreasing up to the tolerance
/// handled by clamping in the caller.
///
/// \param NumNodes   vertex universe size (seed sanity checks)
/// \param Seeds      initial (vertex, bucket key) pairs; processing starts
///                   at the minimum seeded key
/// \param NumSeeds   number of seeds (0 is a no-op)
/// \param Relax      `(VertexId U, int64_t CurrKey, Push)`;
///                   `Push(VertexId V, int64_t Key)`
/// \param Stop       `(int64_t CurrKey) -> bool`, checked at round start on
///                   round-stable data
/// \param VPrefetch  `(VertexId V)`, called for the share entry a few slots
///                   ahead of the one being relaxed
/// \param Cancel     optional cooperative cancellation token. It is polled
///                   once per global round by the single bookkeeping
///                   thread and the verdict latched into shared state, so
///                   every thread observes the same decision at the same
///                   barrier (polling the clock in the loop condition would
///                   let threads disagree and deadlock). Zero cost when
///                   nullptr.
template <typename RelaxFn, typename StopFn,
          typename VPrefetchFn = NoVertexPrefetch>
void eagerOrderedProcessSeeds(Count NumNodes,
                              const std::pair<VertexId, int64_t> *Seeds,
                              Count NumSeeds, const Schedule &S,
                              RelaxFn &&Relax, StopFn &&Stop,
                              OrderedStats *Stats = nullptr,
                              VPrefetchFn &&VPrefetch = VPrefetchFn{},
                              const CancelToken *Cancel = nullptr) {
  (void)NumNodes;
  if (NumSeeds == 0) {
    if (Stats)
      *Stats = OrderedStats{};
    return;
  }
  const bool Fuse = S.Update == UpdateStrategy::EagerWithFusion;
  const int64_t Threshold = S.FusionThreshold;

  Timer Clock;
  // One share per thread the region can start (a team is never larger
  // than omp_get_max_threads() without a num_threads clause). The first
  // round is the minimum seed key's vertices, all in thread 0's share —
  // the other threads steal from it. Later-keyed seeds are filed into
  // thread 0's local bins inside the region (they surface through the
  // ordinary min-key proposal).
  std::vector<detail::RoundShare> Shares(
      static_cast<size_t>(std::max(omp_get_max_threads(), 1)));
  int64_t MinSeedKey = kMaxEagerKey;
  for (Count I = 0; I < NumSeeds; ++I) {
    assert(static_cast<Count>(Seeds[I].first) < NumNodes &&
           "seed out of range");
    MinSeedKey = std::min(MinSeedKey, Seeds[I].second);
  }
  for (Count I = 0; I < NumSeeds; ++I)
    if (Seeds[I].second == MinSeedKey)
      Shares[0].Items.push_back(Seeds[I].first);
  int64_t SharedKeys[2] = {MinSeedKey, kMaxEagerKey};

  // A token that is already expired never enters the region: the run
  // reports the empty (but still correct) settled prefix below the first
  // seed key.
  if (Cancel && Cancel->expired()) {
    if (Stats) {
      *Stats = OrderedStats{};
      Stats->Cancelled = true;
      Stats->CancelKey = MinSeedKey;
      Stats->Seconds = Clock.seconds();
    }
    return;
  }

  int64_t Rounds = 0, FusedRounds = 0, VerticesProcessed = 0;
  // Written only inside the `omp single` bookkeeping block (between the
  // round's two barriers), read by every thread after the second barrier:
  // the latch that makes cancellation a round-stable, unanimous decision.
  bool CancelLatched = false;
  int64_t CancelStopKey = 0;

  int SyncTag = 0;
  GRAPHIT_OMP_REGION_ENTER(&SyncTag);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&SyncTag);
    const int Tid = omp_get_thread_num();
    const int NumShares = omp_get_num_threads();
    detail::RoundShare &Own = Shares[static_cast<size_t>(Tid)];
    // The window size rides on the lazy engine's bucket-count knob: both
    // answer "how many coarsened keys ahead do we materialize?".
    detail::LocalBinWindow Bins(S.NumOpenBuckets);
    std::vector<VertexId> DrainBuf;
    int64_t LocalFused = 0;
    int64_t LocalVerts = 0;
    int64_t Iter = 0;

    auto Push = [&Bins](VertexId V, int64_t Key) { Bins.push(V, Key); };

    // One thread files the seeds beyond the first round's key; they are
    // few (a repair's affected boundary), so load balance is unaffected.
    if (Tid == 0)
      for (Count I = 0; I < NumSeeds; ++I)
        if (Seeds[I].second != MinSeedKey)
          Bins.push(Seeds[I].first, Seeds[I].second);

    while (!CancelLatched && SharedKeys[Iter & 1] != kMaxEagerKey &&
           !Stop(SharedKeys[Iter & 1])) {
      int64_t &CurrKey = SharedKeys[Iter & 1];
      int64_t &NextKey = SharedKeys[(Iter + 1) & 1];

      // All bins below CurrKey are globally empty (CurrKey won the round's
      // min-reduction): slide the window forward, migrating overflow.
      Bins.advanceTo(CurrKey);

      // Own share first, then steal from the others in ring order. Shares
      // are read-only during a round; only their cursors move.
      LocalVerts += static_cast<int64_t>(Own.Items.size());
      for (int K = 0; K < NumShares; ++K) {
        detail::RoundShare &Sh =
            Shares[static_cast<size_t>((Tid + K) % NumShares)];
        const VertexId *Items = Sh.Items.data();
        const int64_t Size = static_cast<int64_t>(Sh.Items.size());
        for (int64_t Begin = fetchAdd(&Sh.Next, int64_t{kDynamicGrain});
             Begin < Size;
             Begin = fetchAdd(&Sh.Next, int64_t{kDynamicGrain})) {
          const int64_t End = std::min(Begin + kDynamicGrain, Size);
          for (int64_t I = Begin; I < End; ++I) {
            // Look ahead in the share: the next vertices' distance words
            // are the first scattered loads their relaxation performs.
            if (I + kPrefetchDistance < Size)
              VPrefetch(Items[I + kPrefetchDistance]);
            Relax(Items[I], CurrKey, Push);
          }
        }
      }

      // Bucket fusion (Fig. 7 lines 14-21): drain the current local bucket
      // without synchronizing, as long as it stays below the threshold
      // (large buckets go to the next global round for load balance). The
      // swap recycles storage both ways: the slot inherits DrainBuf's
      // cleared capacity, DrainBuf inherits the slot's elements.
      if (Fuse) {
        while (Bins.nonEmptyAt(CurrKey) &&
               static_cast<int64_t>(Bins.bin(CurrKey).size()) < Threshold) {
          DrainBuf.clear();
          std::swap(DrainBuf, Bins.bin(CurrKey));
          ++LocalFused;
          const int64_t DrainSize = static_cast<int64_t>(DrainBuf.size());
          LocalVerts += DrainSize;
          for (int64_t K = 0; K < DrainSize; ++K) {
            if (K + kPrefetchDistance < DrainSize)
              VPrefetch(DrainBuf[static_cast<size_t>(K + kPrefetchDistance)]);
            Relax(DrainBuf[static_cast<size_t>(K)], CurrKey, Push);
          }
        }
      }

      // Propose the smallest pending local key. The scan resumes from the
      // tracked per-thread minimum (O(1) amortized, not O(max key)), and
      // the reduction is a lock-free atomic min instead of a critical
      // section.
      int64_t MyNext = Bins.proposeMin();
      if (MyNext != kMaxEagerKey)
        atomicMin(&NextKey, MyNext);

      GRAPHIT_OMP_BARRIER(&SyncTag);
#pragma omp single nowait
      {
        ++Rounds;
        CurrKey = kMaxEagerKey;
        // NextKey is final after the barrier above, so one thread can
        // poll the token here and latch both the verdict and the key it
        // stopped before; the writes publish to every thread at the
        // barrier below. A run whose next key is the sentinel finished
        // on its own — completion beats cancellation.
        if (Cancel && NextKey != kMaxEagerKey && Cancel->expired()) {
          CancelLatched = true;
          CancelStopKey = NextKey;
        }
      }

      // Every share was drained before the barrier above: hand this
      // thread's bin for the next key to its share, and the share's
      // cleared storage to the bin slot.
      Own.Items.clear();
      if (Bins.nonEmptyAt(NextKey))
        std::swap(Own.Items, Bins.bin(NextKey));
      Own.Next = 0;
      ++Iter;
      GRAPHIT_OMP_BARRIER(&SyncTag);
    }

    fetchAdd(&FusedRounds, LocalFused);
    fetchAdd(&VerticesProcessed, LocalVerts);
    GRAPHIT_OMP_REGION_END(&SyncTag);
  }
  GRAPHIT_OMP_REGION_EXIT(&SyncTag);

  if (Stats) {
    Stats->Rounds = Rounds;
    Stats->FusedRounds = FusedRounds;
    Stats->VerticesProcessed = VerticesProcessed;
    Stats->Seconds = Clock.seconds();
    Stats->Cancelled = CancelLatched;
    Stats->CancelKey = CancelStopKey;
  }
}

/// Single-source form: the classical entry point (SSSP and friends seed
/// one vertex — the source at key 0, or ⌊h(s)/Δ⌋ for A*).
template <typename RelaxFn, typename StopFn,
          typename VPrefetchFn = NoVertexPrefetch>
void eagerOrderedProcess(Count NumNodes, VertexId Source, int64_t SourceKey,
                         const Schedule &S, RelaxFn &&Relax, StopFn &&Stop,
                         OrderedStats *Stats = nullptr,
                         VPrefetchFn &&VPrefetch = VPrefetchFn{},
                         const CancelToken *Cancel = nullptr) {
  const std::pair<VertexId, int64_t> Seed{Source, SourceKey};
  eagerOrderedProcessSeeds(NumNodes, &Seed, 1, S,
                           std::forward<RelaxFn>(Relax),
                           std::forward<StopFn>(Stop), Stats,
                           std::forward<VPrefetchFn>(VPrefetch), Cancel);
}

} // namespace graphit

#endif // GRAPHIT_CORE_ORDEREDPROCESS_H
