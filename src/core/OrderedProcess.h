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
///     `kSubBins` sub-bins for the round's own bucket, and a *round share*:
///     its slice of the current global round;
///   - callers push *fine keys*, ⌊kSubBins·priority/Δ⌋ (`PriorityCoarsener`).
///     The bucket key is `coarseKey(Fine)`; a push into the round's bucket
///     lands in the sub-bin named by the fine key's low bits, any other
///     push in the window bin of its bucket;
///   - a round relaxes every share, pushing improved vertices into
///     thread-local bins — no atomics on buckets. A thread works through
///     its own share first, claiming `kDynamicGrain`-vertex chunks with a
///     fetch-and-add on the share's cursor, then steals chunks from the
///     other shares the same way. Most of a round therefore runs on the
///     thread that pushed it, next to the region it just relaxed;
///   - bucket fusion: while the thread's lowest non-empty sub-bin is below
///     `FusionThreshold`, the thread drains it immediately, with no global
///     barrier. Lowest first means each thread settles its region of the
///     bucket in close to Dijkstra order, so few vertices are expanded at
///     a distance a lighter path improves later in the same bucket;
///   - threads then propose the minimum non-empty bucket key — the round's
///     own key while any sub-bin holds work, else an O(1) amortized resume
///     from a tracked per-thread minimum — folded into the shared next key
///     with an atomic min (no critical section). After the first barrier
///     each thread moves the agreed key's work into its own share: its
///     sub-bins concatenated in key order when the key repeats, otherwise
///     its window bin by swap (no copy, and no shared O(E) frontier). The
///     swap recycles storage both ways, and the window is circular, so a
///     slot whose key has passed is reused (still warm) for the keys that
///     slide into it.
///
/// Global rounds, the window, `Stop` and the cancellation key stay in
/// bucket keys, so a global round processes one Δ-bucket and the settled
/// prefix below `CancelKey * Δ` holds exactly as in classic Δ-stepping.
/// With Δ=1 every fine key falls in sub-bin 0 and the engine behaves as a
/// single bin per bucket.
///
/// The engine is generic over the relaxation: `Relax(U, CurrKey, Push)`
/// re-checks staleness against the fine key `CurrKey` (the bucket's first
/// fine key in a global round, the sub-bin's in a fused drain) and calls
/// `Push(V, Fine)` for every improved neighbor.
///
/// The relax contract: every key a relax pushes derives from the one value
/// of U's priority that passed its stale check, never from a second read.
/// Another thread may lower U meanwhile. A key derived from the lower
/// value can fall below a fused drain's `CurrKey`; the caller's clamp
/// files it at `CurrKey`, where the stale check drops it, and the thread
/// relaxing from the lowered U loses its CAS to the value already
/// written, so nobody pushes the neighbor at its real key. With
/// non-negative weights and a consistent heuristic, a key derived from the
/// checked value is never below `CurrKey`. A `Stop` predicate
/// evaluated at round boundaries on the bucket key supports the early
/// exits of PPSP and A* (it must read only round-stable state so all
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
/// `FusedRounds` counts the sub-bin drains bucket fusion executed locally,
/// summed over threads — Table 6 reports `Rounds` with and without fusion.
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

/// The bucket key a fine key refines.
inline constexpr int64_t coarseKey(int64_t Fine) { return Fine >> kSubBinBits; }

/// Priority -> key coarsening, shared by every caller of the ordered
/// engines. The bucket key of priority P is ⌊P/Δ⌋; the eager engine takes
/// the fine key ⌊kSubBins·P/Δ⌋, whose bucket key is the same. Δ is a power
/// of two in practically every schedule (the autotuner space is all powers
/// of two), and the coarsening runs once per relaxation *and* once per
/// push on the hottest path — a runtime integer division there costs tens
/// of cycles per edge that a shift does not. Priorities are non-negative,
/// so the shifts are exact.
struct PriorityCoarsener {
  /// Fine keys saturate at this priority so they stay below
  /// `kMaxEagerKey` for every Δ ≥ 1. Only "unreachable" heuristic bounds
  /// (LandmarkCache::kUnreachableBound) come near it; merging them into
  /// one bucket keeps every key monotone in priority, which is all the
  /// settled-prefix argument needs.
  static constexpr Priority kMaxFinePriority =
      (kMaxEagerKey >> kSubBinBits) - 1;

  int64_t Delta;
  int Shift; ///< log2(Delta) when Delta is a power of two, else -1

  static PriorityCoarsener of(int64_t Delta) {
    const bool Pow2 = Delta > 0 && (Delta & (Delta - 1)) == 0;
    return PriorityCoarsener{Delta,
                             Pow2 ? __builtin_ctzll(
                                        static_cast<uint64_t>(Delta))
                                  : -1};
  }

  /// Bucket key ⌊P/Δ⌋.
  int64_t key(Priority P) const {
    return Shift >= 0 ? (P >> Shift) : (P / Delta);
  }

  /// Fine key ⌊kSubBins·P/Δ⌋ (saturating at `kMaxFinePriority`).
  int64_t fineKey(Priority P) const {
    assert(P >= 0 && "priorities are non-negative");
    P = std::min(P, kMaxFinePriority);
    if (Shift >= kSubBinBits)
      return P >> (Shift - kSubBinBits);
    if (Shift >= 0)
      return P << (kSubBinBits - Shift);
    return (P << kSubBinBits) / Delta;
  }
};

/// Default (no-op) per-vertex prefetch hook for the eager engine's frontier
/// loops. Distance algorithms pass a hook that prefetches `Dist[V]` for the
/// frontier vertex a few slots ahead — the first scattered load `Relax`
/// performs — so the miss overlaps the current vertex's relaxation.
struct NoVertexPrefetch {
  void operator()(VertexId) const {}
};

namespace detail {

/// Per-thread bucket store of the eager engine: `kSubBins` sub-bins for
/// the round's bucket (`Base`), a sliding circular window of `WindowSize`
/// bins over later bucket keys, and an overflow list for keys beyond it.
///
/// Invariants:
///  - all bins with keys below `Base` are empty (the global round key is
///    monotonically non-decreasing, and `advanceTo` only moves `Base` to a
///    key every thread agreed no earlier work exists for);
///  - the window bin of `Base` is empty during a round: the engine moves
///    it into the round's share, and work for `Base` goes to sub-bins;
///  - the sub-bins are empty whenever `Base` advances (a thread with
///    sub-bin work proposes `Base`, so the agreed key cannot pass it);
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

  /// Files \p V under fine key \p Fine. A key in the round's bucket goes to
  /// the sub-bin its low bits name; a later one to its bucket's window bin
  /// or, beyond the window, to the overflow list. A key below the round's
  /// bucket (possible only with an inconsistent heuristic, which AStar.h
  /// forbids) goes to sub-bin 0, where the relaxation's staleness check
  /// drops it unprocessed — as it drops the keys callers clamp up to
  /// `CurrKey`.
  void push(VertexId V, int64_t Fine) {
    assert(Fine >= 0 && Fine < kMaxEagerKey && "bad bucket key");
    const int64_t Key = coarseKey(Fine);
    if (Key <= Base) {
      const int Sub =
          Key == Base ? static_cast<int>(Fine & (kSubBins - 1)) : 0;
      SubBins[Sub].push_back(V);
      SubMask |= 1u << Sub;
      return;
    }
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

  /// The lowest non-empty sub-bin of the round's bucket, or -1.
  int lowestSubBin() const { return SubMask ? __builtin_ctz(SubMask) : -1; }

  /// Sub-bin \p I of the round's bucket.
  const std::vector<VertexId> &subBin(int I) const { return SubBins[I]; }

  /// Swaps sub-bin \p I's entries into the empty \p Out; the sub-bin keeps
  /// \p Out's storage.
  void takeSubBin(int I, std::vector<VertexId> &Out) {
    assert(Out.empty() && "sub-bin drained into a non-empty buffer");
    std::swap(Out, SubBins[I]);
    SubMask &= ~(1u << I);
  }

  /// Moves every sub-bin's entries into the empty \p Out, concatenated in
  /// key order — the share of a round that repeats its key. A single
  /// non-empty sub-bin is swapped in, as a window bin is.
  void takeSubBins(std::vector<VertexId> &Out) {
    assert(Out.empty() && "sub-bins drained into a non-empty buffer");
    if ((SubMask & (SubMask - 1)) == 0) {
      if (SubMask)
        takeSubBin(lowestSubBin(), Out);
      return;
    }
    size_t Total = 0;
    for (const std::vector<VertexId> &Sub : SubBins)
      Total += Sub.size();
    Out.reserve(Total);
    for (std::vector<VertexId> &Sub : SubBins) {
      Out.insert(Out.end(), Sub.begin(), Sub.end());
      Sub.clear();
    }
    SubMask = 0;
  }

  /// Smallest bucket key with pending work, or kMaxEagerKey: the round's
  /// own key while a sub-bin holds work, else a scan that resumes at
  /// `MinKey`; every empty slot is skipped at most once per window pass.
  int64_t proposeMin() {
    if (SubMask)
      return Base;
    const int64_t End = Base + Window;
    while (MinKey < End && Slots[slotOf(MinKey)].empty())
      ++MinKey;
    return std::min(MinKey < End ? MinKey : kMaxEagerKey, OverflowMin);
  }

  /// Slides the window so it starts at \p NewBase (the key the round
  /// agreed to process next) and migrates overflow entries that now fall
  /// inside it; those for `NewBase` itself become sub-bin 0.
  void advanceTo(int64_t NewBase) {
    if (NewBase >= kMaxEagerKey || NewBase <= Base)
      return;
    assert(SubMask == 0 && "sub-bins hold work as the round key advances");
    Base = NewBase;
    MinKey = std::max(MinKey, Base);
    if (OverflowMin < Base + Window) {
      // The migration loop runs over the whole overflow list, often every
      // round; it stays a plain filing pass, and the one slot that must
      // not hold work during a round is handed over afterwards.
      migrateOverflow();
      std::vector<VertexId> &Own = Slots[slotOf(Base)];
      if (!Own.empty()) {
        std::swap(SubBins[0], Own);
        SubMask = 1u;
      }
    }
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
  std::vector<VertexId> SubBins[kSubBins];
  std::vector<std::pair<int64_t, VertexId>> Overflow;
  int64_t Window;
  int64_t Base = 0;
  int64_t MinKey = kMaxEagerKey;
  int64_t OverflowMin = kMaxEagerKey;
  unsigned SubMask = 0; ///< bit I set iff SubBins[I] is non-empty
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
/// per `S.Update`) from an arbitrary set of (vertex, fine key) seeds — the
/// multi-source entry incremental distance repair uses to resume from an
/// affected boundary instead of the single original source. Keys are fine
/// keys (`PriorityCoarsener::fineKey`); they must be non-negative and
/// monotonically non-decreasing up to the tolerance handled by clamping in
/// the caller.
///
/// \param NumNodes   vertex universe size (seed sanity checks)
/// \param Seeds      initial (vertex, fine key) pairs; processing starts at
///                   the minimum seeded bucket
/// \param NumSeeds   number of seeds (0 is a no-op)
/// \param Relax      `(VertexId U, int64_t CurrKey, Push)` with the fine
///                   key being processed; `Push(VertexId V, int64_t Fine)`
/// \param Stop       `(int64_t BucketKey) -> bool`, checked at round start
///                   on round-stable data
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
  // round is the minimum seed bucket's vertices, all in thread 0's share —
  // the other threads steal from it. Later-bucket seeds are filed into
  // thread 0's local bins inside the region (they surface through the
  // ordinary min-key proposal).
  std::vector<detail::RoundShare> Shares(
      static_cast<size_t>(std::max(omp_get_max_threads(), 1)));
  int64_t MinSeedKey = kMaxEagerKey;
  for (Count I = 0; I < NumSeeds; ++I) {
    assert(static_cast<Count>(Seeds[I].first) < NumNodes &&
           "seed out of range");
    MinSeedKey = std::min(MinSeedKey, coarseKey(Seeds[I].second));
  }
  for (Count I = 0; I < NumSeeds; ++I)
    if (coarseKey(Seeds[I].second) == MinSeedKey)
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

    auto Push = [&Bins](VertexId V, int64_t Fine) { Bins.push(V, Fine); };

    // The window starts at the first round's bucket, so no later seed is
    // filed as sub-bin work. One thread files those seeds; they are few (a
    // repair's affected boundary), so load balance is unaffected.
    Bins.advanceTo(MinSeedKey);
    if (Tid == 0)
      for (Count I = 0; I < NumSeeds; ++I)
        if (coarseKey(Seeds[I].second) != MinSeedKey)
          Bins.push(Seeds[I].first, Seeds[I].second);

    while (!CancelLatched && SharedKeys[Iter & 1] != kMaxEagerKey &&
           !Stop(SharedKeys[Iter & 1])) {
      int64_t &CurrKey = SharedKeys[Iter & 1];
      int64_t &NextKey = SharedKeys[(Iter + 1) & 1];
      // CurrKey is reset for reuse between the barriers below; keep the
      // round's key for the share hand-off.
      const int64_t RoundKey = CurrKey;
      const int64_t RoundFine = RoundKey << kSubBinBits;

      // All bins below the round key are globally empty (it won the
      // round's min-reduction): slide the window forward, migrating
      // overflow.
      Bins.advanceTo(RoundKey);

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
            Relax(Items[I], RoundFine, Push);
          }
        }
      }

      // Bucket fusion (Fig. 7 lines 14-21): drain the lowest non-empty
      // sub-bin of the round's bucket without synchronizing, as long as it
      // stays below the threshold (large sub-bins go to the next global
      // round for load balance). Relaxations push into the same or higher
      // sub-bins, so the drains follow priority order. The swap recycles
      // storage both ways: the sub-bin inherits DrainBuf's cleared
      // capacity, DrainBuf inherits the sub-bin's elements.
      if (Fuse) {
        for (int Sub = Bins.lowestSubBin();
             Sub >= 0 &&
             static_cast<int64_t>(Bins.subBin(Sub).size()) < Threshold;
             Sub = Bins.lowestSubBin()) {
          DrainBuf.clear();
          Bins.takeSubBin(Sub, DrainBuf);
          ++LocalFused;
          const int64_t SubFine = RoundFine | Sub;
          const int64_t DrainSize = static_cast<int64_t>(DrainBuf.size());
          LocalVerts += DrainSize;
          for (int64_t K = 0; K < DrainSize; ++K) {
            if (K + kPrefetchDistance < DrainSize)
              VPrefetch(DrainBuf[static_cast<size_t>(K + kPrefetchDistance)]);
            Relax(DrainBuf[static_cast<size_t>(K)], SubFine, Push);
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
      // thread's work for the next key to its share — the sub-bins when
      // the round repeats its key, else the window bin — and the share's
      // cleared storage to the bin.
      Own.Items.clear();
      if (NextKey == RoundKey)
        Bins.takeSubBins(Own.Items);
      else if (Bins.nonEmptyAt(NextKey))
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
/// one vertex — the source at fine key 0, or the fine key of h(s) for A*).
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
