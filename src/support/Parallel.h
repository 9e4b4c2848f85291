//===- support/Parallel.h - OpenMP parallel primitives ----------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin OpenMP wrappers used throughout the runtime: parallel loops with the
/// paper's load-balance strategies, parallel prefix sums, reductions, and
/// filter/pack. Keeping them here lets the generated code (and the hand
/// written algorithms that stand in for generated code) stay terse.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SUPPORT_PARALLEL_H
#define GRAPHIT_SUPPORT_PARALLEL_H

#include "support/Atomics.h"
#include "support/TSanAnnotate.h"
#include "support/Types.h"

#include <algorithm>
#include <cassert>
#include <omp.h>
#include <vector>

namespace graphit {

/// Load-balance strategy for parallel vertex loops, mirroring the
/// `configApplyParallelization` options of the scheduling language.
enum class Parallelization {
  Serial,                ///< Run on the calling thread.
  StaticVertexParallel,  ///< `schedule(static)`.
  DynamicVertexParallel, ///< `schedule(dynamic, 64)` (the paper's default).
};

/// \returns the number of threads parallel regions will use.
int getNumWorkers();

/// Caps the number of threads used by subsequent parallel regions.
/// Used by the scalability benchmarks (Fig. 11).
void setNumWorkers(int NumWorkers);

/// Grain size under dynamic scheduling; matches `schedule(dynamic, 64)` in
/// the paper's generated code (Fig. 9(c), line 15).
inline constexpr int kDynamicGrain = 64;

/// The eager engine's bucket fusion drains each thread's part of the
/// current Δ-bucket in this many priority-ordered sub-bins
/// (core/OrderedProcess.h). A fine key carries `kSubBinBits` more bits than
/// the bucket key it refines.
inline constexpr int kSubBinBits = 3;
inline constexpr int kSubBins = 1 << kSubBinBits;

/// Below this trip count a parallel region costs more than it saves; the
/// loop runs inline on the calling thread. Ordered algorithms hit this
/// constantly (road-network buckets hold a handful of vertices).
inline constexpr Count kSerialGrain = 512;

/// Runs `Fn(I)` for every I in [Begin, End) using the requested strategy.
template <typename Fn>
void parallelFor(Count Begin, Count End, Fn &&Body,
                 Parallelization Strategy =
                     Parallelization::DynamicVertexParallel) {
  assert(Begin <= End && "parallelFor got an inverted range");
  if (End - Begin < kSerialGrain)
    Strategy = Parallelization::Serial;
  if (Strategy == Parallelization::Serial) {
    for (Count I = Begin; I < End; ++I)
      Body(I);
    return;
  }
  int Tag = 0;
  GRAPHIT_OMP_REGION_ENTER(&Tag);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&Tag);
    if (Strategy == Parallelization::StaticVertexParallel) {
#pragma omp for schedule(static) nowait
      for (Count I = Begin; I < End; ++I)
        Body(I);
    } else {
#pragma omp for schedule(dynamic, kDynamicGrain) nowait
      for (Count I = Begin; I < End; ++I)
        Body(I);
    }
    GRAPHIT_OMP_REGION_END(&Tag);
  }
  GRAPHIT_OMP_REGION_EXIT(&Tag);
}

/// Sums `Fn(I)` over [Begin, End) in parallel. Merged with one atomic add
/// per thread rather than an OpenMP `reduction` clause, whose libgomp-side
/// combine is invisible to ThreadSanitizer.
template <typename Fn>
int64_t parallelSum(Count Begin, Count End, Fn &&Body) {
  int64_t Total = 0;
  GRAPHIT_OMP_REGION_ENTER(&Total);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&Total);
    int64_t Mine = 0;
#pragma omp for schedule(static) nowait
    for (Count I = Begin; I < End; ++I)
      Mine += Body(I);
    fetchAdd(&Total, Mine);
    GRAPHIT_OMP_REGION_END(&Total);
  }
  GRAPHIT_OMP_REGION_EXIT(&Total);
  return Total;
}

/// Minimum of `Fn(I)` over [Begin, End) in parallel; \p Identity is returned
/// for an empty range.
template <typename Fn>
int64_t parallelMin(Count Begin, Count End, int64_t Identity, Fn &&Body) {
  int64_t Result = Identity;
  GRAPHIT_OMP_REGION_ENTER(&Result);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&Result);
    int64_t Mine = Identity;
#pragma omp for schedule(static) nowait
    for (Count I = Begin; I < End; ++I)
      Mine = std::min(Mine, static_cast<int64_t>(Body(I)));
    atomicMin(&Result, Mine);
    GRAPHIT_OMP_REGION_END(&Result);
  }
  GRAPHIT_OMP_REGION_EXIT(&Result);
  return Result;
}

/// Exclusive prefix sum of \p Values in place; \returns the grand total.
/// Two-pass blocked algorithm, O(n) work.
int64_t exclusivePrefixSum(int64_t *Values, Count N);
/// The same over CSR row offsets. The total is summed in 64 bits, so a
/// caller can check it with `checkEdgeOffsetLimit` (graph/Graph.h); the
/// stored prefixes wrap past that limit.
int64_t exclusivePrefixSum(EdgeOffset *Values, Count N);

/// Exclusive prefix sum over a vector, returning the total.
inline int64_t exclusivePrefixSum(std::vector<int64_t> &Values) {
  return exclusivePrefixSum(Values.data(),
                            static_cast<Count>(Values.size()));
}

/// Per-block trip count below which the blocked pack kernel falls back to
/// one sequential pass (two parallel passes cost more than they save).
inline constexpr Count kPackSerialBlockFloor = 2048;

namespace detail {

/// Shared kernel of `parallelPack` / `parallelPackIndex`: writes
/// `Get(I)` for every index I in [0, N) with `Keep(I)`, order-preserving,
/// using a blocked count / prefix-sum / scatter scheme.
template <typename OutT, typename KeepIdxFn, typename GetFn>
Count packImpl(Count N, OutT *Out, KeepIdxFn &&Keep, GetFn &&Get) {
  int NumBlocks = std::max(1, getNumWorkers() * 4);
  Count BlockSize = (N + NumBlocks - 1) / NumBlocks;
  if (BlockSize < kPackSerialBlockFloor) {
    Count M = 0;
    for (Count I = 0; I < N; ++I)
      if (Keep(I))
        Out[M++] = Get(I);
    return M;
  }
  std::vector<int64_t> BlockCounts(NumBlocks + 1, 0);
  int Tag = 0;
  GRAPHIT_OMP_REGION_ENTER(&Tag);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&Tag);
#pragma omp for schedule(static, 1) nowait
    for (int B = 0; B < NumBlocks; ++B) {
      Count Lo = B * BlockSize, Hi = std::min(N, Lo + BlockSize);
      int64_t Kept = 0;
      for (Count I = Lo; I < Hi; ++I)
        Kept += Keep(I) ? 1 : 0;
      BlockCounts[B] = Kept;
    }
    GRAPHIT_OMP_REGION_END(&Tag);
  }
  GRAPHIT_OMP_REGION_EXIT(&Tag);
  int64_t Total = exclusivePrefixSum(BlockCounts.data(), NumBlocks + 1);
  GRAPHIT_OMP_REGION_ENTER(&Tag);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&Tag);
#pragma omp for schedule(static, 1) nowait
    for (int B = 0; B < NumBlocks; ++B) {
      Count Lo = B * BlockSize, Hi = std::min(N, Lo + BlockSize);
      Count Pos = BlockCounts[B];
      for (Count I = Lo; I < Hi; ++I)
        if (Keep(I))
          Out[Pos++] = Get(I);
    }
    GRAPHIT_OMP_REGION_END(&Tag);
  }
  GRAPHIT_OMP_REGION_EXIT(&Tag);
  return Total;
}

} // namespace detail

/// Parallel filter: copies every element of [In, In+N) for which
/// `Keep(Element)` holds into \p Out (preserving order) and returns the
/// number of kept elements. \p Out must have room for N elements.
template <typename T, typename KeepFn>
Count parallelPack(const T *In, Count N, T *Out, KeepFn &&Keep) {
  return detail::packImpl(
      N, Out, [&](Count I) { return Keep(In[I]); },
      [&](Count I) { return In[I]; });
}

/// Parallel index filter: writes every index I in [0, N) for which
/// `Keep(I)` holds into \p Out (ascending) and returns how many were
/// written. \p Out must have room for N elements. The index-based twin of
/// `parallelPack`, for packing positions of set bits out of a dense map.
template <typename OutT, typename KeepFn>
Count parallelPackIndex(Count N, OutT *Out, KeepFn &&Keep) {
  return detail::packImpl(N, Out, Keep,
                          [](Count I) { return static_cast<OutT>(I); });
}

} // namespace graphit

#endif // GRAPHIT_SUPPORT_PARALLEL_H
