//===- support/Parallel.cpp - OpenMP parallel primitives ------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include "support/TSanAnnotate.h"

#include <omp.h>

using namespace graphit;

#ifdef GRAPHIT_TSAN_ENABLED
// Pairing address for the pre-region sync gate (see TSanAnnotate.h).
extern "C" char GraphitTsanRegionGate;
char GraphitTsanRegionGate = 0;
#endif

int graphit::getNumWorkers() { return omp_get_max_threads(); }

void graphit::setNumWorkers(int NumWorkers) {
  omp_set_num_threads(NumWorkers);
}

namespace {

/// The blocked prefix sum over either element type; sums run in 64 bits.
template <typename T> int64_t prefixSum(T *Values, Count N) {
  if (N == 0)
    return 0;
  if (N < 4096) {
    int64_t Running = 0;
    for (Count I = 0; I < N; ++I) {
      int64_t V = Values[I];
      Values[I] = static_cast<T>(Running);
      Running += V;
    }
    return Running;
  }

  int NumBlocks = std::max(1, getNumWorkers() * 4);
  Count BlockSize = (N + NumBlocks - 1) / NumBlocks;
  std::vector<int64_t> BlockTotals(NumBlocks, 0);
  int Tag = 0;
  GRAPHIT_OMP_REGION_ENTER(&Tag);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&Tag);
#pragma omp for schedule(static, 1) nowait
    for (int B = 0; B < NumBlocks; ++B) {
      Count Lo = B * BlockSize, Hi = std::min(N, Lo + BlockSize);
      int64_t Sum = 0;
      for (Count I = Lo; I < Hi; ++I)
        Sum += Values[I];
      BlockTotals[B] = Sum;
    }
    GRAPHIT_OMP_REGION_END(&Tag);
  }
  GRAPHIT_OMP_REGION_EXIT(&Tag);
  int64_t Running = 0;
  for (int B = 0; B < NumBlocks; ++B) {
    int64_t V = BlockTotals[B];
    BlockTotals[B] = Running;
    Running += V;
  }
  GRAPHIT_OMP_REGION_ENTER(&Tag);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&Tag);
#pragma omp for schedule(static, 1) nowait
    for (int B = 0; B < NumBlocks; ++B) {
      Count Lo = B * BlockSize, Hi = std::min(N, Lo + BlockSize);
      int64_t Prefix = BlockTotals[B];
      for (Count I = Lo; I < Hi; ++I) {
        int64_t V = Values[I];
        Values[I] = static_cast<T>(Prefix);
        Prefix += V;
      }
    }
    GRAPHIT_OMP_REGION_END(&Tag);
  }
  GRAPHIT_OMP_REGION_EXIT(&Tag);
  return Running;
}

} // namespace

int64_t graphit::exclusivePrefixSum(int64_t *Values, Count N) {
  return prefixSum(Values, N);
}

int64_t graphit::exclusivePrefixSum(EdgeOffset *Values, Count N) {
  return prefixSum(Values, N);
}
