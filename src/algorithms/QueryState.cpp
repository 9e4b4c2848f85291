//===- algorithms/QueryState.cpp - Reusable per-query state ---------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "algorithms/QueryState.h"

#include "support/Atomics.h"

#include <cassert>
#include <omp.h>
#include <utility>

using namespace graphit;

DistanceState::DistanceState(Count NumNodes, bool WithParents)
    : TrackParents(WithParents) {
  resize(NumNodes);
}

void DistanceState::resize(Count NewNumNodes) {
  if (NewNumNodes <= numNodes())
    return;
  const size_t N = static_cast<size_t>(NewNumNodes);
  Dist.resize(N, kInfiniteDistance);
  if (TrackParents)
    Parent.resize(N, kInvalidVertex);
  // Line indices do not depend on the size, so held marks stay valid.
  Lines.resize(static_cast<size_t>((NewNumNodes + kWordVertices - 1) /
                                   kWordVertices),
               0);
  Summary.resize(static_cast<size_t>((NewNumNodes + kSummaryVertices - 1) /
                                     kSummaryVertices),
                 0);
}

void DistanceState::beginQuery(VertexId Source) {
  // O(marked lines): only the lines earlier queries wrote are refilled.
  forEachMarkedLine([&](Count Lo, Count Hi) {
    std::fill(Dist.begin() + Lo, Dist.begin() + Hi, kInfiniteDistance);
    if (TrackParents)
      std::fill(Parent.begin() + Lo, Parent.begin() + Hi, kInvalidVertex);
  });
  for (size_t S = 0; S < Summary.size(); ++S)
    for (uint64_t SW = std::exchange(Summary[S], 0); SW; SW &= SW - 1)
      Lines[S * 64 + static_cast<size_t>(__builtin_ctzll(SW))] = 0;
  Reached = 0;
  ++QueriesBegun;

  Source_ = Source;
  Dist[Source] = 0;
  recordImprovementSerial(Source, Source, /*First=*/true);
}

DistanceState::RunTouch::RunTouch(DistanceState &S) : State(&S) {
  const int Threads = omp_get_max_threads();
  if (Threads > 1) {
    Slots = std::make_unique<ThreadCount[]>(static_cast<size_t>(Threads));
    NumSlots = Threads;
  }
}

void DistanceState::RunTouch::recordConcurrent(VertexId V, VertexId From,
                                               bool First) {
  if (State->TrackParents)
    atomicStoreRelaxed(&State->Parent[V], From);
  if (!First)
    return;
  const int Thread = omp_get_thread_num();
  assert(Thread < NumSlots && "touched from a thread past the team size");
  ++Slots[Thread].N;
  const size_t Line = V / kLineVertices;
  const size_t Word = Line / 64;
  const uint64_t Bit = uint64_t{1} << (Line % 64);
  uint64_t &LineWord = State->Lines[Word];
  if (atomicLoadRelaxed(&LineWord) & Bit)
    return;
  // Only the call that takes the word off zero sets its summary bit.
  if (detail::asAtomic(LineWord).fetch_or(Bit, std::memory_order_relaxed))
    return;
  detail::asAtomic(State->Summary[Word / 64])
      .fetch_or(uint64_t{1} << (Word % 64), std::memory_order_relaxed);
}

void DistanceState::RunTouch::close() {
  for (int I = 0; I < NumSlots; ++I)
    State->Reached += std::exchange(Slots[I].N, 0);
}
