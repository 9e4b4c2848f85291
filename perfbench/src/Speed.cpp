//===- perfbench/src/Speed.cpp - CPU clocks and the machine-speed probe ---===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "Speed.h"

#include "Report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sys/mman.h>
#include <utility>

namespace perfbench {
namespace {

/// Kind::CacheWalk: a fixed number of dependent steps through a cycle of
/// 4 Mi entries (16 MiB, past every core's private cache), then a run of
/// integer arithmetic (the core clock).
constexpr size_t kCycleLength = size_t{1} << 22;
constexpr int kWalkSteps = 40000;
constexpr int kArithmeticSteps = 600000;
/// Kind::Dijkstra: a kSide x kSide grid.
constexpr uint32_t kSide = 200;
constexpr uint32_t kVertices = kSide * kSide;
constexpr uint32_t kSource = kVertices / 2 + kSide / 2;
/// Each kind's median CPU time on a quiet reference machine (a 4-vCPU KVM
/// guest on an Intel Xeon host); a run whose median probe takes this long
/// reports its CPU times unscaled.
constexpr double kReferenceWalkSeconds = 0.008;
constexpr double kReferenceDijkstraSeconds = 0.009;

double clockSeconds(clockid_t Id) {
  timespec T;
  clock_gettime(Id, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// Carves \p Count objects of type T off the front of \p At.
template <class T> T *carve(char *&At, size_t Count) {
  T *Out = reinterpret_cast<T *>(At);
  At += (Count * sizeof(T) + 63) & ~size_t{63};
  return Out;
}

} // namespace

double processCpuSeconds() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuSeconds() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }

SpeedProbe::SpeedProbe(Kind Which) : K(Which) {
  // At most 4 edges per grid vertex; a lazy-deletion heap holds at most
  // one entry per edge plus the source.
  const size_t MaxEdges = size_t{4} * kVertices;
  Bytes = K == Kind::CacheWalk
              ? kCycleLength * sizeof(uint32_t)
              : 64 * 6 + (kVertices + 1) * sizeof(uint32_t) +
                    MaxEdges * 2 * sizeof(uint32_t) +
                    kVertices * sizeof(uint64_t) +
                    (MaxEdges + 1) * sizeof(Entry);
  void *Mem = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED) {
    std::fprintf(stderr, "perfbench: cannot map the speed probe\n");
    std::exit(2);
  }
  Arena = static_cast<char *>(Mem);
  uint64_t X = 0x2545f4914f6cdd1dULL; // fixed: the same input in every run
  const auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };

  if (K == Kind::CacheWalk) {
    // Sattolo's shuffle: one cycle through every entry, so each step is a
    // dependent, unpredictable load.
    Cycle = reinterpret_cast<uint32_t *>(Arena);
    for (size_t I = 0; I < kCycleLength; ++I)
      Cycle[I] = static_cast<uint32_t>(I);
    for (size_t I = kCycleLength - 1; I > 0; --I)
      std::swap(Cycle[I], Cycle[Next() % I]);
    return;
  }

  char *At = Arena;
  Offsets = carve<uint32_t>(At, kVertices + 1);
  Targets = carve<uint32_t>(At, MaxEdges);
  Weights = carve<uint32_t>(At, MaxEdges);
  Dist = carve<uint64_t>(At, kVertices);
  Heap = carve<Entry>(At, MaxEdges + 1);
  // 4-neighbour grid, weights in [1, 1000].
  uint32_t E = 0;
  for (uint32_t V = 0; V < kVertices; ++V) {
    Offsets[V] = E;
    const uint32_t Row = V / kSide, Col = V % kSide;
    const uint32_t Near[4] = {Row > 0 ? V - kSide : V,
                              Row + 1 < kSide ? V + kSide : V,
                              Col > 0 ? V - 1 : V,
                              Col + 1 < kSide ? V + 1 : V};
    for (uint32_t U : Near) {
      if (U == V)
        continue;
      Targets[E] = U;
      Weights[E] = static_cast<uint32_t>(1 + Next() % 1000);
      ++E;
    }
  }
  Offsets[kVertices] = E;
}

SpeedProbe::~SpeedProbe() { munmap(Arena, Bytes); }

void SpeedProbe::sample() {
  const double T0 = threadCpuSeconds();
  if (K == Kind::CacheWalk)
    walk();
  else
    dijkstra();
  Seconds.push_back(threadCpuSeconds() - T0);
}

void SpeedProbe::walk() {
  uint32_t At = static_cast<uint32_t>(Sink % kCycleLength);
  for (int I = 0; I < kWalkSteps; ++I)
    At = Cycle[At];
  uint64_t X = At | 1;
  for (int I = 0; I < kArithmeticSteps; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    X ^= X >> 29;
  }
  Sink += X;
}

void SpeedProbe::dijkstra() {
  std::fill(Dist, Dist + kVertices, ~uint64_t{0});
  size_t Size = 0;
  const auto Later = [](const Entry &A, const Entry &B) { return A.D > B.D; };
  const auto Push = [&](uint64_t D, uint32_t V) {
    Heap[Size++] = {D, V};
    std::push_heap(Heap, Heap + Size, Later);
  };
  Dist[kSource] = 0;
  Push(0, kSource);
  while (Size > 0) {
    std::pop_heap(Heap, Heap + Size, Later);
    const Entry Top = Heap[--Size];
    if (Top.D != Dist[Top.V])
      continue;
    for (uint32_t I = Offsets[Top.V]; I < Offsets[Top.V + 1]; ++I) {
      const uint64_t D = Top.D + Weights[I];
      if (D < Dist[Targets[I]]) {
        Dist[Targets[I]] = D;
        Push(D, Targets[I]);
      }
    }
  }
}

double SpeedProbe::medianSeconds() const { return median(Seconds); }

double SpeedProbe::slowdown() const {
  const double Reference = K == Kind::CacheWalk ? kReferenceWalkSeconds
                                                : kReferenceDijkstraSeconds;
  return Seconds.empty() ? 1.0 : medianSeconds() / Reference;
}

const char *SpeedProbe::name() const {
  return K == Kind::CacheWalk ? "cache_walk" : "dijkstra";
}

} // namespace perfbench
