//===- perfbench/src/RoadSssp.cpp - The road_sssp kernel workload ---------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// road_sssp: the paper's headline case. A closed loop of one caller over 4
// OpenMP threads with nothing else running: full Δ-stepping SSSP
// (eager_with_fusion, Δ=8192) on a 1000x1000 road grid, where bucket
// fusion does most of the rounds. Sources are stratified, one per cell of
// a 4x4 partition of the grid, so every seed sees the same mix of central
// and corner sources and the median solve stays comparable.
//
// Each solve's CPU time (all threads) and wall time are taken around the
// library call; the speed probe runs after it, and every answer is hashed
// and compared with a Dijkstra oracle computed before the window, all
// outside the timed call.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Speed.h"

#include "algorithms/Dijkstra.h"
#include "algorithms/SSSP.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "support/Random.h"

#include <algorithm>
#include <omp.h>

namespace perfbench {

using namespace graphit;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kKernelThreads = 4;
/// Operation ids of measured operations start here; set-up spans carry
/// the set-up's ordinal.
constexpr uint64_t kWindowOpBase = 1000000;
/// Length of the generated operation list; the window cycles through it.
constexpr size_t kOpListLength = 4096;

/// A seeded order over \p PoolSize items, each round a fresh shuffle, so
/// every item recurs equally often in any window.
std::vector<uint32_t> shuffledRounds(uint32_t PoolSize, size_t Length,
                                     SplitMix64 &Rng) {
  std::vector<uint32_t> Out;
  std::vector<uint32_t> Round(PoolSize);
  while (Out.size() < Length) {
    for (uint32_t I = 0; I < PoolSize; ++I)
      Round[I] = I;
    for (uint32_t I = PoolSize; I > 1; --I)
      std::swap(Round[I - 1], Round[static_cast<uint32_t>(
                                  Rng.nextInt(0, static_cast<int64_t>(I)))]);
    Out.insert(Out.end(), Round.begin(), Round.end());
  }
  Out.resize(Length);
  return Out;
}

Count reachedCount(const std::vector<Priority> &Dist) {
  return std::count_if(Dist.begin(), Dist.end(), [](Priority D) {
    return D != kInfiniteDistance;
  });
}

/// Per-operation CPU time (every thread) and wall time of the window.
struct Window {
  std::vector<double> Cpu, Wall;

  template <class Fn> void time(Fn &&Call) {
    const double C0 = processCpuSeconds();
    const auto T0 = Clock::now();
    Call();
    Wall.push_back(secondsSince(T0));
    Cpu.push_back(processCpuSeconds() - C0);
  }
};

Graph buildRoadGraph(Count Side, uint64_t Seed) {
  RoadNetwork Net;
  {
    ScopedSpan S("graph.generate");
    Net = roadGrid(Side, Side, Seed);
  }
  ScopedSpan S("graph.build");
  BuildOptions Options;
  Options.Symmetrize = true;
  return GraphBuilder(Options).build(Net.NumNodes, std::move(Net.Edges));
}

/// Times one set-up (CPU and wall) into \p M, then samples \p Probe.
template <class Fn>
void timedSetup(Measured &M, SpeedProbe &Probe, int K, Fn &&SetUp) {
  const double C0 = processCpuSeconds();
  const auto T0 = Clock::now();
  {
    ScopedSpan S("bench.setup", static_cast<uint64_t>(K) + 1);
    SetUp();
  }
  M.SetupWall.push_back(secondsSince(T0));
  M.SetupCpu.push_back(processCpuSeconds() - C0);
  for (int I = 0; I < kProbesPerSetup; ++I)
    Probe.sample();
}

/// Counts one checked operation; an Ok one adds its wall time to
/// \p M's latencies.
void tally(RunRecord &R, Measured &M, const Window &W, bool Good) {
  ++R.Attempted;
  ++R.OracleChecked;
  if (Good) {
    ++R.Ok;
    M.OkLatency.push_back(W.Wall.back());
  } else {
    ++R.Failed;
    ++R.OracleMismatches;
  }
}

} // namespace

RunRecord runRoadSssp(const RunConfig &C) {
  const Count Side = C.Tiny ? 64 : 1000;
  const int Blocks = 4; // stratification: Blocks x Blocks source cells
  const int WarmupSolves = 2;
  omp_set_num_threads(kKernelThreads);
  Schedule Sched;
  Sched.Update = UpdateStrategy::EagerWithFusion;
  Sched.Delta = 8192;

  // Operation list: stratified sources and a seeded order over them.
  SplitMix64 Rng(C.Seed * 0x9e3779b97f4a7c15ULL + 0x55);
  const uint64_t GraphSeed = Rng.next();
  std::vector<VertexId> Sources;
  const Count Cell = Side / Blocks;
  for (int BR = 0; BR < Blocks; ++BR)
    for (int BC = 0; BC < Blocks; ++BC) {
      const Count Row = BR * Cell + Rng.nextInt(0, Cell);
      const Count Col = BC * Cell + Rng.nextInt(0, Cell);
      Sources.push_back(static_cast<VertexId>(Row * Side + Col));
    }
  const std::vector<uint32_t> Order = shuffledRounds(
      static_cast<uint32_t>(Sources.size()), kOpListLength, Rng);
  Checksum Ops;
  for (uint64_t V : {static_cast<uint64_t>(Side), GraphSeed,
                     static_cast<uint64_t>(Sched.Delta)})
    Ops.add(V);
  for (VertexId S : Sources)
    Ops.add(S);
  for (uint32_t I : Order)
    Ops.add(I);

  SpeedProbe SetupProbe(SpeedProbe::Kind::Dijkstra);
  SpeedProbe WindowProbe(SpeedProbe::Kind::Dijkstra);
  RunRecord R;
  Measured M;
  Graph G;
  for (int K = 0; K < setupRepeats(C); ++K)
    timedSetup(M, SetupProbe, K, [&] {
      G = buildRoadGraph(Side, GraphSeed);
      for (int W = 0; W < WarmupSolves; ++W) {
        ScopedSpan S("algorithms.sssp");
        (void)deltaSteppingSSSP(G, Sources[static_cast<size_t>(W)], Sched);
      }
      R.Warmup += WarmupSolves;
    });

  // Oracle, outside every timed window: one Dijkstra per source, kept as
  // a hash of the full distance vector.
  std::vector<uint64_t> Oracle;
  for (VertexId S : Sources)
    Oracle.push_back(hashVector(dijkstraSSSP(G, S)));

  Window W;
  CoreCounts Core;
  const int64_t WindowFrom = trace::nowNs();
  const auto Start = Clock::now();
  for (uint64_t I = 0; I == 0 || secondsSince(Start) < C.Seconds; ++I) {
    const uint32_t Which = Order[I % Order.size()];
    SSSPResult Res;
    W.time([&] {
      ScopedSpan S("algorithms.sssp", kWindowOpBase + I);
      Res = deltaSteppingSSSP(G, Sources[Which], Sched);
    });
    WindowProbe.sample();
    if (C.Corrupt && I == 0)
      Res.Dist[Sources[Which]] += 1;
    tally(R, M, W, hashVector(Res.Dist) == Oracle[Which]);
    Core.add(Res.Stats, static_cast<double>(reachedCount(Res.Dist)));
  }
  M.WindowSeconds = secondsSince(Start);
  M.HeapMb = heapMegabytes();
  M.OpCpu = median(W.Cpu);

  R.meta("sources", std::to_string(Sources.size()));
  addRunMeta(R, C, {0, 0, 1, 0, 0, kKernelThreads}, G.numNodes(),
             G.numEdges(), Ops.hex());
  reportEndToEnd(R, M, SetupProbe, WindowProbe);

  if (C.Trace) {
    R.Spans = trace::collect();
    reportGraphLayers(R);
    Core.report(R);
    R.layer("algorithms.sssp_ms",
            median(trace::durations(R.Spans, "algorithms.sssp", WindowFrom)) *
                1e3,
            "ms");
  }
  return R;
}

} // namespace perfbench
