//===- graph/Generators.cpp - Synthetic graph generators ------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"

#include "support/Abort.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace graphit;

std::vector<Edge> graphit::rmatEdges(int Scale, int AvgDegree, uint64_t Seed,
                                     double A, double B, double C) {
  if (Scale <= 0 || Scale > 30)
    fatalError("rmatEdges: scale out of range");
  if (A + B + C >= 1.0)
    fatalError("rmatEdges: quadrant probabilities must sum below 1");
  Count N = Count{1} << Scale;
  Count M = N * AvgDegree;
  std::vector<Edge> Edges(static_cast<size_t>(M));

  parallelFor(
      0, M,
      [&](Count I) {
        SplitMix64 Rng(hash64(Seed ^ static_cast<uint64_t>(I)));
        VertexId Src = 0, Dst = 0;
        for (int Level = 0; Level < Scale; ++Level) {
          double R = Rng.nextDouble();
          Src <<= 1;
          Dst <<= 1;
          if (R < A) {
            // top-left quadrant: neither bit set
          } else if (R < A + B) {
            Dst |= 1;
          } else if (R < A + B + C) {
            Src |= 1;
          } else {
            Src |= 1;
            Dst |= 1;
          }
        }
        // Random id permutation so degree is uncorrelated with vertex id
        // (GAPBS does the same for its Kronecker inputs).
        Src = static_cast<VertexId>(hash64(Seed ^ Src) % N);
        Dst = static_cast<VertexId>(hash64(Seed ^ Dst) % N);
        Edges[I] = Edge{Src, Dst, 1};
      },
      Parallelization::StaticVertexParallel);
  return Edges;
}

std::vector<Edge> graphit::erdosRenyiEdges(Count NumNodes, int AvgDegree,
                                           uint64_t Seed) {
  assert(NumNodes > 0 && "need at least one vertex");
  Count M = NumNodes * AvgDegree;
  std::vector<Edge> Edges(static_cast<size_t>(M));
  parallelFor(
      0, M,
      [&](Count I) {
        SplitMix64 Rng(hash64(Seed ^ static_cast<uint64_t>(I * 2 + 1)));
        Edges[I] = Edge{
            static_cast<VertexId>(Rng.nextInt(0, NumNodes)),
            static_cast<VertexId>(Rng.nextInt(0, NumNodes)), 1};
      },
      Parallelization::StaticVertexParallel);
  return Edges;
}

RoadNetwork graphit::roadGrid(Count Rows, Count Cols, uint64_t Seed,
                              double DropFraction,
                              double DiagonalFraction) {
  if (Rows < 2 || Cols < 2)
    fatalError("roadGrid: need at least a 2x2 grid");
  RoadNetwork Net;
  Net.NumNodes = Rows * Cols;
  Net.Coords.X.resize(static_cast<size_t>(Net.NumNodes));
  Net.Coords.Y.resize(static_cast<size_t>(Net.NumNodes));

  auto IdOf = [Cols](Count R, Count C) {
    return static_cast<VertexId>(R * Cols + C);
  };

  // Jittered intersection coordinates (unit spacing, +-0.3 displacement).
  parallelFor(
      0, Net.NumNodes,
      [&](Count V) {
        Count R = V / Cols, C = V % Cols;
        SplitMix64 Rng(hash64(Seed ^ (0x1000000ULL + V)));
        Net.Coords.X[V] = static_cast<double>(C) +
                          (Rng.nextDouble() - 0.5) * 0.6;
        Net.Coords.Y[V] = static_cast<double>(R) +
                          (Rng.nextDouble() - 0.5) * 0.6;
      },
      Parallelization::StaticVertexParallel);

  auto EdgeWeight = [&](VertexId U, VertexId V, SplitMix64 &Rng) {
    double DX = Net.Coords.X[U] - Net.Coords.X[V];
    double DY = Net.Coords.Y[U] - Net.Coords.Y[V];
    double Dist = std::sqrt(DX * DX + DY * DY);
    // Road-class heterogeneity: most segments are fast (stretch near 1),
    // a long tail is up to 5x slower (local roads). Weights never drop
    // below 100 x Euclidean length, preserving A* admissibility, and the
    // variance makes hop-optimal and weight-optimal paths diverge — the
    // regime where unordered Bellman-Ford does redundant work (Fig. 1).
    double R = Rng.nextDouble();
    double Stretch = 1.0 + 4.0 * R * R;
    return static_cast<Weight>(
        std::max(1.0, std::ceil(100.0 * Dist * Stretch)));
  };

  // Room for every grid edge plus the expected diagonals and six standard
  // deviations of their count, so the list is not regrown as it fills.
  const double Diagonals = std::clamp(DiagonalFraction, 0.0, 1.0) *
                           static_cast<double>((Rows - 1) * (Cols - 1));
  Net.Edges.reserve(static_cast<size_t>(Rows * (Cols - 1) +
                                        (Rows - 1) * Cols + Diagonals +
                                        6.0 * std::sqrt(Diagonals) + 16.0));

  // Grid edges, thinned by DropFraction to make the network irregular.
  for (Count R = 0; R < Rows; ++R) {
    for (Count C = 0; C < Cols; ++C) {
      VertexId U = IdOf(R, C);
      SplitMix64 Rng(hash64(Seed ^ (0x2000000ULL + U)));
      if (C + 1 < Cols && Rng.nextDouble() >= DropFraction) {
        VertexId V = IdOf(R, C + 1);
        Net.Edges.push_back(Edge{U, V, EdgeWeight(U, V, Rng)});
      }
      if (R + 1 < Rows && Rng.nextDouble() >= DropFraction) {
        VertexId V = IdOf(R + 1, C);
        Net.Edges.push_back(Edge{U, V, EdgeWeight(U, V, Rng)});
      }
      if (R + 1 < Rows && C + 1 < Cols &&
          Rng.nextDouble() < DiagonalFraction) {
        VertexId V = IdOf(R + 1, C + 1);
        Net.Edges.push_back(Edge{U, V, EdgeWeight(U, V, Rng)});
      }
    }
  }
  return Net;
}

std::vector<std::pair<VertexId, VertexId>>
graphit::localGridQueryPairs(Count Rows, Count Cols, Count Window,
                             Count HowMany, uint64_t Seed) {
  assert(Rows > 0 && Cols > 0 && Window > 0 && "degenerate grid");
  SplitMix64 Rng(Seed);
  std::vector<std::pair<VertexId, VertexId>> Pairs;
  Pairs.reserve(static_cast<size_t>(HowMany));
  for (Count I = 0; I < HowMany; ++I) {
    Count SR = Rng.nextInt(0, Rows), SC = Rng.nextInt(0, Cols);
    Count TR = std::min(
        Rows - 1,
        std::max<Count>(0, SR + Rng.nextInt(-Window, Window + 1)));
    Count TC = std::min(
        Cols - 1,
        std::max<Count>(0, SC + Rng.nextInt(-Window, Window + 1)));
    Pairs.emplace_back(static_cast<VertexId>(SR * Cols + SC),
                       static_cast<VertexId>(TR * Cols + TC));
  }
  return Pairs;
}

std::vector<Edge> graphit::pathEdges(Count NumNodes) {
  std::vector<Edge> Edges;
  for (Count I = 0; I + 1 < NumNodes; ++I)
    Edges.push_back(Edge{static_cast<VertexId>(I),
                         static_cast<VertexId>(I + 1), 1});
  return Edges;
}

std::vector<Edge> graphit::cycleEdges(Count NumNodes) {
  std::vector<Edge> Edges = pathEdges(NumNodes);
  if (NumNodes > 1)
    Edges.push_back(Edge{static_cast<VertexId>(NumNodes - 1), 0, 1});
  return Edges;
}

std::vector<Edge> graphit::starEdges(Count NumNodes) {
  std::vector<Edge> Edges;
  for (Count I = 1; I < NumNodes; ++I)
    Edges.push_back(Edge{0, static_cast<VertexId>(I), 1});
  return Edges;
}

std::vector<Edge> graphit::completeGraphEdges(Count NumNodes) {
  std::vector<Edge> Edges;
  for (Count U = 0; U < NumNodes; ++U)
    for (Count V = 0; V < NumNodes; ++V)
      if (U != V)
        Edges.push_back(Edge{static_cast<VertexId>(U),
                             static_cast<VertexId>(V), 1});
  return Edges;
}

std::vector<Edge> graphit::binaryTreeEdges(Count NumNodes) {
  std::vector<Edge> Edges;
  for (Count I = 1; I < NumNodes; ++I)
    Edges.push_back(Edge{static_cast<VertexId>((I - 1) / 2),
                         static_cast<VertexId>(I), 1});
  return Edges;
}
