//===- tests/graph_test.cpp - Unit tests for src/graph --------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "graph/Builder.h"
#include "graph/Generators.h"
#include "graph/Graph.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

using namespace graphit;

namespace {

Graph buildSmall(std::vector<Edge> Edges, Count N,
                 BuildOptions Options = BuildOptions()) {
  return GraphBuilder(Options).build(N, std::move(Edges));
}

std::multiset<std::pair<VertexId, Weight>> neighborsOf(const Graph &G,
                                                       VertexId V) {
  std::multiset<std::pair<VertexId, Weight>> Result;
  for (WNode E : G.outNeighbors(V))
    Result.insert({E.V, E.W});
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

TEST(Builder, BasicCSRShape) {
  Graph G = buildSmall({{0, 1, 5}, {0, 2, 7}, {1, 2, 1}}, 3);
  EXPECT_EQ(G.numNodes(), 3);
  EXPECT_EQ(G.numEdges(), 3);
  EXPECT_EQ(G.outDegree(0), 2);
  EXPECT_EQ(G.outDegree(1), 1);
  EXPECT_EQ(G.outDegree(2), 0);
  EXPECT_EQ(neighborsOf(G, 0),
            (std::multiset<std::pair<VertexId, Weight>>{{1, 5}, {2, 7}}));
}

TEST(Builder, InEdgesMirrorOutEdges) {
  Graph G = buildSmall({{0, 1, 5}, {2, 1, 3}}, 3);
  ASSERT_TRUE(G.hasInEdges());
  EXPECT_EQ(G.inDegree(1), 2);
  EXPECT_EQ(G.inDegree(0), 0);
  std::multiset<std::pair<VertexId, Weight>> In;
  for (WNode E : G.inNeighbors(1))
    In.insert({E.V, E.W});
  EXPECT_EQ(In,
            (std::multiset<std::pair<VertexId, Weight>>{{0, 5}, {2, 3}}));
}

TEST(Builder, SymmetrizeDoublesEdges) {
  BuildOptions Options;
  Options.Symmetrize = true;
  Graph G = buildSmall({{0, 1, 5}, {1, 2, 3}}, 3, Options);
  EXPECT_TRUE(G.isSymmetric());
  EXPECT_EQ(G.numEdges(), 4);
  EXPECT_EQ(G.outDegree(1), 2);
  // In-neighbors alias out-neighbors on symmetric graphs.
  EXPECT_EQ(G.inDegree(1), 2);
}

TEST(Builder, RemovesSelfLoops) {
  Graph G = buildSmall({{0, 0, 1}, {0, 1, 2}, {1, 1, 9}}, 2);
  EXPECT_EQ(G.numEdges(), 1);
  EXPECT_EQ(G.outDegree(0), 1);
  EXPECT_EQ(G.outDegree(1), 0);
}

TEST(Builder, KeepsSelfLoopsWhenAsked) {
  BuildOptions Options;
  Options.RemoveSelfLoops = false;
  Graph G = buildSmall({{0, 0, 1}, {0, 1, 2}}, 2, Options);
  EXPECT_EQ(G.numEdges(), 2);
}

TEST(Builder, DeduplicatesKeepingMinWeight) {
  Graph G = buildSmall({{0, 1, 9}, {0, 1, 4}, {0, 1, 6}}, 2);
  EXPECT_EQ(G.numEdges(), 1);
  EXPECT_EQ(neighborsOf(G, 0),
            (std::multiset<std::pair<VertexId, Weight>>{{1, 4}}));
}

TEST(Builder, KeepsParallelEdgesWhenAsked) {
  BuildOptions Options;
  Options.RemoveDuplicates = false;
  Graph G = buildSmall({{0, 1, 9}, {0, 1, 4}}, 2, Options);
  EXPECT_EQ(G.numEdges(), 2);
}

TEST(Builder, UnweightedGraphReportsUnitWeights) {
  BuildOptions Options;
  Options.Weighted = false;
  Graph G = buildSmall({{0, 1, 77}}, 2, Options);
  EXPECT_FALSE(G.isWeighted());
  for (WNode E : G.outNeighbors(0))
    EXPECT_EQ(E.W, 1);
}

TEST(Builder, AdjacencySortedById) {
  Graph G = buildSmall({{0, 3, 1}, {0, 1, 1}, {0, 2, 1}}, 4);
  std::vector<VertexId> Order;
  for (WNode E : G.outNeighbors(0))
    Order.push_back(E.V);
  EXPECT_EQ(Order, (std::vector<VertexId>{1, 2, 3}));
}

TEST(Builder, EmptyGraph) {
  Graph G = buildSmall({}, 5);
  EXPECT_EQ(G.numNodes(), 5);
  EXPECT_EQ(G.numEdges(), 0);
  for (VertexId V = 0; V < 5; ++V)
    EXPECT_EQ(G.outDegree(V), 0);
}

TEST(Builder, CoordinatesAttach) {
  Coordinates C;
  C.X = {0.0, 1.0};
  C.Y = {0.5, 1.5};
  Graph G = GraphBuilder().build(2, {{0, 1, 1}}, std::move(C));
  ASSERT_TRUE(G.hasCoordinates());
  EXPECT_DOUBLE_EQ(G.coordinates().X[1], 1.0);
}

TEST(Builder, OutDegreeSum) {
  Graph G = buildSmall({{0, 1, 1}, {0, 2, 1}, {1, 2, 1}}, 3);
  VertexId Vs[] = {0, 1};
  EXPECT_EQ(G.outDegreeSum(Vs, 2), 3);
  EXPECT_EQ(G.outDegreeSum(Vs, 0), 0);
}

TEST(Builder, PerRowDedupMatchesSortAndUniqueReference) {
  // Edge lists heavy with parallel edges (each (u, v) pair ~4 times, with
  // different weights) and self-loops. The builder drops duplicates per
  // sorted CSR row; the reference sorts and uniques the whole list.
  // 3000 vertices keep the builder on its parallel paths.
  const Count N = 3000;
  std::vector<Edge> Edges;
  for (uint64_t I = 0; I < 60000; ++I) {
    uint64_t H = hash64(I);
    VertexId Src = static_cast<VertexId>(H % N);
    VertexId Dst = static_cast<VertexId>((Src + (H >> 24) % 5) % N);
    Edges.push_back({Src, Dst, static_cast<Weight>(1 + (H >> 40) % 50)});
  }

  struct Case {
    const char *Name;
    bool Symmetrize;
    bool Weighted;
  };
  for (Case C : {Case{"directed", false, true}, Case{"symmetric", true, true},
                 Case{"unweighted", false, false}}) {
    SCOPED_TRACE(C.Name);
    BuildOptions Options;
    Options.Symmetrize = C.Symmetrize;
    Options.Weighted = C.Weighted;
    Graph G = GraphBuilder(Options).build(N, Edges);

    std::vector<Edge> Ref = Edges;
    if (C.Symmetrize)
      for (const Edge &E : Edges)
        Ref.push_back({E.Dst, E.Src, E.W});
    Ref.erase(std::remove_if(Ref.begin(), Ref.end(),
                             [](const Edge &E) { return E.Src == E.Dst; }),
              Ref.end());
    std::sort(Ref.begin(), Ref.end(), [](const Edge &A, const Edge &B) {
      return std::tie(A.Src, A.Dst, A.W) < std::tie(B.Src, B.Dst, B.W);
    });
    Ref.erase(std::unique(Ref.begin(), Ref.end(),
                          [](const Edge &A, const Edge &B) {
                            return A.Src == B.Src && A.Dst == B.Dst;
                          }),
              Ref.end());
    ASSERT_LT(Ref.size(), Edges.size() / 2) << "input must be dup-heavy";
    EXPECT_EQ(G.numEdges(), static_cast<Count>(Ref.size()));

    // Expected rows in CSR order: out-rows by (src, dst), in-rows by
    // (dst, src); unweighted graphs report unit weights.
    using Row = std::vector<std::pair<VertexId, Weight>>;
    std::vector<Row> Out(N), In(N);
    for (const Edge &E : Ref) {
      Weight W = C.Weighted ? E.W : 1;
      Out[E.Src].push_back({E.Dst, W});
      In[E.Dst].push_back({E.Src, W});
    }
    for (Row &R : In)
      std::sort(R.begin(), R.end());
    for (VertexId V = 0; V < N; ++V) {
      Row GotOut, GotIn;
      for (WNode E : G.outNeighbors(V))
        GotOut.push_back({E.V, E.W});
      for (WNode E : G.inNeighbors(V))
        GotIn.push_back({E.V, E.W});
      ASSERT_EQ(GotOut, Out[V]) << "out-row of " << V;
      // Symmetric graphs alias in-rows to out-rows.
      ASSERT_EQ(GotIn, C.Symmetrize ? Out[V] : In[V]) << "in-row of " << V;
    }
  }
}

TEST(Builder, SymmetrizedCopyOfDirectedGraph) {
  Graph G = buildSmall({{0, 1, 5}, {1, 2, 3}}, 3);
  Graph S = G.symmetrized();
  EXPECT_TRUE(S.isSymmetric());
  EXPECT_EQ(S.numEdges(), 4);
  EXPECT_EQ(S.outDegree(1), 2);
  // Symmetrizing a symmetric graph is the identity.
  Graph S2 = S.symmetrized();
  EXPECT_EQ(S2.numEdges(), S.numEdges());
}

//===----------------------------------------------------------------------===//
// Weights
//===----------------------------------------------------------------------===//

TEST(Weights, RandomWeightsInRangeAndDeterministic) {
  std::vector<Edge> A = {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}};
  std::vector<Edge> B = A;
  assignRandomWeights(A, 1, 1000, 42);
  assignRandomWeights(B, 1, 1000, 42);
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_GE(A[I].W, 1);
    EXPECT_LT(A[I].W, 1000);
    EXPECT_EQ(A[I].W, B[I].W);
  }
}

TEST(Weights, WeightDependsOnEndpointsNotPosition) {
  std::vector<Edge> A = {{0, 1, 0}, {5, 6, 0}};
  std::vector<Edge> B = {{5, 6, 0}, {0, 1, 0}};
  assignRandomWeights(A, 1, 100, 7);
  assignRandomWeights(B, 1, 100, 7);
  EXPECT_EQ(A[0].W, B[1].W);
  EXPECT_EQ(A[1].W, B[0].W);
}

//===----------------------------------------------------------------------===//
// Generators
//===----------------------------------------------------------------------===//

TEST(Generators, PathShape) {
  Graph G = buildSmall(pathEdges(5), 5);
  EXPECT_EQ(G.numEdges(), 4);
  EXPECT_EQ(G.outDegree(0), 1);
  EXPECT_EQ(G.outDegree(4), 0);
}

TEST(Generators, CycleShape) {
  Graph G = buildSmall(cycleEdges(5), 5);
  EXPECT_EQ(G.numEdges(), 5);
  for (VertexId V = 0; V < 5; ++V)
    EXPECT_EQ(G.outDegree(V), 1);
}

TEST(Generators, StarShape) {
  Graph G = buildSmall(starEdges(6), 6);
  EXPECT_EQ(G.outDegree(0), 5);
  for (VertexId V = 1; V < 6; ++V)
    EXPECT_EQ(G.outDegree(V), 0);
}

TEST(Generators, CompleteGraphShape) {
  Graph G = buildSmall(completeGraphEdges(4), 4);
  EXPECT_EQ(G.numEdges(), 12);
  for (VertexId V = 0; V < 4; ++V)
    EXPECT_EQ(G.outDegree(V), 3);
}

TEST(Generators, BinaryTreeShape) {
  Graph G = buildSmall(binaryTreeEdges(7), 7);
  EXPECT_EQ(G.numEdges(), 6);
  EXPECT_EQ(G.outDegree(0), 2);
  EXPECT_EQ(G.outDegree(3), 0);
}

TEST(Generators, RmatDeterministicAndInRange) {
  std::vector<Edge> A = rmatEdges(10, 8, 123);
  std::vector<Edge> B = rmatEdges(10, 8, 123);
  ASSERT_EQ(A.size(), size_t{1024 * 8});
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_LT(A[I].Src, 1024u);
    ASSERT_LT(A[I].Dst, 1024u);
    ASSERT_EQ(A[I].Src, B[I].Src);
    ASSERT_EQ(A[I].Dst, B[I].Dst);
  }
}

TEST(Generators, RmatDifferentSeedsDiffer) {
  std::vector<Edge> A = rmatEdges(10, 8, 1);
  std::vector<Edge> B = rmatEdges(10, 8, 2);
  int Same = 0;
  for (size_t I = 0; I < A.size(); ++I)
    Same += (A[I].Src == B[I].Src && A[I].Dst == B[I].Dst) ? 1 : 0;
  EXPECT_LT(Same, static_cast<int>(A.size() / 10));
}

TEST(Generators, RmatIsSkewed) {
  // R-MAT with a=0.57 must concentrate degree: the top-1% of vertices
  // should hold well above 1% of the edges.
  Graph G = buildSmall(rmatEdges(12, 16, 99), Count{1} << 12);
  std::vector<Count> Degrees;
  for (VertexId V = 0; V < G.numNodes(); ++V)
    Degrees.push_back(G.outDegree(V));
  std::sort(Degrees.begin(), Degrees.end(), std::greater<>());
  Count Top1Percent = 0;
  for (Count I = 0; I < G.numNodes() / 100; ++I)
    Top1Percent += Degrees[I];
  EXPECT_GT(Top1Percent, G.numEdges() / 10);
}

TEST(Generators, ErdosRenyiShape) {
  std::vector<Edge> Edges = erdosRenyiEdges(1000, 4, 5);
  EXPECT_EQ(Edges.size(), 4000u);
  for (const Edge &E : Edges) {
    ASSERT_LT(E.Src, 1000u);
    ASSERT_LT(E.Dst, 1000u);
  }
}

TEST(Generators, RoadGridShapeAndCoordinates) {
  RoadNetwork Net = roadGrid(20, 30, 7);
  EXPECT_EQ(Net.NumNodes, 600);
  EXPECT_EQ(Net.Coords.size(), 600);
  // Roughly 2*R*C grid edges minus drops.
  EXPECT_GT(static_cast<Count>(Net.Edges.size()), 1000);
  for (const Edge &E : Net.Edges) {
    ASSERT_LT(E.Src, 600u);
    ASSERT_LT(E.Dst, 600u);
    ASSERT_GE(E.W, 1);
  }
}

TEST(Generators, RoadGridWeightsAdmissibleForAStar) {
  // Every edge weight must be >= 100 * euclidean distance between its
  // endpoints, which makes the scaled Euclidean heuristic admissible.
  RoadNetwork Net = roadGrid(15, 15, 21);
  for (const Edge &E : Net.Edges) {
    double DX = Net.Coords.X[E.Src] - Net.Coords.X[E.Dst];
    double DY = Net.Coords.Y[E.Src] - Net.Coords.Y[E.Dst];
    double Euclid = std::sqrt(DX * DX + DY * DY);
    ASSERT_GE(static_cast<double>(E.W) + 1e-9, 100.0 * Euclid)
        << E.Src << "->" << E.Dst;
  }
}

TEST(Generators, RoadGridMostlyConnected) {
  // With a 3% drop rate the giant component must cover nearly everything.
  RoadNetwork Net = roadGrid(30, 30, 3);
  BuildOptions Options;
  Options.Symmetrize = true;
  Graph G = GraphBuilder(Options).build(Net.NumNodes, Net.Edges);
  // BFS from 0.
  std::vector<char> Seen(G.numNodes(), 0);
  std::vector<VertexId> Stack = {0};
  Seen[0] = 1;
  Count Reached = 1;
  while (!Stack.empty()) {
    VertexId V = Stack.back();
    Stack.pop_back();
    for (WNode E : G.outNeighbors(V))
      if (!Seen[E.V]) {
        Seen[E.V] = 1;
        ++Reached;
        Stack.push_back(E.V);
      }
  }
  EXPECT_GT(Reached, G.numNodes() * 9 / 10);
}
