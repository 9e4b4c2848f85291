//===- tests/graph_test.cpp - Unit tests for src/graph --------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "stress_harness.h"

#include "graph/Builder.h"
#include "graph/Generators.h"
#include "graph/Graph.h"
#include "graph/Reorder.h"
#include "support/Random.h"
#include "support/TSanAnnotate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <omp.h>
#include <set>
#include <string>

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

namespace {

using Row = std::vector<std::pair<VertexId, Weight>>;

/// The rows a CSR direction must hold, straight from the option
/// semantics: entries per kept edge, rows sorted by (neighbor, weight),
/// and each neighbor's lightest entry alone when deduplicating.
struct ReferenceCSR {
  bool Weighted = false;
  Count NumEdges = 0;
  std::vector<Row> Out, In;
};

ReferenceCSR referenceCSR(Count N, const std::vector<Edge> &Edges,
                          const BuildOptions &O) {
  std::vector<Edge> Entries;
  for (const Edge &E : Edges) {
    if (O.RemoveSelfLoops && E.Src == E.Dst)
      continue;
    Entries.push_back(E);
    if (O.Symmetrize)
      Entries.push_back({E.Dst, E.Src, E.W});
  }
  ReferenceCSR R;
  R.Weighted = O.Weighted && !Entries.empty();
  R.Out.resize(static_cast<size_t>(N));
  R.In.resize(static_cast<size_t>(N));
  for (const Edge &E : Entries) {
    const Weight W = R.Weighted ? E.W : 1;
    R.Out[E.Src].push_back({E.Dst, W});
    R.In[E.Dst].push_back({E.Src, W});
  }
  for (std::vector<Row> *Rows : {&R.Out, &R.In})
    for (Row &Rw : *Rows) {
      std::sort(Rw.begin(), Rw.end());
      if (O.RemoveDuplicates)
        Rw.erase(std::unique(Rw.begin(), Rw.end(),
                             [](const auto &A, const auto &B) {
                               return A.first == B.first;
                             }),
                 Rw.end());
    }
  for (const Row &Rw : R.Out)
    R.NumEdges += static_cast<Count>(Rw.size());
  return R;
}

Row rowOf(const Graph::NeighborRange &Range) {
  Row Got;
  for (WNode E : Range)
    Got.push_back({E.V, E.W});
  return Got;
}

/// Asserts that \p G, built with \p O, holds exactly the rows of \p Want.
void expectMatchesReference(const Graph &G, const ReferenceCSR &Want,
                            Count N, const BuildOptions &O) {
  ASSERT_EQ(G.numNodes(), N);
  ASSERT_EQ(G.numEdges(), Want.NumEdges);
  ASSERT_EQ(G.isWeighted(), Want.Weighted);
  ASSERT_EQ(G.isSymmetric(), O.Symmetrize);
  ASSERT_EQ(G.hasInEdges(), O.Symmetrize || O.BuildInEdges);
  for (VertexId V = 0; V < N; ++V) {
    ASSERT_EQ(rowOf(G.outNeighbors(V)), Want.Out[V]) << "out-row of " << V;
    // Symmetric graphs alias in-rows to out-rows.
    if (G.hasInEdges()) {
      ASSERT_EQ(rowOf(G.inNeighbors(V)),
                O.Symmetrize ? Want.Out[V] : Want.In[V])
          << "in-row of " << V;
    }
  }
}

/// \p HowMany edges over [0, N) heavy with parallel edges (each (u, v)
/// pair about four times, with different weights) and self-loops.
std::vector<Edge> dupHeavyEdges(Count N, uint64_t HowMany) {
  std::vector<Edge> Edges;
  for (uint64_t I = 0; I < HowMany; ++I) {
    uint64_t H = hash64(I);
    VertexId Src = static_cast<VertexId>(H % N);
    VertexId Dst = static_cast<VertexId>((Src + (H >> 24) % 5) % N);
    Edges.push_back({Src, Dst, static_cast<Weight>(1 + (H >> 40) % 50)});
  }
  return Edges;
}

} // namespace

TEST(Builder, MatchesReferenceForEveryOptionShapeAndThreadCount) {
  // Shapes that cross the builder's pass boundaries: no vertex, one
  // vertex, one block of rows (64) and one row either side, the first size
  // whose blocks widen (2^14 + 1), a star row longer than the insertion
  // sort's 16 entries, a list of self-loops only, an empty list, the two
  // graph families the benchmarks build (a road grid and an R-MAT graph),
  // and a dup-heavy list big enough for the parallel passes.
  struct Shape {
    const char *Name;
    Count N;
    std::vector<Edge> Edges;
  };
  const Count Wide = (Count{1} << 14) + 1;
  std::vector<Shape> Shapes = {
      {"no vertices", 0, {}},
      {"one vertex", 1, {{0, 0, 3}, {0, 0, 2}}},
      {"block - 1", 63, dupHeavyEdges(63, 400)},
      {"block", 64, dupHeavyEdges(64, 400)},
      {"block + 1", 65, dupHeavyEdges(65, 400)},
      {"wider blocks", Wide, dupHeavyEdges(Wide, 40000)},
      {"star", 40, {}},
      {"self-loops only", 50, {{3, 3, 1}, {7, 7, 2}, {7, 7, 5}, {49, 49, 4}}},
      {"empty list", 100, {}},
      {"road grid", 30 * 30, roadGrid(30, 30, 5).Edges},
      {"R-MAT", 2048, rmatEdges(11, 8, 9)},
      {"dup-heavy", 3000, dupHeavyEdges(3000, 60000)},
  };
  for (VertexId V = 1; V < 40; ++V) {
    Shapes[6].Edges.push_back({0, V, static_cast<Weight>(40 - V)});
    Shapes[6].Edges.push_back({V, 0, static_cast<Weight>(V)});
  }
  Shapes[6].Edges.push_back({0, 17, 1}); // a parallel edge in the long row
  ASSERT_LT(referenceCSR(3000, Shapes.back().Edges, BuildOptions()).NumEdges,
            static_cast<Count>(Shapes.back().Edges.size() / 2))
      << "the dup-heavy list must be dup-heavy";

  for (const Shape &S : Shapes)
    for (int Mask = 0; Mask < 32; ++Mask) {
      BuildOptions O;
      O.Symmetrize = Mask & 1;
      O.Weighted = Mask & 2;
      O.RemoveSelfLoops = Mask & 4;
      O.RemoveDuplicates = Mask & 8;
      O.BuildInEdges = Mask & 16;
      const ReferenceCSR Want = referenceCSR(S.N, S.Edges, O);
      for (int Threads = 1; Threads <= 4; ++Threads) {
        SCOPED_TRACE(std::string(S.Name) + ", options " +
                     std::to_string(Mask) + ", " + std::to_string(Threads) +
                     " threads");
        stress::ScopedThreads Scoped(Threads);
        expectMatchesReference(GraphBuilder(O).build(S.N, S.Edges), Want,
                               S.N, O);
        if (HasFatalFailure())
          return;
      }
    }
}

TEST(Builder, BuildsInsideAnActiveParallelRegion) {
  // Each thread of an outer team builds a graph. A nested region gets a
  // team smaller than getNumWorkers() (one thread while nesting is off),
  // and the builder's passes must still cover every chunk and block.
  stress::ScopedThreads Scoped(4);
  const Count N = 3000;
  const std::vector<Edge> Edges = dupHeavyEdges(N, 60000);
  BuildOptions O;
  O.Weighted = true;
  std::vector<Graph> Got(2);
  int Tag = 0;
  GRAPHIT_OMP_REGION_ENTER(&Tag);
#pragma omp parallel num_threads(2)
  {
    GRAPHIT_OMP_REGION_BEGIN(&Tag);
    Got[static_cast<size_t>(omp_get_thread_num())] =
        GraphBuilder(O).build(N, Edges);
    GRAPHIT_OMP_REGION_END(&Tag);
  }
  GRAPHIT_OMP_REGION_EXIT(&Tag);
  const ReferenceCSR Want = referenceCSR(N, Edges, O);
  for (const Graph &G : Got)
    expectMatchesReference(G, Want, N, O);
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
// Row format: 4-byte offsets, one entry limit
//===----------------------------------------------------------------------===//

static_assert(sizeof(EdgeOffset) == 4, "a CSR row offset is 4 bytes");
static_assert(kMaxEdgeOffset == (int64_t{1} << 32) - 1,
              "one direction holds at most 2^32 - 1 entries");

namespace {

/// Rows of \p A and \p B are equal in both stored directions.
void expectSameRows(const Graph &A, const Graph &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.numEdges(), B.numEdges());
  ASSERT_EQ(A.hasInEdges(), B.hasInEdges());
  for (VertexId V = 0; V < A.numNodes(); ++V) {
    ASSERT_EQ(rowOf(A.outNeighbors(V)), rowOf(B.outNeighbors(V)))
        << "out-row of " << V;
    if (A.hasInEdges()) {
      ASSERT_EQ(rowOf(A.inNeighbors(V)), rowOf(B.inNeighbors(V)))
          << "in-row of " << V;
    }
  }
}

} // namespace

TEST(RowFormat, PermutedRoundTrips) {
  std::vector<Edge> Edges = rmatEdges(11, 8, 21);
  assignRandomWeights(Edges, 1, 100, 4);
  const Graph Directed = GraphBuilder().build(Count{1} << 11, Edges);
  BuildOptions O;
  O.Symmetrize = true;
  O.Weighted = false;
  const Graph Symmetric = GraphBuilder(O).build(Count{1} << 11, Edges);
  for (const Graph *G : {&Directed, &Symmetric}) {
    const VertexMapping Map = makeOrdering(*G, ReorderKind::Random, 77);
    ASSERT_FALSE(Map.isIdentity());
    const Graph P = G->permuted(Map);
    for (VertexId N = 0; N < P.numNodes(); ++N)
      EXPECT_EQ(P.outDegree(N), G->outDegree(Map.toExternal(N)));
    std::vector<VertexId> Back(static_cast<size_t>(G->numNodes()));
    for (VertexId V = 0; V < G->numNodes(); ++V)
      Back[V] = Map.toInternal(V);
    expectSameRows(
        P.permuted(VertexMapping::fromInternalToExternal(std::move(Back))),
        *G);
  }
}

TEST(RowFormat, EntryLimitIsOneLoudCheck) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  checkEdgeOffsetLimit(0, "test");
  checkEdgeOffsetLimit(kMaxEdgeOffset, "test");
  EXPECT_DEATH(checkEdgeOffsetLimit(Count{1} << 32, "test producer"),
               "test producer: 4294967296 entries in one CSR direction "
               "exceed the 32-bit row offset limit");
  EXPECT_DEATH(checkEdgeOffsetLimit(-1, "test producer"), "row offset limit");
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

TEST(Generators, RoadGridEdgeListIsPinned) {
  // Pins the list, in order: sizing it up front must not change it.
  RoadNetwork Net = roadGrid(300, 300, 7);
  uint64_t H = hash64(Net.Edges.size());
  for (const Edge &E : Net.Edges)
    H = hash64(H ^ hash64((static_cast<uint64_t>(E.Src) << 32) | E.Dst) ^
               static_cast<uint32_t>(E.W));
  EXPECT_EQ(Net.Edges.size(), 178550u);
  EXPECT_EQ(H, 0xe4f3eee9f8de5b21ULL);
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
