//===- tests/dsl_interpreter_test.cpp - Interpreter end-to-end tests ------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The interpreter executes the shipped .gt programs against real graphs;
// results must match the hand-written library algorithms exactly, for
// both the facade (lazy) and eager execution strategies.
//
//===----------------------------------------------------------------------===//

#include "dsl/Driver.h"

#include "stress_harness.h"

#include "algorithms/AStar.h"
#include "algorithms/Dijkstra.h"
#include "algorithms/KCore.h"
#include "graph/Builder.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

using namespace graphit;
using namespace graphit::dsl;

namespace {

std::string appSource(const std::string &App) {
  return readFileOrDie(std::string(GRAPHIT_APPS_DIR) + "/" + App);
}

Graph rmatWeighted(int Scale, int Deg, uint64_t Seed, Weight Hi) {
  std::vector<Edge> Edges = rmatEdges(Scale, Deg, Seed);
  assignRandomWeights(Edges, 1, Hi, Seed ^ 0xD00D);
  return GraphBuilder().build(Count{1} << Scale, Edges);
}

Graph roadWithCoords(Count Side, uint64_t Seed) {
  RoadNetwork Net = roadGrid(Side, Side, Seed);
  BuildOptions Options;
  Options.Symmetrize = true;
  return GraphBuilder(Options).build(Net.NumNodes, Net.Edges,
                                     std::move(Net.Coords));
}

InterpOptions optionsWith(const Schedule &S,
                          std::vector<std::string> Args) {
  InterpOptions O;
  O.Schedules[""] = S;
  O.Args = std::move(Args);
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// SSSP
//===----------------------------------------------------------------------===//

struct InterpCase {
  const char *Name;
  const char *Sched;
  bool ExpectEager;
};

class InterpSSSPTest : public ::testing::TestWithParam<InterpCase> {};

TEST_P(InterpSSSPTest, MatchesDijkstra) {
  Graph G = rmatWeighted(10, 8, 71, 200);
  Schedule S = Schedule::parse(GetParam().Sched);
  InterpResult R = runSource(appSource("sssp.gt"), G,
                             optionsWith(S, {"7"})); // argv[2] = source
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.UsedEagerEngine, GetParam().ExpectEager);
  ASSERT_TRUE(R.Vectors.count("dist"));
  EXPECT_EQ(R.Vectors.at("dist"), dijkstraSSSP(G, 7));
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, InterpSSSPTest,
    ::testing::Values(
        InterpCase{"EagerFusion", "eager_with_fusion,delta=8", true},
        InterpCase{"EagerNoFusion", "eager_no_fusion,delta=8", true},
        InterpCase{"LazyFacade", "lazy,delta=8", false}),
    [](const auto &Info) { return Info.param.Name; });

TEST(InterpSSSP, RoadGridEagerMatchesDijkstra) {
  Graph G = roadWithCoords(20, 41);
  InterpResult R = runSource(
      appSource("sssp.gt"), G,
      optionsWith(Schedule::parse("eager_with_fusion,delta=4096"), {"0"}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Vectors.at("dist"), dijkstraSSSP(G, 0));
}

TEST(InterpSSSP, FusedRoadGridMatchesDijkstraAtFourThreads) {
  // Fused drains at four threads: the relax must derive its pushes from
  // the source priority its stale check passed (the relax contract,
  // core/OrderedProcess.h). Re-reading dist[src] in the UDF got hundreds
  // of the 360,000 distances wrong in every run of this case.
  Graph G = roadWithCoords(600, 11);
  const std::vector<Priority> Want = dijkstraSSSP(G, 7);
  stress::ScopedThreads Scope(4);
  for (int Run = 0; Run < 3; ++Run) {
    InterpResult R = runSource(
        appSource("sssp.gt"), G,
        optionsWith(Schedule::parse("eager_with_fusion,delta=8192"), {"7"}));
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_TRUE(R.UsedEagerEngine);
    const std::vector<Priority> &Got = R.Vectors.at("dist");
    ASSERT_EQ(Got.size(), Want.size());
    Count Wrong = 0;
    for (size_t V = 0; V < Want.size(); ++V)
      Wrong += Got[V] != Want[V];
    EXPECT_EQ(Wrong, 0) << "run " << Run;
  }
}

TEST(InterpSSSP, ReportsEngineStats) {
  Graph G = rmatWeighted(9, 6, 72, 50);
  InterpResult R = runSource(appSource("sssp.gt"), G,
                             optionsWith(Schedule(), {"0"}));
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.Stats.Rounds, 0);
}

//===----------------------------------------------------------------------===//
// wBFS
//===----------------------------------------------------------------------===//

TEST(InterpWBFS, LogWeightsDeltaOne) {
  std::vector<Edge> Edges = rmatEdges(9, 8, 73);
  assignRandomWeights(Edges, 1, 10, 5);
  Graph G = GraphBuilder().build(Count{1} << 9, Edges);
  InterpResult R = runSource(
      appSource("wbfs.gt"), G,
      optionsWith(Schedule::parse("eager_with_fusion,delta=1"), {"3"}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Vectors.at("dist"), dijkstraSSSP(G, 3));
}

//===----------------------------------------------------------------------===//
// PPSP
//===----------------------------------------------------------------------===//

TEST(InterpPPSP, EarlyExitDistanceIsExact) {
  Graph G = rmatWeighted(10, 8, 74, 300);
  for (const char *Sched : {"eager_with_fusion,delta=16", "lazy,delta=16"}) {
    InterpResult R =
        runSource(appSource("ppsp.gt"), G,
                  optionsWith(Schedule::parse(Sched), {"2", "900"}));
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Vectors.at("dist")[900], dijkstraPPSP(G, 2, 900))
        << Sched;
  }
}

TEST(InterpPPSP, EarlyExitProcessesFewerVerticesThanFullRun) {
  Graph G = roadWithCoords(25, 42);
  Schedule S = Schedule::parse("eager_with_fusion,delta=4096");
  InterpResult Full = runSource(appSource("sssp.gt"), G,
                                optionsWith(S, {"0"}));
  InterpResult Early = runSource(appSource("ppsp.gt"), G,
                                 optionsWith(S, {"0", "26"}));
  ASSERT_TRUE(Full.Ok && Early.Ok);
  EXPECT_LT(Early.Stats.VerticesProcessed, Full.Stats.VerticesProcessed);
}

//===----------------------------------------------------------------------===//
// A*
//===----------------------------------------------------------------------===//

TEST(InterpAStar, FSpaceDistanceMatchesOracle) {
  Graph G = roadWithCoords(18, 43);
  VertexId Start = 5, End = static_cast<VertexId>(G.numNodes() - 3);
  // Heuristic vector h(v) toward End, as load_vertex_data input.
  std::vector<Priority> H(static_cast<size_t>(G.numNodes()));
  for (Count V = 0; V < G.numNodes(); ++V)
    H[V] = aStarHeuristic(G, static_cast<VertexId>(V), End);

  InterpOptions O = optionsWith(
      Schedule::parse("eager_with_fusion,delta=2048"),
      {std::to_string(Start), std::to_string(End), "hfile"});
  O.VertexData["hfile"] = H;
  InterpResult R = runSource(appSource("astar.gt"), G, O);
  ASSERT_TRUE(R.Ok) << R.Error;
  // dist(start, end) = f(end) since h(end) = 0.
  EXPECT_EQ(R.Vectors.at("f")[End], dijkstraPPSP(G, Start, End));
}

//===----------------------------------------------------------------------===//
// k-core
//===----------------------------------------------------------------------===//

TEST(InterpKCore, CorenessMatchesSerialOracle) {
  BuildOptions Options;
  Options.Symmetrize = true;
  Options.Weighted = false;
  Graph G = GraphBuilder(Options).build(Count{1} << 9,
                                        rmatEdges(9, 8, 75));
  InterpResult R = runSource(appSource("kcore.gt"), G,
                             optionsWith(Schedule::parse("lazy"), {}));
  ASSERT_TRUE(R.Ok) << R.Error;
  // The final priority vector holds the coreness.
  EXPECT_EQ(R.Vectors.at("deg"), kCoreSerial(G));
}

TEST(InterpKCore, TriangleWithTail) {
  BuildOptions Options;
  Options.Symmetrize = true;
  Options.Weighted = false;
  Graph G = GraphBuilder(Options).build(
      5, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 1}, {3, 4, 1}});
  InterpResult R = runSource(appSource("kcore.gt"), G,
                             optionsWith(Schedule::parse("lazy"), {}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Vectors.at("deg"),
            (std::vector<Priority>{2, 2, 2, 1, 1}));
}

//===----------------------------------------------------------------------===//
// Error paths
//===----------------------------------------------------------------------===//

TEST(Interp, ReportsFrontendErrors) {
  Graph G = GraphBuilder().build(2, {{0, 1, 1}});
  InterpResult R = runSource("func main() nope; end", G, InterpOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

TEST(Interp, ReportsMissingVertexData) {
  Graph G = roadWithCoords(5, 1);
  InterpOptions O = optionsWith(Schedule(), {"0", "1", "nosuchfile"});
  InterpResult R = runSource(appSource("astar.gt"), G, O);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("vertex data"), std::string::npos);
}
