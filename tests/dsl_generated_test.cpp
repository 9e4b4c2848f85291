//===- tests/dsl_generated_test.cpp - Generated programs vs. oracles ------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// The build compiles every apps/*.gt program under the Fig. 9 schedules
// with example_dslc and links the output against the runtime
// (tests/CMakeLists.txt). These tests run those binaries at 1 and 4
// threads on graphs saved with saveBinaryGraph and compare their reports
// exactly with the library's oracles: each vector through its
// order-sensitive hash, an early-exit loop through its stop vertex's final
// priority. Bad input must end the program with status 1 and a message.
//
//===----------------------------------------------------------------------===//

#include "dsl/GeneratedSupport.h"

#include "algorithms/AStar.h"
#include "algorithms/Dijkstra.h"
#include "algorithms/KCore.h"
#include "graph/Builder.h"
#include "graph/Generators.h"
#include "graph/GraphIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace graphit;

namespace {

namespace fs = std::filesystem;

/// A graph as the programs read it: saved to Path.
struct SavedGraph {
  Graph G;
  std::string Path;
};

/// The input graphs, built and saved once per test binary, and the files
/// removed at exit.
struct Inputs {
  fs::path Dir = fs::temp_directory_path() /
                 ("graphit_generated_" + std::to_string(getpid()));
  SavedGraph Road;     ///< symmetrized 600² road grid with coordinates
  SavedGraph Rmat;     ///< directed R-MAT scale 16, weights 1-1000
  SavedGraph RmatSym;  ///< symmetrized unweighted R-MAT scale 12
  SavedGraph Triangle; ///< triangle 0-1-2 with the tail 2-3-4
  SavedGraph Small;    ///< symmetrized 100² road grid, 10,000 vertices
  VertexId RmatSource = 0;

  Inputs() {
    fs::create_directories(Dir);
    BuildOptions Sym;
    Sym.Symmetrize = true;
    BuildOptions SymUnweighted = Sym;
    SymUnweighted.Weighted = false;
    auto RoadGraph = [&](Count Side) {
      RoadNetwork Net = roadGrid(Side, Side, 11);
      return GraphBuilder(Sym).build(Net.NumNodes, Net.Edges,
                                     std::move(Net.Coords));
    };
    std::vector<Edge> RmatEdges = rmatEdges(16, 8, 71);
    assignRandomWeights(RmatEdges, 1, 1000, 72);
    save(Road, "road", RoadGraph(600));
    save(Rmat, "rmat", GraphBuilder().build(Count{1} << 16, RmatEdges));
    save(RmatSym, "rmat_sym",
         GraphBuilder(SymUnweighted).build(Count{1} << 12,
                                           rmatEdges(12, 8, 75)));
    save(Triangle, "triangle",
         GraphBuilder(SymUnweighted)
             .build(5, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 1},
                        {3, 4, 1}}));
    save(Small, "small", RoadGraph(100));
    // The busiest vertex reaches most of the R-MAT graph.
    for (Count V = 1; V < Rmat.G.numNodes(); ++V)
      if (Rmat.G.outDegree(static_cast<VertexId>(V)) >
          Rmat.G.outDegree(RmatSource))
        RmatSource = static_cast<VertexId>(V);
  }
  ~Inputs() {
    std::error_code Ignored;
    fs::remove_all(Dir, Ignored);
  }

  void save(SavedGraph &S, const std::string &Name, Graph G) {
    S.Path = (Dir / (Name + ".bin")).string();
    saveBinaryGraph(G, S.Path);
    S.G = std::move(G);
  }

  /// Writes one value per line to Dir/Name; returns the path.
  std::string writeValues(const std::string &Name,
                          const std::vector<std::string> &Values) const {
    std::string Path = (Dir / Name).string();
    std::ofstream Out(Path);
    for (const std::string &V : Values)
      Out << V << "\n";
    return Path;
  }
};

const Inputs &inputs() {
  static Inputs In;
  return In;
}

/// Exit status and merged stdout and stderr of one program run.
struct RunResult {
  int Exit = -1;
  std::string Output;
};

/// Runs gen_<Program> with \p Args at \p Threads OpenMP threads.
RunResult runProgram(const std::string &Program,
                     const std::vector<std::string> &Args, int Threads) {
  std::string Cmd = "OMP_NUM_THREADS=" + std::to_string(Threads) + " '" +
                    GRAPHIT_GENERATED_DIR + "/gen_" + Program + "'";
  for (const std::string &A : Args)
    Cmd += " '" + A + "'";
  Cmd += " 2>&1";
  RunResult R;
  std::FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  return R;
}

/// Runs the program, expects exit status 0, and returns its output.
std::string runOk(const std::string &Program,
                  const std::vector<std::string> &Args, int Threads) {
  RunResult R = runProgram(Program, Args, Threads);
  EXPECT_EQ(R.Exit, 0) << R.Output;
  return R.Output;
}

/// Runs the program and expects exit status 1 with \p Message.
void expectRejects(const std::string &Program,
                   const std::vector<std::string> &Args,
                   const std::string &Message) {
  RunResult R = runProgram(Program, Args, 1);
  EXPECT_EQ(R.Exit, 1) << R.Output;
  EXPECT_NE(R.Output.find(Message), std::string::npos) << R.Output;
}

/// The first output line that starts with \p Prefix, or "".
std::string lineStartingWith(const std::string &Out,
                             const std::string &Prefix) {
  size_t At = ("\n" + Out).find("\n" + Prefix);
  if (At == std::string::npos)
    return "";
  return Out.substr(At, Out.find('\n', At) - At);
}

/// The integer after ` Key=` on the `[s1]` loop report line.
int64_t loopField(const std::string &Out, const std::string &Key) {
  std::string Line = lineStartingWith(Out, "[s1] ");
  size_t At = Line.find(" " + Key + "=");
  if (At == std::string::npos) {
    ADD_FAILURE() << "no " << Key << " in '" << Line << "'";
    return -1;
  }
  return std::stoll(Line.substr(At + Key.size() + 2));
}

std::string str(int64_t V) { return std::to_string(V); }

} // namespace

//===----------------------------------------------------------------------===//
// SSSP and wBFS: the whole distance vector
//===----------------------------------------------------------------------===//

TEST(GeneratedSSSP, EveryScheduleMatchesDijkstra) {
  const Inputs &In = inputs();
  const std::vector<Priority> RoadWant = dijkstraSSSP(In.Road.G, 7);
  const std::vector<Priority> RmatWant = dijkstraSSSP(In.Rmat.G, In.RmatSource);
  for (const char *Program :
       {"sssp_fused_8192", "sssp_eager_8192", "sssp_lazy_push_8192",
        "sssp_lazy_pull_8192", "sssp_fused_32"})
    for (int Threads : {1, 4}) {
      SCOPED_TRACE(std::string(Program) + " at " + str(Threads) +
                   " threads");
      EXPECT_EQ(lineStartingWith(runOk(Program, {In.Road.Path, "7"}, Threads),
                                 "dist:"),
                gen::vectorSummary("dist", RoadWant));
      EXPECT_EQ(lineStartingWith(runOk(Program,
                                       {In.Rmat.Path, str(In.RmatSource)},
                                       Threads),
                                 "dist:"),
                gen::vectorSummary("dist", RmatWant));
    }
}

TEST(GeneratedSSSP, FusedRoadGridMatchesDijkstraAtFourThreads) {
  // Fused drains at four threads: the relax must derive its pushes from
  // the source priority its stale check passed (the relax contract,
  // core/OrderedProcess.h). A UDF that re-read dist[src] got this grid
  // wrong in every run.
  const Inputs &In = inputs();
  const std::string Want =
      gen::vectorSummary("dist", dijkstraSSSP(In.Road.G, 7));
  for (int Run = 0; Run < 3; ++Run)
    EXPECT_EQ(lineStartingWith(runOk("sssp_fused_8192", {In.Road.Path, "7"}, 4),
                               "dist:"),
              Want)
        << "run " << Run;
}

TEST(GeneratedWBFS, DeltaOneMatchesDijkstra) {
  const Inputs &In = inputs();
  const std::string Want =
      gen::vectorSummary("dist", dijkstraSSSP(In.Rmat.G, In.RmatSource));
  for (int Threads : {1, 4})
    EXPECT_EQ(lineStartingWith(runOk("wbfs_fused_1",
                                     {In.Rmat.Path, str(In.RmatSource)},
                                     Threads),
                               "dist:"),
              Want)
        << Threads << " threads";
}

//===----------------------------------------------------------------------===//
// PPSP and A*: the early-exit vertex's final priority
//===----------------------------------------------------------------------===//

TEST(GeneratedPPSP, StopPriorityMatchesDijkstra) {
  const Inputs &In = inputs();
  // R-MAT target: the reachable vertex at the median distance.
  std::vector<Priority> Dist = dijkstraSSSP(In.Rmat.G, In.RmatSource);
  std::vector<std::pair<Priority, VertexId>> Reached;
  for (size_t V = 0; V < Dist.size(); ++V)
    if (Dist[V] < kInfiniteDistance)
      Reached.push_back({Dist[V], static_cast<VertexId>(V)});
  ASSERT_GT(Reached.size(), 1000u);
  std::nth_element(Reached.begin(), Reached.begin() + Reached.size() / 2,
                   Reached.end());
  const VertexId RmatTarget = Reached[Reached.size() / 2].second;

  struct Query {
    const SavedGraph *G;
    VertexId Source, Target;
  };
  for (const char *Program : {"ppsp_fused_8192", "ppsp_lazy_8192"})
    for (const Query &Q : {Query{&In.Road, 7, 60100},
                           Query{&In.Rmat, In.RmatSource, RmatTarget}})
      for (int Threads : {1, 4}) {
        SCOPED_TRACE(std::string(Program) + " " + Q.G->Path + " at " +
                     str(Threads) + " threads");
        std::string Out = runOk(
            Program, {Q.G->Path, str(Q.Source), str(Q.Target)}, Threads);
        EXPECT_EQ(loopField(Out, "stop_vertex"), Q.Target);
        EXPECT_EQ(loopField(Out, "stop_priority"),
                  dijkstraPPSP(Q.G->G, Q.Source, Q.Target));
      }
}

TEST(GeneratedPPSP, EarlyExitRunsFewerRoundsThanFullSSSP) {
  const Inputs &In = inputs();
  std::string Full = runOk("sssp_fused_8192", {In.Road.Path, "7"}, 1);
  std::string Early = runOk("ppsp_fused_8192", {In.Road.Path, "7", "60100"}, 1);
  EXPECT_LT(loopField(Early, "rounds") + loopField(Early, "fused"),
            loopField(Full, "rounds") + loopField(Full, "fused"));
}

TEST(GeneratedAStar, StopPriorityMatchesDijkstra) {
  const Inputs &In = inputs();
  const VertexId Start = 59999, End = 300000;
  std::vector<std::string> H;
  for (Count V = 0; V < In.Road.G.numNodes(); ++V)
    H.push_back(str(aStarHeuristic(In.Road.G, static_cast<VertexId>(V), End)));
  const std::string HPath = In.writeValues("road_h.txt", H);
  // f(end) = dist(start, end) since h(end) = 0.
  const Priority Want = dijkstraPPSP(In.Road.G, Start, End);
  for (int Threads : {1, 4})
    EXPECT_EQ(loopField(runOk("astar_fused_2048",
                              {In.Road.Path, str(Start), str(End), HPath},
                              Threads),
                        "stop_priority"),
              Want)
        << Threads << " threads";
}

//===----------------------------------------------------------------------===//
// k-core and set cover: the facade and histogram lowerings
//===----------------------------------------------------------------------===//

TEST(GeneratedKCore, CorenessMatchesSerialOracle) {
  const Inputs &In = inputs();
  struct Case {
    const SavedGraph *G;
    std::vector<Priority> Want;
  };
  for (const Case &C : {Case{&In.RmatSym, kCoreSerial(In.RmatSym.G)},
                        Case{&In.Triangle, {2, 2, 2, 1, 1}}})
    for (const char *Program : {"kcore_lazy", "kcore_constant_sum"})
      for (int Threads : {1, 4})
        EXPECT_EQ(lineStartingWith(runOk(Program, {C.G->Path}, Threads),
                                   "deg:"),
                  gen::vectorSummary("deg", C.Want))
            << Program << " " << C.G->Path << " at " << Threads
            << " threads";
}

TEST(GeneratedSetCover, ReservingNothingKeepsEveryUtility) {
  const Inputs &In = inputs();
  std::vector<Priority> Degrees;
  for (Count V = 0; V < In.RmatSym.G.numNodes(); ++V)
    Degrees.push_back(In.RmatSym.G.outDegree(static_cast<VertexId>(V)));
  for (int Threads : {1, 4})
    EXPECT_EQ(lineStartingWith(runOk("setcover", {In.RmatSym.Path}, Threads),
                               "utility:"),
              gen::vectorSummary("utility", Degrees))
        << Threads << " threads";
}

//===----------------------------------------------------------------------===//
// Input checks
//===----------------------------------------------------------------------===//

TEST(GeneratedMain, RejectsMissingArguments) {
  const Inputs &In = inputs();
  expectRejects("sssp_fused_8192", {}, "<edges> <start_vertex>");
  expectRejects("sssp_fused_8192", {In.Small.Path}, "usage:");
  expectRejects("astar_fused_2048", {In.Small.Path, "0", "5"},
                "<edges> <start_vertex> <end_vertex> <h>");
}

TEST(GeneratedMain, RejectsVerticesOutOfRange) {
  const Inputs &In = inputs();
  expectRejects("sssp_fused_8192", {In.Small.Path, "20000"},
                "vertex 20000 is out of range: the graph has 10000 vertices");
  expectRejects("sssp_lazy_push_8192", {In.Small.Path, "-1"},
                "vertex -1 is out of range");
  expectRejects("ppsp_fused_8192", {In.Small.Path, "0", "99999999"},
                "vertex 99999999 is out of range");
  expectRejects("ppsp_lazy_8192", {In.Small.Path, "0", "10000"},
                "vertex 10000 is out of range");
}

TEST(GeneratedMain, RejectsNonNumericVertices) {
  const Inputs &In = inputs();
  // Each would have run from another vertex: atoi reads "abc" as 0 and
  // "12abc" as 12.
  expectRejects("sssp_fused_8192", {In.Small.Path, "abc"},
                "start_vertex must be a decimal integer, got 'abc'");
  expectRejects("sssp_fused_8192", {In.Small.Path, "12abc"},
                "start_vertex must be a decimal integer, got '12abc'");
  expectRejects("ppsp_fused_8192", {In.Small.Path, "0", "5x"},
                "end_vertex must be a decimal integer, got '5x'");
  for (const char *Bad : {"", "-", " 7", "0x10", "99999999999999999999"})
    expectRejects("sssp_lazy_push_8192", {In.Small.Path, Bad},
                  std::string("start_vertex must be a decimal integer, got '") +
                      Bad + "'");
}

TEST(GeneratedMain, VertexDataNeedsOneIntegerPerVertex) {
  const Inputs &In = inputs();
  const std::string Missing = (In.Dir / "no_such_file").string();
  expectRejects("astar_fused_2048", {In.Small.Path, "0", "5", Missing},
                "cannot open vertex data file '" + Missing + "'");

  // A zero-filled tail would make the A* heuristic inconsistent (an
  // infinite answer on the 600² grid), so a short file must fail.
  std::vector<std::string> Half(5000, "0");
  const std::string Short = In.writeValues("short_h.txt", Half);
  expectRejects("astar_fused_2048", {In.Small.Path, "0", "5", Short},
                "'" + Short + "' must hold one integer per vertex: read "
                "5000 of 10000");

  std::vector<std::string> Bad(10000, "0");
  Bad[2] = "x";
  const std::string NotInt = In.writeValues("bad_h.txt", Bad);
  expectRejects("astar_fused_2048", {In.Small.Path, "0", "5", NotInt},
                "read 2 of 10000");

  std::vector<std::string> Long(10001, "0");
  const std::string TooLong = In.writeValues("long_h.txt", Long);
  expectRejects("astar_fused_2048", {In.Small.Path, "0", "5", TooLong},
                "read 10000 of 10000, then more");
}
