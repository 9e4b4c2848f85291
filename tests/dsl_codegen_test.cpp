//===- tests/dsl_codegen_test.cpp - Code generation tests -----------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Checks that the three Fig. 9 code-generation variants (lazy SparsePush,
// lazy DensePull, eager) and the Fig. 10 histogram transformation are
// produced, and that generated code actually compiles against the runtime
// headers with a real C++ compiler.
//
//===----------------------------------------------------------------------===//

#include "dsl/Driver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

using namespace graphit;
using namespace graphit::dsl;

namespace {

std::string appSource(const std::string &App) {
  return readFileOrDie(std::string(GRAPHIT_APPS_DIR) + "/" + App);
}

GeneratedCode compileApp(const std::string &App, const Schedule &S) {
  ScheduleMap Map;
  Map[""] = S;
  std::string Error;
  GeneratedCode Code = compileSource(appSource(App), Map, &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  return Code;
}

bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

/// Writes the generated code and checks it with `g++ -fsyntax-only`.
void expectCompiles(const GeneratedCode &Code, const std::string &Name) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "graphit_codegen_test";
  fs::create_directories(Dir);
  fs::path File = Dir / (Name + ".cpp");
  {
    std::ofstream Out(File);
    Out << Code.Cpp;
  }
  std::string Cmd = "g++ -std=c++20 -fopenmp -fsyntax-only -I" +
                    std::string(GRAPHIT_SRC_DIR) + " " + File.string() +
                    " 2> " + (Dir / (Name + ".log")).string();
  int Rc = std::system(Cmd.c_str());
  if (Rc != 0) {
    std::ifstream Log(Dir / (Name + ".log"));
    std::string Line, All;
    while (std::getline(Log, Line))
      All += Line + "\n";
    FAIL() << "generated code failed to compile:\n"
           << All.substr(0, 4000);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Fig. 9(c): eager with fusion
//===----------------------------------------------------------------------===//

TEST(CodeGen, EagerSSSPUsesOrderedProcessOperator) {
  Schedule S = Schedule::parse("eager_with_fusion,delta=4");
  GeneratedCode Code = compileApp("sssp.gt", S);
  EXPECT_TRUE(Code.UsedEagerEngine);
  EXPECT_FALSE(Code.UsedFacadeFallback);
  EXPECT_TRUE(contains(Code.Cpp, "eagerOrderedProcess"));
  EXPECT_TRUE(contains(Code.Cpp, "atomicWriteMin"));
  EXPECT_TRUE(contains(Code.Cpp, "gen_push"));
  EXPECT_TRUE(contains(Code.Cpp, "eager_with_fusion,delta=4"));
}

TEST(CodeGen, EagerRelaxReadsTheSourcePriorityOnce) {
  // The relax contract (core/OrderedProcess.h): the stale check and the
  // UDF share one relaxed load of the source's priority. A second read
  // can see a concurrently lowered source and push a neighbor below a
  // fused drain's key, where nobody processes it.
  struct AppVector {
    const char *App;
    std::string Vec;
  };
  for (const AppVector &A : {AppVector{"sssp.gt", "dist"},
                             AppVector{"ppsp.gt", "dist"},
                             AppVector{"astar.gt", "f"}}) {
    SCOPED_TRACE(A.App);
    GeneratedCode Code =
        compileApp(A.App, Schedule::parse("eager_with_fusion,delta=8"));
    ASSERT_TRUE(Code.UsedEagerEngine);
    const std::string Load =
        "const Priority gen_src_prio = atomicLoadRelaxed(&" + A.Vec +
        "[src]);";
    const size_t First = Code.Cpp.find(Load);
    ASSERT_NE(First, std::string::npos);
    EXPECT_EQ(Code.Cpp.find(Load, First + 1), std::string::npos);
    EXPECT_TRUE(contains(Code.Cpp, "GenKeys.fineKey(gen_src_prio)"));
    EXPECT_FALSE(contains(Code.Cpp, A.Vec + "[static_cast<size_t>(src)]"))
        << "the UDF reads the source priority a second time";
    EXPECT_FALSE(contains(Code.Cpp, A.Vec + "[src]) <"));
  }
}

TEST(CodeGen, EagerSSSPCompiles) {
  expectCompiles(compileApp("sssp.gt",
                            Schedule::parse("eager_with_fusion,delta=4")),
                 "sssp_eager");
}

//===----------------------------------------------------------------------===//
// Fig. 9(a): lazy + SparsePush
//===----------------------------------------------------------------------===//

TEST(CodeGen, LazySparsePushSSSP) {
  Schedule S = Schedule::parse("lazy,delta=4,direction=SparsePush");
  GeneratedCode Code = compileApp("sssp.gt", S);
  EXPECT_TRUE(Code.UsedLazyEngine);
  EXPECT_TRUE(contains(Code.Cpp, "LazyBucketQueue"));
  EXPECT_TRUE(contains(Code.Cpp, "tracking_var"));
  EXPECT_TRUE(contains(Code.Cpp, "atomicWriteMin"))
      << "push direction requires atomics (Fig. 9(a))";
  EXPECT_TRUE(contains(Code.Cpp, "edgeApplyOut"));
}

TEST(CodeGen, LazySparsePushCompiles) {
  expectCompiles(
      compileApp("sssp.gt", Schedule::parse("lazy,direction=SparsePush")),
      "sssp_lazy_push");
}

//===----------------------------------------------------------------------===//
// Fig. 9(b): lazy + DensePull
//===----------------------------------------------------------------------===//

TEST(CodeGen, LazyDensePullGeneratesNonAtomicPull) {
  Schedule S = Schedule::parse("lazy,delta=4,direction=DensePull");
  GeneratedCode Code = compileApp("sssp.gt", S);
  EXPECT_TRUE(Code.UsedLazyEngine);
  EXPECT_TRUE(contains(Code.Cpp, "direction=DensePull"));
  // The pull lambda performs a plain compare-and-store (no atomics).
  EXPECT_TRUE(contains(Code.Cpp, "GenPull"));
  EXPECT_TRUE(contains(Code.Cpp, "tracking_var = true"));
}

TEST(CodeGen, LazyDensePullCompiles) {
  expectCompiles(
      compileApp("sssp.gt", Schedule::parse("lazy,direction=DensePull")),
      "sssp_lazy_pull");
}

//===----------------------------------------------------------------------===//
// Fig. 10: histogram transformation for k-core
//===----------------------------------------------------------------------===//

TEST(CodeGen, KCoreHistogramEmitsTransformedFunction) {
  Schedule S = Schedule::parse("lazy_constant_sum");
  GeneratedCode Code = compileApp("kcore.gt", S);
  EXPECT_TRUE(Code.UsedHistogram);
  EXPECT_TRUE(contains(Code.Cpp, "HistogramBuffer"));
  EXPECT_TRUE(contains(Code.Cpp, "GenApplyTransformed"))
      << "the Fig. 10 transformed UDF must be emitted";
  EXPECT_TRUE(contains(Code.Cpp, "(-1) * static_cast<Priority>"))
      << "the constant -1 extracted by the analysis appears in code";
}

TEST(CodeGen, KCoreHistogramCompiles) {
  expectCompiles(compileApp("kcore.gt",
                            Schedule::parse("lazy_constant_sum")),
                 "kcore_histogram");
}

//===----------------------------------------------------------------------===//
// PPSP / A* / stop conditions
//===----------------------------------------------------------------------===//

TEST(CodeGen, PPSPEmitsEarlyExitStop) {
  GeneratedCode Code = compileApp(
      "ppsp.gt", Schedule::parse("eager_with_fusion,delta=16"));
  EXPECT_TRUE(Code.UsedEagerEngine);
  EXPECT_TRUE(contains(Code.Cpp, "end_vertex"));
  EXPECT_TRUE(contains(Code.Cpp, "GenKey * GenDelta >= GenBest"));
}

TEST(CodeGen, PPSPCompiles) {
  expectCompiles(compileApp("ppsp.gt",
                            Schedule::parse("eager_with_fusion,delta=16")),
                 "ppsp_eager");
}

TEST(CodeGen, AStarCompiles) {
  expectCompiles(compileApp("astar.gt",
                            Schedule::parse("eager_with_fusion,delta=2048")),
                 "astar_eager");
}

//===----------------------------------------------------------------------===//
// Facade fallback
//===----------------------------------------------------------------------===//

TEST(CodeGen, SetCoverFallsBackToFacade) {
  GeneratedCode Code = compileApp("setcover.gt", Schedule());
  EXPECT_TRUE(Code.UsedFacadeFallback);
  EXPECT_TRUE(contains(Code.Cpp, "PriorityQueue"));
  EXPECT_TRUE(contains(Code.Cpp, "reserve_elements")); // extern decl + call
}

TEST(CodeGen, SetCoverFacadeCompiles) {
  expectCompiles(compileApp("setcover.gt", Schedule()), "setcover_facade");
}

TEST(CodeGen, ScheduleEchoedInHeader) {
  ScheduleMap Map;
  Map["s1"] = Schedule::parse("lazy,delta=32");
  std::string Error;
  GeneratedCode Code = compileSource(appSource("sssp.gt"), Map, &Error);
  EXPECT_TRUE(contains(Code.Cpp, "#s1#: lazy,delta=32"));
}

TEST(CodeGen, PerLabelScheduleSelection) {
  // The same program under two schedules produces different engines.
  GeneratedCode Eager = compileApp("sssp.gt", Schedule::parse("eager"));
  GeneratedCode Lazy = compileApp("sssp.gt", Schedule::parse("lazy"));
  EXPECT_TRUE(Eager.UsedEagerEngine);
  EXPECT_FALSE(Eager.UsedLazyEngine);
  EXPECT_TRUE(Lazy.UsedLazyEngine);
  EXPECT_FALSE(Lazy.UsedEagerEngine);
}
