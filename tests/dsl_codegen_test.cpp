//===- tests/dsl_codegen_test.cpp - Code generation tests -----------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Checks that the three Fig. 9 code-generation variants (lazy SparsePush,
// lazy DensePull, eager) and the Fig. 10 histogram transformation are
// produced. The build compiles and dsl_generated_test runs the generated
// programs themselves.
//
//===----------------------------------------------------------------------===//

#include "dsl/Driver.h"

#include <gtest/gtest.h>

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

TEST(CodeGen, RelaxReadsTheSourcePriorityOnce) {
  // The relax contract (core/OrderedProcess.h): the UDF reads the source's
  // priority through one relaxed load per relax. In a fused eager drain a
  // second read can see a concurrently lowered source and push a neighbor
  // below the drain's key, where nobody processes it; in either lazy
  // direction a plain read races with another thread's write.
  struct Case {
    const char *App;
    const char *Sched;
    std::string Vec;
    size_t Loads; ///< one per relax lambda: eager has one, lazy two
  };
  for (const Case &C :
       {Case{"sssp.gt", "eager_with_fusion,delta=8", "dist", 1},
        Case{"ppsp.gt", "eager_with_fusion,delta=8", "dist", 1},
        Case{"astar.gt", "eager_with_fusion,delta=8", "f", 1},
        Case{"sssp.gt", "lazy,direction=SparsePush", "dist", 2},
        Case{"sssp.gt", "lazy,direction=DensePull", "dist", 2},
        Case{"ppsp.gt", "lazy", "dist", 2}}) {
    SCOPED_TRACE(std::string(C.App) + " " + C.Sched);
    GeneratedCode Code = compileApp(C.App, Schedule::parse(C.Sched));
    const std::string Load =
        "const Priority gen_src_prio = atomicLoadRelaxed(&" + C.Vec +
        "[src]);";
    size_t Loads = 0;
    for (size_t At = Code.Cpp.find(Load); At != std::string::npos;
         At = Code.Cpp.find(Load, At + 1))
      ++Loads;
    EXPECT_EQ(Loads, C.Loads);
    if (C.Loads == 1) {
      EXPECT_TRUE(contains(Code.Cpp, "GenKeys.fineKey(gen_src_prio)"));
    }
    EXPECT_FALSE(contains(Code.Cpp, C.Vec + "[static_cast<size_t>(src)]"))
        << "the UDF reads the source priority a second time";
    EXPECT_FALSE(contains(Code.Cpp, C.Vec + "[src]) <"));
  }
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

//===----------------------------------------------------------------------===//
// Fig. 9(b): lazy + DensePull
//===----------------------------------------------------------------------===//

TEST(CodeGen, LazyDensePullStoresWithoutReadModifyWrite) {
  Schedule S = Schedule::parse("lazy,delta=4,direction=DensePull");
  GeneratedCode Code = compileApp("sssp.gt", S);
  EXPECT_TRUE(Code.UsedLazyEngine);
  EXPECT_TRUE(contains(Code.Cpp, "direction=DensePull"));
  // The pull lambda owns its destination: compare, then a relaxed store
  // (other threads read the destination as a source), no CAS.
  EXPECT_TRUE(contains(Code.Cpp, "GenPull"));
  EXPECT_TRUE(contains(Code.Cpp,
                       "atomicStoreRelaxed(&dist[static_cast<VertexId>(dst)]"
                       ", GenNew); tracking_var = true;"));
  EXPECT_FALSE(contains(Code.Cpp, "] = GenNew;"));
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

//===----------------------------------------------------------------------===//
// Facade fallback
//===----------------------------------------------------------------------===//

TEST(CodeGen, SetCoverFallsBackToFacade) {
  GeneratedCode Code = compileApp("setcover.gt", Schedule());
  EXPECT_TRUE(Code.UsedFacadeFallback);
  EXPECT_TRUE(contains(Code.Cpp, "PriorityQueue"));
  EXPECT_TRUE(contains(Code.Cpp, "reserve_elements")); // extern decl + call
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
