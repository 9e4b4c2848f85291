//===- dsl/CodeGen.cpp - C++ code generation ------------------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "dsl/CodeGen.h"

#include "runtime/LazyBucketQueue.h"

#include <sstream>

using namespace graphit;
using namespace graphit::dsl;

namespace {

/// Schedule for \p Label under \p Map ("" default, else Schedule()).
Schedule scheduleForLabel(const ScheduleMap &Map, const std::string &Label) {
  auto It = Map.find(Label);
  if (It != Map.end())
    return It->second;
  It = Map.find("");
  if (It != Map.end())
    return It->second;
  return Schedule();
}

/// Binding of a priority queue global extracted from its `new` expression.
struct PQBinding {
  bool Valid = false;
  bool AllowCoarsening = false;
  PriorityOrder Order = PriorityOrder::LowerFirst;
  std::string VectorName;   ///< the priority vector global
  const Expr *StartVertex = nullptr; ///< null when absent
};

/// How a priority-update call should be rewritten in the current context.
enum class UpdateLowering {
  Facade,    ///< pq->updatePriorityMin(...)
  EagerPush, ///< atomicWriteMin + push into thread-local bucket
  LazyPush,  ///< atomicWriteMin + tracking variable
  LazyPull,  ///< non-atomic compare/store + tracking variable
};

class CodeGenImpl {
public:
  CodeGenImpl(const Program &P, const SemaResult &SR,
              const ProgramAnalysis &PA, const ScheduleMap &SM)
      : Prog(P), Sema(SR), Analysis(PA), Sched(SM) {}

  GeneratedCode run() {
    emitPrologue();
    emitGlobals();
    emitHelperFuncs();
    emitMain();
    Result.Cpp = Out.str();
    return std::move(Result);
  }

private:
  //===--- small emission helpers -----------------------------------------===//

  void line(const std::string &Text = "") {
    for (int I = 0; I < Indent; ++I)
      Out << "  ";
    Out << Text << "\n";
  }
  void open(const std::string &Text) {
    line(Text);
    ++Indent;
  }
  void close(const std::string &Text = "}") {
    --Indent;
    line(Text);
  }
  void note(const std::string &Text) { Result.Notes.push_back(Text); }

  static std::string cppScalarType(TypeKind Kind) {
    switch (Kind) {
    case TypeKind::Float:
      return "double";
    case TypeKind::Bool:
      return "bool";
    default:
      return "int64_t"; // int and Vertex share a widened scalar type
    }
  }

  //===--- program structure ----------------------------------------------===//

  void emitPrologue() {
    line("//===- generated by the graphit-ordered DSL compiler -----------"
         "---===//");
    line("// Priority-based extension, CGO 2020 reproduction.");
    line("// Schedules:");
    for (const auto &[Label, S] : Sched)
      line("//   #" + (Label.empty() ? std::string("<default>") : Label) +
           "#: " + S.toString());
    line("//===------------------------------------------------------------"
         "---===//");
    line();
    line("#include \"core/OrderedProcess.h\"");
    line("#include \"core/PriorityQueue.h\"");
    line("#include \"dsl/GeneratedSupport.h\"");
    line("#include \"graph/GraphIO.h\"");
    line("#include \"runtime/Histogram.h\"");
    line("#include \"runtime/LazyBucketQueue.h\"");
    line("#include \"runtime/Traversal.h\"");
    line();
    line("#include <cstdio>");
    line("#include <cstdlib>");
    line("#include <memory>");
    line("#include <vector>");
    line();
    line("using namespace graphit;");
    line();
  }

  void emitGlobals() {
    line("// DSL globals.");
    for (const auto &C : Prog.Consts) {
      switch (C->DeclType.Kind) {
      case TypeKind::EdgeSet:
        line("static Graph " + C->Name + ";");
        EdgesetNames.push_back(C->Name);
        break;
      case TypeKind::Vector:
        line("static std::vector<Priority> " + C->Name + ";");
        break;
      case TypeKind::PriorityQueue:
        line("static std::unique_ptr<PriorityQueue> " + C->Name + ";");
        break;
      default:
        // Scalars are assigned inside main (initializers may read argv).
        line("static " + cppScalarType(C->DeclType.Kind) + " " + C->Name +
             "{};");
        break;
      }
    }
    line();
    // Extern function forward declarations.
    for (const auto &F : Prog.Funcs) {
      if (!F->IsExtern)
        continue;
      std::string Sig =
          cppScalarType(F->ReturnType.Kind) + " " + F->Name + "(";
      for (size_t I = 0; I < F->Params.size(); ++I) {
        if (I)
          Sig += ", ";
        Sig += cppScalarType(F->Params[I].Type.Kind);
      }
      line(Sig + "); // extern");
    }
    line();
  }

  /// Emits non-main, non-extern helper functions that are NOT ordered-apply
  /// UDFs (those are inlined at their apply sites).
  void emitHelperFuncs() {
    for (const auto &F : Prog.Funcs) {
      if (F->IsExtern || F->Name == "main" || isApplyUDF(F->Name))
        continue;
      std::string Sig = "static " + cppScalarType(F->ReturnType.Kind) +
                        " " + F->Name + "(";
      for (size_t I = 0; I < F->Params.size(); ++I) {
        if (I)
          Sig += ", ";
        Sig += cppScalarType(F->Params[I].Type.Kind) + " " +
               F->Params[I].Name;
      }
      open(Sig + ") {");
      for (const StmtPtr &S : F->Body)
        emitGenericStmt(*S, nullptr);
      if (F->ReturnType.Kind != TypeKind::Void)
        line("return 0;");
      close();
      line();
    }
  }

  bool isApplyUDF(const std::string &Name) const {
    for (const OrderedLoopInfo &L : Analysis.Loops)
      if (L.UDFName == Name)
        return true;
    return false;
  }

  void emitMain() {
    const FuncDecl *Main = Prog.findFunc("main");
    open("int main(int argc, char **argv) {");
    // The body goes to a side stream first: the argument check above it
    // names every argv[N] it reads.
    std::ostringstream Body;
    std::swap(Body, Out);
    // Global initializers run first (they may read argv).
    for (const auto &C : Prog.Consts)
      emitGlobalInit(*C);
    line();
    if (Main)
      for (const StmtPtr &S : Main->Body)
        emitMainStmt(*S);
    emitEpilogue();
    std::swap(Body, Out);
    std::string Usage;
    for (size_t I = 1; I < ArgNames.size(); ++I)
      Usage += " <" + (ArgNames[I].empty() ? "arg" + std::to_string(I)
                                            : ArgNames[I]) + ">";
    line("gen::checkArgCount(argc, argv, " +
         std::to_string(ArgNames.empty() ? 0 : ArgNames.size() - 1) +
         ", \"" + Usage + "\");");
    Out << Body.str();
    line("return 0;");
    close();
  }

  void emitGlobalInit(const ConstDecl &C) {
    ArgUser = C.Name;
    switch (C.DeclType.Kind) {
    case TypeKind::EdgeSet:
      if (C.Init)
        line(C.Name + " = " + exprToCpp(*C.Init, nullptr) + ";");
      return;
    case TypeKind::Vector: {
      std::string N = firstEdgeset() + ".numNodes()";
      if (!C.Init) {
        line(C.Name + ".assign(static_cast<size_t>(" + N + "), 0);");
        return;
      }
      // Scalar init => fill; call init => evaluate.
      if (isa<CallExpr>(C.Init.get()) || isa<MethodCallExpr>(C.Init.get())) {
        line(C.Name + " = " + exprToCpp(*C.Init, nullptr) + ";");
        return;
      }
      line(C.Name + ".assign(static_cast<size_t>(" + N + "), " +
           exprToCpp(*C.Init, nullptr) + ");");
      return;
    }
    case TypeKind::PriorityQueue:
      return; // bound at its `new` assignment
    default:
      if (C.Init)
        line(C.Name + " = " + exprToCpp(*C.Init, nullptr) + ";");
      return;
    }
  }

  void emitEpilogue() {
    line();
    line("// Result summary (checksums keep the computation observable).");
    for (const auto &C : Prog.Consts)
      if (C->DeclType.Kind == TypeKind::Vector)
        line("std::puts(gen::vectorSummary(\"" + C->Name + "\", " + C->Name +
             ").c_str());");
  }

  std::string firstEdgeset() const {
    return EdgesetNames.empty() ? std::string("edges") : EdgesetNames[0];
  }

  //===--- main statements -------------------------------------------------===//

  void emitMainStmt(const Stmt &S) {
    ArgUser.clear();
    // Priority queue construction.
    if (const auto *AS = dyn_cast<AssignStmt>(&S)) {
      if (const auto *New =
              dyn_cast<NewPriorityQueueExpr>(AS->Value.get())) {
        bindPQ(*cast<VarRefExpr>(AS->Target.get()), *New);
        return;
      }
    }
    // Ordered loops get specialized (or facade) lowering.
    if (const auto *WS = dyn_cast<WhileStmt>(&S)) {
      for (const OrderedLoopInfo &L : Analysis.Loops) {
        if (L.Loop == WS) {
          emitOrderedLoop(L);
          return;
        }
      }
    }
    emitGenericStmt(S, nullptr);
  }

  void bindPQ(const VarRefExpr &Target, const NewPriorityQueueExpr &New) {
    PQBinding B;
    B.Valid = true;
    if (!New.Args.empty())
      if (const auto *BL = dyn_cast<BoolLiteralExpr>(New.Args[0].get()))
        B.AllowCoarsening = BL->Value;
    if (New.Args.size() > 1)
      if (const auto *SL = dyn_cast<StringLiteralExpr>(New.Args[1].get()))
        B.Order = SL->Value == "higher_first" ? PriorityOrder::HigherFirst
                                              : PriorityOrder::LowerFirst;
    if (New.Args.size() > 2)
      if (const auto *VR = dyn_cast<VarRefExpr>(New.Args[2].get()))
        B.VectorName = VR->Name;
    if (New.Args.size() > 3)
      B.StartVertex = New.Args[3].get();
    PQs[Target.Name] = B;
    line("// priority queue '" + Target.Name + "' bound to vector '" +
         B.VectorName + "'" +
         (B.AllowCoarsening ? " (coarsening allowed)" : ""));
  }

  //===--- ordered loop lowering -------------------------------------------===//

  void emitOrderedLoop(const OrderedLoopInfo &L) {
    Schedule S = scheduleForLabel(Sched, L.Label);
    const PQBinding &B = PQs[L.PQName];
    const UDFInfo *UDF = Analysis.udfInfo(L.UDFName);
    const FuncDecl *F = Prog.findFunc(L.UDFName);

    bool MinShape = UDF && F && UDF->Updates.size() == 1 &&
                    UDF->Updates[0].Op == PriorityUpdateInfo::UpdateOp::Min &&
                    B.Valid && B.Order == PriorityOrder::LowerFirst;
    bool SumShape = UDF && F && UDF->histogramEligible() && B.Valid &&
                    B.Order == PriorityOrder::LowerFirst;

    if (S.isEager() && L.EagerLegal && MinShape) {
      emitEagerMinLoop(L, S, B, *F);
      return;
    }
    if (!S.isEager() && MinShape &&
        S.Update != UpdateStrategy::LazyConstantSum) {
      emitLazyMinLoop(L, S, B, *F);
      return;
    }
    if (S.Update == UpdateStrategy::LazyConstantSum && SumShape) {
      emitHistogramSumLoop(L, S, B, *F, UDF->Updates[0]);
      return;
    }
    note("loop '" + L.Label + "': falling back to facade lowering");
    emitFacadeLoop(L, S, B, F);
  }

  /// Eager lowering (Fig. 9(c)): the whole while loop becomes one call to
  /// the ordered processing operator with a specialized relax function.
  void emitEagerMinLoop(const OrderedLoopInfo &L, const Schedule &S,
                        const PQBinding &B, const FuncDecl &F) {
    Result.UsedEagerEngine = true;
    note("loop '" + L.Label + "': eager lowering (" +
         updateStrategyName(S.Update) + ")");
    std::string Vec = B.VectorName;
    std::string Delta = B.AllowCoarsening ? std::to_string(S.Delta) : "1";
    std::string Src = F.Params[0].Name;
    std::string Dst = F.Params.size() > 1 ? F.Params[1].Name : "gen_dst";
    std::string W = F.Params.size() > 2 ? F.Params[2].Name : "gen_weight";

    openLoop(L, S, Vec, "eager ordered processing (Fig. 9(c))");
    line("const VertexId GenStart = " + startVertex(B) + ";");
    line("const int64_t GenDelta = " + Delta + ";");
    line("const PriorityCoarsener GenKeys = PriorityCoarsener::of(GenDelta);");
    // The engine hands the relax fine keys (sub-bins of a Δ-bucket); the
    // stale check uses the source priority the UDF reads.
    open("auto GenRelax = [&](VertexId " + Src +
         ", int64_t gen_curr_key, auto &&gen_push) {");
    emitSourcePriority(Vec, Src);
    line("if (GenKeys.fineKey(gen_src_prio) < gen_curr_key) return;");
    open("for (WNode GenEdge : " + L.EdgesetName + ".outNeighbors(" + Src +
         ")) {");
    line("VertexId " + Dst + " = GenEdge.V; (void)" + Dst + ";");
    line("Priority " + W + " = GenEdge.W; (void)" + W + ";");
    emitUDFBody(F, UpdateLowering::EagerPush);
    CurrentSrc.clear();
    close(); // for
    close("};");
    line("auto GenStop = " + stopLambda(L, B, "GenDelta") + ";");
    line("eagerOrderedProcess(" + L.EdgesetName +
         ".numNodes(), GenStart, GenKeys.fineKey(" + Vec +
         "[GenStart]), GenSched, GenRelax, GenStop, &GenStats);");
    closeLoop(L, Vec);
  }

  /// Lazy lowering (Fig. 9(a)/(b)): explicit bucket loop with
  /// direction-optimized traversal, atomics + dedup in push. A pull owns
  /// its destination, so it needs no read-modify-write, but other threads
  /// read that vertex as a source: both directions load the source and
  /// pull stores the destination with relaxed atomics.
  void emitLazyMinLoop(const OrderedLoopInfo &L, const Schedule &S,
                       const PQBinding &B, const FuncDecl &F) {
    Result.UsedLazyEngine = true;
    note("loop '" + L.Label + "': lazy lowering, direction " +
         std::string(directionName(S.Dir)));
    std::string Vec = B.VectorName;
    std::string Delta = B.AllowCoarsening ? std::to_string(S.Delta) : "1";
    std::string Src = F.Params[0].Name;
    std::string Dst = F.Params.size() > 1 ? F.Params[1].Name : "gen_dst";
    std::string W = F.Params.size() > 2 ? F.Params[2].Name : "gen_weight";

    openLoop(L, S, Vec, "lazy bucket updates (Fig. 9(a)/(b))");
    line("const VertexId GenStart = " + startVertex(B) + ";");
    line("const int64_t GenDelta = " + Delta + ";");
    line("LazyBucketQueue GenQueue(" + L.EdgesetName +
         ".numNodes(), GenSched.NumOpenBuckets, "
         "PriorityOrder::LowerFirst);");
    line("GenQueue.insert(GenStart, " + Vec + "[GenStart] / GenDelta);");
    line("TraversalBuffers GenBuffers(" + L.EdgesetName + ");");
    line("std::vector<int64_t> GenKeys;");

    for (UpdateLowering Dir : {UpdateLowering::LazyPush,
                               UpdateLowering::LazyPull}) {
      open(std::string("auto ") +
           (Dir == UpdateLowering::LazyPush ? "GenPush" : "GenPull") +
           " = [&](VertexId " + Src + ", VertexId " + Dst +
           ", Weight gen_w) -> bool {");
      line("Priority " + W + " = gen_w; (void)" + W + ";");
      emitSourcePriority(Vec, Src);
      line("(void)gen_src_prio;");
      line("bool tracking_var = false;");
      emitUDFBody(F, Dir);
      line("return tracking_var;");
      close("};");
    }
    CurrentSrc.clear();

    open("while (GenQueue.nextBucket()) {");
    line("int64_t gen_curr_key = GenQueue.currentKey();");
    line("auto GenStop = " + stopLambda(L, B, "GenDelta") + ";");
    line("if (GenStop(gen_curr_key)) break;");
    line("++GenStats.Rounds;");
    line("const std::vector<VertexId> &GenBucket = "
         "GenQueue.currentBucket();");
    line("const std::vector<VertexId> &GenChanged = edgeApplyOut(" +
         L.EdgesetName +
         ", GenBucket, GenSched.Dir, GenSched.Par, GenBuffers, GenPush, "
         "GenPull);");
    line("GenKeys.resize(GenChanged.size());");
    line("for (size_t I = 0; I < GenChanged.size(); ++I)");
    line("  GenKeys[I] = std::max(" + Vec +
         "[GenChanged[I]] / GenDelta, gen_curr_key);");
    line("GenQueue.updateBuckets(GenChanged.data(), GenKeys.data(), "
         "static_cast<Count>(GenChanged.size()));");
    close();
    closeLoop(L, Vec);
  }

  /// Histogram lowering (Fig. 10): constant-sum updates are counted per
  /// destination and applied once through the transformed function.
  void emitHistogramSumLoop(const OrderedLoopInfo &L, const Schedule &S,
                            const PQBinding &B, const FuncDecl &F,
                            const PriorityUpdateInfo &U) {
    (void)F;
    Result.UsedHistogram = true;
    note("loop '" + L.Label + "': lazy constant-sum (histogram) lowering");
    std::string Vec = B.VectorName;
    std::string Edges = L.EdgesetName;

    openLoop(L, S, Vec, "lazy with constant sum reduction (Fig. 10)");
    line("Count GenN = " + Edges + ".numNodes();");
    line("LazyBucketQueue GenQueue(GenN, GenSched.NumOpenBuckets, "
         "PriorityOrder::LowerFirst);");
    open("{");
    line("std::vector<VertexId> Ids; std::vector<int64_t> Keys;");
    open("for (Count V = 0; V < GenN; ++V) {");
    line("if (" + Vec + "[V] == kNullPriority) continue;");
    line("Ids.push_back(static_cast<VertexId>(V));");
    line("Keys.push_back(" + Vec + "[V]);");
    close();
    line("GenQueue.updateBuckets(Ids.data(), Keys.data(), "
         "static_cast<Count>(Ids.size()));");
    close();
    line("std::vector<uint8_t> GenDone(static_cast<size_t>(GenN), 0);");
    line("HistogramBuffer GenHist(GenN);");
    line("std::vector<int64_t> GenOffsets, GenKeys;");
    line("std::vector<VertexId> GenTargets, GenCompact, GenUnique;");
    line("std::vector<uint32_t> GenCounts;");
    open("while (GenQueue.nextBucket()) {");
    line("int64_t gen_k = GenQueue.currentKey();");
    line("++GenStats.Rounds;");
    line("const std::vector<VertexId> &GenBucket = "
         "GenQueue.currentBucket();");
    line("Count GenB = static_cast<Count>(GenBucket.size());");
    line("parallelFor(0, GenB, [&](Count I) { GenDone[GenBucket[I]] = 1; "
         "});");
    line("GenOffsets.resize(static_cast<size_t>(GenB) + 1);");
    line("parallelFor(0, GenB, [&](Count I) { GenOffsets[I] = " + Edges +
         ".outDegree(GenBucket[I]); });");
    line("GenOffsets[GenB] = 0;");
    line("int64_t GenTotal = exclusivePrefixSum(GenOffsets.data(), GenB + "
         "1);");
    line("GenTargets.resize(static_cast<size_t>(GenTotal));");
    open("parallelFor(0, GenB, [&](Count I) {");
    line("int64_t Pos = GenOffsets[I];");
    line("for (WNode E : " + Edges + ".outNeighbors(GenBucket[I]))");
    line("  GenTargets[static_cast<size_t>(Pos++)] = GenDone[E.V] ? "
         "kInvalidVertex : E.V;");
    close("});");
    line("GenCompact.resize(static_cast<size_t>(GenTotal));");
    line("Count GenM = parallelPack(GenTargets.data(), GenTotal, "
         "GenCompact.data(), [](VertexId V) { return V != kInvalidVertex; "
         "});");
    line("GenHist.reduce(GenCompact.data(), GenM, GenSched.Histogram, "
         "GenUnique, GenCounts);");
    line("// Transformed user function (Fig. 10): applied once per");
    line("// destination with the update count.");
    open("auto GenApplyTransformed = [&](VertexId Vertex, uint32_t Count_) "
         "-> int64_t {");
    line("int64_t K = gen_k;");
    line("Priority PriorityV = " + Vec + "[Vertex];");
    open("if (PriorityV > K) {");
    line("Priority NewPri = std::max(PriorityV + (" +
         std::to_string(U.SumConst) +
         ") * static_cast<Priority>(Count_), K);");
    line(Vec + "[Vertex] = NewPri;");
    line("return NewPri;");
    close();
    line("return PriorityV;");
    close("};");
    line("Count GenU = static_cast<Count>(GenUnique.size());");
    line("GenKeys.resize(static_cast<size_t>(GenU));");
    line("parallelFor(0, GenU, [&](Count I) { GenKeys[I] = "
         "GenApplyTransformed(GenUnique[I], GenCounts[I]); });");
    line("GenQueue.updateBuckets(GenUnique.data(), GenKeys.data(), "
         "GenU);");
    close();
    closeLoop(L, Vec);
  }

  /// Generic facade lowering: always correct, no specialization.
  void emitFacadeLoop(const OrderedLoopInfo &L, const Schedule &S,
                      const PQBinding &B, const FuncDecl *F) {
    Result.UsedFacadeFallback = true;
    std::string Vec = B.Valid ? B.VectorName : "dist";
    openLoop(L, S, Vec, "facade lowering (unspecialized)");
    std::string Order = B.Order == PriorityOrder::HigherFirst
                            ? "PriorityOrder::HigherFirst"
                            : "PriorityOrder::LowerFirst";
    line(L.PQName + " = std::make_unique<PriorityQueue>(" +
         (B.AllowCoarsening ? "true" : "false") + ", " + Order + ", " + Vec +
         ", GenSched, " + (B.StartVertex ? startVertex(B) : "kInvalidVertex") +
         ");");
    std::string Cond =
        L.StopVertexVar.empty()
            ? "!" + L.PQName + "->finished()"
            : "!" + L.PQName + "->finished() && !" + L.PQName +
                  "->finishedVertex(GenStopVertex)";
    open("while (" + Cond + ") {");
    line("++GenStats.Rounds;");
    line("VertexSubset GenBucket = " + L.PQName + "->dequeueReadySet();");
    if (F) {
      std::string Src = F->Params.empty() ? "gen_src" : F->Params[0].Name;
      std::string Dst =
          F->Params.size() > 1 ? F->Params[1].Name : "gen_dst";
      std::string W =
          F->Params.size() > 2 ? F->Params[2].Name : "gen_weight";
      open("applyUpdatePriority(" + L.EdgesetName +
           ", GenBucket, [&](VertexId " + Src + ", VertexId " + Dst +
           ", Weight gen_w) {");
      line("Priority " + W + " = gen_w; (void)" + W + "; (void)" + Src + ";");
      emitUDFBody(*F, UpdateLowering::Facade);
      close("});");
    }
    close();
    closeLoop(L, Vec);
  }

  /// The loop's start vertex, range-checked against its priority vector.
  std::string startVertex(const PQBinding &B) {
    return "gen::checkedVertex(" +
           (B.StartVertex ? exprToCpp(*B.StartVertex, nullptr) : "0") +
           ", " + B.VectorName + ".size())";
  }

  /// Opens the block every lowering emits its loop into, with the
  /// schedule, the stats and the range-checked early-exit vertex.
  void openLoop(const OrderedLoopInfo &L, const Schedule &S,
                const std::string &Vec, const std::string &What) {
    open("{");
    line("// #" + L.Label + "# " + What);
    if (!L.StopVertexVar.empty())
      line("const VertexId GenStopVertex = gen::checkedVertex(" +
           L.StopVertexVar + ", " + Vec + ".size());");
    line("Schedule GenSched = Schedule::parse(\"" + S.toString() + "\");");
    line("OrderedStats GenStats;");
  }

  /// Closes it with the report every lowering prints: rounds, and the
  /// early-exit vertex's final priority when the loop has one.
  void closeLoop(const OrderedLoopInfo &L, const std::string &Vec) {
    line("gen::reportLoop(\"" + L.Label + "\", GenStats" +
         (L.StopVertexVar.empty() ? ""
                                  : ", GenStopVertex, " + Vec +
                                        "[GenStopVertex]") +
         ");");
    close();
  }

  /// The relax's one load of its source's priority (the relax contract,
  /// core/OrderedProcess.h). Until CurrentSrc is cleared, the UDF's reads
  /// of `Vec[Src]` use this value.
  void emitSourcePriority(const std::string &Vec, const std::string &Src) {
    line("const Priority gen_src_prio = atomicLoadRelaxed(&" + Vec + "[" +
         Src + "]);");
    CurrentVec = Vec;
    CurrentSrc = Src;
  }

  /// Emits \p F's body with its priority updates lowered as \p Lowering.
  void emitUDFBody(const FuncDecl &F, UpdateLowering Lowering) {
    CurrentUpdateLowering = Lowering;
    for (const StmtPtr &St : F.Body)
      emitGenericStmt(*St, &F);
    CurrentUpdateLowering = UpdateLowering::Facade;
  }

  std::string stopLambda(const OrderedLoopInfo &L, const PQBinding &B,
                         const std::string &DeltaVar) {
    if (L.StopVertexVar.empty())
      return "[](int64_t) { return false; }";
    return "[&](int64_t GenKey) { Priority GenBest = atomicLoad(&" +
           B.VectorName + "[GenStopVertex]); return GenBest != "
           "kInfiniteDistance && GenKey * " + DeltaVar + " >= GenBest; }";
  }

  //===--- generic statement / expression translation ----------------------===//

  void emitGenericStmt(const Stmt &S, const FuncDecl *Ctx) {
    ArgUser.clear();
    if (const auto *VD = dyn_cast<VarDeclStmt>(&S)) {
      ArgUser = VD->Name;
      std::string T = VD->DeclType.Kind == TypeKind::VertexSet
                          ? "VertexSubset"
                          : cppScalarType(VD->DeclType.Kind);
      if (VD->Init)
        line(T + " " + VD->Name + " = " + exprToCpp(*VD->Init, Ctx) + ";");
      else
        line(T + " " + VD->Name + "{};");
      return;
    }
    if (const auto *AS = dyn_cast<AssignStmt>(&S)) {
      line(exprToCpp(*AS->Target, Ctx) + " = " + exprToCpp(*AS->Value, Ctx) +
           ";");
      return;
    }
    if (const auto *ES = dyn_cast<ExprStmt>(&S)) {
      line(exprToCpp(*ES->E, Ctx) + ";");
      return;
    }
    if (const auto *WS = dyn_cast<WhileStmt>(&S)) {
      open("while (" + exprToCpp(*WS->Cond, Ctx) + ") {");
      for (const StmtPtr &B : WS->Body)
        emitGenericStmt(*B, Ctx);
      close();
      return;
    }
    if (const auto *IS = dyn_cast<IfStmt>(&S)) {
      open("if (" + exprToCpp(*IS->Cond, Ctx) + ") {");
      for (const StmtPtr &B : IS->Then)
        emitGenericStmt(*B, Ctx);
      if (!IS->Else.empty()) {
        --Indent;
        line("} else {");
        ++Indent;
        for (const StmtPtr &B : IS->Else)
          emitGenericStmt(*B, Ctx);
      }
      close();
      return;
    }
    if (isa<DeleteStmt>(&S)) {
      line("// delete (no-op in generated code)");
      return;
    }
    if (const auto *RS = dyn_cast<ReturnStmt>(&S)) {
      line(RS->Value ? "return " + exprToCpp(*RS->Value, Ctx) + ";"
                     : "return;");
      return;
    }
  }

  std::string exprToCpp(const Expr &E, const FuncDecl *Ctx) {
    if (const auto *I = dyn_cast<IntLiteralExpr>(&E))
      return std::to_string(I->Value);
    if (const auto *Fl = dyn_cast<FloatLiteralExpr>(&E))
      return std::to_string(Fl->Value);
    if (const auto *Bo = dyn_cast<BoolLiteralExpr>(&E))
      return Bo->Value ? "true" : "false";
    if (const auto *St = dyn_cast<StringLiteralExpr>(&E))
      return "\"" + St->Value + "\"";
    if (const auto *V = dyn_cast<VarRefExpr>(&E)) {
      if (V->Name == "INT_MAX")
        return "kInfiniteDistance";
      return V->Name;
    }
    if (const auto *B = dyn_cast<BinaryExpr>(&E))
      return "(" + exprToCpp(*B->LHS, Ctx) + " " +
             binaryOpSpelling(B->Op) + " " + exprToCpp(*B->RHS, Ctx) + ")";
    if (const auto *U = dyn_cast<UnaryExpr>(&E))
      return std::string(U->Op == UnaryExpr::OpKind::Neg ? "(-" : "(!") +
             exprToCpp(*U->Operand, Ctx) + ")";
    if (const auto *C = dyn_cast<CallExpr>(&E))
      return callToCpp(*C, Ctx);
    if (const auto *M = dyn_cast<MethodCallExpr>(&E))
      return methodCallToCpp(*M, Ctx);
    if (const auto *Ix = dyn_cast<IndexExpr>(&E)) {
      if (const auto *BV = dyn_cast<VarRefExpr>(Ix->Base.get())) {
        if (BV->Name == "argv") {
          // Sema admits only literal indices; main checks argc for them.
          size_t N = static_cast<size_t>(
              cast<IntLiteralExpr>(Ix->Index.get())->Value);
          if (ArgNames.size() <= N)
            ArgNames.resize(N + 1);
          if (ArgNames[N].empty())
            ArgNames[N] = ArgUser;
          return "argv[" + std::to_string(N) + "]";
        }
        // The relax's own source priority: the value it loaded.
        const auto *IV = dyn_cast<VarRefExpr>(Ix->Index.get());
        if (!CurrentSrc.empty() && BV->Name == CurrentVec && IV &&
            IV->Name == CurrentSrc)
          return "gen_src_prio";
      }
      // Outside a relax, indices come from the command line or the
      // program's own arithmetic: check each one. Relax and UDF bodies
      // (Ctx set) index with ids the graph supplies.
      std::string Base = exprToCpp(*Ix->Base, Ctx);
      std::string Index = exprToCpp(*Ix->Index, Ctx);
      if (!Ctx)
        return Base + "[gen::checkedVertex(" + Index + ", " + Base +
               ".size())]";
      return Base + "[static_cast<size_t>(" + Index + ")]";
    }
    return "/*unsupported expr*/0";
  }

  std::string callToCpp(const CallExpr &C, const FuncDecl *Ctx) {
    if (C.Callee == "load")
      return "loadBinaryGraph(" + exprToCpp(*C.Args[0], Ctx) + ")";
    if (C.Callee == "atoi")
      return "gen::integerArgument(" + exprToCpp(*C.Args[0], Ctx) + ", \"" +
             (ArgUser.empty() ? "argument" : ArgUser) + "\")";
    if (C.Callee == "load_vertex_data")
      return "gen::loadVertexData(" + exprToCpp(*C.Args[0], Ctx) + ", " +
             firstEdgeset() + ".numNodes())";
    std::string Call = C.Callee + "(";
    for (size_t I = 0; I < C.Args.size(); ++I) {
      if (I)
        Call += ", ";
      Call += exprToCpp(*C.Args[I], Ctx);
    }
    return Call + ")";
  }

  std::string methodCallToCpp(const MethodCallExpr &M, const FuncDecl *Ctx) {
    std::string BaseName;
    if (const auto *BV = dyn_cast<VarRefExpr>(M.Base.get()))
      BaseName = BV->Name;

    // Priority queue operators.
    if (Sema.globalType(BaseName).Kind == TypeKind::PriorityQueue)
      return pqMethodToCpp(M, BaseName, Ctx);

    // Edgeset operators.
    if (Sema.globalType(BaseName).Kind == TypeKind::EdgeSet) {
      if (M.Method == "getOutDegrees")
        return "gen::outDegrees(" + BaseName + ")";
    }
    if (M.Method == "getVertexSetSize" || M.Method == "size")
      return "static_cast<int64_t>(" + exprToCpp(*M.Base, Ctx) + ".size())";
    return "/*unsupported method " + M.Method + "*/0";
  }

  std::string pqMethodToCpp(const MethodCallExpr &M,
                            const std::string &PQName, const FuncDecl *Ctx) {
    const std::string Vec =
        CurrentVec.empty()
            ? (PQs.count(PQName) ? PQs[PQName].VectorName : "dist")
            : CurrentVec;
    auto Arg = [&](size_t I) { return exprToCpp(*M.Args[I], Ctx); };

    if (M.Method == "getCurrentPriority" ||
        M.Method == "get_current_priority") {
      if (CurrentUpdateLowering == UpdateLowering::Facade)
        return PQName + "->getCurrentPriority()";
      // The eager relax sees fine keys; the UDF sees its bucket's key.
      if (CurrentUpdateLowering == UpdateLowering::EagerPush)
        return "(coarseKey(gen_curr_key))";
      return "(gen_curr_key)"; // specialized engines expose the key
    }
    if (M.Method == "finished")
      return PQName + "->finished()";
    if (M.Method == "finishedVertex")
      return PQName + "->finishedVertex(static_cast<VertexId>(" + Arg(0) +
             "))";
    if (M.Method == "dequeueReadySet")
      return PQName + "->dequeueReadySet()";

    bool IsMin = M.Method == "updatePriorityMin";
    bool IsMax = M.Method == "updatePriorityMax";
    bool IsSum = M.Method == "updatePrioritySum";
    if (!IsMin && !IsMax && !IsSum)
      return "/*unsupported pq method*/0";
    // Argument layout: (v, new) or (v, old, new) for min/max;
    // (v, diff, threshold) for sum.
    std::string Target = "static_cast<VertexId>(" + Arg(0) + ")";
    std::string NewVal =
        IsSum ? Arg(1) : (M.Args.size() >= 3 ? Arg(2) : Arg(1));

    switch (CurrentUpdateLowering) {
    case UpdateLowering::Facade:
      if (IsMin)
        return PQName + "->updatePriorityMin(" + Target + ", " + NewVal +
               ")";
      if (IsMax)
        return PQName + "->updatePriorityMax(" + Target + ", " + NewVal +
               ")";
      return PQName + "->updatePrioritySum(" + Target + ", " + Arg(1) +
             ", " + (M.Args.size() >= 3 ? Arg(2) : "0") + ")";
    case UpdateLowering::EagerPush:
      // Atomic update + eager push into the thread-local bucket. The
      // pre-check is a relaxed atomic load (a plain read would race with
      // concurrent CAS updates of the same slot).
      return "[&]{ Priority GenNew = (" + NewVal +
             "); if (GenNew < atomicLoadRelaxed(&" + Vec + "[" + Target +
             "]) && atomicWriteMin(&" + Vec + "[" + Target +
             "], GenNew)) gen_push(" + Target +
             ", std::max(GenKeys.fineKey(GenNew), gen_curr_key)); }()";
    case UpdateLowering::LazyPush:
      // Atomic update + tracking variable (dedup handled by the
      // traversal engine, Fig. 9(a) line 21).
      return "tracking_var = atomicWriteMin(&" + Vec + "[" + Target +
             "], (" + NewVal + ")) || tracking_var";
    case UpdateLowering::LazyPull:
      // Pull direction owns the destination: no read-modify-write
      // (Fig. 9(b)), but a relaxed store, as other threads read it.
      return "[&]{ Priority GenNew = (" + NewVal + "); if (GenNew < " +
             Vec + "[" + Target + "]) { atomicStoreRelaxed(&" + Vec + "[" +
             Target + "], GenNew); tracking_var = true; } }()";
    }
    return "/*unreachable*/0";
  }

  const Program &Prog;
  const SemaResult &Sema;
  const ProgramAnalysis &Analysis;
  const ScheduleMap &Sched;

  GeneratedCode Result;
  std::ostringstream Out;
  int Indent = 0;

  std::map<std::string, PQBinding> PQs;
  std::vector<std::string> EdgesetNames;
  UpdateLowering CurrentUpdateLowering = UpdateLowering::Facade;
  std::string CurrentVec;
  std::string CurrentSrc; ///< the relax's source, while emitting its UDF
  /// Declaration whose initializer is being emitted (names argv reads).
  std::string ArgUser;
  /// ArgNames[N]: the declaration that reads argv[N], for the usage line.
  std::vector<std::string> ArgNames;
};

} // namespace

GeneratedCode graphit::dsl::generateCpp(const Program &Prog,
                                        const SemaResult &Sema,
                                        const ProgramAnalysis &Analysis,
                                        const ScheduleMap &Sched) {
  return CodeGenImpl(Prog, Sema, Analysis, Sched).run();
}
