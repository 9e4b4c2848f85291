//===- dsl/Interpreter.cpp - Direct execution of GraphIt programs ---------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "dsl/Interpreter.h"

#include "core/PriorityQueue.h"
#include "support/Atomics.h"

#include <algorithm>
#include <functional>
#include <memory>

using namespace graphit;
using namespace graphit::dsl;

namespace {

/// Runtime scalar value.
struct Value {
  enum class Kind { Int, Float, Bool, Str, Void } K = Kind::Void;
  int64_t I = 0;
  double F = 0.0;
  bool B = false;
  std::string S;

  static Value ofInt(int64_t V) {
    Value X;
    X.K = Kind::Int;
    X.I = V;
    return X;
  }
  static Value ofFloat(double V) {
    Value X;
    X.K = Kind::Float;
    X.F = V;
    return X;
  }
  static Value ofBool(bool V) {
    Value X;
    X.K = Kind::Bool;
    X.B = V;
    return X;
  }
  static Value ofStr(std::string V) {
    Value X;
    X.K = Kind::Str;
    X.S = std::move(V);
    return X;
  }

  int64_t asInt() const { return K == Kind::Float ? (int64_t)F : I; }
  double asFloat() const { return K == Kind::Float ? F : (double)I; }
  bool asBool() const { return K == Kind::Bool ? B : asInt() != 0; }
};

/// Simple lexical environment (one map per scope chain level).
class Env {
public:
  explicit Env(const Env *P = nullptr) : Parent(P) {}

  Value *find(const std::string &Name) {
    auto It = Vars.find(Name);
    if (It != Vars.end())
      return &It->second;
    // Walking up requires const-cast-free duplication; parents are only
    // read (assignment to outer locals is unsupported in the subset).
    return nullptr;
  }
  const Value *findRead(const std::string &Name) const {
    auto It = Vars.find(Name);
    if (It != Vars.end())
      return &It->second;
    return Parent ? Parent->findRead(Name) : nullptr;
  }
  void define(const std::string &Name, Value V) {
    Vars[Name] = std::move(V);
  }

private:
  const Env *Parent;
  std::map<std::string, Value> Vars;
};

/// Signals an interpreter error (caught at the top level).
struct InterpError {
  std::string Message;
};

[[noreturn]] void interpFail(const std::string &Message) {
  throw InterpError{Message};
}

/// Callbacks a UDF evaluation uses to reach the priority queue. The eager
/// engine and the facade install different sinks.
struct PQSink {
  std::function<void(VertexId, Priority)> Min;
  std::function<void(VertexId, Priority)> Max;
  std::function<void(VertexId, Priority, Priority)> Sum;
  std::function<Priority()> CurrentPriority;
  /// The eager relax's source slot and the value that passed its stale
  /// check: a UDF read of that slot sees this value, never a newer one
  /// (the relax contract in core/OrderedProcess.h).
  const std::vector<Priority> *SrcVec = nullptr;
  VertexId Src = kInvalidVertex;
  Priority SrcPrio = 0;
};

class InterpreterImpl {
public:
  InterpreterImpl(const Program &P, const SemaResult &SR,
                  const ProgramAnalysis &PA, const Graph &Gr,
                  const InterpOptions &O)
      : Prog(P), Sema(SR), Analysis(PA), G(Gr), Options(O) {}

  InterpResult run() {
    InterpResult R;
    try {
      initGlobals();
      const FuncDecl *Main = Prog.findFunc("main");
      if (!Main)
        interpFail("program has no main()");
      Env MainEnv;
      execStmts(Main->Body, MainEnv);
      R.Ok = true;
      R.Vectors = Vectors;
      R.Stats = LastStats;
      R.UsedEagerEngine = UsedEager;
    } catch (const InterpError &E) {
      R.Ok = false;
      R.Error = E.Message;
    }
    return R;
  }

private:
  //===--- globals ---------------------------------------------------------===//

  void initGlobals() {
    for (const auto &C : Prog.Consts) {
      switch (C->DeclType.Kind) {
      case TypeKind::EdgeSet:
        EdgesetName = C->Name; // bound to the externally supplied graph
        break;
      case TypeKind::Vector: {
        std::vector<Priority> &V = Vectors[C->Name];
        if (!C->Init) {
          V.assign(static_cast<size_t>(G.numNodes()), 0);
          break;
        }
        if (const auto *M = dyn_cast<MethodCallExpr>(C->Init.get())) {
          if (M->Method == "getOutDegrees") {
            V.resize(static_cast<size_t>(G.numNodes()));
            for (Count X = 0; X < G.numNodes(); ++X)
              V[X] = G.outDegree(static_cast<VertexId>(X));
            break;
          }
          interpFail("unsupported vector initializer method");
        }
        if (const auto *Call = dyn_cast<CallExpr>(C->Init.get())) {
          if (Call->Callee == "load_vertex_data") {
            Env Empty;
            std::string Key = eval(*Call->Args[0], Empty, nullptr).S;
            auto It = Options.VertexData.find(Key);
            if (It == Options.VertexData.end())
              interpFail("no vertex data registered for '" + Key + "'");
            V = It->second;
            if (static_cast<Count>(V.size()) != G.numNodes())
              interpFail("vertex data size mismatch");
            break;
          }
          interpFail("unsupported vector initializer call");
        }
        Env Empty;
        Value Fill = eval(*C->Init, Empty, nullptr);
        V.assign(static_cast<size_t>(G.numNodes()), Fill.asInt());
        break;
      }
      case TypeKind::PriorityQueue:
        break; // bound at its `new` assignment
      default: {
        Env Empty;
        Globals.define(C->Name,
                       C->Init ? eval(*C->Init, Empty, nullptr) : Value());
        break;
      }
      }
    }
  }

  //===--- statements -------------------------------------------------------===//

  void execStmts(const std::vector<StmtPtr> &Stmts, Env &E) {
    for (const StmtPtr &S : Stmts)
      execStmt(*S, E);
  }

  void execStmt(const Stmt &S, Env &E) {
    if (const auto *VD = dyn_cast<VarDeclStmt>(&S)) {
      if (VD->DeclType.Kind == TypeKind::VertexSet)
        interpFail("vertexset variables occur only in ordered loops");
      E.define(VD->Name, VD->Init ? eval(*VD->Init, E, nullptr) : Value());
      return;
    }
    if (const auto *AS = dyn_cast<AssignStmt>(&S)) {
      execAssign(*AS, E);
      return;
    }
    if (const auto *ES = dyn_cast<ExprStmt>(&S)) {
      eval(*ES->E, E, nullptr);
      return;
    }
    if (const auto *WS = dyn_cast<WhileStmt>(&S)) {
      execWhile(*WS, E);
      return;
    }
    if (const auto *IS = dyn_cast<IfStmt>(&S)) {
      if (eval(*IS->Cond, E, nullptr).asBool())
        execStmts(IS->Then, E);
      else
        execStmts(IS->Else, E);
      return;
    }
    if (isa<DeleteStmt>(&S))
      return; // storage is managed by the interpreter
    if (isa<ReturnStmt>(&S))
      interpFail("return outside of a user-defined function");
  }

  void execAssign(const AssignStmt &AS, Env &E) {
    // pq = new priority_queue{...}(...)
    if (const auto *New = dyn_cast<NewPriorityQueueExpr>(AS.Value.get())) {
      bindPQ(cast<VarRefExpr>(AS.Target.get())->Name, *New, E);
      return;
    }
    Value V = eval(*AS.Value, E, nullptr);
    if (const auto *Target = dyn_cast<VarRefExpr>(AS.Target.get())) {
      if (Value *Slot = E.find(Target->Name)) {
        *Slot = V;
        return;
      }
      if (Value *Slot = Globals.find(Target->Name)) {
        *Slot = V;
        return;
      }
      interpFail("assignment to unknown variable '" + Target->Name + "'");
    }
    if (const auto *Ix = dyn_cast<IndexExpr>(AS.Target.get())) {
      std::vector<Priority> &Vec = vectorFor(*Ix->Base);
      int64_t I = eval(*Ix->Index, E, nullptr).asInt();
      if (I < 0 || static_cast<size_t>(I) >= Vec.size())
        interpFail("vector index out of range");
      Vec[static_cast<size_t>(I)] = V.asInt();
      return;
    }
    interpFail("unsupported assignment target");
  }

  //===--- priority queue binding ------------------------------------------===//

  struct PQState {
    bool AllowCoarsening = false;
    PriorityOrder Order = PriorityOrder::LowerFirst;
    std::string VectorName;
    VertexId Start = kInvalidVertex;
    std::unique_ptr<PriorityQueue> Facade;
    Schedule Sched;
  };

  void bindPQ(const std::string &Name, const NewPriorityQueueExpr &New,
              Env &E) {
    PQState State;
    if (!New.Args.empty())
      State.AllowCoarsening = eval(*New.Args[0], E, nullptr).asBool();
    if (New.Args.size() > 1) {
      std::string Order = eval(*New.Args[1], E, nullptr).S;
      State.Order = Order == "higher_first" ? PriorityOrder::HigherFirst
                                            : PriorityOrder::LowerFirst;
    }
    if (New.Args.size() > 2) {
      const auto *V = dyn_cast<VarRefExpr>(New.Args[2].get());
      if (!V || !Vectors.count(V->Name))
        interpFail("priority_queue needs a priority vector global");
      State.VectorName = V->Name;
    }
    if (New.Args.size() > 3)
      State.Start = static_cast<VertexId>(
          eval(*New.Args[3], E, nullptr).asInt());
    PQ[Name] = std::move(State);
  }

  //===--- while loops ------------------------------------------------------===//

  void execWhile(const WhileStmt &WS, Env &E) {
    const OrderedLoopInfo *Loop = nullptr;
    for (const OrderedLoopInfo &L : Analysis.Loops)
      if (L.Loop == &WS)
        Loop = &L;

    if (Loop) {
      Schedule S = scheduleForLabel(Options.Schedules, Loop->Label);
      const UDFInfo *Info = Analysis.udfInfo(Loop->UDFName);
      bool MinShape =
          Info && Info->Updates.size() == 1 &&
          Info->Updates[0].Op == PriorityUpdateInfo::UpdateOp::Min;
      if (S.isEager() && Loop->EagerLegal && MinShape &&
          PQ[Loop->PQName].Order == PriorityOrder::LowerFirst) {
        execOrderedLoopEager(*Loop, S, E);
        return;
      }
      execOrderedLoopFacade(*Loop, S, E);
      return;
    }

    // Generic while (no priority structure involved).
    int64_t Guard = 0;
    while (eval(*WS.Cond, E, nullptr).asBool()) {
      execStmts(WS.Body, E);
      if (++Guard > (G.numNodes() + 2) * 4)
        interpFail("runaway while loop");
    }
  }

  /// Eager path: the §5.2 transformation — replace the whole loop with the
  /// ordered processing operator, evaluating the UDF per edge.
  void execOrderedLoopEager(const OrderedLoopInfo &Loop, const Schedule &S,
                            Env &E) {
    UsedEager = true;
    PQState &Q = PQ[Loop.PQName];
    std::vector<Priority> &Prio = Vectors[Q.VectorName];
    const FuncDecl *F = Prog.findFunc(Loop.UDFName);
    if (!F || Q.Start == kInvalidVertex)
      interpFail("eager loop needs a start vertex and a UDF");
    int64_t Delta = Q.AllowCoarsening ? S.Delta : 1;

    VertexId StopVertex = kInvalidVertex;
    if (!Loop.StopVertexVar.empty())
      StopVertex = static_cast<VertexId>(readScalar(Loop.StopVertexVar, E));
    auto Stop = [&](int64_t Key) {
      if (StopVertex == kInvalidVertex)
        return false;
      Priority Best = atomicLoad(&Prio[StopVertex]);
      return Best != kInfiniteDistance && Key * Delta >= Best;
    };

    OrderedStats Stats;
    const PriorityCoarsener C = PriorityCoarsener::of(Delta);
    auto Relax = [&](VertexId U, int64_t CurrKey, auto &&Push) {
      // One relaxed load of the source's priority (concurrent relaxations
      // CAS these slots): the stale check and every UDF read of it use
      // that value.
      const Priority SrcPrio = atomicLoadRelaxed(&Prio[U]);
      if (C.fineKey(SrcPrio) < CurrKey)
        return;
      PQSink Sink;
      Sink.SrcVec = &Prio;
      Sink.Src = U;
      Sink.SrcPrio = SrcPrio;
      Sink.Min = [&](VertexId V, Priority NewVal) {
        if (NewVal < atomicLoadRelaxed(&Prio[V]) &&
            atomicWriteMin(&Prio[V], NewVal))
          Push(V, std::max(C.fineKey(NewVal), CurrKey));
      };
      // The UDF sees the bucket's priority, not the sub-bin's.
      Sink.CurrentPriority = [&]() { return coarseKey(CurrKey) * Delta; };
      for (WNode Edge : G.outNeighbors(U))
        evalUDF(*F, U, Edge.V, Edge.W, Sink);
    };
    eagerOrderedProcess(G.numNodes(), Q.Start, C.fineKey(Prio[Q.Start]), S,
                        Relax, Stop, &Stats);
    LastStats = Stats;
  }

  /// Facade path: execute the loop as written, with Table 1 semantics.
  void execOrderedLoopFacade(const OrderedLoopInfo &Loop, const Schedule &S,
                             Env &E) {
    PQState &Q = PQ[Loop.PQName];
    std::vector<Priority> &Prio = Vectors[Q.VectorName];
    const FuncDecl *F = Prog.findFunc(Loop.UDFName);
    if (!F)
      interpFail("ordered loop UDF not found");
    Q.Sched = S;
    Q.Facade = std::make_unique<PriorityQueue>(
        Q.AllowCoarsening, Q.Order, Prio, S, Q.Start);
    PriorityQueue &Facade = *Q.Facade;

    VertexId StopVertex = kInvalidVertex;
    if (!Loop.StopVertexVar.empty())
      StopVertex = static_cast<VertexId>(readScalar(Loop.StopVertexVar, E));

    OrderedStats Stats;
    Timer Clock;
    while (!Facade.finished()) {
      if (StopVertex != kInvalidVertex && Facade.finishedVertex(StopVertex))
        break;
      VertexSubset Bucket = Facade.dequeueReadySet();
      ++Stats.Rounds;
      Stats.VerticesProcessed += Bucket.size();

      PQSink Sink;
      Sink.Min = [&](VertexId V, Priority NewVal) {
        Facade.updatePriorityMin(V, NewVal);
      };
      Sink.Max = [&](VertexId V, Priority NewVal) {
        Facade.updatePriorityMax(V, NewVal);
      };
      Sink.Sum = [&](VertexId V, Priority Diff, Priority Threshold) {
        Facade.updatePrioritySum(V, Diff, Threshold);
      };
      Sink.CurrentPriority = [&]() { return Facade.getCurrentPriority(); };
      applyUpdatePriority(G, Bucket,
                          [&](VertexId Src, VertexId Dst, Weight W) {
                            evalUDF(*F, Src, Dst, W, Sink);
                          },
                          S.Par);
    }
    Stats.Seconds = Clock.seconds();
    LastStats = Stats;
  }

  //===--- UDF evaluation ----------------------------------------------------===//

  void evalUDF(const FuncDecl &F, VertexId Src, VertexId Dst, Weight W,
               const PQSink &Sink) {
    Env E;
    if (!F.Params.empty())
      E.define(F.Params[0].Name, Value::ofInt(Src));
    if (F.Params.size() > 1)
      E.define(F.Params[1].Name, Value::ofInt(Dst));
    if (F.Params.size() > 2)
      E.define(F.Params[2].Name, Value::ofInt(W));
    for (const StmtPtr &S : F.Body)
      execUDFStmt(*S, E, Sink);
  }

  void execUDFStmt(const Stmt &S, Env &E, const PQSink &Sink) {
    if (const auto *VD = dyn_cast<VarDeclStmt>(&S)) {
      E.define(VD->Name, VD->Init ? eval(*VD->Init, E, &Sink) : Value());
      return;
    }
    if (const auto *IS = dyn_cast<IfStmt>(&S)) {
      if (eval(*IS->Cond, E, &Sink).asBool())
        for (const StmtPtr &B : IS->Then)
          execUDFStmt(*B, E, Sink);
      else
        for (const StmtPtr &B : IS->Else)
          execUDFStmt(*B, E, Sink);
      return;
    }
    if (const auto *ES = dyn_cast<ExprStmt>(&S)) {
      eval(*ES->E, E, &Sink);
      return;
    }
    if (const auto *AS = dyn_cast<AssignStmt>(&S)) {
      // Plain vector writes inside UDFs are rare (the priority operators
      // subsume them) but supported, non-atomically.
      Value V = eval(*AS->Value, E, &Sink);
      if (const auto *Ix = dyn_cast<IndexExpr>(AS->Target.get())) {
        std::vector<Priority> &Vec = vectorFor(*Ix->Base);
        int64_t I = eval(*Ix->Index, E, &Sink).asInt();
        Vec[static_cast<size_t>(I)] = V.asInt();
        return;
      }
      if (const auto *Var = dyn_cast<VarRefExpr>(AS->Target.get())) {
        if (Value *Slot = E.find(Var->Name)) {
          *Slot = V;
          return;
        }
      }
      interpFail("unsupported assignment in UDF");
    }
    if (isa<ReturnStmt>(&S))
      return; // void UDFs only
  }

  //===--- expressions --------------------------------------------------------===//

  std::vector<Priority> &vectorFor(const Expr &Base) {
    const auto *V = dyn_cast<VarRefExpr>(&Base);
    if (!V || !Vectors.count(V->Name))
      interpFail("expected a vector global");
    return Vectors[V->Name];
  }

  int64_t readScalar(const std::string &Name, Env &E) {
    if (const Value *V = E.findRead(Name))
      return V->asInt();
    if (const Value *V = Globals.findRead(Name))
      return V->asInt();
    interpFail("unknown scalar '" + Name + "'");
  }

  Value eval(const Expr &Ex, Env &E, const PQSink *Sink) {
    if (const auto *I = dyn_cast<IntLiteralExpr>(&Ex))
      return Value::ofInt(I->Value);
    if (const auto *F = dyn_cast<FloatLiteralExpr>(&Ex))
      return Value::ofFloat(F->Value);
    if (const auto *B = dyn_cast<BoolLiteralExpr>(&Ex))
      return Value::ofBool(B->Value);
    if (const auto *S = dyn_cast<StringLiteralExpr>(&Ex))
      return Value::ofStr(S->Value);
    if (const auto *V = dyn_cast<VarRefExpr>(&Ex)) {
      if (V->Name == "INT_MAX")
        return Value::ofInt(kInfiniteDistance);
      if (const Value *Local = E.findRead(V->Name))
        return *Local;
      if (const Value *Global = Globals.findRead(V->Name))
        return *Global;
      interpFail("unbound variable '" + V->Name + "'");
    }
    if (const auto *B = dyn_cast<BinaryExpr>(&Ex))
      return evalBinary(*B, E, Sink);
    if (const auto *U = dyn_cast<UnaryExpr>(&Ex)) {
      Value V = eval(*U->Operand, E, Sink);
      if (U->Op == UnaryExpr::OpKind::Not)
        return Value::ofBool(!V.asBool());
      if (V.K == Value::Kind::Float)
        return Value::ofFloat(-V.asFloat());
      return Value::ofInt(-V.asInt());
    }
    if (const auto *C = dyn_cast<CallExpr>(&Ex))
      return evalCall(*C, E, Sink);
    if (const auto *M = dyn_cast<MethodCallExpr>(&Ex))
      return evalMethod(*M, E, Sink);
    if (const auto *Ix = dyn_cast<IndexExpr>(&Ex)) {
      if (const auto *BV = dyn_cast<VarRefExpr>(Ix->Base.get())) {
        if (BV->Name == "argv") {
          int64_t I = eval(*Ix->Index, E, Sink).asInt();
          // argv[1] is the graph (virtual); argv[k>=2] maps to Args[k-2].
          if (I == 1)
            return Value::ofStr("<graph>");
          size_t Slot = static_cast<size_t>(I - 2);
          if (Slot >= Options.Args.size())
            interpFail("argv index out of range");
          return Value::ofStr(Options.Args[Slot]);
        }
      }
      std::vector<Priority> &Vec = vectorFor(*Ix->Base);
      int64_t I = eval(*Ix->Index, E, Sink).asInt();
      if (I < 0 || static_cast<size_t>(I) >= Vec.size())
        interpFail("vector index out of range");
      if (Sink && Sink->SrcVec == &Vec && I == Sink->Src)
        return Value::ofInt(Sink->SrcPrio);
      // Relaxed atomic read: UDFs run inside parallel relaxations, so
      // another thread may be CAS-ing this slot (pq.min re-validates).
      return Value::ofInt(atomicLoadRelaxed(&Vec[static_cast<size_t>(I)]));
    }
    interpFail("unsupported expression");
  }

  Value evalBinary(const BinaryExpr &B, Env &E, const PQSink *Sink) {
    using Op = BinaryExpr::OpKind;
    if (B.Op == Op::And)
      return Value::ofBool(eval(*B.LHS, E, Sink).asBool() &&
                           eval(*B.RHS, E, Sink).asBool());
    if (B.Op == Op::Or)
      return Value::ofBool(eval(*B.LHS, E, Sink).asBool() ||
                           eval(*B.RHS, E, Sink).asBool());
    Value L = eval(*B.LHS, E, Sink);
    Value R = eval(*B.RHS, E, Sink);
    bool FloatMode =
        L.K == Value::Kind::Float || R.K == Value::Kind::Float;
    switch (B.Op) {
    case Op::Add:
      return FloatMode ? Value::ofFloat(L.asFloat() + R.asFloat())
                       : Value::ofInt(L.asInt() + R.asInt());
    case Op::Sub:
      return FloatMode ? Value::ofFloat(L.asFloat() - R.asFloat())
                       : Value::ofInt(L.asInt() - R.asInt());
    case Op::Mul:
      return FloatMode ? Value::ofFloat(L.asFloat() * R.asFloat())
                       : Value::ofInt(L.asInt() * R.asInt());
    case Op::Div:
      if (!FloatMode && R.asInt() == 0)
        interpFail("integer division by zero");
      return FloatMode ? Value::ofFloat(L.asFloat() / R.asFloat())
                       : Value::ofInt(L.asInt() / R.asInt());
    case Op::Eq:
      return Value::ofBool(L.K == Value::Kind::Bool
                               ? L.asBool() == R.asBool()
                               : L.asFloat() == R.asFloat());
    case Op::Ne:
      return Value::ofBool(L.K == Value::Kind::Bool
                               ? L.asBool() != R.asBool()
                               : L.asFloat() != R.asFloat());
    case Op::Lt:
      return Value::ofBool(L.asFloat() < R.asFloat());
    case Op::Le:
      return Value::ofBool(L.asFloat() <= R.asFloat());
    case Op::Gt:
      return Value::ofBool(L.asFloat() > R.asFloat());
    case Op::Ge:
      return Value::ofBool(L.asFloat() >= R.asFloat());
    default:
      interpFail("unsupported binary operator");
    }
  }

  Value evalCall(const CallExpr &C, Env &E, const PQSink *Sink) {
    if (C.Callee == "atoi")
      return Value::ofInt(
          std::atoll(eval(*C.Args[0], E, Sink).S.c_str()));
    if (C.Callee == "load")
      return Value::ofStr("<graph>");
    interpFail("unsupported call '" + C.Callee + "' (extern functions "
               "must be intercepted by the driver)");
  }

  Value evalMethod(const MethodCallExpr &M, Env &E, const PQSink *Sink) {
    std::string BaseName;
    if (const auto *BV = dyn_cast<VarRefExpr>(M.Base.get()))
      BaseName = BV->Name;

    if (PQ.count(BaseName))
      return evalPQMethod(M, BaseName, E, Sink);
    interpFail("unsupported method '" + M.Method + "'");
  }

  Value evalPQMethod(const MethodCallExpr &M, const std::string &Name,
                     Env &E, const PQSink *Sink) {
    PQState &Q = PQ[Name];
    auto ArgInt = [&](size_t I) {
      return eval(*M.Args[I], E, Sink).asInt();
    };

    if (M.Method == "getCurrentPriority" ||
        M.Method == "get_current_priority") {
      if (Sink && Sink->CurrentPriority)
        return Value::ofInt(Sink->CurrentPriority());
      if (Q.Facade)
        return Value::ofInt(Q.Facade->getCurrentPriority());
      interpFail("getCurrentPriority outside an ordered loop");
    }
    if (M.Method == "finished") {
      if (!Q.Facade) {
        // Queried before any loop ran: construct the facade on demand.
        Q.Facade = std::make_unique<PriorityQueue>(
            Q.AllowCoarsening, Q.Order, Vectors[Q.VectorName], Q.Sched,
            Q.Start);
      }
      return Value::ofBool(Q.Facade->finished());
    }
    if (M.Method == "finishedVertex")
      return Value::ofBool(
          Q.Facade &&
          Q.Facade->finishedVertex(static_cast<VertexId>(ArgInt(0))));
    if (M.Method == "updatePriorityMin" ||
        M.Method == "updatePriorityMax") {
      if (!Sink)
        interpFail("priority updates occur only inside UDFs");
      auto V = static_cast<VertexId>(ArgInt(0));
      Priority NewVal = M.Args.size() >= 3 ? ArgInt(2) : ArgInt(1);
      if (M.Method == "updatePriorityMin") {
        if (!Sink->Min)
          interpFail("this engine cannot execute updatePriorityMin");
        Sink->Min(V, NewVal);
      } else {
        if (!Sink->Max)
          interpFail("this engine cannot execute updatePriorityMax");
        Sink->Max(V, NewVal);
      }
      return Value();
    }
    if (M.Method == "updatePrioritySum") {
      if (!Sink || !Sink->Sum)
        interpFail("this engine cannot execute updatePrioritySum");
      auto V = static_cast<VertexId>(ArgInt(0));
      Priority Diff = ArgInt(1);
      Priority Threshold = M.Args.size() >= 3 ? ArgInt(2) : 0;
      Sink->Sum(V, Diff, Threshold);
      return Value();
    }
    interpFail("unsupported priority_queue method '" + M.Method + "'");
  }

  const Program &Prog;
  const SemaResult &Sema;
  const ProgramAnalysis &Analysis;
  const Graph &G;
  const InterpOptions &Options;

  std::string EdgesetName;
  std::map<std::string, std::vector<Priority>> Vectors;
  std::map<std::string, PQState> PQ;
  Env Globals;
  OrderedStats LastStats;
  bool UsedEager = false;
};

} // namespace

InterpResult graphit::dsl::interpret(const Program &Prog,
                                     const SemaResult &Sema,
                                     const ProgramAnalysis &Analysis,
                                     const Graph &G,
                                     const InterpOptions &Options) {
  return InterpreterImpl(Prog, Sema, Analysis, G, Options).run();
}
