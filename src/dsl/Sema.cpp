//===- dsl/Sema.cpp - Symbol resolution and type checking -----------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "dsl/Sema.h"

#include <algorithm>
#include <set>

using namespace graphit;
using namespace graphit::dsl;

namespace {

class SemaImpl {
public:
  explicit SemaImpl(Program &P) : Prog(P) {}

  SemaResult run() {
    collectGlobals();
    for (auto &F : Prog.Funcs)
      checkFunc(*F);
    return std::move(Result);
  }

private:
  void error(SourceLoc Loc, const std::string &Message) {
    Result.Errors.push_back("line " + std::to_string(Loc.Line) + ":" +
                            std::to_string(Loc.Column) + ": " + Message);
  }

  void collectGlobals() {
    for (auto &E : Prog.Elements) {
      if (Result.Globals.count(E->Name))
        error(E->loc(), "duplicate element '" + E->Name + "'");
      TypeRef T(TypeKind::Vertex);
      T.Element = E->Name;
      Result.Globals[E->Name] = T;
    }
    for (auto &C : Prog.Consts) {
      if (Result.Globals.count(C->Name))
        error(C->loc(), "duplicate global '" + C->Name + "'");
      Result.Globals[C->Name] = C->DeclType;
    }
    for (auto &F : Prog.Funcs) {
      if (FuncNames.count(F->Name))
        error(F->loc(), "duplicate function '" + F->Name + "'");
      FuncNames.insert(F->Name);
    }
    // Initializers are checked in a pseudo-scope with no locals.
    Locals.clear();
    for (auto &C : Prog.Consts)
      if (C->Init)
        checkExpr(*C->Init);
  }

  void checkFunc(FuncDecl &F) {
    Locals.clear();
    for (const Param &P : F.Params) {
      if (Locals.count(P.Name))
        error(F.loc(), "duplicate parameter '" + P.Name + "'");
      Locals[P.Name] = P.Type;
    }
    for (StmtPtr &S : F.Body)
      checkStmt(*S);
  }

  void checkStmt(Stmt &S) {
    if (auto *VD = dyn_cast<VarDeclStmt>(&S)) {
      if (VD->Init) {
        TypeRef T = checkExpr(*VD->Init);
        if (VD->DeclType.isNumeric() && T.Kind == TypeKind::Bool)
          error(VD->loc(), "cannot initialize numeric variable '" +
                               VD->Name + "' with a bool");
      }
      if (Locals.count(VD->Name) || Result.Globals.count(VD->Name))
        error(VD->loc(), "redeclaration of '" + VD->Name + "'");
      Locals[VD->Name] = VD->DeclType;
      return;
    }
    if (auto *AS = dyn_cast<AssignStmt>(&S)) {
      if (AS->Target)
        checkExpr(*AS->Target);
      if (AS->Value)
        checkExpr(*AS->Value);
      return;
    }
    if (auto *ES = dyn_cast<ExprStmt>(&S)) {
      if (ES->E)
        checkExpr(*ES->E);
      return;
    }
    if (auto *WS = dyn_cast<WhileStmt>(&S)) {
      TypeRef T = checkExpr(*WS->Cond);
      if (T.Kind != TypeKind::Bool && T.Kind != TypeKind::Invalid)
        error(WS->loc(), "while condition must be bool, got " +
                             T.toString());
      for (StmtPtr &B : WS->Body)
        checkStmt(*B);
      return;
    }
    if (auto *IS = dyn_cast<IfStmt>(&S)) {
      TypeRef T = checkExpr(*IS->Cond);
      if (T.Kind != TypeKind::Bool && T.Kind != TypeKind::Invalid)
        error(IS->loc(),
              "if condition must be bool, got " + T.toString());
      for (StmtPtr &B : IS->Then)
        checkStmt(*B);
      for (StmtPtr &B : IS->Else)
        checkStmt(*B);
      return;
    }
    if (auto *DS = dyn_cast<DeleteStmt>(&S)) {
      if (!Locals.count(DS->Name) && !Result.Globals.count(DS->Name))
        error(DS->loc(), "delete of undeclared '" + DS->Name + "'");
      return;
    }
    if (auto *RS = dyn_cast<ReturnStmt>(&S)) {
      if (RS->Value)
        checkExpr(*RS->Value);
      return;
    }
  }

  TypeRef lookup(const std::string &Name, SourceLoc Loc) {
    auto L = Locals.find(Name);
    if (L != Locals.end())
      return L->second;
    auto G = Result.Globals.find(Name);
    if (G != Result.Globals.end())
      return G->second;
    if (Name == "argv")
      return TypeRef(TypeKind::String);
    if (Name == "INT_MAX")
      return TypeRef(TypeKind::Int);
    if (FuncNames.count(Name))
      return TypeRef(TypeKind::Void); // function reference argument
    error(Loc, "use of undeclared identifier '" + Name + "'");
    return TypeRef();
  }

  TypeRef checkExpr(Expr &E) {
    TypeRef T = computeType(E);
    E.Type = T;
    return T;
  }

  TypeRef computeType(Expr &E) {
    if (isa<IntLiteralExpr>(&E))
      return TypeRef(TypeKind::Int);
    if (isa<FloatLiteralExpr>(&E))
      return TypeRef(TypeKind::Float);
    if (isa<BoolLiteralExpr>(&E))
      return TypeRef(TypeKind::Bool);
    if (isa<StringLiteralExpr>(&E))
      return TypeRef(TypeKind::String);
    if (auto *V = dyn_cast<VarRefExpr>(&E))
      return lookup(V->Name, V->loc());
    if (auto *B = dyn_cast<BinaryExpr>(&E))
      return checkBinary(*B);
    if (auto *U = dyn_cast<UnaryExpr>(&E)) {
      TypeRef T = U->Operand ? checkExpr(*U->Operand) : TypeRef();
      if (U->Op == UnaryExpr::OpKind::Not) {
        if (T.Kind != TypeKind::Bool && T.Kind != TypeKind::Invalid)
          error(U->loc(), "'not' requires a bool operand");
        return TypeRef(TypeKind::Bool);
      }
      if (!T.isNumeric() && T.Kind != TypeKind::Invalid)
        error(U->loc(), "negation requires a numeric operand");
      return T;
    }
    if (auto *C = dyn_cast<CallExpr>(&E))
      return checkCall(*C);
    if (auto *M = dyn_cast<MethodCallExpr>(&E))
      return checkMethodCall(*M);
    if (auto *I = dyn_cast<IndexExpr>(&E))
      return checkIndex(*I);
    if (auto *N = dyn_cast<NewPriorityQueueExpr>(&E)) {
      for (ExprPtr &A : N->Args)
        if (A)
          checkExpr(*A);
      return N->PQType;
    }
    return TypeRef();
  }

  TypeRef checkBinary(BinaryExpr &B) {
    TypeRef L = B.LHS ? checkExpr(*B.LHS) : TypeRef();
    TypeRef R = B.RHS ? checkExpr(*B.RHS) : TypeRef();
    using Op = BinaryExpr::OpKind;
    switch (B.Op) {
    case Op::And:
    case Op::Or:
      if ((L.Kind != TypeKind::Bool && L.Kind != TypeKind::Invalid) ||
          (R.Kind != TypeKind::Bool && R.Kind != TypeKind::Invalid))
        error(B.loc(), "logical operator requires bool operands");
      return TypeRef(TypeKind::Bool);
    case Op::Eq:
    case Op::Ne:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
      return TypeRef(TypeKind::Bool);
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
      if ((L.Kind != TypeKind::Invalid && !L.isNumeric() &&
           L.Kind != TypeKind::Vertex) ||
          (R.Kind != TypeKind::Invalid && !R.isNumeric() &&
           R.Kind != TypeKind::Vertex))
        error(B.loc(), "arithmetic requires numeric operands");
      if (L.Kind == TypeKind::Float || R.Kind == TypeKind::Float)
        return TypeRef(TypeKind::Float);
      return TypeRef(TypeKind::Int);
    }
    return TypeRef();
  }

  TypeRef checkCall(CallExpr &C) {
    for (ExprPtr &A : C.Args)
      if (A)
        checkExpr(*A);
    if (C.Callee == "load") {
      TypeRef T(TypeKind::EdgeSet);
      T.Params = {TypeKind::Vertex, TypeKind::Vertex, TypeKind::Int};
      return T;
    }
    if (C.Callee == "atoi")
      return TypeRef(TypeKind::Int);
    if (C.Callee == "to_float")
      return TypeRef(TypeKind::Float);
    if (C.Callee == "load_vertex_data") {
      TypeRef T(TypeKind::Vector);
      T.Element = "Vertex";
      T.Params = {TypeKind::Int};
      return T;
    }
    if (!FuncNames.count(C.Callee)) {
      error(C.loc(), "call to undeclared function '" + C.Callee + "'");
      return TypeRef();
    }
    const FuncDecl *F = Prog.findFunc(C.Callee);
    if (F && F->Params.size() != C.Args.size())
      error(C.loc(), "wrong number of arguments to '" + C.Callee + "'");
    return F ? F->ReturnType : TypeRef();
  }

  TypeRef checkMethodCall(MethodCallExpr &M) {
    TypeRef Base = M.Base ? checkExpr(*M.Base) : TypeRef();
    // Argument expressions are checked uniformly, except function
    // references passed to applyUpdatePriority.
    for (ExprPtr &A : M.Args) {
      if (!A)
        continue;
      if (M.Method == "applyUpdatePriority" && isa<VarRefExpr>(A.get())) {
        const std::string &FName = cast<VarRefExpr>(A.get())->Name;
        if (!FuncNames.count(FName))
          error(A->loc(), "applyUpdatePriority requires a function, '" +
                              FName + "' is not one");
        A->Type = TypeRef(TypeKind::Void);
        continue;
      }
      checkExpr(*A);
    }

    if (Base.Kind == TypeKind::PriorityQueue)
      return checkPQMethod(M, Base);

    if (Base.Kind == TypeKind::EdgeSet) {
      if (M.Method == "from") {
        if (M.Args.size() != 1)
          error(M.loc(), "from() takes exactly one vertexset");
        return Base; // filtered edgeset
      }
      if (M.Method == "applyUpdatePriority") {
        if (M.Args.size() != 1)
          error(M.loc(), "applyUpdatePriority takes exactly one function");
        return TypeRef(TypeKind::Void);
      }
      if (M.Method == "getOutDegrees") {
        TypeRef T(TypeKind::Vector);
        T.Element = Base.Element;
        T.Params = {TypeKind::Int};
        return T;
      }
      error(M.loc(), "unknown edgeset method '" + M.Method + "'");
      return TypeRef();
    }
    if (Base.Kind == TypeKind::VertexSet) {
      if (M.Method == "getVertexSetSize" || M.Method == "size")
        return TypeRef(TypeKind::Int);
      error(M.loc(), "unknown vertexset method '" + M.Method + "'");
      return TypeRef();
    }
    if (Base.Kind != TypeKind::Invalid)
      error(M.loc(), "type " + Base.toString() + " has no methods");
    return TypeRef();
  }

  TypeRef checkPQMethod(MethodCallExpr &M, const TypeRef &PQ) {
    auto RequireArgs = [&](size_t Lo, size_t Hi) {
      if (M.Args.size() < Lo || M.Args.size() > Hi)
        error(M.loc(),
              "wrong number of arguments to pq." + M.Method + "()");
    };
    TypeKind Val = PQ.Params.empty() ? TypeKind::Int : PQ.Params[0];
    if (M.Method == "finished") {
      RequireArgs(0, 0);
      return TypeRef(TypeKind::Bool);
    }
    if (M.Method == "finishedVertex") {
      RequireArgs(1, 1);
      return TypeRef(TypeKind::Bool);
    }
    if (M.Method == "dequeueReadySet" || M.Method == "dequeue_ready_set") {
      RequireArgs(0, 0);
      TypeRef T(TypeKind::VertexSet);
      T.Element = PQ.Element;
      return T;
    }
    if (M.Method == "getCurrentPriority" ||
        M.Method == "get_current_priority") {
      RequireArgs(0, 0);
      return TypeRef(Val);
    }
    if (M.Method == "updatePriorityMin" || M.Method == "updatePriorityMax") {
      // Table 1 form: (v, new_val); Fig. 3 also passes the old value as a
      // middle argument — both are accepted.
      RequireArgs(2, 3);
      return TypeRef(TypeKind::Void);
    }
    if (M.Method == "updatePrioritySum") {
      RequireArgs(2, 3);
      return TypeRef(TypeKind::Void);
    }
    error(M.loc(), "unknown priority_queue method '" + M.Method + "'");
    return TypeRef();
  }

  TypeRef checkIndex(IndexExpr &I) {
    TypeRef Base = I.Base ? checkExpr(*I.Base) : TypeRef();
    if (I.Index)
      checkExpr(*I.Index);
    if (Base.Kind == TypeKind::Vector)
      return TypeRef(Base.Params.empty() ? TypeKind::Int : Base.Params[0]);
    if (Base.Kind == TypeKind::String) {
      // The generated main checks argc against the highest index read.
      const auto *BV = dyn_cast<VarRefExpr>(I.Base.get());
      if (BV && BV->Name == "argv" && !isa<IntLiteralExpr>(I.Index.get()))
        error(I.loc(), "argv index must be an integer literal");
      return TypeRef(TypeKind::String); // argv[i]
    }
    if (Base.Kind != TypeKind::Invalid)
      error(I.loc(), "type " + Base.toString() + " cannot be indexed");
    return TypeRef();
  }

  Program &Prog;
  SemaResult Result;
  std::map<std::string, TypeRef> Locals;
  std::set<std::string> FuncNames;
};

} // namespace

SemaResult graphit::dsl::analyzeSemantics(Program &Prog) {
  return SemaImpl(Prog).run();
}
