//===- tests/dsl_frontend_test.cpp - Lexer/parser/sema tests --------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "dsl/Driver.h"
#include "dsl/Lexer.h"
#include "dsl/Parser.h"
#include "dsl/Sema.h"

#include <gtest/gtest.h>

using namespace graphit;
using namespace graphit::dsl;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, TokenizesFig3Line) {
  std::string Error;
  std::vector<Token> Toks =
      lex("pq.updatePriorityMin(dst, dist[dst], new_dist);", Error);
  EXPECT_TRUE(Error.empty());
  ASSERT_GE(Toks.size(), 12u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[0].Text, "pq");
  EXPECT_EQ(Toks[1].Kind, TokenKind::Dot);
  EXPECT_EQ(Toks[2].Text, "updatePriorityMin");
  EXPECT_EQ(Toks[3].Kind, TokenKind::LParen);
}

TEST(Lexer, KeywordsAndIdentifiers) {
  std::string Error;
  std::vector<Token> Toks = lex("func while end vertexset myname", Error);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwFunc);
  EXPECT_EQ(Toks[1].Kind, TokenKind::KwWhile);
  EXPECT_EQ(Toks[2].Kind, TokenKind::KwEnd);
  EXPECT_EQ(Toks[3].Kind, TokenKind::KwVertexSet);
  EXPECT_EQ(Toks[4].Kind, TokenKind::Identifier);
}

TEST(Lexer, NumbersAndOperators) {
  std::string Error;
  std::vector<Token> Toks = lex("x = 42 + 3.5 <= 7", Error);
  EXPECT_EQ(Toks[2].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[2].IntValue, 42);
  EXPECT_EQ(Toks[4].Kind, TokenKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(Toks[4].FloatValue, 3.5);
  EXPECT_EQ(Toks[5].Kind, TokenKind::LessEq);
}

TEST(Lexer, LabelsAndStrings) {
  std::string Error;
  std::vector<Token> Toks = lex("#s1# \"lower_first\"", Error);
  EXPECT_EQ(Toks[0].Kind, TokenKind::Label);
  EXPECT_EQ(Toks[0].Text, "s1");
  EXPECT_EQ(Toks[1].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(Toks[1].Text, "lower_first");
}

TEST(Lexer, CommentsAreSkipped) {
  std::string Error;
  std::vector<Token> Toks = lex("x % a comment\ny // another\nz", Error);
  ASSERT_EQ(Toks.size(), 4u); // x y z eof
  EXPECT_EQ(Toks[1].Text, "y");
  EXPECT_EQ(Toks[2].Text, "z");
}

TEST(Lexer, TracksLineNumbers) {
  std::string Error;
  std::vector<Token> Toks = lex("a\nb\n  c", Error);
  EXPECT_EQ(Toks[0].Loc.Line, 1);
  EXPECT_EQ(Toks[1].Loc.Line, 2);
  EXPECT_EQ(Toks[2].Loc.Line, 3);
  EXPECT_EQ(Toks[2].Loc.Column, 3);
}

TEST(Lexer, ReportsUnterminatedString) {
  std::string Error;
  lex("\"oops", Error);
  EXPECT_FALSE(Error.empty());
}

TEST(Lexer, ReportsBadCharacter) {
  std::string Error;
  lex("a @ b", Error);
  EXPECT_NE(Error.find("unexpected character"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, ParsesFig3SSSP) {
  ParseResult R = parseProgram(readFileOrDie(
      std::string(GRAPHIT_APPS_DIR) + "/sssp.gt"));
  ASSERT_TRUE(R.ok()) << R.Error;
  const Program &P = *R.Prog;
  EXPECT_EQ(P.Elements.size(), 2u);
  EXPECT_EQ(P.Consts.size(), 3u);
  ASSERT_NE(P.findFunc("updateEdge"), nullptr);
  ASSERT_NE(P.findFunc("main"), nullptr);
  EXPECT_EQ(P.findFunc("updateEdge")->Params.size(), 3u);
}

TEST(Parser, ParsesAllShippedApps) {
  for (const char *App : {"sssp.gt", "wbfs.gt", "ppsp.gt", "astar.gt",
                          "kcore.gt", "setcover.gt"}) {
    ParseResult R = parseProgram(
        readFileOrDie(std::string(GRAPHIT_APPS_DIR) + "/" + App));
    EXPECT_TRUE(R.ok()) << App << ": " << R.Error;
  }
}

TEST(Parser, LabelAttachesToStatement) {
  ParseResult R = parseProgram(readFileOrDie(
      std::string(GRAPHIT_APPS_DIR) + "/sssp.gt"));
  ASSERT_TRUE(R.ok());
  const FuncDecl *Main = R.Prog->findFunc("main");
  const auto *Loop = dyn_cast<WhileStmt>(Main->Body.back().get());
  ASSERT_NE(Loop, nullptr);
  bool FoundLabel = false;
  for (const StmtPtr &S : Loop->Body)
    if (S->Label == "s1")
      FoundLabel = true;
  EXPECT_TRUE(FoundLabel);
}

TEST(Parser, PrecedenceAndAssociativity) {
  ParseResult R = parseProgram(
      "func main() var x : int = 1 + 2 * 3; end");
  ASSERT_TRUE(R.ok()) << R.Error;
  const auto *VD =
      cast<VarDeclStmt>(R.Prog->findFunc("main")->Body[0].get());
  const auto *Add = dyn_cast<BinaryExpr>(VD->Init.get());
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->Op, BinaryExpr::OpKind::Add);
  EXPECT_TRUE(isa<BinaryExpr>(Add->RHS.get())); // 2*3 grouped right
}

TEST(Parser, MethodChaining) {
  ParseResult R = parseProgram(
      "const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);"
      " func f(a : Vertex, b : Vertex, w : int) end "
      "func main() edges.from(edges).applyUpdatePriority(f); end");
  ASSERT_TRUE(R.ok()) << R.Error;
  const auto *ES =
      cast<ExprStmt>(R.Prog->findFunc("main")->Body[0].get());
  const auto *Apply = dyn_cast<MethodCallExpr>(ES->E.get());
  ASSERT_NE(Apply, nullptr);
  EXPECT_EQ(Apply->Method, "applyUpdatePriority");
  const auto *From = dyn_cast<MethodCallExpr>(Apply->Base.get());
  ASSERT_NE(From, nullptr);
  EXPECT_EQ(From->Method, "from");
}

TEST(Parser, ReportsMissingSemicolon) {
  ParseResult R = parseProgram("func main() var x : int = 3 end");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("';'"), std::string::npos);
}

TEST(Parser, ReportsBadTopLevel) {
  ParseResult R = parseProgram("banana");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, ReportsBadAssignmentTarget) {
  ParseResult R = parseProgram("func main() 3 = 4; end");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("assignment target"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sema
//===----------------------------------------------------------------------===//

TEST(Sema, AcceptsAllShippedApps) {
  for (const char *App : {"sssp.gt", "wbfs.gt", "ppsp.gt", "astar.gt",
                          "kcore.gt", "setcover.gt"}) {
    FrontendBundle B = runFrontend(
        readFileOrDie(std::string(GRAPHIT_APPS_DIR) + "/" + App));
    EXPECT_TRUE(B.ok()) << App << ": " << B.Error;
  }
}

TEST(Sema, AnnotatesTypes) {
  FrontendBundle B = runFrontend(readFileOrDie(
      std::string(GRAPHIT_APPS_DIR) + "/sssp.gt"));
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(B.Sema.globalType("edges").Kind, TypeKind::EdgeSet);
  EXPECT_EQ(B.Sema.globalType("dist").Kind, TypeKind::Vector);
  EXPECT_EQ(B.Sema.globalType("pq").Kind, TypeKind::PriorityQueue);
  EXPECT_TRUE(B.Sema.globalType("edges").isWeightedEdgeSet());
}

TEST(Sema, RejectsUndeclaredIdentifier) {
  FrontendBundle B = runFrontend("func main() var x : int = nope; end");
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find("undeclared identifier"), std::string::npos);
}

TEST(Sema, RejectsDuplicateGlobals) {
  FrontendBundle B = runFrontend(
      "const a : int = 1; const a : int = 2; func main() end");
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find("duplicate"), std::string::npos);
}

TEST(Sema, RejectsNonBoolWhileCondition) {
  FrontendBundle B =
      runFrontend("func main() while 3 + 4 var y : int = 0; end end");
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find("bool"), std::string::npos);
}

TEST(Sema, RejectsUnknownPQMethod) {
  FrontendBundle B = runFrontend(
      "const pq : priority_queue{Vertex}(int);"
      "func main() pq.explode(); end");
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find("unknown priority_queue method"),
            std::string::npos);
}

TEST(Sema, RejectsWrongArityUpdate) {
  FrontendBundle B = runFrontend(
      "const pq : priority_queue{Vertex}(int);"
      "func f(a : Vertex, b : Vertex, w : int) "
      "pq.updatePriorityMin(b); end func main() end");
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find("wrong number of arguments"), std::string::npos);
}

TEST(Sema, RejectsApplyOfNonFunction) {
  FrontendBundle B = runFrontend(
      "const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);"
      "const x : int = 3;"
      "func main() edges.applyUpdatePriority(x); end");
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find("requires a function"), std::string::npos);
}

TEST(Sema, RejectsNonLiteralArgvIndex) {
  // The generated main checks argc against the highest argv index read.
  FrontendBundle B = runFrontend(
      "func main() var i : int = 2; var a : int = atoi(argv[i]); end");
  EXPECT_FALSE(B.ok());
  EXPECT_NE(B.Error.find("argv index must be an integer literal"),
            std::string::npos);
}

TEST(Driver, CompileSourceReportsFrontendErrors) {
  std::string Error;
  GeneratedCode Code =
      compileSource("func main() nope; end", ScheduleMap(), &Error);
  EXPECT_FALSE(Error.empty());
  EXPECT_TRUE(Code.Cpp.empty());
}
