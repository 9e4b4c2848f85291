//===- dsl/Driver.cpp - Compiler driver ------------------------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "dsl/Driver.h"

#include "support/Abort.h"

#include <cstdio>
#include <memory>

using namespace graphit;
using namespace graphit::dsl;

FrontendBundle graphit::dsl::runFrontend(const std::string &Source) {
  FrontendBundle B;
  ParseResult P = parseProgram(Source);
  if (!P.ok()) {
    B.Error = P.Error.empty() ? "parse failed" : P.Error;
    return B;
  }
  B.Prog = std::move(P.Prog);
  B.Sema = analyzeSemantics(*B.Prog);
  if (!B.Sema.ok()) {
    B.Error = B.Sema.Errors.front();
    return B;
  }
  B.Analysis = analyzeProgram(*B.Prog, B.Sema);
  return B;
}

GeneratedCode graphit::dsl::compileSource(const std::string &Source,
                                          const ScheduleMap &Schedules,
                                          std::string *ErrorOut) {
  FrontendBundle B = runFrontend(Source);
  if (!B.ok()) {
    if (ErrorOut)
      *ErrorOut = B.Error;
    return GeneratedCode();
  }
  if (ErrorOut)
    ErrorOut->clear();
  return generateCpp(*B.Prog, B.Sema, B.Analysis, Schedules);
}

std::string graphit::dsl::readFileOrDie(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
    fatalError("file open failed");
  }
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  std::string Content(static_cast<size_t>(Size), '\0');
  if (Size > 0 && std::fread(Content.data(), 1,
                             static_cast<size_t>(Size), F) !=
                      static_cast<size_t>(Size)) {
    std::fclose(F);
    fatalError("short read");
  }
  std::fclose(F);
  return Content;
}
