//===- dsl/Driver.h - Compiler driver ---------------------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience entry points combining the frontend phases: lex/parse,
/// semantic analysis, the priority-update analyses, and C++ code
/// generation. Used by the `dslc` compiler, the test suite, and the
/// Table 5 line-count benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_DSL_DRIVER_H
#define GRAPHIT_DSL_DRIVER_H

#include "dsl/Analysis.h"
#include "dsl/CodeGen.h"
#include "dsl/Parser.h"
#include "dsl/Sema.h"

#include <memory>
#include <string>

namespace graphit {
namespace dsl {

/// Everything the frontend produces for one source file.
struct FrontendBundle {
  std::unique_ptr<Program> Prog;
  SemaResult Sema;
  ProgramAnalysis Analysis;
  std::string Error; ///< first diagnostic; empty on success

  bool ok() const { return Error.empty() && Prog != nullptr; }
};

/// Lex + parse + sema + analyses.
FrontendBundle runFrontend(const std::string &Source);

/// Frontend + code generation under \p Schedules.
GeneratedCode compileSource(const std::string &Source,
                            const ScheduleMap &Schedules,
                            std::string *ErrorOut = nullptr);

/// Reads a whole file; aborts on IO failure (trusted local files).
std::string readFileOrDie(const std::string &Path);

} // namespace dsl
} // namespace graphit

#endif // GRAPHIT_DSL_DRIVER_H
