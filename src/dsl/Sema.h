//===- dsl/Sema.h - Symbol resolution and type checking ---------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbol resolution and type checking for the GraphIt subset. Annotates
/// `Expr::Type` in place, builds the global symbol table consumed by the
/// analyses (dsl/Analysis.h) and the code generator, and reports
/// positioned diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_DSL_SEMA_H
#define GRAPHIT_DSL_SEMA_H

#include "dsl/AST.h"

#include <map>
#include <string>
#include <vector>

namespace graphit {
namespace dsl {

/// Results of semantic analysis over one program.
struct SemaResult {
  /// Global name -> type (consts and elements).
  std::map<std::string, TypeRef> Globals;
  /// Diagnostics ("line L:C: message"); empty means success.
  std::vector<std::string> Errors;

  bool ok() const { return Errors.empty(); }

  /// Type of a global, or Invalid.
  TypeRef globalType(const std::string &Name) const {
    auto It = Globals.find(Name);
    return It == Globals.end() ? TypeRef() : It->second;
  }
};

/// Runs semantic analysis; mutates `Expr::Type` annotations in \p Prog.
SemaResult analyzeSemantics(Program &Prog);

} // namespace dsl
} // namespace graphit

#endif // GRAPHIT_DSL_SEMA_H
