//===- dsl/CodeGen.h - C++ code generation ----------------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// C++ code generation for the priority-based extension (§5, Fig. 9).
/// Given a Sema-annotated program, the analysis results, and per-label
/// schedules, emits a complete translation unit against this repository's
/// runtime:
///
///  * recognized min-update ordered loops lower to the **eager** ordered
///    processing operator (with or without bucket fusion) or to the
///    **lazy** bucket-update loop with SparsePush/DensePull traversal,
///    with atomics and deduplication inserted per the analysis —
///    reproducing the three generated-code variants of Fig. 9;
///  * recognized constant-sum loops under `lazy_constant_sum` emit the
///    histogram-transformed function of Fig. 10;
///  * anything else lowers to the generic PriorityQueue facade — always
///    correct, just not specialized.
///
/// The emitted `main` checks its argument count and every vertex id it
/// reads outside a relax, and prints each loop's rounds and each result
/// vector's summary, through dsl/GeneratedSupport.h.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_DSL_CODEGEN_H
#define GRAPHIT_DSL_CODEGEN_H

#include "core/Schedule.h"
#include "dsl/Analysis.h"

#include <map>
#include <string>

namespace graphit {
namespace dsl {

/// Per-label schedules: `configApplyPriorityUpdate("s1", ...)`. The empty
/// label "" provides the default for unlabeled statements.
using ScheduleMap = std::map<std::string, Schedule>;

/// Result of code generation.
struct GeneratedCode {
  std::string Cpp;                ///< complete C++ translation unit
  std::vector<std::string> Notes; ///< codegen decisions (for tests/logs)
  bool UsedEagerEngine = false;
  bool UsedLazyEngine = false;
  bool UsedHistogram = false;
  bool UsedFacadeFallback = false;
};

/// Generates C++ for \p Prog. \p Sched supplies per-label schedules.
GeneratedCode generateCpp(const Program &Prog, const SemaResult &Sema,
                          const ProgramAnalysis &Analysis,
                          const ScheduleMap &Sched);

} // namespace dsl
} // namespace graphit

#endif // GRAPHIT_DSL_CODEGEN_H
