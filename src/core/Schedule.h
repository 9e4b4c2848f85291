//===- core/Schedule.h - The scheduling language ----------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling-language surface of the priority-based extension
/// (Table 2). A `Schedule` carries every tunable the paper exposes for an
/// `applyUpdatePriority` statement:
///
///   configApplyPriorityUpdate      eager_with_fusion | eager_no_fusion |
///                                  lazy | lazy_constant_sum
///   configApplyPriorityUpdateDelta priority-coarsening factor Δ
///   configBucketFusionThreshold    size cap per fused sub-bin
///   configNumBuckets               materialized lazy buckets
///   configApplyDirection           SparsePush | DensePull | Hybrid
///   configApplyParallelization     serial | static | dynamic vertex
///
/// The fluent string API mirrors the paper's scheduling programs (Fig. 8);
/// typed setters exist for programmatic use (autotuner, benchmarks).
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_CORE_SCHEDULE_H
#define GRAPHIT_CORE_SCHEDULE_H

#include "runtime/Histogram.h"
#include "runtime/Traversal.h"
#include "support/Parallel.h"

#include <string>

namespace graphit {

/// Bucket-update strategy (`configApplyPriorityUpdate`).
enum class UpdateStrategy {
  EagerWithFusion, ///< thread-local buckets + bucket fusion (paper default)
  EagerNoFusion,   ///< thread-local buckets, GAPBS-style
  Lazy,            ///< buffered bulk bucket updates, Julienne-style
  LazyConstantSum, ///< lazy + histogram reduction for constant-sum updates
};

/// Full optimization configuration for one ordered edge-apply statement.
struct Schedule {
  UpdateStrategy Update = UpdateStrategy::EagerWithFusion;
  Direction Dir = Direction::SparsePush;
  Parallelization Par = Parallelization::DynamicVertexParallel;
  HistogramMethod Histogram = HistogramMethod::LocalTables;
  int64_t Delta = 1;
  int64_t FusionThreshold = 1000;
  int NumOpenBuckets = 128;

  bool isEager() const {
    return Update == UpdateStrategy::EagerWithFusion ||
           Update == UpdateStrategy::EagerNoFusion;
  }

  /// Fluent setters named after the paper's scheduling functions. String
  /// arguments accept the exact spellings of Table 2; unknown strings
  /// abort (they are programmer errors in schedule scripts).
  Schedule &configApplyPriorityUpdate(const std::string &Option);
  Schedule &configApplyPriorityUpdateDelta(int64_t NewDelta);
  Schedule &configBucketFusionThreshold(int64_t Threshold);
  Schedule &configNumBuckets(int Buckets);
  Schedule &configApplyDirection(const std::string &Option);
  Schedule &configApplyParallelization(const std::string &Option);

  /// Parses a compact comma-separated form used by schedule files and the
  /// autotuner, e.g. "eager_with_fusion,delta=4,direction=SparsePush".
  static Schedule parse(const std::string &Spec);

  /// Inverse of parse(); stable round-trip for logging.
  std::string toString() const;
};

/// Spelling helpers shared with the DSL and benchmarks.
const char *updateStrategyName(UpdateStrategy S);
const char *directionName(Direction D);
const char *parallelizationName(Parallelization P);

} // namespace graphit

#endif // GRAPHIT_CORE_SCHEDULE_H
