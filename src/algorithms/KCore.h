//===- algorithms/KCore.h - k-core decomposition ----------------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// k-core decomposition by parallel peeling (§6.1): every vertex's coreness
/// (the largest k such that it belongs to the k-core) is computed by
/// repeatedly removing the minimum-degree bucket. Priorities are induced
/// degrees; they change by -1 per removed neighbor, which is exactly the
/// constant-sum pattern the `lazy_constant_sum` histogram schedule
/// accelerates (Fig. 10). Priority coarsening is NOT applicable (§2).
///
/// The caller's schedule picks the strategy (`Schedule::Update`):
/// `lazy_constant_sum` (Julienne-style histogram; the paper's choice for
/// k-core), `lazy` (per-edge atomic decrements), or either eager strategy,
/// which runs the eager peel (thread-local degree buckets — included
/// because Table 7 quantifies how much slower it is than lazy for k-core's
/// many redundant updates). A default `Schedule{}` is `eager_with_fusion`,
/// so `kCoreDecomposition(G, Schedule{})` runs the eager peel; pass
/// `configApplyPriorityUpdate("lazy_constant_sum")` for the histogram.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_KCORE_H
#define GRAPHIT_ALGORITHMS_KCORE_H

#include "core/OrderedProcess.h"
#include "core/Schedule.h"
#include "graph/Graph.h"

#include <vector>

namespace graphit {

/// Result of k-core decomposition.
struct KCoreResult {
  std::vector<Priority> Coreness;
  Priority MaxCore = 0;
  OrderedStats Stats;
};

/// Ordered parallel k-core under schedule \p S, whose `Update` strategy
/// picks the peel (see the file comment). Requires a symmetric graph.
KCoreResult kCoreDecomposition(const Graph &G, const Schedule &S);

/// Unordered baseline (Fig. 1): wave-based peeling that rescans the alive
/// set for vertices of degree <= k instead of bucketing by degree.
KCoreResult kCoreUnordered(const Graph &G);

/// Serial Batagelj-Zaversnik peeling; the correctness oracle.
std::vector<Priority> kCoreSerial(const Graph &G);

} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_KCORE_H
