//===- graph/Builder.h - Edge-list to CSR construction ----------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds immutable CSR `Graph`s from edge lists: optional symmetrization
/// (Table 3 symmetrizes inputs for k-core and SetCover), self-loop removal,
/// and duplicate-edge elimination (keeping the minimum weight).
///
/// Each CSR direction is one blocked counting sort in three passes, with
/// row vertices grouped into blocks of consecutive ids:
///
///  1. each chunk of the input list counts the entries it sends to each
///     block, checking endpoints and skipping dropped self-loops; a
///     symmetrized edge counts its reverse entry here too, so the list is
///     never copied;
///  2. each chunk scatters its entries into the final row array at its
///     own per-block cursors, which leaves every block's entries in the
///     range its rows will fill;
///  3. each block goes to one thread, which writes its rows' offsets,
///     reorders the range row by row, sorts each row with
///     `adjacencyRowLess` and notes any parallel edge; duplicates are then
///     removed only when some row holds one.
///
/// Every counter and cursor belongs to one chunk or one block, so no pass
/// needs an atomic, and the parts are handed out by `omp for`, so a team of
/// any size covers them. A row's final order depends only on its contents,
/// so the graph is bit-identical for any thread count and input order. The
/// input list is released once the last direction is scattered.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_GRAPH_BUILDER_H
#define GRAPHIT_GRAPH_BUILDER_H

#include "graph/Graph.h"

#include <vector>

namespace graphit {

/// Options controlling CSR construction.
struct BuildOptions {
  /// Insert the reverse of every edge, producing an undirected graph.
  bool Symmetrize = false;
  /// Drop (v, v) edges.
  bool RemoveSelfLoops = true;
  /// Collapse parallel edges, keeping the smallest weight.
  bool RemoveDuplicates = true;
  /// Also build incoming adjacency (implied for symmetric graphs; required
  /// by DensePull traversal on directed graphs).
  bool BuildInEdges = true;
  /// Store edge weights. When false the graph is unweighted.
  bool Weighted = true;
};

/// Turns edge lists into `Graph`s.
class GraphBuilder {
public:
  explicit GraphBuilder(BuildOptions O = BuildOptions()) : Options(O) {}

  /// Builds a CSR graph over \p NumNodes vertices from \p Edges.
  /// Vertex ids in the list must be < NumNodes.
  Graph build(Count NumNodes, std::vector<Edge> Edges) const;

  /// Builds and attaches \p Coords (consumed by A*).
  Graph build(Count NumNodes, std::vector<Edge> Edges,
              Coordinates Coords) const;

private:
  BuildOptions Options;
};

/// Assigns uniformly random integer weights in [Lo, Hi) to \p Edges,
/// deterministically from \p Seed. This reproduces the paper's weight
/// regimes: [1, 1000) for social graphs and [1, log n) for wBFS inputs.
void assignRandomWeights(std::vector<Edge> &Edges, Weight Lo, Weight Hi,
                         uint64_t Seed);

} // namespace graphit

#endif // GRAPHIT_GRAPH_BUILDER_H
