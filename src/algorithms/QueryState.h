//===- algorithms/QueryState.h - Reusable per-query state -------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Caller-owned, reusable state for the distance family (SSSP, PPSP, A*).
///
/// A fresh query pays O(V) just to fill the distance array with infinity —
/// on a road network that costs more than a nearby point-to-point query
/// itself. `DistanceState` amortizes it: the arrays are allocated and
/// initialized once, every query marks the 64-byte lines of the distance
/// array it writes, and the next `beginQuery` refills exactly those lines.
///
/// The marks form a two-level bitmap: one bit per line of eight vertices,
/// and one summary bit per 64-bit word of line bits (2^15 vertices). So
/// `beginQuery` and `forEachReached` cost O(marked lines) plus one summary
/// word per 2^15 vertices, never a sweep of the whole line bitmap. A state
/// costs 8 bytes per vertex plus one bit per eight (12 bytes with
/// parents); the eager engine's bins and round shares belong to the run,
/// sized by the vertices it pushes.
///
/// A vertex's line is marked when its distance leaves ∞. The engine reports
/// each improvement with the value it replaced (`First` = that value was ∞;
/// see `distanceOrderedRun`), and distances only fall within a run, so
/// `First` holds once per vertex a run lifts off ∞. Each `First` also adds
/// one to the reach count, so `numReached()` is exact in O(1). The one code
/// that puts finite vertices back at ∞, incremental repair, takes one off
/// the count for each (`invalidate`, algorithms/IncrementalSSSP.h); their
/// lines stay marked, and a finite vertex always lies in a marked line.
///
/// An engine run takes its `Touch` callback from `makeTouchFn`. On a
/// one-thread team (`omp_get_max_threads() == 1`, the test the eager engine
/// uses to drop its CAS; the serving tier runs each query that way) it
/// marks with plain ORs and counts in the state. Otherwise it tests the
/// line bit with a relaxed load and sets it with `fetch_or` only while it
/// is clear, and each thread counts in its own slot of the callback; the
/// caller folds the slots into the state with `RunTouch::close()` once the
/// run is over. No touch does a read-modify-write on a word every thread
/// shares.
///
/// The pooled overloads of `deltaSteppingSSSP` / `pointToPointShortestPath`
/// / `aStarSearch` take a `DistanceState &` instead of allocating
/// internally; `service/QueryEngine` keeps one state per worker thread.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_ALGORITHMS_QUERYSTATE_H
#define GRAPHIT_ALGORITHMS_QUERYSTATE_H

#include "support/Types.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace graphit {

/// Reusable distance/parent arrays plus a bitmap of the lines a query
/// wrote.
///
/// Usage per query:
///   State.beginQuery(Source);            // O(lines marked so far)
///   auto Touch = State.makeTouchFn();
///   ... run an engine over State.distances() with Touch, called after
///       each successful relaxation ...
///   Touch.close();
///   State.dist(V) / State.parent(V) / forEachReached are then valid until
///   the next beginQuery.
///
/// A `RunTouch` from `makeTouchFn` is safe to call concurrently from the
/// threads of one engine run; everything else is single-threaded (one
/// query owns the state at a time).
class DistanceState {
  static constexpr Count kLineVertices = 8; ///< one 64-byte line
  /// Vertices under one word of line bits, and under one summary word.
  static constexpr Count kWordVertices = kLineVertices * 64;
  static constexpr Count kSummaryVertices = kWordVertices * 64;

  struct alignas(64) ThreadCount {
    Count N = 0;
  };

public:
  /// Allocates state for \p NumNodes vertices; distances start at
  /// kInfiniteDistance. With \p TrackParents, a parent array is maintained
  /// for path reconstruction.
  explicit DistanceState(Count NumNodes, bool TrackParents = false);

  Count numNodes() const { return static_cast<Count>(Dist.size()); }
  bool tracksParents() const { return TrackParents; }

  /// Prepares for a new query from \p Source: refills every marked line
  /// with infinity, clears the marks and the reach count, and seeds
  /// `Dist[Source] = 0` (marking the source's line).
  void beginQuery(VertexId Source);

  /// Grows the state to \p NewNumNodes vertices (live-graph vertex
  /// insertion). Appended slots start unmarked at infinity, so a held
  /// solution stays valid — an inserted vertex is unreachable until an
  /// edge batch seeds it (incremental repair then picks it up like any
  /// other improved vertex). Shrinking is not supported (no-op).
  void resize(Count NewNumNodes);

  /// Records that `Dist[V]` was lowered via the edge (\p From, V), with
  /// ordinary loads and stores: updates the parent, and on \p First (the
  /// write replaced ∞) marks V's line and counts V as reached. Only for
  /// code no other thread runs alongside — a serial loop, or an engine run
  /// on a one-thread team (see `makeTouchFn`).
  void recordImprovementSerial(VertexId V, VertexId From, bool First) {
    if (TrackParents)
      Parent[V] = From;
    if (First) {
      const size_t Line = V / kLineVertices;
      const size_t Word = Line / 64;
      Summary[Word / 64] |= uint64_t{1} << (Word % 64);
      Lines[Word] |= uint64_t{1} << (Line % 64);
      ++Reached;
    }
  }

  /// The engine's `Touch` callback for one run over this state, made by
  /// `makeTouchFn` on the thread that runs the engine. On a one-thread
  /// team it is `recordImprovementSerial`; otherwise it marks lines with
  /// atomics and counts first touches per thread, and `close()` adds
  /// those counts to the state's reach count.
  class RunTouch {
  public:
    // The engine holds the callback by reference for the whole run.
    RunTouch(RunTouch &&) = delete;
    RunTouch &operator=(RunTouch &&) = delete;

    void operator()(VertexId V, VertexId From, bool First) {
      if (!Slots)
        State->recordImprovementSerial(V, From, First);
      else if (First || State->TrackParents)
        recordConcurrent(V, From, First);
    }

    /// Adds the run's per-thread first-touch counts to the state's reach
    /// count. Call once the run is over, before reading `numReached()`;
    /// a second call adds nothing.
    void close();

  private:
    friend class DistanceState;
    explicit RunTouch(DistanceState &S);

    /// The concurrent path. Out of line on purpose: inline copies in every
    /// pooled engine would spend GCC's per-file inlining budget
    /// (`inline-unit-growth`) that the fresh engines compiled in the same
    /// file need.
    void recordConcurrent(VertexId V, VertexId From, bool First);

    DistanceState *State;
    /// One per thread of a multi-thread team; null on a one-thread team.
    std::unique_ptr<ThreadCount[]> Slots;
    int NumSlots = 0;
  };

  /// The `Touch` callback for one engine run: see `RunTouch`. The engine
  /// forks its parallel regions from the same ICV this reads, so a
  /// one-thread run has no concurrent writer. Make it on the thread that
  /// runs the engine, once per run, and close it after the run.
  RunTouch makeTouchFn() { return RunTouch(*this); }

  /// Puts the finite vertex \p V back at ∞ and takes it off the reach
  /// count; its line stays marked. Incremental repair's invalidation.
  void invalidate(VertexId V) {
    assert(Dist[V] < kInfiniteDistance && "invalidated an unreached vertex");
    Dist[V] = kInfiniteDistance;
    --Reached;
  }

  /// The distance array the engine runs over.
  std::vector<Priority> &distances() { return Dist; }
  Priority dist(VertexId V) const { return Dist[V]; }

  /// Parent of \p V on some shortest-path improvement chain, or
  /// kInvalidVertex if untouched. Under concurrent relaxation the stored
  /// parent is the *last successful improvement's* source, which can lag
  /// the final distance — verify `dist(parent) + w == dist(v)` when
  /// reconstructing paths (service/QueryEngine::extractPath does).
  VertexId parent(VertexId V) const {
    return TrackParents ? Parent[V] : kInvalidVertex;
  }

  /// Vertices with finite distance, in O(1). Exact once the current run's
  /// `RunTouch` is closed.
  Count numReached() const { return Reached; }

  /// Calls `F(V, dist(V))` for every vertex at finite distance, in
  /// increasing id. Costs O(marked lines) plus one word per 2^15 vertices.
  template <typename Fn> void forEachReached(Fn &&F) const {
    forEachMarkedLine([&](Count Lo, Count Hi) {
      for (Count V = Lo; V < Hi; ++V)
        if (Dist[static_cast<size_t>(V)] < kInfiniteDistance)
          F(static_cast<VertexId>(V), Dist[static_cast<size_t>(V)]);
    });
  }

  /// Queries served by this state so far.
  uint64_t queriesBegun() const { return QueriesBegun; }

  /// Source vertex of the current query (kInvalidVertex before the first
  /// beginQuery). Incremental repair re-anchors on it.
  VertexId source() const { return Source_; }

private:
  /// Calls `F(Lo, Hi)` for the vertex range of every marked line, in
  /// increasing order.
  template <typename Fn> void forEachMarkedLine(Fn &&F) const {
    const Count N = numNodes();
    for (size_t S = 0; S < Summary.size(); ++S)
      for (uint64_t SW = Summary[S]; SW; SW &= SW - 1) {
        const size_t W = S * 64 + static_cast<size_t>(__builtin_ctzll(SW));
        for (uint64_t LW = Lines[W]; LW; LW &= LW - 1) {
          const Count Lo = static_cast<Count>(
              (W * 64 + static_cast<size_t>(__builtin_ctzll(LW))) *
              kLineVertices);
          F(Lo, std::min(Lo + kLineVertices, N));
        }
      }
  }

  std::vector<Priority> Dist;
  std::vector<VertexId> Parent; ///< empty unless TrackParents
  std::vector<uint64_t> Lines;   ///< bit L: line L holds a written vertex
  std::vector<uint64_t> Summary; ///< bit W: `Lines[W]` is not zero
  Count Reached = 0;             ///< vertices at finite distance
  uint64_t QueriesBegun = 0;
  VertexId Source_ = kInvalidVertex;
  bool TrackParents;
};

} // namespace graphit

#endif // GRAPHIT_ALGORITHMS_QUERYSTATE_H
