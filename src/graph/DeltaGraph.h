//===- graph/DeltaGraph.h - Delta-CSR overlay over a base graph -*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mutable view over an immutable CSR base: edge insertions, deletions and
/// weight changes are absorbed into per-vertex *patch lists* (a vertex whose
/// adjacency changed owns a private replacement list of (id, weight) pairs
/// sorted by id, weight 1 on unweighted graphs; every other vertex reads
/// its base row). Iteration is unified — `outNeighbors`/`inNeighbors`
/// return the same `Graph::NeighborRange` the base graph returns, a patch
/// list in the packed layout of a weighted CSR row — so every engine
/// templated over the graph type runs unmodified against a delta view.
///
/// A vertex's base row comes from at most one folded `BaseSegment` (one
/// range check) or else from the base CSR; see `adoptSegment`.
///
/// This is the representation behind live-graph serving
/// (service/SnapshotStore.h): writers mutate a private `DeltaGraph`,
/// publish immutable copies of it as refcounted snapshot versions, and
/// compact the overlay back into a fresh CSR (`compact()`) once it exceeds
/// a threshold. The overlay's read cost is one array lookup per vertex on
/// top of CSR, so queries on a lightly-patched view run at base speed.
///
/// The vertex universe *grows at the tail*: `growUniverse`/`addVertex`
/// append fresh vertices with ids >= the base graph's node count. Tail
/// vertices start with empty adjacency (they read from a patch list or
/// nowhere, never from the base CSR) and fold into the base like any other
/// patch on `compact()`. Self-loops and out-of-range endpoints are still
/// rejected per update, not fatally.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_GRAPH_DELTAGRAPH_H
#define GRAPHIT_GRAPH_DELTAGRAPH_H

#include "graph/Graph.h"
#include "support/SoleOwner.h"

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

namespace graphit {

/// Sentinel weight meaning "edge absent" in `AppliedUpdate`. Real weights
/// are non-negative (the ordered algorithms require it).
inline constexpr Weight kAbsentEdge = -1;

/// One requested edge mutation. `Upsert` inserts the edge if absent and
/// overwrites its weight if present; `Delete` removes it if present (and is
/// a no-op otherwise). On symmetric graphs each update is applied to both
/// directions.
enum class UpdateKind { Upsert, Delete };
struct EdgeUpdate {
  VertexId Src = 0;
  VertexId Dst = 0;
  Weight W = 1;
  UpdateKind Kind = UpdateKind::Upsert;
};

/// One *directed* edge transition that actually happened, in terms the
/// incremental-repair algorithms consume: `OldW == kAbsentEdge` means the
/// edge was inserted, `NewW == kAbsentEdge` means it was deleted, and
/// otherwise its weight changed from OldW to NewW. Symmetric updates yield
/// two records (one per direction); no-ops (delete of a missing edge,
/// upsert to the same weight) yield none.
struct AppliedUpdate {
  VertexId Src = 0;
  VertexId Dst = 0;
  Weight OldW = kAbsentEdge;
  Weight NewW = kAbsentEdge;
};

/// An immutable, densely-packed CSR segment covering one contiguous vertex
/// range `[First, First + NumVerts)` — the unit of *incremental* compaction.
/// `DeltaGraph::foldRange` snapshots a range's current adjacency (patches
/// included) into a segment; `adoptSegment` then re-points that range's
/// base-row reads at the segment and drops the folded patch lists. Other
/// ranges keep reading the original base CSR untouched, which is what lets
/// a sharded store fold one shard in O(shard) instead of rebuilding the
/// whole O(V + E) base.
///
/// A `DeltaGraph` holds at most one segment, and a sharded store's shard
/// ranges only grow, so each adoption replaces the installed segment with
/// one that covers it.
///
/// A segment's rows use `Graph`'s row format (`CsrRows`, graph/Graph.h):
/// 4-byte offsets (one per covered vertex, plus one) and interleaved
/// (id, weight) rows when weighted, so a folded row reads exactly like a
/// base row — one packed stream — and costs the same 4 bytes per vertex
/// plus 8 bytes per weighted entry (4 unweighted). A fold fails loudly past
/// 2^32 - 1 entries in one direction (`checkEdgeOffsetLimit`).
///
/// Segments are always held by `shared_ptr` (snapshot copies share them);
/// never let a raw `BaseSegment*` escape a pinned snapshot — the linter's
/// pin-escape rule enforces this.
struct BaseSegment {
  Count First = 0;    ///< first vertex id the segment covers
  Count NumVerts = 0; ///< contiguous vertices covered
  /// Out-rows of the range: vertex V's row is row `V - First`.
  CsrRows Out;
  /// In-rows, present only when the owning graph mirrors incoming edges
  /// (directed graphs built with in-edges).
  CsrRows In;
};

/// Base CSR + per-vertex patch lists with unified neighbor iteration.
///
/// Copyable with copy-on-write sharing: a copy shares the (immutable)
/// base, the patch lists, and the paged slot index, so publishing a
/// snapshot version costs O(patched-vertex pointers + V/pageSize page
/// pointers) — not O(V + overlay) deep data. The writer clones a patch
/// list (or a slot page) only when it is about to mutate one that a live
/// snapshot still references, so per publish window only the
/// dirty-since-last-publish lists are ever deep-copied.
///
/// Concurrency contract: all copies of a given writer and all mutations of
/// it are serialized by the owner (SnapshotStore holds its writer mutex
/// across both). Snapshots may be *read and released* from any thread.
/// Releasing only decrements refcounts, so a count the serialized writer
/// reads can be stale-high (one unnecessary clone), never stale-low. A
/// count of 1 is not enough to write in place, though: the writer must
/// also order the last reader's reads before its writes, which is what
/// `isSoleOwner` (support/SoleOwner.h) adds to the check.
class DeltaGraph {
public:
  DeltaGraph() = default;
  explicit DeltaGraph(std::shared_ptr<const Graph> Base);

  /// --- Graph-compatible read interface (see graph/Graph.h) -------------
  Count numNodes() const { return BaseNodes + TailNodes; }
  Count numEdges() const { return NumEdges; }
  bool isSymmetric() const { return BasePtr->isSymmetric(); }
  bool isWeighted() const { return BasePtr->isWeighted(); }
  bool hasInEdges() const { return BasePtr->hasInEdges(); }
  bool hasCoordinates() const { return BasePtr->hasCoordinates(); }
  const Coordinates &coordinates() const {
    return ExtCoords ? *ExtCoords : BasePtr->coordinates();
  }

  Count outDegree(VertexId V) const {
    uint32_t Slot = OutSlot.get(V);
    if (Slot == kNoSlot)
      return baseOutRow(V).size();
    return static_cast<Count>(OutPatches[Slot]->size());
  }

  Count inDegree(VertexId V) const {
    if (isSymmetric())
      return outDegree(V);
    uint32_t Slot = InSlot.get(V);
    if (Slot == kNoSlot)
      return baseInRow(V).size();
    return static_cast<Count>(InPatches[Slot]->size());
  }

  Graph::NeighborRange outNeighbors(VertexId V) const {
    uint32_t Slot = OutSlot.get(V);
    if (Slot == kNoSlot)
      return baseOutRow(V);
    return rangeOf(*OutPatches[Slot]);
  }

  Graph::NeighborRange inNeighbors(VertexId V) const {
    if (isSymmetric())
      return outNeighbors(V);
    uint32_t Slot = InSlot.get(V);
    if (Slot == kNoSlot)
      return baseInRow(V);
    return rangeOf(*InPatches[Slot]);
  }

  /// Sum of out-degrees over a vertex set (direction optimization).
  int64_t outDegreeSum(const VertexId *Vs, Count N) const;

  /// Frontier-lookahead prefetch (see Graph::prefetchOutRow). Patched
  /// vertices live in small per-vertex lists; only the base-CSR path is
  /// worth hinting.
  void prefetchOutRow(VertexId V) const {
    if (OutSlot.get(V) == kNoSlot && !inSegment(V) &&
        V < static_cast<VertexId>(BaseNodes))
      BasePtr->prefetchOutRow(V);
  }

  /// --- Delta interface --------------------------------------------------

  /// Applies \p Batch in order and returns the directed transitions that
  /// took effect (see AppliedUpdate). Invalid requests — out-of-range
  /// endpoints, self loops, negative upsert weights — are skipped: a
  /// serving system must survive malformed writes. Writer-side only; not
  /// thread-safe against readers of the *same* object (publish a copy).
  std::vector<AppliedUpdate> apply(const std::vector<EdgeUpdate> &Batch);

  /// True when \p U would be applied (in-range endpoints, no self loop,
  /// non-negative upsert weight) against a universe of \p NumNodes
  /// vertices. The per-update skip test `apply` uses, exposed so sharded
  /// callers routing directed halves to different overlays apply exactly
  /// the same policy.
  static bool validUpdate(const EdgeUpdate &U, Count NumNodes) {
    if (static_cast<Count>(U.Src) >= NumNodes ||
        static_cast<Count>(U.Dst) >= NumNodes || U.Src == U.Dst)
      return false;
    return U.Kind != UpdateKind::Upsert || U.W >= 0;
  }

  /// --- Shard-local application (service/SnapshotStore.h sharding) -------
  ///
  /// A sharded store partitions vertices across overlays: the directed
  /// edge (Src, Dst) lives in shard(Src)'s out-adjacency and shard(Dst)'s
  /// in-adjacency. These entry points apply exactly one side, so each
  /// shard's overlay only ever patches its own vertices. Callers are
  /// responsible for validity checks (`validUpdate`) and for routing both
  /// sides; `apply` remains the single-overlay equivalent.

  /// Out-adjacency side only (no in-mirror). Bumps the edge and overlay
  /// counters exactly like `apply` does for the directed edge.
  AppliedUpdate applyShardOut(VertexId Src, VertexId Dst, Weight W,
                              UpdateKind Kind) {
    return applyDirectedOut(Src, Dst, W, Kind);
  }

  /// In-adjacency mirror side only. No-op on symmetric graphs (the
  /// reverse direction is routed as its own out-edge) and on graphs
  /// without incoming adjacency.
  void applyShardInMirror(VertexId Src, VertexId Dst, Weight W,
                          UpdateKind Kind) {
    mirrorIn(Src, Dst, W, Kind);
  }

  /// --- Vertex insertion -------------------------------------------------

  /// Grows the vertex universe to \p NewNumNodes; the fresh ids are
  /// `[numNodes(), NewNumNodes)`, appended at the tail with empty
  /// adjacency. On coordinate-bearing graphs, \p TailCoords may supply
  /// one (X, Y) per appended vertex (in append order); absent entries
  /// default to (0, 0) — callers relying on the A* coordinate bound must
  /// supply coordinates that keep the weight >= 100 x Euclidean contract
  /// (graph/Generators.h), exactly as they must for live edge inserts.
  void growUniverse(Count NewNumNodes, const Coordinates *TailCoords = nullptr);

  /// Appends one vertex (see growUniverse) and returns its id.
  VertexId addVertex();
  /// Appends one vertex with coordinates (coordinate-bearing graphs).
  VertexId addVertex(double X, double Y);

  /// Vertices appended past the base graph (ids >= base().numNodes()).
  Count tailNodes() const { return TailNodes; }

  /// Edges currently resident in patch lists (the overlay size the
  /// compaction threshold is measured against).
  Count overlayEdges() const { return OverlayEdges; }
  /// Vertices owning a live patch list (free-listed slots excluded).
  Count patchedVertices() const {
    return static_cast<Count>(OutPatches.size() - FreeOutSlots.size());
  }

  const Graph &base() const { return *BasePtr; }
  std::shared_ptr<const Graph> basePtr() const { return BasePtr; }

  /// --- Incremental (range) compaction ------------------------------------
  ///
  /// `foldRange` snapshots the *current* adjacency of a vertex range into
  /// a fresh immutable BaseSegment — read-only, so it can run on a pinned
  /// copy while the writer keeps mutating. `adoptSegment` installs a
  /// segment in place of the installed one: every covered vertex's
  /// base-row reads re-route to it, its patch lists are dropped (their
  /// slots recycled), and the overlay counter shrinks by the folded patch
  /// edges. The new segment must cover the installed one's range, or
  /// adoption aborts: a vertex the old segment served would fall back to
  /// a stale base row. An empty segment is a no-op. The caller must
  /// guarantee the segment equals the adopted-onto graph's current
  /// adjacency over the range (fold in place under the writer lock, or
  /// fold a pinned copy and replay the ops that landed since) — adoption
  /// therefore never changes `numEdges()`. O(range), not O(V + E), and the
  /// shared monolithic base CSR is never replaced, so sibling shard
  /// overlays are unaffected.
  std::shared_ptr<const BaseSegment> foldRange(Count First,
                                               Count NumVerts) const;
  void adoptSegment(std::shared_ptr<const BaseSegment> NewSeg);
  /// foldRange + adoptSegment in place (the synchronous in-lock fold).
  void compactRange(Count First, Count NumVerts) {
    adoptSegment(foldRange(First, NumVerts));
  }

  /// The installed segment, or null before the first fold. Snapshot
  /// copies share it.
  std::shared_ptr<const BaseSegment> segment() const { return Seg; }
  /// Isolated (fully tombstoned) vertices whose empty patch rows were
  /// reclaimed by segment adoption — deleted-vertex rows folding away.
  Count reclaimedTombstones() const { return ReclaimedTombstones; }

  /// Merges base + overlay into a fresh immutable CSR (same adjacency,
  /// deterministically sorted like GraphBuilder output). O(V + E).
  Graph compact() const;

private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  /// A patch list: the vertex's whole row, sorted by neighbor id.
  using Patch = std::vector<WNode>;

  /// Paged per-vertex slot index with copy-on-write pages. A copy shares
  /// every page (O(V / kPageSize) pointer copies); the serialized writer
  /// clones a page before the first write that would be visible to a
  /// sharing snapshot. Unmapped pages read as all-kNoSlot, so untouched
  /// regions of a lightly-patched graph cost one pointer load + branch on
  /// the read path and no memory at all.
  class PagedSlots {
  public:
    static constexpr int kPageBits = 12;
    static constexpr size_t kPageSize = size_t{1} << kPageBits;

    /// Covers \p NumNodes vertices, appending unmapped (all-kNoSlot)
    /// pages: at construction and on universe growth. The page vector
    /// itself is per-copy (only the pages are shared), so growing the
    /// writer never perturbs a published snapshot.
    void grow(Count NumNodes) {
      size_t Want =
          (static_cast<size_t>(NumNodes) + kPageSize - 1) / kPageSize;
      if (Want > Pages.size())
        Pages.resize(Want, nullptr);
    }

    uint32_t get(VertexId V) const {
      const PagePtr &P = Pages[V >> kPageBits];
      return P ? (*P)[V & (kPageSize - 1)] : kNoSlot;
    }

    void set(VertexId V, uint32_t S) {
      PagePtr &P = Pages[V >> kPageBits];
      if (!P) {
        P = std::make_shared<Page>();
        P->fill(kNoSlot);
      } else if (!isSoleOwner(P)) {
        P = std::make_shared<Page>(*P); // shared with a snapshot: clone
      }
      (*P)[V & (kPageSize - 1)] = S;
    }

  private:
    using Page = std::array<uint32_t, kPageSize>;
    using PagePtr = std::shared_ptr<Page>;
    std::vector<PagePtr> Pages;
  };

  static Graph::NeighborRange rangeOf(const Patch &P) {
    return Graph::NeighborRange{nullptr, static_cast<Count>(P.size()),
                                P.data()};
  }

  /// The *writable* patch list for \p V in the given direction: created by
  /// copying the current adjacency on first touch, cloned from the shared
  /// list on the first touch after a publish (copy-on-write).
  Patch &patchFor(VertexId V, bool Out);

  /// True when \p V's base row lives in the installed segment. One
  /// unsigned compare: ids below SegFirst wrap past SegVerts.
  bool inSegment(VertexId V) const { return V - SegFirst < SegVerts; }

  /// The base-layer row for \p V: the installed segment's row if it
  /// covers V, then the monolithic base CSR, then empty (tail vertices
  /// never folded into a segment).
  Graph::NeighborRange baseOutRow(VertexId V) const {
    if (inSegment(V))
      return Seg->Out.row(V - SegFirst, isWeighted());
    return V < static_cast<VertexId>(BaseNodes)
               ? BasePtr->outNeighbors(V)
               : Graph::NeighborRange{nullptr, 0};
  }
  Graph::NeighborRange baseInRow(VertexId V) const {
    if (inSegment(V))
      return Seg->In.row(V - SegFirst, isWeighted());
    return V < static_cast<VertexId>(BaseNodes)
               ? BasePtr->inNeighbors(V)
               : Graph::NeighborRange{nullptr, 0};
  }

  /// Drops the patch slot for \p V in one direction (segment adoption has
  /// absorbed it). Recycles the slot index and, for the out direction,
  /// returns the folded patch length so the caller can shrink the overlay
  /// counter.
  Count clearPatchSlot(VertexId V, bool Out);

  /// Applies one directed mutation to the out-adjacency (bumping NumEdges
  /// and the overlay counter). In-adjacency mirroring is the caller's job:
  /// `applyDirected` pairs it with mirrorIn() on this overlay, sharded
  /// stores route the mirror to the destination's shard. \returns the
  /// transition, or kAbsentEdge/kAbsentEdge when nothing changed.
  AppliedUpdate applyDirectedOut(VertexId Src, VertexId Dst, Weight W,
                                 UpdateKind Kind);
  /// applyDirectedOut + in-mirror on this same overlay (the single-overlay
  /// composition `apply` uses).
  AppliedUpdate applyDirected(VertexId Src, VertexId Dst, Weight W,
                              UpdateKind Kind);
  void mirrorIn(VertexId Src, VertexId Dst, Weight W, UpdateKind Kind);

  std::shared_ptr<const Graph> BasePtr;
  PagedSlots OutSlot; ///< per-vertex patch index or kNoSlot
  PagedSlots InSlot;  ///< directed graphs with in-edges only
  std::vector<std::shared_ptr<Patch>> OutPatches;
  std::vector<std::shared_ptr<Patch>> InPatches;
  /// The installed base segment (null before the first fold), shared
  /// immutably with snapshot copies; a re-fold replaces the writer's
  /// pointer without perturbing published snapshots. Its range is cached
  /// in SegFirst/SegVerts (SegVerts 0 when none is installed).
  std::shared_ptr<const BaseSegment> Seg;
  VertexId SegFirst = 0;
  VertexId SegVerts = 0;
  std::vector<uint32_t> FreeOutSlots; ///< recycled patch indices
  std::vector<uint32_t> FreeInSlots;
  Count ReclaimedTombstones = 0; ///< empty patch rows folded away
  /// Tail coordinates (copy-on-grow): set once a vertex is appended to a
  /// coordinate-bearing graph; shared by snapshot copies.
  std::shared_ptr<const Coordinates> ExtCoords;
  Count BaseNodes = 0;   ///< base().numNodes(), cached off the hot path
  Count TailNodes = 0;   ///< vertices appended past the base
  bool MirrorsIn = false; ///< maintain in-adjacency patches (directed+in)
  Count NumEdges = 0;
  Count OverlayEdges = 0;
};

/// Coalesces raw per-application transition records of one batch into at
/// most one record per directed edge: first old weight -> last new weight,
/// with net no-ops dropped. Multiple updates of one edge inside a batch
/// would otherwise hand incremental repair an intermediate "old" weight
/// and break its tightness test. Shared by the snapshot stores.
std::vector<AppliedUpdate>
coalesceApplied(const std::vector<AppliedUpdate> &Raw);

/// A read-only composite over per-shard `DeltaGraph` overlays: vertex V's
/// adjacency is served by shard `shardOf(V)`, so engines templated over
/// the graph type run unmodified against a sharded store's published
/// version. All shard overlays share one base CSR and one universe size
/// (the sharded store grows / compacts them in lockstep); the view just
/// routes per-vertex reads.
///
/// Vertex-range sharding: shard(V) = min(V >> Shift, S-1) with
/// 2^Shift >= ceil(baseNodes / S). Vertices inserted after construction
/// (ids past the base range) clamp into the last shard.
class ShardedDeltaView {
public:
  ShardedDeltaView() = default;
  ShardedDeltaView(std::vector<std::shared_ptr<const DeltaGraph>> Parts,
                   int ShardShift)
      : Shards(std::move(Parts)), Shift(ShardShift) {
    const DeltaGraph &S0 = *Shards.front();
    NumNodes = S0.numNodes();
    const Count BaseEdges = S0.base().numEdges();
    NumEdges = 0;
    for (const std::shared_ptr<const DeltaGraph> &S : Shards)
      NumEdges += S->numEdges() - BaseEdges;
    NumEdges += BaseEdges;
  }

  int numShards() const { return static_cast<int>(Shards.size()); }
  int shardOf(VertexId V) const {
    Count S = static_cast<Count>(V) >> Shift;
    return static_cast<int>(
        std::min<Count>(S, static_cast<Count>(Shards.size()) - 1));
  }
  const DeltaGraph &shard(int S) const { return *Shards[S]; }
  const std::vector<std::shared_ptr<const DeltaGraph>> &shards() const {
    return Shards;
  }
  int shardShift() const { return Shift; }

  /// --- Version metadata (filled by the owning sharded store) -----------
  ///
  /// The cross-shard version vector this composite was published with:
  /// `shardVersions()[s]` bumps exactly when shard s's overlay changed,
  /// `version()` on every publish. A pinned view is immutable, so two
  /// pins compare component-wise — monotone, never torn.
  void setVersions(uint64_t GlobalVersion,
                   std::vector<uint64_t> PerShardVersions) {
    Version_ = GlobalVersion;
    ShardVersions_ = std::move(PerShardVersions);
  }
  uint64_t version() const { return Version_; }
  const std::vector<uint64_t> &shardVersions() const {
    return ShardVersions_;
  }

  /// Shift such that ceil(NumNodes / NumShards) vertices fit per shard
  /// (power-of-two span, so shardOf is a shift + clamp).
  static int shiftFor(Count NumNodes, int NumShards) {
    Count Span = (NumNodes + NumShards - 1) / NumShards;
    int Shift = 0;
    while ((Count{1} << Shift) < std::max<Count>(Span, 1))
      ++Shift;
    return Shift;
  }

  /// --- Graph-compatible read interface ---------------------------------
  Count numNodes() const { return NumNodes; }
  Count numEdges() const { return NumEdges; }
  bool isSymmetric() const { return Shards.front()->isSymmetric(); }
  bool isWeighted() const { return Shards.front()->isWeighted(); }
  bool hasInEdges() const { return Shards.front()->hasInEdges(); }
  bool hasCoordinates() const { return Shards.front()->hasCoordinates(); }
  /// Coordinates are shared store-wide state, not per-shard (every shard
  /// extends its copy in lockstep on vertex insertion); shard 0's are
  /// authoritative.
  const Coordinates &coordinates() const {
    return Shards.front()->coordinates();
  }

  Count outDegree(VertexId V) const { return at(V).outDegree(V); }
  Count inDegree(VertexId V) const { return at(V).inDegree(V); }
  Graph::NeighborRange outNeighbors(VertexId V) const {
    return at(V).outNeighbors(V);
  }
  Graph::NeighborRange inNeighbors(VertexId V) const {
    return at(V).inNeighbors(V);
  }
  int64_t outDegreeSum(const VertexId *Vs, Count N) const {
    int64_t Sum = 0;
    for (Count I = 0; I < N; ++I)
      Sum += outDegree(Vs[I]);
    return Sum;
  }
  void prefetchOutRow(VertexId V) const { at(V).prefetchOutRow(V); }

  /// Merges every shard's overlay + the shared base into one fresh CSR
  /// (same deterministic layout as DeltaGraph::compact). O(V + E).
  Graph compact() const;

private:
  const DeltaGraph &at(VertexId V) const { return *Shards[shardOf(V)]; }

  std::vector<std::shared_ptr<const DeltaGraph>> Shards;
  int Shift = 0;
  Count NumNodes = 0;
  Count NumEdges = 0;
  uint64_t Version_ = 0;
  std::vector<uint64_t> ShardVersions_;
};

} // namespace graphit

#endif // GRAPHIT_GRAPH_DELTAGRAPH_H
