//===- graph/DeltaGraph.cpp - Delta-CSR overlay over a base graph ---------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "graph/DeltaGraph.h"

#include "graph/Builder.h"
#include "support/Abort.h"

#include <algorithm>
#include <unordered_map>

using namespace graphit;

DeltaGraph::DeltaGraph(std::shared_ptr<const Graph> Base)
    : BasePtr(std::move(Base)) {
  if (!BasePtr)
    fatalError("DeltaGraph: null base graph");
  NumEdges = BasePtr->numEdges();
  BaseNodes = BasePtr->numNodes();
  OutSlot.init(BaseNodes);
  SegSlot.init(BaseNodes);
  MirrorsIn = !BasePtr->isSymmetric() && BasePtr->hasInEdges();
  if (MirrorsIn)
    InSlot.init(BaseNodes);
}

void DeltaGraph::growUniverse(Count NewNumNodes,
                              const Coordinates *TailCoords) {
  const Count Old = numNodes();
  if (NewNumNodes <= Old)
    return;
  TailNodes = NewNumNodes - BaseNodes;
  OutSlot.grow(NewNumNodes);
  SegSlot.grow(NewNumNodes);
  if (MirrorsIn)
    InSlot.grow(NewNumNodes);
  if (hasCoordinates()) {
    // Copy-on-grow keeps published snapshots untouched; insertion is rare
    // enough that the O(V) copy beats shared-page bookkeeping here.
    auto Grown = std::make_shared<Coordinates>(coordinates());
    Grown->X.resize(static_cast<size_t>(NewNumNodes), 0.0);
    Grown->Y.resize(static_cast<size_t>(NewNumNodes), 0.0);
    if (TailCoords)
      for (Count I = 0; I < NewNumNodes - Old &&
                        I < static_cast<Count>(TailCoords->X.size());
           ++I) {
        Grown->X[static_cast<size_t>(Old + I)] =
            TailCoords->X[static_cast<size_t>(I)];
        Grown->Y[static_cast<size_t>(Old + I)] =
            TailCoords->Y[static_cast<size_t>(I)];
      }
    ExtCoords = std::move(Grown);
  }
}

VertexId DeltaGraph::addVertex() {
  VertexId Id = static_cast<VertexId>(numNodes());
  growUniverse(numNodes() + 1);
  return Id;
}

VertexId DeltaGraph::addVertex(double X, double Y) {
  VertexId Id = static_cast<VertexId>(numNodes());
  Coordinates C;
  C.X.push_back(X);
  C.Y.push_back(Y);
  growUniverse(numNodes() + 1, &C);
  return Id;
}

int64_t DeltaGraph::outDegreeSum(const VertexId *Vs, Count N) const {
  int64_t Sum = 0;
  for (Count I = 0; I < N; ++I)
    Sum += outDegree(Vs[I]);
  return Sum;
}

DeltaGraph::Patch &DeltaGraph::patchFor(VertexId V, bool Out) {
  PagedSlots &Slots = Out ? OutSlot : InSlot;
  std::vector<std::shared_ptr<Patch>> &Patches = Out ? OutPatches : InPatches;
  std::vector<uint32_t> &Free = Out ? FreeOutSlots : FreeInSlots;
  uint32_t Slot = Slots.get(V);
  if (Slot != kNoSlot) {
    std::shared_ptr<Patch> &P = Patches[Slot];
    // Copy-on-write: a published snapshot still references this list, so
    // the first mutation after a publish clones it. Only lists actually
    // dirtied between publishes are ever deep-copied.
    if (!isSoleOwner(P))
      P = std::make_shared<Patch>(*P);
    return *P;
  }
  if (!Free.empty()) {
    Slot = Free.back();
    Free.pop_back();
    Patches[Slot] = std::make_shared<Patch>();
  } else {
    Slot = static_cast<uint32_t>(Patches.size());
    Patches.push_back(std::make_shared<Patch>());
  }
  Slots.set(V, Slot);
  Patch &P = *Patches[Slot];
  // First touch copies the current base-layer row — an installed segment's
  // row if the vertex was folded, the monolithic base CSR otherwise, empty
  // for never-folded tail vertices.
  Graph::NeighborRange Range = Out ? baseOutRow(V) : baseInRow(V);
  P.Ids.reserve(static_cast<size_t>(Range.size()) + 1);
  if (isWeighted())
    P.Ws.reserve(static_cast<size_t>(Range.size()) + 1);
  for (WNode E : Range) {
    P.Ids.push_back(E.V);
    if (isWeighted())
      P.Ws.push_back(E.W);
  }
  if (Out)
    OverlayEdges += static_cast<Count>(P.Ids.size());
  return P;
}

Count DeltaGraph::clearPatchSlot(VertexId V, bool Out) {
  PagedSlots &Slots = Out ? OutSlot : InSlot;
  uint32_t Slot = Slots.get(V);
  if (Slot == kNoSlot)
    return 0;
  std::vector<std::shared_ptr<Patch>> &Patches = Out ? OutPatches : InPatches;
  const Count Len = static_cast<Count>(Patches[Slot]->Ids.size());
  Patches[Slot].reset(); // snapshots sharing the list keep it alive
  (Out ? FreeOutSlots : FreeInSlots).push_back(Slot);
  Slots.set(V, kNoSlot);
  return Len;
}

namespace {

/// Copies rows `Row(First)` .. `Row(First + NumVerts - 1)` into \p Into,
/// offsets first, so each array is allocated once at its final size. An
/// offset that wrapped is never used: the limit check stops the fold
/// before the rows are filled.
template <typename RowFn>
void foldRows(Count First, Count NumVerts, bool Weighted, RowFn &&Row,
              CsrRows &Into) {
  Into.Offsets.resize(static_cast<size_t>(NumVerts) + 1);
  Count Total = 0;
  for (Count R = 0; R < NumVerts; ++R) {
    Into.Offsets[R] = static_cast<EdgeOffset>(Total);
    Total += Row(static_cast<VertexId>(First + R)).size();
  }
  checkEdgeOffsetLimit(Total, "DeltaGraph::foldRange");
  Into.Offsets[NumVerts] = static_cast<EdgeOffset>(Total);
  if (Weighted)
    Into.Adj.resize(static_cast<size_t>(Total));
  else
    Into.Ids.resize(static_cast<size_t>(Total));
  for (Count R = 0; R < NumVerts; ++R) {
    size_t At = Into.Offsets[R];
    for (WNode E : Row(static_cast<VertexId>(First + R))) {
      if (Weighted)
        Into.Adj[At++] = E;
      else
        Into.Ids[At++] = E.V;
    }
  }
}

} // namespace

std::shared_ptr<const BaseSegment> DeltaGraph::foldRange(Count First,
                                                         Count NumVerts)
    const {
  auto Seg = std::make_shared<BaseSegment>();
  Seg->First = First;
  Seg->NumVerts = NumVerts;
  foldRows(
      First, NumVerts, isWeighted(),
      [&](VertexId V) { return outNeighbors(V); }, Seg->Out);
  if (MirrorsIn)
    foldRows(
        First, NumVerts, isWeighted(),
        [&](VertexId V) { return inNeighbors(V); }, Seg->In);
  return Seg;
}

void DeltaGraph::adoptSegment(std::shared_ptr<const BaseSegment> Seg) {
  if (!Seg || Seg->NumVerts == 0)
    return;
  if (Seg->First + Seg->NumVerts > numNodes())
    fatalError("adoptSegment: segment range exceeds the vertex universe");
  // Find-or-append by range start: re-folding a shard replaces its entry.
  // The Segs vector is per-copy, so published snapshots keep the segment
  // they were published with.
  uint32_t Idx = kNoSlot;
  for (size_t I = 0; I < Segs.size(); ++I)
    if (Segs[I]->First == Seg->First) {
      Idx = static_cast<uint32_t>(I);
      break;
    }
  if (Idx == kNoSlot) {
    Idx = static_cast<uint32_t>(Segs.size());
    Segs.push_back(std::move(Seg));
  } else {
    Segs[Idx] = std::move(Seg);
  }
  const BaseSegment &S = *Segs[Idx];
  // Adoption contract (see the header): the segment equals the current
  // adjacency over its range, so NumEdges is untouched; only the overlay
  // shrinks as folded patch rows are dropped.
  for (Count V = S.First; V < S.First + S.NumVerts; ++V) {
    const VertexId Id = static_cast<VertexId>(V);
    if (SegSlot.get(Id) != Idx)
      SegSlot.set(Id, Idx);
    const uint32_t OutPatch = OutSlot.get(Id);
    if (OutPatch != kNoSlot) {
      if (OutPatches[OutPatch]->Ids.empty())
        ++ReclaimedTombstones; // an isolated (deleted) vertex's row
      OverlayEdges -= clearPatchSlot(Id, /*Out=*/true);
    }
    if (MirrorsIn)
      clearPatchSlot(Id, /*Out=*/false);
  }
}

AppliedUpdate DeltaGraph::applyDirectedOut(VertexId Src, VertexId Dst,
                                           Weight W, UpdateKind Kind) {
  AppliedUpdate Nothing{Src, Dst, kAbsentEdge, kAbsentEdge};
  Patch &P = patchFor(Src, /*Out=*/true);
  auto It = std::lower_bound(P.Ids.begin(), P.Ids.end(), Dst);
  size_t Idx = static_cast<size_t>(It - P.Ids.begin());
  bool Present = It != P.Ids.end() && *It == Dst;
  Weight OldW =
      Present ? (isWeighted() ? P.Ws[Idx] : Weight{1}) : kAbsentEdge;

  if (Kind == UpdateKind::Delete) {
    if (!Present)
      return Nothing; // deleting a missing edge is a no-op
    P.Ids.erase(It);
    if (isWeighted())
      P.Ws.erase(P.Ws.begin() + static_cast<ptrdiff_t>(Idx));
    --NumEdges;
    --OverlayEdges;
    return AppliedUpdate{Src, Dst, OldW, kAbsentEdge};
  }

  Weight NewW = isWeighted() ? W : Weight{1};
  if (Present) {
    if (OldW == NewW)
      return Nothing; // same weight: no transition
    if (isWeighted())
      P.Ws[Idx] = NewW;
    return AppliedUpdate{Src, Dst, OldW, NewW};
  }
  P.Ids.insert(It, Dst);
  if (isWeighted())
    P.Ws.insert(P.Ws.begin() + static_cast<ptrdiff_t>(Idx), NewW);
  ++NumEdges;
  ++OverlayEdges;
  return AppliedUpdate{Src, Dst, kAbsentEdge, NewW};
}

AppliedUpdate DeltaGraph::applyDirected(VertexId Src, VertexId Dst, Weight W,
                                        UpdateKind Kind) {
  AppliedUpdate A = applyDirectedOut(Src, Dst, W, Kind);
  if (A.OldW != kAbsentEdge || A.NewW != kAbsentEdge)
    mirrorIn(Src, Dst, W, Kind);
  return A;
}

void DeltaGraph::mirrorIn(VertexId Src, VertexId Dst, Weight W,
                          UpdateKind Kind) {
  // Directed graphs carrying incoming adjacency keep it in sync so
  // DensePull traversal and repair's boundary scan see the same edges.
  if (!MirrorsIn)
    return;
  Patch &P = patchFor(Dst, /*Out=*/false);
  auto It = std::lower_bound(P.Ids.begin(), P.Ids.end(), Src);
  size_t Idx = static_cast<size_t>(It - P.Ids.begin());
  bool Present = It != P.Ids.end() && *It == Src;
  if (Kind == UpdateKind::Delete) {
    if (!Present)
      return;
    P.Ids.erase(It);
    if (isWeighted())
      P.Ws.erase(P.Ws.begin() + static_cast<ptrdiff_t>(Idx));
    return;
  }
  Weight NewW = isWeighted() ? W : Weight{1};
  if (Present) {
    if (isWeighted())
      P.Ws[Idx] = NewW;
    return;
  }
  P.Ids.insert(It, Src);
  if (isWeighted())
    P.Ws.insert(P.Ws.begin() + static_cast<ptrdiff_t>(Idx), NewW);
}

std::vector<AppliedUpdate>
DeltaGraph::apply(const std::vector<EdgeUpdate> &Batch) {
  std::vector<AppliedUpdate> Applied;
  Applied.reserve(Batch.size() * (isSymmetric() ? 2 : 1));
  const Count N = numNodes();
  for (const EdgeUpdate &U : Batch) {
    if (!validUpdate(U, N))
      continue; // malformed write: skip, don't take the store down
    AppliedUpdate A = applyDirected(U.Src, U.Dst, U.W, U.Kind);
    if (A.OldW != kAbsentEdge || A.NewW != kAbsentEdge)
      Applied.push_back(A);
    if (isSymmetric()) {
      AppliedUpdate B = applyDirected(U.Dst, U.Src, U.W, U.Kind);
      if (B.OldW != kAbsentEdge || B.NewW != kAbsentEdge)
        Applied.push_back(B);
    }
  }
  return Applied;
}

namespace {

/// Shared compaction core: folds any graph-view's adjacency into a fresh
/// immutable CSR (same deterministic layout as GraphBuilder output).
template <typename ViewT> Graph compactView(const ViewT &G) {
  std::vector<Edge> Edges;
  Edges.reserve(static_cast<size_t>(G.isSymmetric() ? G.numEdges() / 2
                                                    : G.numEdges()));
  const Count N = G.numNodes();
  for (Count V = 0; V < N; ++V)
    for (WNode E : G.outNeighbors(static_cast<VertexId>(V))) {
      // Symmetric views store both directions; emit each undirected edge
      // once and let the builder re-symmetrize.
      if (G.isSymmetric() && E.V < static_cast<VertexId>(V))
        continue;
      Edges.push_back(Edge{static_cast<VertexId>(V), E.V, E.W});
    }
  BuildOptions Options;
  Options.Symmetrize = G.isSymmetric();
  Options.RemoveSelfLoops = false;
  Options.RemoveDuplicates = false;
  Options.Weighted = G.isWeighted();
  Options.BuildInEdges = G.hasInEdges();
  GraphBuilder Builder(Options);
  if (G.hasCoordinates())
    return Builder.build(N, std::move(Edges), G.coordinates());
  return Builder.build(N, std::move(Edges));
}

} // namespace

Graph DeltaGraph::compact() const { return compactView(*this); }

Graph ShardedDeltaView::compact() const { return compactView(*this); }

std::vector<AppliedUpdate>
graphit::coalesceApplied(const std::vector<AppliedUpdate> &Raw) {
  std::unordered_map<uint64_t, size_t> Index;
  std::vector<AppliedUpdate> Out;
  Out.reserve(Raw.size());
  for (const AppliedUpdate &A : Raw) {
    uint64_t Key = (static_cast<uint64_t>(A.Src) << 32) | A.Dst;
    auto [It, Fresh] = Index.emplace(Key, Out.size());
    if (Fresh) {
      Out.push_back(A);
      continue;
    }
    Out[It->second].NewW = A.NewW; // keep the first OldW, take the last NewW
  }
  // Drop net no-ops (e.g. delete then re-insert at the old weight).
  size_t Keep = 0;
  for (const AppliedUpdate &A : Out)
    if (A.OldW != A.NewW)
      Out[Keep++] = A;
  Out.resize(Keep);
  return Out;
}
