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
  OutSlot.grow(BaseNodes);
  MirrorsIn = !BasePtr->isSymmetric() && BasePtr->hasInEdges();
  if (MirrorsIn)
    InSlot.grow(BaseNodes);
}

void DeltaGraph::growUniverse(Count NewNumNodes,
                              const Coordinates *TailCoords) {
  const Count Old = numNodes();
  if (NewNumNodes <= Old)
    return;
  TailNodes = NewNumNodes - BaseNodes;
  OutSlot.grow(NewNumNodes);
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
  P.reserve(static_cast<size_t>(Range.size()) + 1);
  for (WNode E : Range)
    P.push_back(E);
  if (Out)
    OverlayEdges += static_cast<Count>(P.size());
  return P;
}

Count DeltaGraph::clearPatchSlot(VertexId V, bool Out) {
  PagedSlots &Slots = Out ? OutSlot : InSlot;
  uint32_t Slot = Slots.get(V);
  if (Slot == kNoSlot)
    return 0;
  std::vector<std::shared_ptr<Patch>> &Patches = Out ? OutPatches : InPatches;
  const Count Len = static_cast<Count>(Patches[Slot]->size());
  Patches[Slot].reset(); // snapshots sharing the list keep it alive
  (Out ? FreeOutSlots : FreeInSlots).push_back(Slot);
  Slots.set(V, kNoSlot);
  return Len;
}

namespace {

/// The first entry of patch list \p P whose neighbor id is not below \p V.
std::vector<WNode>::iterator findNeighbor(std::vector<WNode> &P, VertexId V) {
  return std::lower_bound(P.begin(), P.end(), V,
                          [](const WNode &E, VertexId X) { return E.V < X; });
}

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
  auto Folded = std::make_shared<BaseSegment>();
  Folded->First = First;
  Folded->NumVerts = NumVerts;
  foldRows(
      First, NumVerts, isWeighted(),
      [&](VertexId V) { return outNeighbors(V); }, Folded->Out);
  if (MirrorsIn)
    foldRows(
        First, NumVerts, isWeighted(),
        [&](VertexId V) { return inNeighbors(V); }, Folded->In);
  return Folded;
}

void DeltaGraph::adoptSegment(std::shared_ptr<const BaseSegment> NewSeg) {
  if (!NewSeg || NewSeg->NumVerts == 0)
    return;
  const Count First = NewSeg->First, End = First + NewSeg->NumVerts;
  if (End > numNodes())
    fatalError("adoptSegment: segment range exceeds the vertex universe");
  if (Seg && (First > Seg->First || End < Seg->First + Seg->NumVerts))
    fatalError("adoptSegment: the new segment does not cover the installed "
               "segment's range");
  // The pointer is per-copy, so published snapshots keep the segment they
  // were published with.
  Seg = std::move(NewSeg);
  SegFirst = static_cast<VertexId>(First);
  SegVerts = static_cast<VertexId>(End - First);
  // Adoption contract (see the header): the segment equals the current
  // adjacency over its range, so NumEdges is untouched; only the overlay
  // shrinks as folded patch rows are dropped.
  for (Count V = First; V < End; ++V) {
    const VertexId Id = static_cast<VertexId>(V);
    const uint32_t OutPatch = OutSlot.get(Id);
    if (OutPatch != kNoSlot) {
      if (OutPatches[OutPatch]->empty())
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
  auto It = findNeighbor(P, Dst);
  const bool Present = It != P.end() && It->V == Dst;
  const Weight OldW = Present ? It->W : kAbsentEdge;

  if (Kind == UpdateKind::Delete) {
    if (!Present)
      return Nothing; // deleting a missing edge is a no-op
    P.erase(It);
    --NumEdges;
    --OverlayEdges;
    return AppliedUpdate{Src, Dst, OldW, kAbsentEdge};
  }

  const Weight NewW = isWeighted() ? W : Weight{1};
  if (Present) {
    if (OldW == NewW)
      return Nothing; // same weight: no transition
    It->W = NewW;
    return AppliedUpdate{Src, Dst, OldW, NewW};
  }
  P.insert(It, WNode{Dst, NewW});
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
  auto It = findNeighbor(P, Src);
  const bool Present = It != P.end() && It->V == Src;
  if (Kind == UpdateKind::Delete) {
    if (Present)
      P.erase(It);
    return;
  }
  const Weight NewW = isWeighted() ? W : Weight{1};
  if (Present)
    It->W = NewW;
  else
    P.insert(It, WNode{Src, NewW});
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
