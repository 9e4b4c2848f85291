//===- graph/Builder.cpp - Edge-list to CSR construction ------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "graph/Builder.h"

#include "support/Abort.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <algorithm>
#include <memory>

using namespace graphit;

namespace {

/// A block holds 2^kMinBlockBits consecutive row vertices at least; past
/// 2^(kMinBlockBits + kMaxBlockCountBits) vertices blocks widen so that a
/// direction has at most 2^kMaxBlockCountBits of them (the number of write
/// streams each chunk keeps open in pass 2), up to 2^kMaxBlockBits rows,
/// so that a row's place in its block fits 16 bits.
constexpr int kMinBlockBits = 6;
constexpr int kMaxBlockCountBits = 8;
constexpr int kMaxBlockBits = 16;
/// Input edges per chunk at least, and chunks per worker at most.
constexpr Count kMinChunkEdges = 4096;
constexpr Count kChunksPerWorker = 4;
/// Below this many input edges plus vertices every pass runs inline.
constexpr Count kMinParallelWork = 8192;
/// Rows up to this long are insertion-sorted, longer ones `std::sort`ed.
constexpr int64_t kInsertionSortMax = 16;

/// Which directed entries one input edge adds to a CSR direction: none for
/// a dropped self-loop, else (Src -> Dst), keyed by Dst instead for the
/// in-direction, plus the reverse (Dst -> Src) when symmetrizing.
struct EntryRule {
  bool ByDst;
  bool Symmetrize;
  bool RemoveSelfLoops;

  template <typename Fn> void forEach(const Edge &E, Fn &&Emit) const {
    if (RemoveSelfLoops && E.Src == E.Dst)
      return;
    if (ByDst)
      Emit(E.Dst, E.Src, E.W);
    else
      Emit(E.Src, E.Dst, E.W);
    if (Symmetrize)
      Emit(E.Dst, E.Src, E.W);
  }
};

/// Static partition of one build: the input list into chunks (passes 1
/// and 2) and the row vertices into blocks of 2^BlockBits (pass 3).
struct Partition {
  Count NumNodes;
  Count NumEdges;
  int BlockBits = kMinBlockBits;
  Count NumBlocks;
  Count NumChunks = 1;
  bool Parallel;

  Partition(Count N, Count M) : NumNodes(N), NumEdges(M) {
    int Bits = 0;
    while ((Count{1} << Bits) < N)
      ++Bits;
    BlockBits = std::clamp(Bits - kMaxBlockCountBits, kMinBlockBits,
                           kMaxBlockBits);
    NumBlocks = (N + (Count{1} << BlockBits) - 1) >> BlockBits;
    Parallel = N + M >= kMinParallelWork;
    if (Parallel)
      NumChunks = std::max<Count>(
          1, std::min(M / kMinChunkEdges, kChunksPerWorker * getNumWorkers()));
  }

  Count chunkBegin(Count C) const { return C * NumEdges / NumChunks; }
  Count blockOf(VertexId Row) const { return Row >> BlockBits; }
  uint16_t placeInBlock(VertexId Row) const {
    return static_cast<uint16_t>(Row & ((VertexId{1} << BlockBits) - 1));
  }
};

/// Runs `Body(P)` for every part P in [0, NumParts). In parallel, an `omp
/// for` hands the parts out, so a team of any size (nested, or limited
/// below getNumWorkers()) covers them all.
template <typename Fn>
void forEachPart(Count NumParts, bool Parallel, Fn &&Body) {
  if (!Parallel || NumParts < 2) {
    for (Count P = 0; P < NumParts; ++P)
      Body(P);
    return;
  }
  int Tag = 0;
  GRAPHIT_OMP_REGION_ENTER(&Tag);
#pragma omp parallel
  {
    GRAPHIT_OMP_REGION_BEGIN(&Tag);
#pragma omp for schedule(dynamic, 1) nowait
    for (Count P = 0; P < NumParts; ++P)
      Body(P);
    GRAPHIT_OMP_REGION_END(&Tag);
  }
  GRAPHIT_OMP_REGION_EXIT(&Tag);
}

/// Pass 1: `Counts[C * NumBlocks + B]` = the entries chunk C sends to
/// block B. Each chunk writes only its own row of counters.
std::vector<int64_t> countEntries(const std::vector<Edge> &Edges,
                                  const Partition &P, const EntryRule &Rule) {
  std::vector<int64_t> Counts(static_cast<size_t>(P.NumChunks * P.NumBlocks),
                              0);
  std::vector<char> OutOfRange(static_cast<size_t>(P.NumChunks), 0);
  forEachPart(P.NumChunks, P.Parallel, [&](Count C) {
    int64_t *Mine = Counts.data() + C * P.NumBlocks;
    for (Count I = P.chunkBegin(C), E = P.chunkBegin(C + 1); I < E; ++I) {
      const Edge &Ed = Edges[I];
      if (static_cast<Count>(Ed.Src) >= P.NumNodes ||
          static_cast<Count>(Ed.Dst) >= P.NumNodes) {
        OutOfRange[C] = 1;
        continue;
      }
      Rule.forEach(Ed, [&](VertexId Row, VertexId, Weight) {
        ++Mine[P.blockOf(Row)];
      });
    }
  });
  for (char Bad : OutOfRange)
    if (Bad)
      fatalError("GraphBuilder: edge endpoint out of range");
  return Counts;
}

inline void makeElem(WNode &Out, VertexId V, Weight W) { Out = WNode{V, W}; }
inline void makeElem(VertexId &Out, VertexId V, Weight) { Out = V; }
inline VertexId idOf(const WNode &E) { return E.V; }
inline VertexId idOf(VertexId V) { return V; }
inline bool rowLess(const WNode &A, const WNode &B) {
  return adjacencyRowLess(A, B);
}
inline bool rowLess(VertexId A, VertexId B) { return A < B; }

/// Sorts one row into `adjacencyRowLess` order. Ties are equal elements,
/// so the order is fully determined whatever order the row was filled in.
template <typename Elem> void sortRow(Elem *Lo, Elem *Hi) {
  if (Hi - Lo < 2)
    return;
  if (Hi - Lo > kInsertionSortMax) {
    std::sort(Lo, Hi, [](const Elem &A, const Elem &B) {
      return rowLess(A, B);
    });
    return;
  }
  for (Elem *I = Lo + 1; I < Hi; ++I) {
    Elem X = *I;
    Elem *J = I;
    for (; J > Lo && rowLess(X, J[-1]); --J)
      *J = J[-1];
    *J = X;
  }
}

/// Drops parallel edges from the sorted rows of one CSR direction (either
/// layout). A row is sorted by neighbor, then weight, so each neighbor's
/// first entry is its lightest; `unique` keeps that one. The survivors
/// are then packed into an exactly-sized array; they are fewer than the
/// entries `assembleDirection` already checked against the offset limit.
template <typename Elem>
void removeParallelEdges(Count NumNodes, CsrArray<EdgeOffset> &Offsets,
                         CsrArray<Elem> &Rows) {
  auto Same = [](const Elem &A, const Elem &B) { return idOf(A) == idOf(B); };
  CsrArray<EdgeOffset> Kept(static_cast<size_t>(NumNodes) + 1);
  parallelFor(0, NumNodes, [&](Count V) {
    auto Lo = Rows.begin() + Offsets[V];
    Kept[V] = static_cast<EdgeOffset>(
        std::unique(Lo, Rows.begin() + Offsets[V + 1], Same) - Lo);
  });
  Kept[NumNodes] = 0;
  const int64_t Total = exclusivePrefixSum(Kept.data(), NumNodes + 1);
  CsrArray<Elem> Packed(static_cast<size_t>(Total));
  parallelFor(0, NumNodes, [&](Count V) {
    std::copy_n(Rows.begin() + Offsets[V], Kept[V + 1] - Kept[V],
                Packed.begin() + Kept[V]);
  });
  Offsets = std::move(Kept);
  Rows = std::move(Packed);
}

/// Builds one CSR direction, \p Offsets and \p Rows (each element a
/// `WNode` when weighted, a bare neighbor id otherwise), from the pass-1
/// \p Counts of \p Rule's entries. Pass 2 scatters every entry straight
/// into the final row array at per-(block, chunk) cursors, so each block's
/// entries land in the range its rows will fill, beside a note of each
/// entry's row. Pass 3 gives each block to one thread, which lays out its
/// rows' offsets, reorders the block's range row by row and sorts each
/// row. Every cursor is private to one chunk or one block, so no step
/// needs an atomic, and each array is written once: both are allocated
/// uninitialized (`CsrArray`). When \p Last, the input list is released
/// once scattered.
template <typename Elem>
void assembleDirection(std::vector<Edge> &Edges, const Partition &P,
                       const EntryRule &Rule, std::vector<int64_t> Counts,
                       bool Dedup, bool Last, CsrArray<EdgeOffset> &Offsets,
                       CsrArray<Elem> &Rows) {
  const Count NB = P.NumBlocks;
  // Counts become cursors in block-major order, so each block's entries
  // are contiguous and land where its rows start in the final CSR.
  std::vector<int64_t> BlockStart(static_cast<size_t>(NB) + 1);
  int64_t Total = 0;
  for (Count B = 0; B < NB; ++B) {
    BlockStart[B] = Total;
    for (Count C = 0; C < P.NumChunks; ++C) {
      int64_t &Cell = Counts[C * NB + B];
      const int64_t Entries = Cell;
      Cell = Total;
      Total += Entries;
    }
  }
  BlockStart[NB] = Total;
  checkEdgeOffsetLimit(Total, "GraphBuilder");

  // Pass 2. Rows and row notes are left uninitialized: each is written
  // once.
  Rows.resize(static_cast<size_t>(Total));
  std::unique_ptr<uint16_t[]> RowOf(new uint16_t[static_cast<size_t>(Total)]);
  forEachPart(P.NumChunks, P.Parallel, [&](Count C) {
    int64_t *Cursor = Counts.data() + C * NB;
    Elem *Out = Rows.data();
    for (Count I = P.chunkBegin(C), E = P.chunkBegin(C + 1); I < E; ++I)
      Rule.forEach(Edges[I], [&](VertexId Row, VertexId Nbr, Weight W) {
        const int64_t Pos = Cursor[P.blockOf(Row)]++;
        makeElem(Out[Pos], Nbr, W);
        RowOf[Pos] = P.placeInBlock(Row);
      });
  });
  if (Last)
    std::vector<Edge>().swap(Edges);

  // Pass 3. Within a block, Off[V] counts row V's degree (from zero, so
  // the block zeroes its own slice), then serves as its write cursor into
  // a copy of the block (ending at the row's end), and finally holds its
  // start. The limit check above keeps every value in range.
  Offsets.resize(static_cast<size_t>(P.NumNodes) + 1);
  std::vector<char> HasParallel(static_cast<size_t>(NB), 0);
  forEachPart(NB, P.Parallel, [&](Count B) {
    const Count First = B << P.BlockBits;
    const Count NumRows =
        std::min(P.NumNodes - First, Count{1} << P.BlockBits);
    EdgeOffset *Off = Offsets.data() + First;
    const int64_t Lo = BlockStart[B], Size = BlockStart[B + 1] - Lo;
    Elem *Range = Rows.data() + Lo;
    const uint16_t *Notes = RowOf.get() + Lo;
    std::fill_n(Off, NumRows, EdgeOffset{0});
    for (int64_t I = 0; I < Size; ++I)
      ++Off[Notes[I]];
    EdgeOffset Start = 0;
    for (Count V = 0; V < NumRows; ++V) {
      const EdgeOffset Degree = Off[V];
      Off[V] = Start;
      Start += Degree;
    }
    std::unique_ptr<Elem[]> Block(new Elem[static_cast<size_t>(Size)]);
    for (int64_t I = 0; I < Size; ++I)
      Block[Off[Notes[I]]++] = Range[I];
    bool Parallel = false;
    Start = 0;
    for (Count V = 0; V < NumRows; ++V) {
      const EdgeOffset RowEnd = Off[V];
      Off[V] = static_cast<EdgeOffset>(Lo + Start);
      sortRow(Block.get() + Start, Block.get() + RowEnd);
      for (EdgeOffset I = Start + 1; Dedup && I < RowEnd; ++I)
        Parallel |= idOf(Block[I - 1]) == idOf(Block[I]);
      Start = RowEnd;
    }
    std::copy_n(Block.get(), Size, Range);
    HasParallel[B] = Parallel;
  });
  Offsets[P.NumNodes] = static_cast<EdgeOffset>(Total);
  RowOf.reset();
  if (std::find(HasParallel.begin(), HasParallel.end(), 1) !=
      HasParallel.end())
    removeParallelEdges(P.NumNodes, Offsets, Rows);
}

} // namespace

void graphit::assignRandomWeights(std::vector<Edge> &Edges, Weight Lo,
                                  Weight Hi, uint64_t Seed) {
  if (Lo >= Hi)
    fatalError("assignRandomWeights: empty weight range");
  Count M = static_cast<Count>(Edges.size());
  parallelFor(
      0, M,
      [&](Count I) {
        // Hash of (seed, endpoints) so the weight of an edge does not depend
        // on its position in the list.
        uint64_t H = hash64(Seed ^ hash64((static_cast<uint64_t>(
                                               Edges[I].Src)
                                           << 32) |
                                          Edges[I].Dst));
        Edges[I].W = static_cast<Weight>(Lo + H % (Hi - Lo));
      },
      Parallelization::StaticVertexParallel);
}

Graph GraphBuilder::build(Count NumNodes, std::vector<Edge> Edges,
                          Coordinates Coords) const {
  Graph G = build(NumNodes, std::move(Edges));
  if (!Coords.empty() && Coords.size() != NumNodes)
    fatalError("GraphBuilder: coordinate count != vertex count");
  G.Coords = std::move(Coords);
  return G;
}

Graph GraphBuilder::build(Count NumNodes, std::vector<Edge> Edges) const {
  const Partition P(NumNodes, static_cast<Count>(Edges.size()));
  const EntryRule OutRule{false, Options.Symmetrize, Options.RemoveSelfLoops};
  const EntryRule InRule{true, false, Options.RemoveSelfLoops};
  const bool WithIn = !Options.Symmetrize && Options.BuildInEdges;

  std::vector<int64_t> OutCounts = countEntries(Edges, P, OutRule);
  Graph G;
  G.NumNodes = NumNodes;
  G.Symmetric = Options.Symmetrize;
  // A list left empty by self-loop removal builds an unweighted graph.
  G.Weighted = Options.Weighted &&
               std::any_of(OutCounts.begin(), OutCounts.end(),
                           [](int64_t N) { return N > 0; });

  auto Fill = [&](auto &OutRows, auto &InRows) {
    assembleDirection(Edges, P, OutRule, std::move(OutCounts),
                      Options.RemoveDuplicates, /*Last=*/!WithIn,
                      G.Out.Offsets, OutRows);
    if (WithIn)
      assembleDirection(Edges, P, InRule, countEntries(Edges, P, InRule),
                        Options.RemoveDuplicates, /*Last=*/true,
                        G.In.Offsets, InRows);
  };
  if (G.Weighted)
    Fill(G.Out.Adj, G.In.Adj);
  else
    Fill(G.Out.Ids, G.In.Ids);
  G.NumEdges = static_cast<Count>(G.Out.Offsets.back());
  return G;
}
