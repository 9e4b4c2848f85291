//===- graph/GraphIO.cpp - Graph loading and saving -----------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "graph/GraphIO.h"

#include "graph/Builder.h"
#include "support/Abort.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

using namespace graphit;

namespace {

struct FileCloser {
  void operator()(std::FILE *F) const {
    if (F)
      std::fclose(F);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

FileHandle openOrDie(const std::string &Path, const char *Mode) {
  FileHandle F(std::fopen(Path.c_str(), Mode));
  if (!F) {
    std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
    fatalError("file open failed");
  }
  return F;
}

void noteEndpoint(EdgeListFile &File, VertexId V) {
  if (static_cast<Count>(V) + 1 > File.NumNodes)
    File.NumNodes = static_cast<Count>(V) + 1;
}

/// Reads one whole line of arbitrary length into \p Line (no fixed-buffer
/// truncation: a long DIMACS comment used to split at 255 bytes and the
/// tail then parsed as a bogus record). Strips the trailing newline and
/// any carriage return (CRLF files are common for downloaded datasets).
/// \returns false at end of file with nothing read.
bool readLine(std::FILE *F, std::string &Line) {
  Line.clear();
  char Buf[4096];
  bool ReadAny = false;
  while (std::fgets(Buf, sizeof(Buf), F)) {
    ReadAny = true;
    Line += Buf;
    if (!Line.empty() && Line.back() == '\n')
      break;
  }
  if (!ReadAny)
    return false;
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  return true;
}

} // namespace

EdgeListFile graphit::readEdgeList(const std::string &Path) {
  FileHandle F = openOrDie(Path, "r");
  EdgeListFile Result;
  std::string Line;
  while (readLine(F.get(), Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    uint64_t Src, Dst;
    long long W;
    int Fields = std::sscanf(Line.c_str(), "%" SCNu64 " %" SCNu64 " %lld",
                             &Src, &Dst, &W);
    if (Fields < 2)
      fatalError("malformed edge list line");
    Edge E;
    E.Src = static_cast<VertexId>(Src);
    E.Dst = static_cast<VertexId>(Dst);
    E.W = Fields >= 3 ? static_cast<Weight>(W) : Weight{1};
    if (Fields >= 3)
      Result.Weighted = true;
    noteEndpoint(Result, E.Src);
    noteEndpoint(Result, E.Dst);
    Result.Edges.push_back(E);
  }
  return Result;
}

void graphit::writeEdgeList(const std::string &Path,
                            const std::vector<Edge> &Edges, bool Weighted) {
  FileHandle F = openOrDie(Path, "w");
  for (const Edge &E : Edges) {
    if (Weighted)
      std::fprintf(F.get(), "%u %u %d\n", E.Src, E.Dst, E.W);
    else
      std::fprintf(F.get(), "%u %u\n", E.Src, E.Dst);
  }
}

EdgeListFile graphit::readDimacsGraph(const std::string &Path) {
  FileHandle F = openOrDie(Path, "r");
  EdgeListFile Result;
  Result.Weighted = true;
  std::string Line;
  while (readLine(F.get(), Line)) {
    if (Line.empty() || Line[0] == 'c')
      continue;
    if (Line[0] == 'p') {
      long long N = 0, M = 0;
      if (std::sscanf(Line.c_str(), "p sp %lld %lld", &N, &M) != 2)
        fatalError("malformed DIMACS problem line");
      Result.NumNodes = N;
      Result.Edges.reserve(static_cast<size_t>(M));
      continue;
    }
    if (Line[0] == 'a') {
      uint64_t Src, Dst;
      long long W;
      if (std::sscanf(Line.c_str(), "a %" SCNu64 " %" SCNu64 " %lld", &Src,
                      &Dst, &W) != 3)
        fatalError("malformed DIMACS arc line");
      if (Src == 0 || Dst == 0)
        fatalError("DIMACS vertices are 1-indexed");
      Edge E{static_cast<VertexId>(Src - 1),
             static_cast<VertexId>(Dst - 1), static_cast<Weight>(W)};
      noteEndpoint(Result, E.Src);
      noteEndpoint(Result, E.Dst);
      Result.Edges.push_back(E);
      continue;
    }
    fatalError("unrecognized DIMACS line");
  }
  return Result;
}

void graphit::writeDimacsGraph(const std::string &Path, Count NumNodes,
                               const std::vector<Edge> &Edges) {
  FileHandle F = openOrDie(Path, "w");
  std::fprintf(F.get(), "p sp %lld %lld\n",
               static_cast<long long>(NumNodes),
               static_cast<long long>(Edges.size()));
  for (const Edge &E : Edges)
    std::fprintf(F.get(), "a %u %u %d\n", E.Src + 1, E.Dst + 1, E.W);
}

Coordinates graphit::readDimacsCoordinates(const std::string &Path,
                                           Count NumNodes) {
  FileHandle F = openOrDie(Path, "r");
  Coordinates Coords;
  Coords.X.assign(static_cast<size_t>(NumNodes), 0.0);
  Coords.Y.assign(static_cast<size_t>(NumNodes), 0.0);
  std::string Line;
  while (readLine(F.get(), Line)) {
    if (Line.empty() || Line[0] != 'v')
      continue;
    uint64_t Id;
    double X, Y;
    if (std::sscanf(Line.c_str(), "v %" SCNu64 " %lf %lf", &Id, &X, &Y) != 3)
      fatalError("malformed DIMACS coordinate line");
    if (Id == 0 || static_cast<Count>(Id) > NumNodes)
      fatalError("DIMACS coordinate vertex out of range");
    Coords.X[Id - 1] = X;
    Coords.Y[Id - 1] = Y;
  }
  return Coords;
}

void graphit::writeDimacsCoordinates(const std::string &Path,
                                     const Coordinates &Coords) {
  FileHandle F = openOrDie(Path, "w");
  for (Count I = 0; I < Coords.size(); ++I)
    std::fprintf(F.get(), "v %lld %.9f %.9f\n",
                 static_cast<long long>(I + 1), Coords.X[I], Coords.Y[I]);
}

namespace {

constexpr uint64_t kBinaryMagic = 0x4752495447524448ULL; // "GRITGRDH"

template <typename T>
void writeVec(std::FILE *F, const std::vector<T> &V) {
  uint64_t N = V.size();
  std::fwrite(&N, sizeof(N), 1, F);
  if (N)
    std::fwrite(V.data(), sizeof(T), N, F);
}

template <typename VecT> VecT readVec(std::FILE *F) {
  uint64_t N = 0;
  if (std::fread(&N, sizeof(N), 1, F) != 1)
    fatalError("truncated binary graph");
  VecT V(N);
  if (N && std::fread(V.data(), sizeof(typename VecT::value_type), N, F) != N)
    fatalError("truncated binary graph");
  return V;
}

/// Checks that a binary image's out-CSR holds together before any offset
/// is narrowed to `EdgeOffset` or used as an index; each failure names its
/// check.
void checkBinaryImage(uint64_t NumNodes, uint64_t NumEdges,
                      const std::vector<int64_t> &Offsets,
                      const CsrArray<VertexId> &Neighbors,
                      const std::vector<Weight> &Weights,
                      const Coordinates &Coords) {
  if (Offsets.empty() || Offsets.size() - 1 != NumNodes)
    fatalError("binary graph: offset count != vertex count + 1");
  if (Offsets[0] != 0)
    fatalError("binary graph: first offset is not 0");
  for (size_t V = 0; V < NumNodes; ++V)
    if (Offsets[V + 1] < Offsets[V])
      fatalError("binary graph: offsets decrease");
  const int64_t Last = Offsets.back();
  checkEdgeOffsetLimit(Last, "binary graph");
  if (static_cast<uint64_t>(Last) != Neighbors.size())
    fatalError("binary graph: last offset != neighbor count");
  if (static_cast<uint64_t>(Last) != NumEdges)
    fatalError("binary graph: last offset != header edge count");
  if (!Weights.empty() && Weights.size() != Neighbors.size())
    fatalError("binary graph: weight count != neighbor count");
  for (VertexId U : Neighbors)
    if (U >= NumNodes)
      fatalError("binary graph: neighbor id >= vertex count");
  if ((!Coords.X.empty() && Coords.X.size() != NumNodes) ||
      (!Coords.Y.empty() && Coords.Y.size() != NumNodes))
    fatalError("binary graph: coordinate count != vertex count");
}

} // namespace

void graphit::saveBinaryGraph(const Graph &G, const std::string &Path) {
  FileHandle F = openOrDie(Path, "wb");
  std::fwrite(&kBinaryMagic, sizeof(kBinaryMagic), 1, F.get());
  uint64_t Header[3] = {static_cast<uint64_t>(G.numNodes()),
                        static_cast<uint64_t>(G.numEdges()),
                        static_cast<uint64_t>(G.isSymmetric())};
  std::fwrite(Header, sizeof(Header), 1, F.get());
  // Round-trip through the public API to avoid friending IO internals for
  // writes; reconstruct the flat arrays.
  std::vector<int64_t> OutOffsets(G.numNodes() + 1, 0);
  std::vector<VertexId> OutNeighbors;
  std::vector<Weight> OutWeights;
  OutNeighbors.reserve(static_cast<size_t>(G.numEdges()));
  for (Count V = 0; V < G.numNodes(); ++V) {
    OutOffsets[V + 1] = OutOffsets[V] + G.outDegree(static_cast<VertexId>(V));
    for (WNode E : G.outNeighbors(static_cast<VertexId>(V))) {
      OutNeighbors.push_back(E.V);
      if (G.isWeighted())
        OutWeights.push_back(E.W);
    }
  }
  writeVec(F.get(), OutOffsets);
  writeVec(F.get(), OutNeighbors);
  writeVec(F.get(), OutWeights);
  writeVec(F.get(), G.coordinates().X);
  writeVec(F.get(), G.coordinates().Y);
}

Graph graphit::loadBinaryGraph(const char *Path) {
  FileHandle F = openOrDie(Path, "rb");
  uint64_t Magic = 0;
  if (std::fread(&Magic, sizeof(Magic), 1, F.get()) != 1 ||
      Magic != kBinaryMagic)
    fatalError("not a graphit binary graph");
  uint64_t Header[3];
  if (std::fread(Header, sizeof(Header), 1, F.get()) != 1)
    fatalError("truncated binary graph");

  auto OutOffsets = readVec<std::vector<int64_t>>(F.get());
  auto OutNeighbors = readVec<CsrArray<VertexId>>(F.get());
  auto OutWeights = readVec<std::vector<Weight>>(F.get());
  Coordinates Coords;
  Coords.X = readVec<std::vector<double>>(F.get());
  Coords.Y = readVec<std::vector<double>>(F.get());
  checkBinaryImage(Header[0], Header[1], OutOffsets, OutNeighbors,
                   OutWeights, Coords);

  // Rebuild through the CSR fields directly (friend access). The on-disk
  // format keeps 64-bit offsets and split id/weight arrays; offsets are
  // narrowed and weighted rows interleaved into the in-memory layout here.
  Graph G;
  G.NumNodes = static_cast<Count>(Header[0]);
  G.NumEdges = static_cast<Count>(Header[1]);
  G.Symmetric = Header[2] != 0;
  G.Weighted = !OutWeights.empty();
  G.Out.Offsets.assign(OutOffsets.begin(), OutOffsets.end());
  if (G.Weighted) {
    G.Out.Adj.resize(OutNeighbors.size());
    for (size_t I = 0; I < OutNeighbors.size(); ++I)
      G.Out.Adj[I] = WNode{OutNeighbors[I], OutWeights[I]};
  } else {
    G.Out.Ids = std::move(OutNeighbors);
  }
  G.Coords = std::move(Coords);
  if (!G.Symmetric) {
    // Rebuild incoming adjacency from the edge list.
    std::vector<Edge> Edges;
    Edges.reserve(static_cast<size_t>(G.NumEdges));
    for (Count V = 0; V < G.NumNodes; ++V)
      for (WNode E : G.outNeighbors(static_cast<VertexId>(V)))
        Edges.push_back(Edge{static_cast<VertexId>(V), E.V, E.W});
    BuildOptions Options;
    Options.RemoveSelfLoops = false;
    Options.RemoveDuplicates = false;
    Options.Weighted = G.Weighted;
    Graph Rebuilt = GraphBuilder(Options).build(G.NumNodes, std::move(Edges));
    G.In = std::move(Rebuilt.In);
  }
  return G;
}

Graph graphit::loadBinaryGraphReordered(const std::string &Path,
                                        ReorderKind Reorder,
                                        VertexMapping *MapOut,
                                        VertexId SourceHint) {
  return reorderLoadedGraph(loadBinaryGraph(Path), Reorder, MapOut,
                            /*Seed=*/0x0EDE5, SourceHint);
}
