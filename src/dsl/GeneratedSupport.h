//===- dsl/GeneratedSupport.h - Support for generated programs -*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The part of a generated program's `main` that is the same for every
/// program (dsl/CodeGen.h): checking command-line input, loading vertex
/// data, and printing the result report. Only generated programs and the
/// tests that read their reports include it, so nothing here is compiled
/// into the library. Input errors print one line to stderr and exit with
/// status 1.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_DSL_GENERATEDSUPPORT_H
#define GRAPHIT_DSL_GENERATEDSUPPORT_H

#include "core/OrderedProcess.h"
#include "graph/Graph.h"
#include "support/Random.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace graphit {
namespace gen {

/// Prints one line to stderr and ends the program with status 1.
[[noreturn]] __attribute__((format(printf, 1, 2))) inline void
failInput(const char *Format, ...) {
  va_list Args;
  va_start(Args, Format);
  std::vfprintf(stderr, Format, Args);
  va_end(Args);
  std::fputc('\n', stderr);
  // Input checks run in main, outside every parallel region.
  std::exit(1); // NOLINT(concurrency-mt-unsafe)
}

/// Exits with `usage: <argv[0]> <Usage>` unless the program was given at
/// least \p Needed arguments after its name.
inline void checkArgCount(int Argc, char **Argv, int Needed,
                          const char *Usage) {
  if (Argc <= Needed)
    failInput("usage: %s%s", Argc > 0 ? Argv[0] : "program", Usage);
}

/// `atoi(Text)`: \p Text as a whole, optionally signed, decimal integer.
/// Exits naming \p Name, the declaration that reads it, on anything else
/// (empty, a trailing or leading non-digit, or past 64 bits).
inline int64_t integerArgument(const char *Text, const char *Name) {
  const char *Digits = Text + (*Text == '+' || *Text == '-');
  bool Whole = *Digits != '\0';
  for (const char *C = Digits; *C; ++C)
    Whole &= *C >= '0' && *C <= '9';
  errno = 0;
  const long long V = Whole ? std::strtoll(Text, nullptr, 10) : 0;
  if (!Whole || errno == ERANGE)
    failInput("error: %s must be a decimal integer, got '%s'", Name, Text);
  return V;
}

/// \p V as a vertex id; exits naming \p V and \p NumNodes unless
/// 0 <= V < NumNodes.
inline VertexId checkedVertex(int64_t V, size_t NumNodes) {
  if (V < 0 || static_cast<uint64_t>(V) >= NumNodes)
    failInput("error: vertex %lld is out of range: the graph has %zu "
              "vertices",
              static_cast<long long>(V), NumNodes);
  return static_cast<VertexId>(V);
}

/// Out-degree of every vertex (`edges.getOutDegrees()`).
inline std::vector<Priority> outDegrees(const Graph &G) {
  std::vector<Priority> D(static_cast<size_t>(G.numNodes()));
  for (Count V = 0; V < G.numNodes(); ++V)
    D[V] = G.outDegree(static_cast<VertexId>(V));
  return D;
}

/// `load_vertex_data(path)`: exactly \p NumNodes whitespace-separated
/// integers, one per vertex. Exits if the file cannot be opened or does
/// not hold one integer per vertex.
inline std::vector<Priority> loadVertexData(const char *Path,
                                            Count NumNodes) {
  std::FILE *F = std::fopen(Path, "r");
  if (!F)
    failInput("error: cannot open vertex data file '%s'", Path);
  std::vector<Priority> D(static_cast<size_t>(NumNodes));
  Count Read = 0;
  long long V = 0;
  while (Read < NumNodes && std::fscanf(F, "%lld", &V) == 1)
    D[Read++] = V;
  char Next = 0;
  const bool More = Read == NumNodes && std::fscanf(F, " %c", &Next) == 1;
  std::fclose(F);
  if (Read < NumNodes || More)
    failInput("error: vertex data file '%s' must hold one integer per "
              "vertex: read %lld of %lld%s",
              Path, static_cast<long long>(Read),
              static_cast<long long>(NumNodes), More ? ", then more" : "");
  return D;
}

/// Prints `[Label] rounds=R fused=F` for an ordered loop, plus the early
/// exit vertex and its final priority when \p StopVertex is valid.
inline void reportLoop(const char *Label, const OrderedStats &Stats,
                       VertexId StopVertex = kInvalidVertex,
                       Priority StopPriority = 0) {
  std::printf("[%s] rounds=%lld fused=%lld", Label,
              static_cast<long long>(Stats.Rounds),
              static_cast<long long>(Stats.FusedRounds));
  if (StopVertex != kInvalidVertex)
    std::printf(" stop_vertex=%u stop_priority=%lld", StopVertex,
                static_cast<long long>(StopPriority));
  std::printf("\n");
}

/// `Name: finite=N checksum=S hash=H`: the count and sum of the finite
/// entries and an order-sensitive hash of all of them.
inline std::string vectorSummary(const std::string &Name,
                                 const std::vector<Priority> &Vec) {
  long long Sum = 0, Finite = 0;
  uint64_t Hash = 0;
  for (Priority P : Vec) {
    Hash = hash64(Hash ^ static_cast<uint64_t>(P));
    if (P >= kInfiniteDistance)
      continue;
    Sum += P;
    ++Finite;
  }
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), ": finite=%lld checksum=%lld hash=%016llx",
                Finite, Sum, static_cast<unsigned long long>(Hash));
  return Name + Buf;
}

} // namespace gen
} // namespace graphit

#endif // GRAPHIT_DSL_GENERATEDSUPPORT_H
