//===- perfbench/src/Report.h - One run's configuration and record --------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a workload receives (`RunConfig`) and what it hands back
/// (`RunRecord`): operation counts, run metadata, end-to-end metrics and,
/// in a traced run, per-layer metrics. `printRecord` writes the record as
/// one JSON line, which perfbench/run.py turns into the benchmark's
/// output.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include "Trace.h"

#include "core/OrderedProcess.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpeedProbe;

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Test scale: small graphs, one set-up, same code paths.
  bool Tiny = false;
  /// Test hook: falsify one checked answer so the oracle must catch it.
  bool Corrupt = false;
};

/// Set-ups per run (one at test scale); setup_s is their median.
inline int setupRepeats(const RunConfig &C) { return C.Tiny ? 1 : 5; }

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunRecord {
  uint64_t Attempted = 0; ///< measured operations started
  uint64_t Ok = 0;        ///< of those, Ok and matching the oracle
  uint64_t Failed = 0;    ///< non-Ok status or oracle mismatch
  uint64_t Warmup = 0;    ///< operations run before the window (in setup_s)
  uint64_t OracleChecked = 0;
  uint64_t OracleMismatches = 0;
  /// Workload-specific counts (writer batches, probe samples, ...).
  std::vector<std::pair<std::string, double>> Counts;
  std::vector<std::pair<std::string, std::string>> Meta;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layers;
  std::vector<Span> Spans;

  void count(const std::string &Name, double V) { Counts.emplace_back(Name, V); }
  void meta(const std::string &Name, const std::string &V) {
    Meta.emplace_back(Name, V);
  }
  void endToEnd(const std::string &Name, double V, const std::string &Unit) {
    EndToEnd.push_back({Name, V, Unit});
  }
  void layer(const std::string &Name, double V, const std::string &Unit) {
    Layers.push_back({Name, V, Unit});
  }
};

/// Nearest-rank percentile of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
double mean(const std::vector<double> &V);

/// Heap bytes in use (arena + mmapped), as the allocator reports them.
double heapMegabytes();

/// 64-bit FNV-1a style mixing, used for operation-list checksums.
struct Checksum {
  uint64_t H = 0xcbf29ce484222325ULL;
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  std::string hex() const;
};

/// Hash of a whole distance (or coreness) vector.
uint64_t hashVector(const std::vector<int64_t> &V);

inline double secondsSince(std::chrono::steady_clock::time_point T) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T)
      .count();
}

/// The per-role thread counts every record carries.
struct ThreadRoles {
  int Workers = 0, OmpPerQuery = 0, Clients = 0, Writer = 0, WriterOmp = 0,
      KernelOmp = 0;
};

/// Seed, nproc, threads per role, graph size and the operation-list
/// checksum: the metadata every record carries.
void addRunMeta(RunRecord &R, const RunConfig &C, const ThreadRoles &T,
                uint64_t GraphV, uint64_t GraphE, const std::string &OpsSum);

/// What every workload measures, whatever its operations are.
struct Measured {
  std::vector<double> SetupCpu;  ///< CPU seconds of each set-up
  std::vector<double> SetupWall; ///< wall seconds of each set-up
  double OpCpu = 0;              ///< CPU seconds of one operation
  std::vector<double> OkLatency; ///< wall seconds of each Ok operation
  double WindowSeconds = 0;      ///< wall length of the measured window
  double HeapMb = 0;
};

/// Records the end-to-end metrics. Gated (BENCHMARK.json): setup_s and
/// op_cpu_ms, CPU times each divided by the slowdown of the probe samples
/// taken around it (after the set-ups, or in the window), and heap_mb.
/// Printed alongside, as wall-clock times that follow the neighbours'
/// load: p50_ms, ops_per_s and setup_wall_s.
void reportEndToEnd(RunRecord &R, const Measured &M,
                    const SpeedProbe &SetupProbe,
                    const SpeedProbe &WindowProbe);

/// OrderedStats counts accumulated over SSSP runs: the `core` layer.
struct CoreCounts {
  double Runs = 0, Rounds = 0, Fused = 0, Processed = 0, Reached = 0;
  /// One run that reached \p Reach vertices.
  void add(const graphit::OrderedStats &S, double Reach);
  /// Per-run means of the counts, and processed over reached.
  void report(RunRecord &R) const;
};

/// graph.generate_s and graph.build_s: the median graph generator and
/// GraphBuilder::build call over the spans in \p R.
void reportGraphLayers(RunRecord &R);

/// Prints \p R as one JSON line on stdout.
void printRecord(const RunConfig &C, const RunRecord &R);

RunRecord runRoadLive(const RunConfig &C);
RunRecord runRoadSssp(const RunConfig &C);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
