//===- perfbench/src/Speed.h - CPU clocks and the machine-speed probe -----===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's gated times are CPU times at a reference machine speed.
///
/// On a shared virtual machine, wall time measures the neighbours as much
/// as the program: a vCPU the hypervisor takes away stalls every OpenMP
/// barrier, and one lost vCPU made a 4-thread road solve 7x slower in wall
/// time. CPU time, with OpenMP threads that sleep rather than spin while
/// they wait (OMP_WAIT_POLICY=passive), leaves stolen and idle time out.
///
/// What CPU time still carries is the speed of a core while it runs, which
/// drifts by up to 2x over minutes with the neighbours' use of the shared
/// cache and the core clock. `SpeedProbe` measures that drift with fixed
/// code on a fixed input that do not use the library. Its median CPU time,
/// divided by its reference value, is a slowdown; each workload keeps one
/// probe for its set-ups and one for its measured window, and divides each
/// gated time by the slowdown of the samples taken around it.
///
/// The probe runs only while the measured code is idle: after a set-up,
/// between two solves, or in a pause of the serving window that holds
/// every client and the writer. Run beside the measured code, it would
/// slow with that code's own use of the shared cache, and part of a
/// library change would be divided out of the gated time.
///
/// A probe corrects a workload only as far as the neighbours slow both
/// alike, and the workloads differ. Across quiet and contended periods:
///  * road_live's CPU per query rose by up to 76%: its queries reuse a
///    small working set that the neighbours evict. A dependent walk over a
///    16 MiB cycle plus a run of integer arithmetic (cache latency and core
///    clock, `Kind::CacheWalk`) moved with it: over six runs that went
///    from a quiet to a contended period, the raw CPU per query spread
///    0.28 (quartile distance over median) and the corrected one 0.05.
///    Under heavy host load it rose by up to 65% while no idle-time probe
///    rose by more than 40%; there the correction falls short.
///  * road_sssp's CPU per solve rose by 17-28%: it streams through a graph
///    far larger than any private cache. The walk over-corrected it by 25%;
///    a textbook binary-heap Dijkstra over a 200x200 grid
///    (`Kind::Dijkstra`) slowed by about as much as it did.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPEED_H
#define PERFBENCH_SPEED_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU seconds used so far by the whole process (every thread).
double processCpuSeconds();
/// CPU seconds used so far by the calling thread.
double threadCpuSeconds();

/// Probe samples taken after each set-up.
constexpr int kProbesPerSetup = 4;

class SpeedProbe {
public:
  enum class Kind { CacheWalk, Dijkstra };

  explicit SpeedProbe(Kind K);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe &) = delete;
  SpeedProbe &operator=(const SpeedProbe &) = delete;

  /// Runs the probe once on the calling thread and records its CPU time.
  /// Not thread-safe: one thread samples.
  void sample();

  /// Median probe CPU time over its reference value: above 1 when the
  /// machine ran slower than the reference. 1 before the first sample.
  double slowdown() const;
  const char *name() const;
  size_t samples() const { return Seconds.size(); }
  double medianSeconds() const;

private:
  /// A heap entry; trivial, so it can live in the mmap'd block.
  struct Entry {
    uint64_t D;
    uint32_t V;
  };

  void walk();
  void dijkstra();

  Kind K;
  /// One mmap'd block, so heap_mb does not count the probe: the walk's
  /// cycle, or the grid's CSR arrays, distances and heap.
  char *Arena = nullptr;
  size_t Bytes = 0;
  uint32_t *Cycle = nullptr;
  uint64_t Sink = 0;
  uint32_t *Offsets = nullptr, *Targets = nullptr, *Weights = nullptr;
  uint64_t *Dist = nullptr;
  Entry *Heap = nullptr;
  std::vector<double> Seconds;
};

} // namespace perfbench

#endif // PERFBENCH_SPEED_H
