//===- perfbench/src/Trace.h - In-memory spans around library calls -------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. Spans are recorded by the benchmark around its
/// own calls into the library's public functions — nothing is traced
/// inside src/. A span carries its name (`layer.call`), start and end,
/// the operation it belongs to, and the span that was open on the same
/// thread when it began (its parent). Spans live in per-thread buffers
/// until the run ends; `write` dumps them, `summarize` turns them into
/// per-name counts, total time and self time (duration minus the part
/// covered by child spans).
///
/// With tracing off a `ScopedSpan` is one predictable branch: no clock
/// read, no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = nullptr; ///< string literal: "layer.call"
  int64_t StartNs = 0;        ///< steady_clock, ns since the trace epoch
  int64_t EndNs = 0;
  uint64_t Op = 0;     ///< operation id (0 = not part of an operation)
  uint64_t Id = 0;     ///< unique, > 0
  uint64_t Parent = 0; ///< enclosing span on the same thread, 0 = root
};

/// Per-name totals over every recorded span.
struct SpanSummary {
  uint64_t Count = 0;
  double TotalSeconds = 0;
  double SelfSeconds = 0;
};

namespace trace {

/// Turns recording on or off for spans opened afterwards.
void setEnabled(bool On);
bool enabled();

/// Every span recorded so far, across threads. Call only while no
/// thread is recording.
std::vector<Span> collect();

/// The trace clock: steady_clock nanoseconds since the trace epoch.
int64_t nowNs();

/// Durations in seconds of the spans named \p Name that start inside
/// [\p FromNs, \p ToNs) on the trace clock.
std::vector<double> durations(const std::vector<Span> &Spans,
                              const char *Name, int64_t FromNs = 0,
                              int64_t ToNs = INT64_MAX);

/// Count, total and self time per span name.
std::map<std::string, SpanSummary> summarize(const std::vector<Span> &Spans);

/// Writes the spans as CSV (name,start_ns,end_ns,op,id,parent).
/// \returns false if the file could not be written.
bool write(const std::vector<Span> &Spans, const std::string &Path);

} // namespace trace

/// Records one span from construction to destruction when tracing is on.
/// \p Op 0 inherits the operation of the enclosing span.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, uint64_t Op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Span S;
  uint64_t SavedOp = 0;
  bool Active = false;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
