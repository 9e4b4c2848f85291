//===- service/ServingPolicy.h - Admission, batching, control -*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving tier's time-dependent policy, kept apart from the mechanism
/// that carries it out — as GraphIt keeps an algorithm apart from its
/// schedule. `ServingPolicy` owns the pending queue and decides:
///
///  * admission — which query sheds past the high-water mark;
///  * soft-water degradation — which queries get an imposed deadline, from
///    the class SLO or a per-(kind × class) EWMA of service times;
///  * the adaptive batch window — how many queued queries a worker takes;
///  * the AIMD feedback controller that moves those three knobs.
///
/// It is single-threaded and deterministic: it starts no thread, takes no
/// lock, and reads no clock — every time-dependent call takes `now` as an
/// argument. `BasicQueryEngine` (service/QueryEngine.h) calls it under its
/// queue mutex with `steady_clock::now()`; tests replay arrival and
/// completion traces through it with a hand-advanced clock.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SERVICE_SERVINGPOLICY_H
#define GRAPHIT_SERVICE_SERVINGPOLICY_H

#include "core/Schedule.h"
#include "support/LatencyHistogram.h"
#include "support/Types.h"

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace graphit {
namespace service {

/// Which algorithm a query runs.
enum class QueryKind { SSSP, PPSP, AStar };

/// How a query's lifetime ended. Anything but `Ok` is a *typed, non-fatal*
/// outcome — overload and expiry are expected operating conditions for a
/// serving process, never reasons to crash or to block a caller forever.
enum class QueryStatus : uint8_t {
  Ok,               ///< ran to completion (possibly budget-bounded)
  DeadlineExceeded, ///< interrupted at a round boundary; partial results
  Shed,             ///< rejected by admission control without running
  Failed,           ///< malformed request (out-of-range source/target)
};

/// Importance classes tracked for per-class SLOs, counters, and the
/// degradation EWMA. Queries map to a class through importanceClass():
/// class 0 is the *most* important tier (the ops "tier-0" convention),
/// class kNumImportanceClasses-1 the least. `Query::Importance` keeps its
/// historical meaning (higher = more important, sheds last).
inline constexpr int kNumImportanceClasses = 4;

/// Importance → class index. Importance saturates at
/// kNumImportanceClasses-1, so every importance above that shares class 0
/// and negatives clamp into the least-important class.
inline int importanceClass(int Importance) {
  if (Importance < 0)
    Importance = 0;
  if (Importance >= kNumImportanceClasses)
    Importance = kNumImportanceClasses - 1;
  return kNumImportanceClasses - 1 - Importance;
}

/// One feedback-controller tick, exported through controllerTrace() so
/// benches and tests can print or assert on the trajectory: the windowed
/// per-class p99s the tick observed, the knob values *after* its action,
/// and the action itself.
struct ControllerEvent {
  uint64_t Tick = 0;            ///< 1-based tick ordinal
  int Action = 0;               ///< -1 tightened, 0 held, +1 relaxed
  int64_t BatchDelayMicros = 0; ///< knob values after the action
  uint64_t HighWater = 0;
  uint64_t SoftWater = 0;
  /// Windowed p99 per class since the previous tick (0 = no samples).
  std::array<uint64_t, kNumImportanceClasses> WindowP99Micros{};
  /// Windowed Ok completions per class since the previous tick.
  std::array<uint64_t, kNumImportanceClasses> WindowCount{};
};

/// One point(-to-point) query against the engine's graph snapshot.
struct Query {
  QueryKind Kind = QueryKind::PPSP;
  VertexId Source = 0;
  /// Required for PPSP/A*; ignored for SSSP.
  VertexId Target = kInvalidVertex;
  /// Per-query schedule override; the engine default applies when absent.
  std::optional<Schedule> Sched;
  /// SSSP only: return the (vertex, distance) pairs of every reached
  /// vertex, sorted by vertex id (O(touched) extra work: the state visits
  /// its reached vertices in id order).
  bool CollectReached = false;
  /// PPSP/A* with parent tracking enabled: return the shortest path.
  bool CollectPath = false;
  /// Wall-clock deadline in microseconds, measured from submit() (so time
  /// spent queued counts). 0 = none. An expired query resolves with
  /// `QueryStatus::DeadlineExceeded` and only *settled* partial results —
  /// the engines check the clock once per bucket round, so enforcement
  /// granularity is one round, not one edge relaxation.
  int64_t DeadlineMicros = 0;
  /// PPSP/A* only: stop once every distance below this bound is settled
  /// (the target, if closer, is still reported exactly). A budget stop is
  /// a normal `Ok` completion with `SettledBound` set.
  Priority MaxDistance = kInfiniteDistance;
  /// Admission priority under overload: past the high-water mark the
  /// engine sheds the lowest-importance work first (ties shed the
  /// incoming query). Irrelevant until `AdmissionHighWater` is set.
  int Importance = 0;
};

/// The serving policy (see the file comment). Not thread-safe: its owner
/// serializes every call (BasicQueryEngine holds its queue mutex).
class ServingPolicy {
public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Largest number of queries one worker runs per formed batch.
  static constexpr size_t kMaxBatchSize = 16;
  /// Smallest non-zero batch window: far below a query's service time, so
  /// the first adaptation step costs next to nothing.
  static constexpr int64_t kBatchWindowFloorMicros = 50;
  /// An SLO-less class's degraded budget is this fraction of its own
  /// (kind, class) EWMA...
  static constexpr double kDegradeFactor = 0.5;
  /// ...and no imposed deadline is shorter than this, so a small EWMA or
  /// SLO never degrades a query into a zero-work rejection.
  static constexpr int64_t kDegradeFloorMicros = 500;
  /// Windowed completions a class needs before its p99 counts as evidence
  /// for a miss or for slack; thinner windows hold.
  static constexpr uint64_t kControllerMinSamples = 16;
  /// A class has slack when its windowed p99 is below this fraction of its
  /// SLO, and the controller relaxes only after this many consecutive
  /// all-slack ticks. Both damp the relax side: the quantized knob ladder
  /// need not have a state whose p99 sits inside a narrow dead band, and
  /// with 0.7 and 2 the service bench's overload point limit-cycled (relax
  /// probe, tighten correction, repeat). A wide dead band and a longer
  /// hysteresis make relax probes rare once the tight state holds the
  /// target.
  static constexpr double kControllerSlackFraction = 0.45;
  static constexpr int kControllerHysteresisTicks = 4;
  /// Floors the controller tightens the watermarks down to (the batch
  /// delay tightens to 0). A watermark's floor is min(its constant, its
  /// configured value), so a configured value below the constant never
  /// moves.
  static constexpr size_t kControllerMinHighWater = 32;
  static constexpr size_t kControllerMinSoftWater = 16;
  /// Controller ticks kept for controllerTrace().
  static constexpr size_t kControllerTraceCap = 256;

  /// The policy's settings; `BasicQueryEngine::Options` inherits them, so
  /// an engine caller sets these fields on its Options directly.
  struct Config {
    /// Adaptive batch formation (0 disables, the default): when the
    /// pending queue stays non-empty, each worker's batch-formation
    /// window doubles (from kBatchWindowFloorMicros) up to this many
    /// microseconds, letting it drain up to kMaxBatchSize queued queries
    /// and publish their results under one lock acquisition; the moment a
    /// worker sees the queue drained the window collapses back to zero,
    /// so an idle engine adds no latency. Bounds the extra p99 a queued
    /// query can pay to one window.
    int64_t MaxBatchDelayMicros = 0;
    /// Admission control: when the pending queue holds at least this many
    /// queries, submitting one more sheds the lowest-importance pending
    /// query (or the incoming one, on ties) as `QueryStatus::Shed` —
    /// typed, immediate, never silent. 0 disables shedding (unbounded
    /// queue).
    size_t AdmissionHighWater = 0;
    /// Graceful degradation: when the pending queue holds at least this
    /// many queries, PPSP/A* queries *without their own deadline* get one
    /// imposed — their class SLO, or kDegradeFactor × their own (kind,
    /// class) EWMA of recent service times, floored at
    /// kDegradeFloorMicros — and their results are marked `Degraded`.
    /// Bounded work under pressure beats shedding; SSSP is exempt (its
    /// full solution is what warms the hot cache). 0 disables.
    size_t AdmissionSoftWater = 0;
    /// Per-class p99 latency targets in microseconds, indexed by
    /// importance class (importanceClass(); class 0 = most important).
    /// 0 = no target for that class. A target does two things: soft-water
    /// degradation imposes the target itself (never below
    /// kDegradeFloorMicros), and the feedback controller treats a
    /// targeted class's windowed p99 above its target as an SLO miss.
    std::array<int64_t, kNumImportanceClasses> ClassSlo = {};
    /// Feedback-controller cadence in microseconds; 0 disables the
    /// controller (knobs stay at their configured values). Each tick
    /// reads per-class windowed p99s and moves MaxBatchDelayMicros and
    /// the admission watermarks AIMD-style: additive tighten while any
    /// targeted class misses its SLO, multiplicative relax toward the
    /// configured values when every targeted class has slack.
    int64_t ControllerIntervalMicros = 0;
  };

  /// A pending query.
  struct Task {
    uint64_t Ticket = 0;
    Query Q;
    /// Admission time; deadlines are measured from here so queueing
    /// delay counts against the budget.
    TimePoint Enqueued;
    /// Effective deadline (the query's own, or one imposed by soft-water
    /// degradation); 0 = none.
    int64_t DeadlineMicros = 0;
    bool Degraded = false;
    /// importanceClass(Q.Importance).
    int Class = 0;
  };

  /// What the policy counted, and the knob values in force.
  struct Counters {
    /// Per importance class (index = importanceClass()): completed
    /// queries (any status), sheds, DeadlineExceeded completions, and
    /// degraded admissions (counted whether or not the imposed deadline
    /// fired).
    std::array<uint64_t, kNumImportanceClasses> ServedInClass{};
    std::array<uint64_t, kNumImportanceClasses> ShedInClass{};
    std::array<uint64_t, kNumImportanceClasses> DeadlineExceededInClass{};
    std::array<uint64_t, kNumImportanceClasses> DegradedInClass{};
    /// Degradation EWMA in microseconds, indexed [QueryKind][class]; 0
    /// until the cell's first un-degraded Ok completion.
    std::array<std::array<double, kNumImportanceClasses>, 3> EwmaMicros{};
    uint64_t ControllerTicks = 0;
    uint64_t ControllerTightens = 0;
    uint64_t ControllerRelaxes = 0;
    /// The knobs in force: the configured values until the controller
    /// moves them.
    int64_t BatchDelayMicros = 0;
    size_t HighWater = 0;
    size_t SoftWater = 0;
    /// The widest batch window ever opened.
    int64_t MaxBatchWindowMicros = 0;

    /// Sums over the classes.
    uint64_t served() const { return sum(ServedInClass); }
    uint64_t shed() const { return sum(ShedInClass); }
    uint64_t deadlinesExceeded() const { return sum(DeadlineExceededInClass); }
    uint64_t degraded() const { return sum(DegradedInClass); }

  private:
    static uint64_t
    sum(const std::array<uint64_t, kNumImportanceClasses> &PerClass) {
      uint64_t Total = 0;
      for (uint64_t N : PerClass)
        Total += N;
      return Total;
    }
  };

  /// \p Now starts the first controller interval.
  ServingPolicy(const Config &C, TimePoint Now);

  /// Admission control and degradation for an incoming query at \p Now.
  /// Past the high-water mark something must give: the lowest-importance
  /// pending query sheds, or the incomer when nothing pending is strictly
  /// less important (queued work has already waited); among the
  /// equally-least-important pending queries the newest sheds, for the
  /// same reason. An enqueued query past the soft-water mark may get an
  /// imposed deadline (see Config::AdmissionSoftWater). Returns the ticket
  /// that resolves Shed — \p Ticket itself (the incomer was not enqueued)
  /// or a pending victim's — and 0 (never a ticket) when nothing shed.
  uint64_t admit(uint64_t Ticket, Query Q, TimePoint Now);

  /// Pending queries.
  size_t queueDepth() const { return Pending.size(); }
  /// Removes and returns the oldest pending query; the queue must not be
  /// empty.
  Task dequeue();

  /// Batch formation: a worker dequeues one query, then — while the
  /// window is open — keeps dequeuing until its batch holds batchLimit()
  /// queries or batchWindowMicros() have passed, and then calls
  /// batchFormed(). A closed window (0) makes the limit 1.
  size_t batchLimit() const;
  int64_t batchWindowMicros() const { return BatchWindow; }
  /// Grows the window (doubling, capped by the batch delay in force) when
  /// the batch left the queue non-empty; closes it when the queue drained.
  void batchFormed();

  /// Counts a finished query and feeds its own (kind, class) EWMA with
  /// \p ServiceMicros when it completed Ok without being degraded.
  void completed(const Task &T, QueryStatus Status, double ServiceMicros);

  /// Runs one controller tick when the controller is enabled and an
  /// interval has passed since the last one: reads each class's windowed
  /// p99 from \p ClassLatency (end-to-end latencies of Ok completions,
  /// cumulative — the policy keeps the previous snapshots) and moves the
  /// knobs. A no-op otherwise.
  void maybeTick(
      TimePoint Now,
      const std::array<LatencyHistogram, kNumImportanceClasses> &ClassLatency);

  const Counters &counters() const { return C; }
  /// The most recent controller ticks, oldest first (at most
  /// kControllerTraceCap).
  std::vector<ControllerEvent> controllerTrace() const {
    return std::vector<ControllerEvent>(Trace.begin(), Trace.end());
  }

private:
  const Config Cfg;
  std::deque<Task> Pending;
  Counters C;
  int64_t BatchWindow = 0;
  TimePoint NextTick;
  /// Previous tick's per-class snapshots; windowSince() against these
  /// yields the per-interval view without resetting live histograms.
  std::array<LatencyHistogram::Snapshot, kNumImportanceClasses> Prev{};
  int SlackStreak = 0;
  std::deque<ControllerEvent> Trace;
};

} // namespace service
} // namespace graphit

#endif // GRAPHIT_SERVICE_SERVINGPOLICY_H
