//===- service/ServingPolicy.cpp - Admission, batching, AIMD control ------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/ServingPolicy.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace graphit;
using namespace graphit::service;

namespace {

/// One additive-decrease step of a knob toward \p Floor: an eighth of its
/// configured value \p Ceiling (at least 1).
template <typename T> T tightenKnob(T Cur, T Floor, T Ceiling) {
  const T Step = std::max<T>(Ceiling / 8, 1);
  return Cur > Floor + Step ? Cur - Step : Floor;
}

/// One multiplicative-increase step toward \p Ceiling; \p Seed restarts a
/// knob tightened to 0.
template <typename T> T relaxKnob(T Cur, T Seed, T Ceiling) {
  return std::min(Ceiling, std::max<T>(Cur * 2, Seed));
}

} // namespace

ServingPolicy::ServingPolicy(const Config &Conf, TimePoint Now)
    : Cfg(Conf),
      NextTick(Now + std::chrono::microseconds(Conf.ControllerIntervalMicros)) {
  C.BatchDelayMicros = Cfg.MaxBatchDelayMicros;
  C.HighWater = Cfg.AdmissionHighWater;
  C.SoftWater = Cfg.AdmissionSoftWater;
}

uint64_t ServingPolicy::admit(uint64_t Ticket, Query Q, TimePoint Now) {
  uint64_t Shed = 0;
  const int Class = importanceClass(Q.Importance);
  if (C.HighWater > 0 && Pending.size() >= C.HighWater) {
    // The scan keeps updating on ties, so among the equally-least-important
    // pending queries the newest is the victim.
    auto Victim = Pending.end();
    int MinImportance = Q.Importance;
    for (auto It = Pending.begin(); It != Pending.end(); ++It)
      if (It->Q.Importance < MinImportance ||
          (Victim != Pending.end() && It->Q.Importance == MinImportance)) {
        MinImportance = It->Q.Importance;
        Victim = It;
      }
    if (Victim == Pending.end()) {
      ++C.ShedInClass[static_cast<size_t>(Class)];
      return Ticket;
    }
    ++C.ShedInClass[static_cast<size_t>(Victim->Class)];
    Shed = Victim->Ticket;
    Pending.erase(Victim);
  }

  Task T;
  T.Ticket = Ticket;
  T.Q = std::move(Q);
  T.Enqueued = Now;
  T.DeadlineMicros = T.Q.DeadlineMicros;
  T.Class = Class;
  // Graceful degradation bounds PPSP/A* queries that brought no deadline
  // of their own. A class with a p99 target gets the target itself as its
  // budget — the SLO is known a priori, so imposition does not wait for a
  // warm EWMA (and must not hand a premium class the tiny EWMA-derived
  // budget meant for bulk traffic). SLO-less classes get a fraction of the
  // recent service time of their own (kind, class) cell — a slow class must
  // not shrink another class's budget — and nothing while that cell is
  // cold.
  if (C.SoftWater > 0 && Pending.size() >= C.SoftWater &&
      T.Q.Kind != QueryKind::SSSP && T.DeadlineMicros <= 0) {
    const int64_t Slo = Cfg.ClassSlo[static_cast<size_t>(Class)];
    const double Ewma = C.EwmaMicros[static_cast<size_t>(T.Q.Kind)]
                                    [static_cast<size_t>(Class)];
    if (Slo > 0)
      T.DeadlineMicros = std::max(kDegradeFloorMicros, Slo);
    else if (Ewma > 0.0)
      T.DeadlineMicros = std::max(kDegradeFloorMicros,
                                  static_cast<int64_t>(Ewma * kDegradeFactor));
    if (T.DeadlineMicros > 0) {
      T.Degraded = true;
      ++C.DegradedInClass[static_cast<size_t>(Class)];
    }
  }
  Pending.push_back(std::move(T));
  return Shed;
}

ServingPolicy::Task ServingPolicy::dequeue() {
  assert(!Pending.empty() && "dequeue from an empty queue");
  Task T = std::move(Pending.front());
  Pending.pop_front();
  return T;
}

size_t ServingPolicy::batchLimit() const {
  return BatchWindow > 0 ? kMaxBatchSize : 1;
}

void ServingPolicy::batchFormed() {
  if (C.BatchDelayMicros <= 0)
    return;
  // Batching only ever delays queries that would have queued anyway: the
  // window grows while each batch still leaves backlog and closes the
  // moment one drains the queue.
  if (Pending.empty()) {
    BatchWindow = 0;
    return;
  }
  BatchWindow = std::min(C.BatchDelayMicros,
                         std::max(2 * BatchWindow, kBatchWindowFloorMicros));
  C.MaxBatchWindowMicros = std::max(C.MaxBatchWindowMicros, BatchWindow);
}

void ServingPolicy::completed(const Task &T, QueryStatus Status,
                              double ServiceMicros) {
  const size_t Class = static_cast<size_t>(T.Class);
  ++C.ServedInClass[Class];
  if (Status == QueryStatus::DeadlineExceeded)
    ++C.DeadlineExceededInClass[Class];
  // Cut-short runs would drag imposed deadlines toward zero, so the EWMA
  // samples only clean, un-degraded completions.
  if (Status == QueryStatus::Ok && !T.Degraded) {
    double &Ewma = C.EwmaMicros[static_cast<size_t>(T.Q.Kind)][Class];
    Ewma = Ewma == 0.0 ? ServiceMicros : 0.8 * Ewma + 0.2 * ServiceMicros;
  }
}

void ServingPolicy::maybeTick(
    TimePoint Now,
    const std::array<LatencyHistogram, kNumImportanceClasses> &ClassLatency) {
  if (Cfg.ControllerIntervalMicros <= 0 || Now < NextTick)
    return;
  NextTick = Now + std::chrono::microseconds(Cfg.ControllerIntervalMicros);
  ControllerEvent E;
  E.Tick = ++C.ControllerTicks;
  bool AnyMiss = false;
  bool SawEvidence = false; // a targeted class with a thick-enough window
  bool AllSlack = true;     // every such class comfortably under target
  for (size_t Class = 0; Class < ClassLatency.size(); ++Class) {
    const LatencyHistogram::Snapshot Cur = ClassLatency[Class].snapshot();
    const LatencyHistogram::Snapshot Win =
        LatencyHistogram::windowSince(Cur, Prev[Class]);
    Prev[Class] = Cur;
    E.WindowCount[Class] = Win.count();
    E.WindowP99Micros[Class] = Win.percentile(99);
    const int64_t Slo = Cfg.ClassSlo[Class];
    if (Slo <= 0 || Win.count() < kControllerMinSamples)
      continue; // no target, or a thin window: evidence for nothing
    SawEvidence = true;
    const uint64_t P99 = E.WindowP99Micros[Class];
    if (P99 > static_cast<uint64_t>(Slo))
      AnyMiss = true;
    else if (static_cast<double>(P99) >=
             kControllerSlackFraction * static_cast<double>(Slo))
      AllSlack = false; // dead band: under target but without slack
  }

  // AIMD with hysteresis and a dead band: a miss tightens additively at
  // once; relaxing needs kControllerHysteresisTicks consecutive all-slack
  // ticks and then doubles toward the configured ceilings; the dead band,
  // thin windows and the bounds hold. Knobs configured 0 (feature off) are
  // never touched.
  int Action = 0;
  auto Move = [&](auto &Knob, auto Next, int Dir) {
    if (Next != Knob) {
      Knob = Next;
      Action = Dir;
    }
  };
  const int64_t Delay = Cfg.MaxBatchDelayMicros;
  const size_t High = Cfg.AdmissionHighWater;
  const size_t Soft = Cfg.AdmissionSoftWater;
  if (AnyMiss) {
    SlackStreak = 0;
    if (Delay > 0) {
      Move(C.BatchDelayMicros,
           tightenKnob(C.BatchDelayMicros, int64_t{0}, Delay), -1);
      // An already-grown window shrinks with its cap.
      BatchWindow = std::min(BatchWindow, C.BatchDelayMicros);
    }
    if (High > 0)
      Move(C.HighWater,
           tightenKnob(C.HighWater, std::min(kControllerMinHighWater, High),
                       High),
           -1);
    if (Soft > 0)
      Move(C.SoftWater,
           tightenKnob(C.SoftWater, std::min(kControllerMinSoftWater, Soft),
                       Soft),
           -1);
    if (Action < 0)
      ++C.ControllerTightens;
  } else if (SawEvidence && AllSlack) {
    if (++SlackStreak >= kControllerHysteresisTicks) {
      SlackStreak = 0;
      if (Delay > 0)
        Move(C.BatchDelayMicros,
             relaxKnob(C.BatchDelayMicros, std::max<int64_t>(Delay / 8, 1),
                       Delay),
             1);
      if (High > 0)
        Move(C.HighWater, relaxKnob(C.HighWater, size_t{1}, High), 1);
      if (Soft > 0)
        Move(C.SoftWater, relaxKnob(C.SoftWater, size_t{1}, Soft), 1);
      if (Action > 0)
        ++C.ControllerRelaxes;
    }
  } else {
    SlackStreak = 0; // the slack run must be consecutive
  }

  E.Action = Action;
  E.BatchDelayMicros = C.BatchDelayMicros;
  E.HighWater = C.HighWater;
  E.SoftWater = C.SoftWater;
  Trace.push_back(E);
  if (Trace.size() > kControllerTraceCap)
    Trace.pop_front();
}
