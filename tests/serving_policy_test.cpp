//===- tests/serving_policy_test.cpp - Deterministic serving policy -------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Drives service/ServingPolicy.h on its own: admission and its tie rule,
// soft-water degradation and the (kind, class) EWMA cells, the adaptive
// batch window, and the AIMD controller. Nothing here starts a thread,
// sleeps, or reads a clock — time is a TimePoint the test advances by
// hand, so every case is exact and replays identically for every seed.
//
// The controller is checked two ways over 32+ seeds each: by feeding
// chosen latency windows straight into the class histograms it reads
// (misses, slack, dead band, thin windows), and by a discrete-event
// replay of the engine around the policy — Poisson arrivals, workers
// forming batches the way BasicQueryEngine's worker loop does, deadlines
// enforced at completion — which also checks that every ticket leaves the
// policy exactly once.
//
//===----------------------------------------------------------------------===//

#include "service/ServingPolicy.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

using namespace graphit;
using namespace graphit::service;

namespace {

using Config = ServingPolicy::Config;
using Task = ServingPolicy::Task;
using TimePoint = ServingPolicy::TimePoint;
using ClassHistograms = std::array<LatencyHistogram, kNumImportanceClasses>;

/// The simulated clock's origin. No test reads a real clock.
const TimePoint T0{};

TimePoint at(int64_t Micros) {
  return T0 + std::chrono::microseconds(Micros);
}

int64_t microsSinceT0(TimePoint T) {
  return std::chrono::duration_cast<std::chrono::microseconds>(T - T0)
      .count();
}

size_t cls(int Importance) {
  return static_cast<size_t>(importanceClass(Importance));
}

Query point(int Importance, QueryKind Kind = QueryKind::PPSP) {
  Query Q;
  Q.Kind = Kind;
  Q.Target = 1;
  Q.Importance = Importance;
  return Q;
}

/// Dequeues everything, oldest first.
std::vector<Task> drain(ServingPolicy &P) {
  std::vector<Task> Out;
  while (P.queueDepth() > 0)
    Out.push_back(P.dequeue());
  return Out;
}

std::vector<uint64_t> tickets(const std::vector<Task> &Tasks) {
  std::vector<uint64_t> Out;
  for (const Task &T : Tasks)
    Out.push_back(T.Ticket);
  return Out;
}

/// Reports one un-degraded Ok completion of (\p Kind, \p Importance) that
/// took \p Micros.
void completeOk(ServingPolicy &P, QueryKind Kind, int Importance,
                double Micros) {
  Task T;
  T.Q = point(Importance, Kind);
  T.Class = importanceClass(Importance);
  P.completed(T, QueryStatus::Ok, Micros);
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

TEST(ServingPolicy, AdmissionShedsLowestImportanceFirst) {
  Config C;
  C.AdmissionHighWater = 3;
  ServingPolicy P(C, T0);
  EXPECT_EQ(P.admit(1, point(5), T0), 0u);
  EXPECT_EQ(P.admit(2, point(1), T0), 0u);
  EXPECT_EQ(P.admit(3, point(3), T0), 0u);

  // At the mark, a more important incomer displaces the least important
  // pending query, however old: a high-importance query is never a victim
  // while a lower one waits.
  EXPECT_EQ(P.admit(4, point(4), T0), 2u);
  EXPECT_EQ(P.admit(5, point(4), T0), 3u);
  // An incomer less important than everything pending sheds itself.
  EXPECT_EQ(P.admit(6, point(0), T0), 6u);

  EXPECT_EQ(tickets(drain(P)), (std::vector<uint64_t>{1, 4, 5}));
  const ServingPolicy::Counters &Ctr = P.counters();
  EXPECT_EQ(Ctr.shed(), 3u);
  EXPECT_EQ(Ctr.ShedInClass[cls(1)], 1u);
  EXPECT_EQ(Ctr.ShedInClass[cls(3)], 1u);
  EXPECT_EQ(Ctr.ShedInClass[cls(0)], 1u);
}

TEST(ServingPolicy, AdmissionTiedIncomerShedsItself) {
  Config C;
  C.AdmissionHighWater = 3;
  ServingPolicy P(C, T0);
  for (uint64_t T = 1; T <= 3; ++T)
    ASSERT_EQ(P.admit(T, point(1), T0), 0u);
  // Queued work has already waited: the tied incomer goes.
  EXPECT_EQ(P.admit(4, point(1), T0), 4u);
  EXPECT_EQ(tickets(drain(P)), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(P.counters().ShedInClass[cls(1)], 1u);
}

TEST(ServingPolicy, AdmissionDisplacesTheNewestOfTheLeastImportant) {
  Config C;
  C.AdmissionHighWater = 4;
  ServingPolicy P(C, T0);
  ASSERT_EQ(P.admit(1, point(2), T0), 0u);
  for (uint64_t T = 2; T <= 4; ++T)
    ASSERT_EQ(P.admit(T, point(1), T0), 0u);
  // Among equally-least-important pending queries the newest has waited
  // least, so it goes first — never the oldest.
  EXPECT_EQ(P.admit(5, point(2), T0), 4u);
  EXPECT_EQ(P.admit(6, point(2), T0), 3u);
  EXPECT_EQ(P.admit(7, point(3), T0), 2u);
  EXPECT_EQ(tickets(drain(P)), (std::vector<uint64_t>{1, 5, 6, 7}));
}

TEST(ServingPolicy, AdmissionWithoutHighWaterNeverSheds) {
  ServingPolicy P(Config{}, T0);
  for (uint64_t T = 1; T <= 1000; ++T)
    ASSERT_EQ(P.admit(T, point(0), T0), 0u);
  EXPECT_EQ(P.queueDepth(), 1000u);
  EXPECT_EQ(P.counters().shed(), 0u);
}

//===----------------------------------------------------------------------===//
// Soft-water degradation
//===----------------------------------------------------------------------===//

TEST(ServingPolicy, DegradationGivesSloClassesTheirSlo) {
  Config C;
  C.AdmissionSoftWater = 2;
  C.ClassSlo[cls(3)] = 300; // below the floor
  C.ClassSlo[cls(2)] = 5000;
  ServingPolicy P(C, T0);
  // Below the soft-water mark nothing is degraded, SLO or not.
  ASSERT_EQ(P.admit(1, point(3), T0), 0u);
  ASSERT_EQ(P.admit(2, point(3), T0), 0u);
  // Past it an SLO class gets max(floor, SLO), warm EWMA or not.
  ASSERT_EQ(P.admit(3, point(3), T0), 0u);
  ASSERT_EQ(P.admit(4, point(2, QueryKind::AStar), T0), 0u);
  std::vector<Task> Q = drain(P);
  ASSERT_EQ(Q.size(), 4u);
  EXPECT_FALSE(Q[0].Degraded);
  EXPECT_EQ(Q[0].DeadlineMicros, 0);
  EXPECT_FALSE(Q[1].Degraded);
  EXPECT_TRUE(Q[2].Degraded);
  EXPECT_EQ(Q[2].DeadlineMicros, ServingPolicy::kDegradeFloorMicros);
  EXPECT_TRUE(Q[3].Degraded);
  EXPECT_EQ(Q[3].DeadlineMicros, 5000);
  EXPECT_EQ(P.counters().DegradedInClass[cls(3)], 1u);
  EXPECT_EQ(P.counters().DegradedInClass[cls(2)], 1u);
  EXPECT_EQ(P.counters().degraded(), 2u);
}

TEST(ServingPolicy, DegradationUsesTheClassOwnEwmaAndNothingWhileCold) {
  Config C;
  C.AdmissionSoftWater = 1;
  ServingPolicy P(C, T0);
  // Keeps one query pending, so every admission below is past the mark.
  ASSERT_EQ(P.admit(1, point(0, QueryKind::SSSP), T0), 0u);

  // Every cell is cold: nobody is degraded.
  ASSERT_EQ(P.admit(2, point(0), T0), 0u);
  completeOk(P, QueryKind::PPSP, 0, 4000);
  // Only the (PPSP, class of importance 0) cell warmed.
  const auto &Ewma = P.counters().EwmaMicros;
  EXPECT_EQ(Ewma[static_cast<size_t>(QueryKind::PPSP)][cls(0)], 4000.0);
  EXPECT_EQ(Ewma[static_cast<size_t>(QueryKind::PPSP)][cls(3)], 0.0);
  EXPECT_EQ(Ewma[static_cast<size_t>(QueryKind::AStar)][cls(0)], 0.0);
  EXPECT_EQ(Ewma[static_cast<size_t>(QueryKind::SSSP)][cls(0)], 0.0);

  ASSERT_EQ(P.admit(3, point(0), T0), 0u);                   // warm
  ASSERT_EQ(P.admit(4, point(3), T0), 0u);                   // cold class
  ASSERT_EQ(P.admit(5, point(0, QueryKind::AStar), T0), 0u); // cold kind
  completeOk(P, QueryKind::AStar, 0, 600);
  ASSERT_EQ(P.admit(6, point(0, QueryKind::AStar), T0), 0u);
  // The EWMA moves a fifth of the way toward each new sample.
  completeOk(P, QueryKind::PPSP, 0, 1000);
  EXPECT_DOUBLE_EQ(Ewma[static_cast<size_t>(QueryKind::PPSP)][cls(0)],
                   0.8 * 4000 + 0.2 * 1000);

  std::vector<Task> Q = drain(P);
  ASSERT_EQ(Q.size(), 6u);
  EXPECT_FALSE(Q[1].Degraded) << "degraded off a cold EWMA";
  EXPECT_TRUE(Q[2].Degraded);
  EXPECT_EQ(Q[2].DeadlineMicros, 2000); // 0.5 x 4000
  EXPECT_FALSE(Q[3].Degraded) << "degraded off another class's EWMA";
  EXPECT_FALSE(Q[4].Degraded) << "degraded off another kind's EWMA";
  EXPECT_TRUE(Q[5].Degraded);
  EXPECT_EQ(Q[5].DeadlineMicros, ServingPolicy::kDegradeFloorMicros);
  EXPECT_EQ(P.counters().DegradedInClass[cls(0)], 2u);
  EXPECT_EQ(P.counters().DegradedInClass[cls(3)], 0u);
}

TEST(ServingPolicy, DegradationSparesSsspAndOwnDeadlines) {
  Config C;
  C.AdmissionSoftWater = 1;
  C.ClassSlo[cls(3)] = 8000;
  ServingPolicy P(C, T0);
  completeOk(P, QueryKind::SSSP, 0, 4000);
  completeOk(P, QueryKind::PPSP, 0, 4000);
  ASSERT_EQ(P.admit(1, point(0), T0), 0u);
  ASSERT_EQ(P.admit(2, point(0, QueryKind::SSSP), T0), 0u);
  ASSERT_EQ(P.admit(3, point(3, QueryKind::SSSP), T0), 0u);
  Query Own = point(0);
  Own.DeadlineMicros = 777;
  ASSERT_EQ(P.admit(4, Own, T0), 0u);
  Own.Importance = 3;
  ASSERT_EQ(P.admit(5, Own, T0), 0u);
  std::vector<Task> Q = drain(P);
  ASSERT_EQ(Q.size(), 5u);
  for (size_t I = 1; I < Q.size(); ++I)
    EXPECT_FALSE(Q[I].Degraded) << I;
  EXPECT_EQ(Q[1].DeadlineMicros, 0);
  EXPECT_EQ(Q[2].DeadlineMicros, 0);
  EXPECT_EQ(Q[3].DeadlineMicros, 777);
  EXPECT_EQ(Q[4].DeadlineMicros, 777);
  EXPECT_EQ(P.counters().degraded(), 0u);
}

TEST(ServingPolicy, EwmaSamplesOnlyUndegradedOkCompletions) {
  Config C;
  C.AdmissionSoftWater = 1;
  ServingPolicy P(C, T0);
  completeOk(P, QueryKind::PPSP, 0, 4000);
  ASSERT_EQ(P.admit(1, point(0), T0), 0u);
  ASSERT_EQ(P.admit(2, point(0), T0), 0u);
  std::vector<Task> Q = drain(P);
  ASSERT_TRUE(Q[1].Degraded);

  const double &Cell =
      P.counters().EwmaMicros[static_cast<size_t>(QueryKind::PPSP)][cls(0)];
  // A degraded completion — even a clean Ok one — must not shrink the
  // budget it was cut to, and neither may a run cut short.
  P.completed(Q[1], QueryStatus::Ok, 10);
  EXPECT_EQ(Cell, 4000.0);
  P.completed(Q[0], QueryStatus::DeadlineExceeded, 10);
  EXPECT_EQ(Cell, 4000.0);
  P.completed(Q[0], QueryStatus::Ok, 3000);
  EXPECT_DOUBLE_EQ(Cell, 0.8 * 4000 + 0.2 * 3000);

  const ServingPolicy::Counters &Ctr = P.counters();
  EXPECT_EQ(Ctr.ServedInClass[cls(0)], 4u); // completeOk + three above
  EXPECT_EQ(Ctr.served(), 4u);
  EXPECT_EQ(Ctr.DeadlineExceededInClass[cls(0)], 1u);
  EXPECT_EQ(Ctr.deadlinesExceeded(), 1u);
}

//===----------------------------------------------------------------------===//
// The adaptive batch window
//===----------------------------------------------------------------------===//

/// Forms one batch the way the engine's worker loop does, minus the wait
/// for stragglers: one task, then more while the window allows.
size_t formBatch(ServingPolicy &P) {
  size_t N = 0;
  P.dequeue();
  ++N;
  while (N < P.batchLimit() && P.queueDepth() > 0) {
    P.dequeue();
    ++N;
  }
  P.batchFormed();
  return N;
}

TEST(ServingPolicy, BatchWindowDoublesUnderBacklogAndClosesWhenDrained) {
  Config C;
  C.MaxBatchDelayMicros = 1000;
  ServingPolicy P(C, T0);
  EXPECT_EQ(P.batchWindowMicros(), 0);
  EXPECT_EQ(P.batchLimit(), 1u);
  for (int Round = 0; Round < 2; ++Round) {
    for (uint64_t T = 0; T < 200; ++T)
      ASSERT_EQ(P.admit(T + 1, point(0), T0), 0u);
    std::vector<int64_t> Windows;
    std::vector<size_t> Sizes;
    while (P.queueDepth() > 0) {
      Sizes.push_back(formBatch(P));
      Windows.push_back(P.batchWindowMicros());
      ASSERT_LE(P.batchWindowMicros(), P.counters().BatchDelayMicros);
    }
    // The closed window takes one task; each batch that leaves backlog
    // doubles it from the floor up to the delay; the batch that drains the
    // queue closes it.
    ASSERT_GE(Windows.size(), 7u);
    EXPECT_EQ(Sizes[0], 1u);
    EXPECT_EQ((std::vector<int64_t>(Windows.begin(), Windows.begin() + 6)),
              (std::vector<int64_t>{50, 100, 200, 400, 800, 1000}));
    for (size_t I = 1; I + 1 < Sizes.size(); ++I)
      EXPECT_EQ(Sizes[I], ServingPolicy::kMaxBatchSize) << I;
    EXPECT_EQ(Windows.back(), 0);
    EXPECT_EQ(P.batchLimit(), 1u);
  }
  EXPECT_EQ(P.counters().MaxBatchWindowMicros, 1000);
}

TEST(ServingPolicy, BatchWindowZeroDelayTakesExactlyOneTask) {
  ServingPolicy P(Config{}, T0);
  for (uint64_t T = 0; T < 50; ++T)
    ASSERT_EQ(P.admit(T + 1, point(0), T0), 0u);
  while (P.queueDepth() > 0) {
    ASSERT_EQ(formBatch(P), 1u);
    ASSERT_EQ(P.batchWindowMicros(), 0);
  }
  EXPECT_EQ(P.counters().MaxBatchWindowMicros, 0);
}

TEST(ServingPolicy, BatchWindowShrinksWithTheControlledDelay) {
  Config C;
  C.MaxBatchDelayMicros = 1000;
  C.ClassSlo[0] = 1000;
  C.ControllerIntervalMicros = 100;
  ServingPolicy P(C, T0);
  for (uint64_t T = 0; T < 400; ++T)
    ASSERT_EQ(P.admit(T + 1, point(0), T0), 0u);
  while (P.batchWindowMicros() < 1000)
    formBatch(P);
  ClassHistograms Lat;
  for (int I = 0; I < 20; ++I)
    Lat[0].record(5000); // a miss
  P.maybeTick(at(100), Lat);
  ASSERT_EQ(P.counters().BatchDelayMicros, 875);
  EXPECT_EQ(P.batchWindowMicros(), 875);
  formBatch(P);
  EXPECT_EQ(P.batchWindowMicros(), 875);
}

//===----------------------------------------------------------------------===//
// The controller, fed chosen windows
//===----------------------------------------------------------------------===//

/// What a class's latency window looks like relative to its SLO. Values
/// keep clear of the thresholds by more than the histogram's 1/16 bucket
/// error.
enum class Regime { Miss, Slack, DeadBand, Thin };

uint64_t drawLatency(SplitMix64 &Rng, Regime R, int64_t Slo) {
  double Lo = 1.2, Hi = 3.0; // Miss and Thin
  if (R == Regime::Slack) {
    Lo = 0.05;
    Hi = 0.35;
  } else if (R == Regime::DeadBand) {
    Lo = 0.5;
    Hi = 0.9;
  }
  const double F = Lo + (Hi - Lo) * Rng.nextDouble();
  return static_cast<uint64_t>(F * static_cast<double>(Slo));
}

/// A random configuration: each knob configured 0 (off) a third of the
/// time, otherwise anywhere from below its controller floor to far above;
/// one to four classes with an SLO.
Config randomConfig(SplitMix64 &Rng) {
  Config C;
  if (Rng.nextInt(0, 3) != 0)
    C.MaxBatchDelayMicros = Rng.nextInt(1, 5000);
  if (Rng.nextInt(0, 3) != 0)
    C.AdmissionHighWater = static_cast<size_t>(Rng.nextInt(1, 2048));
  if (Rng.nextInt(0, 3) != 0)
    C.AdmissionSoftWater = static_cast<size_t>(Rng.nextInt(1, 1024));
  for (int64_t &Slo : C.ClassSlo)
    if (Rng.nextInt(0, 2) == 0)
      Slo = Rng.nextInt(1000, 100000);
  C.ClassSlo[static_cast<size_t>(Rng.nextInt(0, kNumImportanceClasses))] =
      Rng.nextInt(1000, 100000);
  C.ControllerIntervalMicros = Rng.nextInt(100, 50000);
  return C;
}

struct Knobs {
  int64_t Delay;
  size_t High, Soft;
  bool operator==(const Knobs &O) const {
    return Delay == O.Delay && High == O.High && Soft == O.Soft;
  }
};

Knobs floorsOf(const Config &C) {
  return {0, // the batch delay tightens to 0
          std::min(ServingPolicy::kControllerMinHighWater,
                   C.AdmissionHighWater),
          std::min(ServingPolicy::kControllerMinSoftWater,
                   C.AdmissionSoftWater)};
}

Knobs ceilingsOf(const Config &C) {
  return {C.MaxBatchDelayMicros, C.AdmissionHighWater, C.AdmissionSoftWater};
}

Knobs knobsOf(const ControllerEvent &E) {
  return {E.BatchDelayMicros, static_cast<size_t>(E.HighWater),
          static_cast<size_t>(E.SoftWater)};
}

/// A policy, the class histograms it reads, and a hand-advanced clock.
struct ControllerRig {
  Config Cfg;
  ServingPolicy P;
  ClassHistograms Lat;
  int64_t NowMicros = 0;
  SplitMix64 Rng;

  ControllerRig(const Config &C, uint64_t Seed)
      : Cfg(C), P(C, T0), Rng(Seed) {}

  /// Records one interval's completions — every class with an SLO in
  /// regime \p R, SLO-less classes noise the controller must ignore —
  /// then advances the clock one interval and ticks.
  ControllerEvent interval(Regime R) {
    for (size_t Class = 0; Class < Lat.size(); ++Class) {
      const int64_t Slo = Cfg.ClassSlo[Class];
      const int64_t N =
          Slo <= 0 || R == Regime::Thin
              ? Rng.nextInt(0, ServingPolicy::kControllerMinSamples)
              : Rng.nextInt(ServingPolicy::kControllerMinSamples, 80);
      for (int64_t I = 0; I < N; ++I)
        Lat[Class].record(
            Slo > 0 ? drawLatency(Rng, R, Slo)
                    : static_cast<uint64_t>(Rng.nextInt(1, 1000000)));
    }
    NowMicros += Cfg.ControllerIntervalMicros;
    const uint64_t Before = P.counters().ControllerTicks;
    P.maybeTick(at(NowMicros), Lat);
    EXPECT_EQ(P.counters().ControllerTicks, Before + 1);
    return P.controllerTrace().back();
  }

  /// Every knob within [floor, ceiling], and a knob configured 0 still 0.
  void checkBounds(const ControllerEvent &E) const {
    const Knobs K = knobsOf(E), Lo = floorsOf(Cfg), Hi = ceilingsOf(Cfg);
    EXPECT_GE(K.Delay, Lo.Delay);
    EXPECT_LE(K.Delay, Hi.Delay);
    EXPECT_GE(K.High, Lo.High);
    EXPECT_LE(K.High, Hi.High);
    EXPECT_GE(K.Soft, Lo.Soft);
    EXPECT_LE(K.Soft, Hi.Soft);
  }
};

constexpr uint64_t kNumSeeds = 32;

TEST(ServingPolicyController, MissesTightenToFloorsAndSlackRelaxesToCeilings) {
  for (uint64_t Seed = 1; Seed <= kNumSeeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SplitMix64 Rng(Seed);
    ControllerRig Rig(randomConfig(Rng), Seed);
    const Knobs Lo = floorsOf(Rig.Cfg), Hi = ceilingsOf(Rig.Cfg);
    ASSERT_EQ(knobsOf(Rig.interval(Regime::Thin)), Hi);

    // Steady misses: each tick tightens (an eighth of the configured value
    // per step, at least 1) until every enabled knob sits on its floor,
    // then holds there.
    int Tightens = 0;
    for (int Tick = 0; Tick < 20; ++Tick) {
      const ControllerEvent E = Rig.interval(Regime::Miss);
      Rig.checkBounds(E);
      if (E.Action == -1) {
        ASSERT_EQ(Tightens++, Tick) << "held before reaching the floors";
      } else {
        ASSERT_EQ(E.Action, 0);
      }
    }
    EXPECT_EQ(knobsOf(Rig.P.controllerTrace().back()), Lo);

    // Steady slack: one relax (a doubling) per four ticks, until every
    // knob is back at its configured value.
    for (int Tick = 1; Tick <= 4 * 14; ++Tick) {
      const ControllerEvent E = Rig.interval(Regime::Slack);
      Rig.checkBounds(E);
      if (E.Action == 1) {
        ASSERT_EQ(Tick % ServingPolicy::kControllerHysteresisTicks, 0)
            << "relaxed off the hysteresis beat at tick " << Tick;
      } else {
        ASSERT_EQ(E.Action, 0);
      }
    }
    EXPECT_EQ(knobsOf(Rig.P.controllerTrace().back()), Hi);
    const ServingPolicy::Counters &Ctr = Rig.P.counters();
    EXPECT_EQ(Ctr.ControllerTightens, static_cast<uint64_t>(Tightens));
    EXPECT_EQ(Knobs({Ctr.BatchDelayMicros, Ctr.HighWater, Ctr.SoftWater}),
              Hi);
  }
}

TEST(ServingPolicyController, HoldsInTheDeadBandAndOnThinWindows) {
  for (uint64_t Seed = 1; Seed <= kNumSeeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SplitMix64 Rng(Seed);
    ControllerRig Rig(randomConfig(Rng), Seed);
    // Hold at the ceilings, then again after a couple of tightens.
    for (int Stage = 0; Stage < 2; ++Stage) {
      const Knobs Start = knobsOf(Rig.interval(Regime::Thin));
      for (int Tick = 0; Tick < 24; ++Tick) {
        const ControllerEvent E =
            Rig.interval(Tick % 2 ? Regime::DeadBand : Regime::Thin);
        ASSERT_EQ(E.Action, 0);
        ASSERT_EQ(knobsOf(E), Start);
      }
      Rig.interval(Regime::Miss);
      Rig.interval(Regime::Miss);
    }
  }
}

TEST(ServingPolicyController, EvidenceNeedsExactlyTheMinimumSamples) {
  Config C;
  C.MaxBatchDelayMicros = 800;
  C.ClassSlo[0] = 1000;
  C.ControllerIntervalMicros = 10;
  ServingPolicy P(C, T0);
  ClassHistograms Lat;
  for (uint64_t I = 1; I < ServingPolicy::kControllerMinSamples; ++I)
    Lat[0].record(5000);
  P.maybeTick(at(10), Lat);
  EXPECT_EQ(P.controllerTrace().back().Action, 0);
  for (uint64_t I = 0; I < ServingPolicy::kControllerMinSamples; ++I)
    Lat[0].record(5000);
  P.maybeTick(at(20), Lat);
  EXPECT_EQ(P.controllerTrace().back().Action, -1);
  EXPECT_EQ(P.controllerTrace().back().WindowCount[0],
            ServingPolicy::kControllerMinSamples);
  // A dead-band class vetoes another class's slack.
  C.ClassSlo[1] = 1000;
  ServingPolicy Q(C, T0);
  ClassHistograms Lat2;
  for (int Tick = 1; Tick <= 8; ++Tick) {
    for (uint64_t I = 0; I < ServingPolicy::kControllerMinSamples; ++I) {
      Lat2[0].record(100); // slack
      Lat2[1].record(700); // dead band
    }
    Q.maybeTick(at(10 * Tick), Lat2);
    EXPECT_EQ(Q.controllerTrace().back().Action, 0) << Tick;
  }
  // Ticks come at most once per interval.
  const uint64_t Ticks = Q.counters().ControllerTicks;
  Q.maybeTick(at(85), Lat2);
  EXPECT_EQ(Q.counters().ControllerTicks, Ticks);
}

TEST(ServingPolicyController, RandomRegimesRelaxOnlyAfterFourSlackTicks) {
  for (uint64_t Seed = 1; Seed <= kNumSeeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SplitMix64 Rng(Seed);
    ControllerRig Rig(randomConfig(Rng), Seed);
    // Slack-heavy: runs of slack are long enough to relax, and misses,
    // dead-band and thin ticks break them at random.
    Knobs Before = ceilingsOf(Rig.Cfg);
    int SlackRun = 0; // consecutive slack ticks since the last reset
    for (int Tick = 0; Tick < 400; ++Tick) {
      const int64_t Pick = Rng.nextInt(0, 10);
      const Regime R = Pick < 6   ? Regime::Slack
                       : Pick < 7 ? Regime::Miss
                       : Pick < 9 ? Regime::DeadBand
                                  : Regime::Thin;
      const ControllerEvent E = Rig.interval(R);
      Rig.checkBounds(E);
      SlackRun = R == Regime::Slack ? SlackRun + 1 : 0;
      if (E.Action == 1) {
        ASSERT_GE(SlackRun, ServingPolicy::kControllerHysteresisTicks)
            << "relaxed after " << SlackRun << " slack ticks at " << Tick;
        SlackRun = 0;
      } else if (SlackRun == ServingPolicy::kControllerHysteresisTicks) {
        // Four slack ticks in a row relax unless every knob is at its
        // ceiling already.
        ASSERT_EQ(Before, ceilingsOf(Rig.Cfg)) << "tick " << Tick;
        SlackRun = 0;
      }
      if (R == Regime::Miss) {
        ASSERT_TRUE(E.Action == -1 || Before == floorsOf(Rig.Cfg));
      } else if (R != Regime::Slack) {
        ASSERT_EQ(E.Action, 0); // dead band and thin windows hold
      }
      Before = knobsOf(E);
    }
  }
}

//===----------------------------------------------------------------------===//
// Replay: the engine around the policy, as discrete events
//===----------------------------------------------------------------------===//

/// A traffic mix and a pool of virtual workers.
struct Traffic {
  int NumWorkers = 4;
  double ArrivalsPerMs = 4;
  int64_t MeanServiceMicros = 800;
  int NumArrivals = 4000;
  /// Every 4th arrival is premium (importance 3, no deadline), the rest
  /// bulk (importance 0, half with a 50 ms deadline) — the service
  /// bench's mix. Otherwise importances, kinds and deadlines are random.
  bool BenchMix = false;
};

struct ReplayResult {
  ServingPolicy::Counters Counters;
  std::vector<ControllerEvent> Trace;
  uint64_t Offered = 0, Dequeued = 0, ShedSeen = 0, DeadlineSeen = 0;
  /// Every ticket left the policy exactly once (dequeued or shed), and
  /// only after it was offered.
  bool ExactlyOnce = true;
};

int64_t expDraw(SplitMix64 &Rng, double Mean) {
  return std::max<int64_t>(
      1, static_cast<int64_t>(-std::log(1.0 - Rng.nextDouble()) * Mean));
}

Query replayQuery(SplitMix64 &Rng, const Traffic &T, int I) {
  Query Q;
  if (T.BenchMix) {
    Q.Importance = I % 4 == 0 ? 3 : 0;
    Q.DeadlineMicros = Q.Importance == 0 && I % 2 == 0 ? 50000 : 0;
    return Q;
  }
  Q.Importance = static_cast<int>(Rng.nextInt(-1, 6));
  const int64_t K = Rng.nextInt(0, 8);
  Q.Kind = K == 0 ? QueryKind::SSSP : K < 5 ? QueryKind::PPSP
                                            : QueryKind::AStar;
  if (Rng.nextInt(0, 4) == 0)
    Q.DeadlineMicros = Rng.nextInt(200, 50000);
  return Q;
}

/// Replays \p T through a policy configured \p C. Workers behave like
/// BasicQueryEngine's: an idle one forms a batch as soon as work is
/// queued, runs its tasks back to back (a task whose deadline passes
/// while queued costs nothing, one that runs into it stops there), and
/// publishes the batch at once — recording Ok latencies into the class
/// histograms, reporting every completion, and letting the controller
/// tick. Times are whole microseconds from T0.
ReplayResult replay(const Config &C, const Traffic &T, uint64_t Seed) {
  SplitMix64 Rng(Seed);
  ServingPolicy P(C, T0);
  ClassHistograms Lat;
  ReplayResult Out;
  // Per ticket: 0 not yet offered, 1 pending, 2 left the policy.
  std::vector<uint8_t> State(static_cast<size_t>(T.NumArrivals) + 1, 0);
  auto leave = [&](uint64_t Ticket, uint8_t From) {
    if (State[Ticket] != From)
      Out.ExactlyOnce = false;
    State[Ticket] = 2;
  };

  struct Worker {
    bool Busy = false;
    int64_t FreeAt = 0;
    std::vector<Task> Batch;
    std::vector<std::pair<QueryStatus, double>> Done;
  };
  std::vector<Worker> Workers(static_cast<size_t>(T.NumWorkers));

  auto start = [&](Worker &W, int64_t Now) {
    W.Batch.clear();
    W.Done.clear();
    do {
      W.Batch.push_back(P.dequeue());
      leave(W.Batch.back().Ticket, 1);
      ++Out.Dequeued;
    } while (W.Batch.size() < P.batchLimit() && P.queueDepth() > 0);
    P.batchFormed();
    int64_t Clock = Now;
    for (const Task &Tk : W.Batch) {
      const int64_t Expires = Tk.DeadlineMicros > 0
                                  ? microsSinceT0(Tk.Enqueued) +
                                        Tk.DeadlineMicros
                                  : INT64_MAX;
      int64_t Service = expDraw(
          Rng, static_cast<double>(T.MeanServiceMicros) *
                   (Tk.Q.Kind == QueryKind::SSSP ? 4.0 : 1.0));
      QueryStatus S = QueryStatus::Ok;
      if (Clock + Service > Expires) {
        S = QueryStatus::DeadlineExceeded;
        Service = std::max<int64_t>(0, Expires - Clock);
        ++Out.DeadlineSeen;
      }
      Clock += Service;
      W.Done.emplace_back(S, static_cast<double>(Service));
    }
    W.Busy = true;
    W.FreeAt = Clock;
  };
  auto publish = [&](Worker &W) {
    for (size_t I = 0; I < W.Batch.size(); ++I)
      if (W.Done[I].first == QueryStatus::Ok)
        Lat[static_cast<size_t>(W.Batch[I].Class)].record(
            static_cast<uint64_t>(W.FreeAt -
                                  microsSinceT0(W.Batch[I].Enqueued)));
    for (size_t I = 0; I < W.Batch.size(); ++I)
      P.completed(W.Batch[I], W.Done[I].first, W.Done[I].second);
    P.maybeTick(at(W.FreeAt), Lat);
    W.Busy = false;
  };

  const double MeanGap = 1000.0 / T.ArrivalsPerMs;
  int64_t NextArrival = expDraw(Rng, MeanGap);
  int Arrived = 0;
  while (true) {
    Worker *Next = nullptr;
    for (Worker &W : Workers)
      if (W.Busy && (!Next || W.FreeAt < Next->FreeAt))
        Next = &W;
    const bool MoreArrivals = Arrived < T.NumArrivals;
    if (!Next && !MoreArrivals)
      break;
    if (Next && (!MoreArrivals || Next->FreeAt <= NextArrival)) {
      publish(*Next);
      if (P.queueDepth() > 0)
        start(*Next, Next->FreeAt);
      continue;
    }
    const uint64_t Ticket = static_cast<uint64_t>(++Arrived);
    ++Out.Offered;
    const uint64_t Shed =
        P.admit(Ticket, replayQuery(Rng, T, Arrived), at(NextArrival));
    if (Shed != Ticket)
      State[Ticket] = 1;
    if (Shed != 0) {
      leave(Shed, Shed == Ticket ? 0 : 1);
      ++Out.ShedSeen;
    }
    for (Worker &W : Workers)
      if (!W.Busy && P.queueDepth() > 0)
        start(W, NextArrival);
    NextArrival += expDraw(Rng, MeanGap);
  }
  for (size_t Ticket = 1; Ticket < State.size(); ++Ticket)
    if (State[Ticket] != 2)
      Out.ExactlyOnce = false;
  Out.Counters = P.counters();
  Out.Trace = P.controllerTrace();
  return Out;
}

/// Tighten/relax sign changes over Trace[From..) — the service bench's
/// settle criterion.
int signFlips(const std::vector<ControllerEvent> &Trace, size_t From) {
  int Last = 0, Flips = 0;
  for (size_t I = From; I < Trace.size(); ++I) {
    const int A = Trace[I].Action;
    if (A == 0)
      continue;
    if (Last != 0 && A != Last)
      ++Flips;
    Last = A;
  }
  return Flips;
}

TEST(ServingPolicyReplay, EveryTicketLeavesExactlyOnce) {
  for (uint64_t Seed = 1; Seed <= kNumSeeds; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SplitMix64 Rng(Seed * 7919);
    Config C = randomConfig(Rng);
    C.AdmissionHighWater = static_cast<size_t>(Rng.nextInt(0, 64));
    C.AdmissionSoftWater = static_cast<size_t>(Rng.nextInt(0, 32));
    Traffic T;
    T.NumWorkers = static_cast<int>(Rng.nextInt(1, 5));
    // From well under capacity to three times over it.
    T.ArrivalsPerMs = (0.3 + 2.7 * Rng.nextDouble()) * T.NumWorkers *
                      1000.0 / static_cast<double>(T.MeanServiceMicros);
    T.NumArrivals = 3000;
    const ReplayResult R = replay(C, T, Seed);
    EXPECT_TRUE(R.ExactlyOnce);
    EXPECT_EQ(R.Offered, static_cast<uint64_t>(T.NumArrivals));
    EXPECT_EQ(R.Counters.served(), R.Dequeued);
    EXPECT_EQ(R.Counters.shed(), R.ShedSeen);
    EXPECT_EQ(R.Counters.served() + R.Counters.shed(), R.Offered);
    EXPECT_EQ(R.Counters.deadlinesExceeded(), R.DeadlineSeen);
    if (C.AdmissionHighWater == 0) {
      EXPECT_EQ(R.ShedSeen, 0u);
    }
    for (const ControllerEvent &E : R.Trace) {
      const Knobs K = knobsOf(E), Lo = floorsOf(C), Hi = ceilingsOf(C);
      ASSERT_TRUE(K.Delay >= Lo.Delay && K.Delay <= Hi.Delay);
      ASSERT_TRUE(K.High >= Lo.High && K.High <= Hi.High);
      ASSERT_TRUE(K.Soft >= Lo.Soft && K.Soft <= Hi.Soft);
    }
  }
}

TEST(ServingPolicyReplay, StationaryOverloadSettles) {
  // The service bench's overload point: its controller-on configuration,
  // traffic mix and a constant 6000 qps, here against four workers with
  // 800 us mean service (5000 qps). The controller tightens in and
  // settles by the bench's rule — at most four tighten/relax flips over
  // the back half of its ~0.7 s phase, ~15 ticks — held as a rate, so the
  // bench's 4000 arrivals and a 1.2 s trace face the same standard.
  // (Settled means bounded relax probes, not a fixed point: from the
  // floors the controller probes one step up every few hysteresis
  // periods, so a longer trace shows proportionally more flips.)
  Config C;
  C.AdmissionHighWater = 512;
  C.AdmissionSoftWater = 128;
  C.MaxBatchDelayMicros = 400;
  C.ClassSlo[0] = 24000;
  C.ControllerIntervalMicros = 20000;
  Traffic T;
  T.BenchMix = true;
  T.ArrivalsPerMs = 6;
  for (int NumArrivals : {4000, 7200}) {
    T.NumArrivals = NumArrivals;
    for (uint64_t Seed = 1; Seed <= kNumSeeds; ++Seed) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + ", " +
                   std::to_string(NumArrivals) + " arrivals");
      const ReplayResult R = replay(C, T, Seed);
      ASSERT_TRUE(R.ExactlyOnce);
      ASSERT_GE(R.Trace.size(), 25u);
      EXPECT_GT(R.Counters.ControllerTightens, 0u);
      const size_t BackHalf = R.Trace.size() - R.Trace.size() / 2;
      const int Flips = signFlips(R.Trace, R.Trace.size() / 2);
      EXPECT_LE(15 * static_cast<size_t>(Flips), 4 * BackHalf)
          << Flips << " flips over " << BackHalf << " back-half ticks";
    }
  }
}

} // namespace
