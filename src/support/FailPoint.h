//===- support/FailPoint.h - Deterministic fault injection ------*- C++ -*-===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, compile-time-gated fault injection for the serving
/// stack.
///
/// A fail point is a named site in runtime code (snapshot publish, shard
/// lock acquisition, compaction rebuild/replay) where a transient fault
/// can be injected on demand. Sites are spelled
///
///   GRAPHIT_FAIL_POINT("snapshot.publish");
///
/// and cost exactly nothing unless the library is configured with
/// -DGRAPHIT_FAILPOINTS=ON (the macro then calls into a mutex-guarded
/// registry; otherwise it expands to an empty inline function the
/// compiler deletes). An active point either throws `FailPointError`
/// with a configured probability — drawn from a seeded SplitMix64 stream
/// so a failing schedule replays bit-identically — or sleeps for a fixed
/// delay (to widen race windows deterministically).
///
/// Activation is programmatic (`failpoints::activate`) or environmental:
///
///   GRAPHIT_FAILPOINTS="snapshot.publish=0.2,shard.lock=0.5*3,
///                       compaction.rebuild=sleep(50),all=0.1"
///   GRAPHIT_FAILPOINTS_SEED=12345
///
/// `name=P` fires with probability P in [0,1]; `*N` caps total fires;
/// `sleep(MS)` delays instead of throwing; `all=` applies to every
/// registered point name.
///
//===----------------------------------------------------------------------===//

#ifndef GRAPHIT_SUPPORT_FAILPOINT_H
#define GRAPHIT_SUPPORT_FAILPOINT_H

#include <cstdint>
#include <stdexcept>
#include <string>

namespace graphit {
namespace failpoints {

/// The exception an armed fail point throws. Sites that inject faults
/// catch this (or std::exception) and exercise their recovery path.
class FailPointError : public std::runtime_error {
public:
  explicit FailPointError(const std::string &Point)
      : std::runtime_error("fail point fired: " + Point) {}
};

/// Names of every registered injection site, for "activate everything"
/// loops in the stress harness and tests.
inline constexpr const char *kAllPoints[] = {
    "snapshot.publish", "shard.lock", "compaction.rebuild",
    "compaction.replay",
};

#if GRAPHIT_FAILPOINTS

inline constexpr bool kFailPointsEnabled = true;

/// Evaluates the named point: throws FailPointError or sleeps when the
/// point is active and its dice roll fires; no-op otherwise.
void evaluate(const char *Name);

/// Arms \p Name to throw with probability \p Probability per evaluation;
/// \p MaxFires caps total fires (0 = unlimited).
void activate(const std::string &Name, double Probability,
              uint64_t MaxFires = 0);

/// Arms \p Name to sleep \p Millis per evaluation instead of throwing
/// (for widening race windows, e.g. the compaction replay gap).
void activateDelay(const std::string &Name, int64_t Millis);

/// Disarms one point / every point.
void deactivate(const std::string &Name);
void reset();

/// Reseeds the deterministic dice stream (also clears per-point fire
/// counters so a schedule replays exactly).
void reseed(uint64_t Seed);

/// Times the named point has fired (thrown or slept) since last reseed.
uint64_t fireCount(const std::string &Name);

/// Parses GRAPHIT_FAILPOINTS / GRAPHIT_FAILPOINTS_SEED from the
/// environment. Returns a human-readable description of what was armed
/// ("" when the variable is unset) so harnesses can log the schedule.
std::string configureFromEnv();

#else

inline constexpr bool kFailPointsEnabled = false;

inline void evaluate(const char *) {}
inline void activate(const std::string &, double, uint64_t = 0) {}
inline void activateDelay(const std::string &, int64_t) {}
inline void deactivate(const std::string &) {}
inline void reset() {}
inline void reseed(uint64_t) {}
inline uint64_t fireCount(const std::string &) { return 0; }
inline std::string configureFromEnv() { return std::string(); }

#endif // GRAPHIT_FAILPOINTS

} // namespace failpoints
} // namespace graphit

/// The injection-site macro. Always compiles (so recovery paths that
/// catch FailPointError never need #if guards); resolves to a deleted
/// empty call when fail points are compiled out.
#define GRAPHIT_FAIL_POINT(NAME) ::graphit::failpoints::evaluate(NAME)

#endif // GRAPHIT_SUPPORT_FAILPOINT_H
