//===- perfbench/src/Main.cpp - Benchmark binary entry point --------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload road_live|road_sssp --seed N --seconds S
//           [--trace 0|1] [--trace-out FILE] [--tiny] [--corrupt]
//
// Runs one workload once and prints its record as one JSON line. Exit
// status 0 when every operation succeeded and matched its oracle, 1 when
// any failed, 2 on a usage error. perfbench/run.py is the user-facing
// command; it builds this binary and turns the record into the
// benchmark's output.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload road_live|road_sssp "
               "--seed N --seconds S [--trace 0|1] [--trace-out FILE] "
               "[--tiny] [--corrupt]\n");
  return 2;
}

bool parseNumber(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0';
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  std::string TraceOut;
  double Number = 0;
  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    const bool HasValue = I + 1 < argc;
    if (Arg == "--tiny") {
      C.Tiny = true;
    } else if (Arg == "--corrupt") {
      C.Corrupt = true;
    } else if (Arg == "--workload" && HasValue) {
      C.Workload = argv[++I];
    } else if (Arg == "--trace-out" && HasValue) {
      TraceOut = argv[++I];
    } else if (Arg == "--seed" && HasValue && parseNumber(argv[++I], Number) &&
               Number >= 0) {
      C.Seed = static_cast<uint64_t>(Number);
    } else if (Arg == "--seconds" && HasValue &&
               parseNumber(argv[++I], Number) && Number > 0) {
      C.Seconds = Number;
    } else if (Arg == "--trace" && HasValue &&
               parseNumber(argv[++I], Number) && (Number == 0 || Number == 1)) {
      C.Trace = Number == 1;
    } else {
      return usage();
    }
  }

  RunRecord (*Run)(const RunConfig &) = nullptr;
  if (C.Workload == "road_live")
    Run = runRoadLive;
  else if (C.Workload == "road_sssp")
    Run = runRoadSssp;
  else
    return usage();

  // The gated CPU times count waiting OpenMP threads only when they
  // sleep (src/Speed.h); the runtime reads the policy when it loads.
  const char *Policy = std::getenv("OMP_WAIT_POLICY");
  if (!Policy || std::strcmp(Policy, "passive") != 0) {
    std::fprintf(stderr, "perfbench: run with OMP_WAIT_POLICY=passive "
                         "(perfbench/run.py sets it)\n");
    return 2;
  }
  trace::setEnabled(C.Trace);
  const RunRecord R = Run(C);
  trace::setEnabled(false);
  if (C.Trace && !TraceOut.empty() && !trace::write(R.Spans, TraceOut))
    std::fprintf(stderr, "perfbench: could not write %s\n", TraceOut.c_str());
  printRecord(C, R);
  return R.Failed == 0 && R.OracleMismatches == 0 ? 0 : 1;
}
