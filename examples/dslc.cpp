//===- examples/dslc.cpp - The DSL compiler driver ------------------------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//
//
// Command-line front door to the priority-extension compiler, mirroring
// the paper's graphitc workflow:
//
//   ./dslc <program.gt> [schedule] [-o out.cpp]
//
// Prints the analysis report, the codegen decisions and the generated C++
// for the schedule (default "eager_with_fusion,delta=4"). With -o, writes
// only the C++ to out.cpp; build it against libgraphit and run it as
// `./prog graph.bin [args...]`. The build does this for every program in
// apps/ (tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "dsl/Driver.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

using namespace graphit;
using namespace graphit::dsl;

int main(int argc, char **argv) {
  std::string SchedSpec = "eager_with_fusion,delta=4";
  const char *OutPath = nullptr;
  bool Usable = argc >= 2;
  for (int I = 2; I < argc; ++I) {
    if (std::strcmp(argv[I], "-o") != 0)
      SchedSpec = argv[I];
    else if (I + 1 < argc)
      OutPath = argv[++I];
    else
      Usable = false;
  }
  if (!Usable) {
    std::fprintf(stderr, "usage: %s <program.gt> [schedule] [-o out.cpp]\n",
                 argv[0]);
    return 1;
  }
  std::string Path = argv[1];

  std::string SourceText = readFileOrDie(Path);
  FrontendBundle B = runFrontend(SourceText);
  if (!B.ok()) {
    std::fprintf(stderr, "%s: error: %s\n", Path.c_str(), B.Error.c_str());
    return 1;
  }

  ScheduleMap Schedules;
  Schedules[""] = Schedule::parse(SchedSpec);
  GeneratedCode Code =
      generateCpp(*B.Prog, B.Sema, B.Analysis, Schedules);

  if (OutPath) {
    std::FILE *Out = std::fopen(OutPath, "wb");
    bool Ok = Out && std::fwrite(Code.Cpp.data(), 1, Code.Cpp.size(), Out) ==
                         Code.Cpp.size();
    if (Out && std::fclose(Out) != 0)
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "cannot write '%s'\n", OutPath);
      return 1;
    }
    return 0;
  }

  std::printf("== analysis report ==\n");
  for (const std::string &Note : B.Analysis.Notes)
    std::printf("  %s\n", Note.c_str());
  std::printf("\n== codegen decisions ==\n");
  for (const std::string &Note : Code.Notes)
    std::printf("  %s\n", Note.c_str());
  std::printf("\n== generated C++ (%zu lines) ==\n",
              static_cast<size_t>(
                  std::count(Code.Cpp.begin(), Code.Cpp.end(), '\n')));
  std::fputs(Code.Cpp.c_str(), stdout);
  return 0;
}
