//===- perfbench/src/Report.cpp - Record helpers and JSON output ----------===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "Speed.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <numeric>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  const size_t I = static_cast<size_t>(std::max(1.0, Rank)) - 1;
  return V[std::min(I, V.size() - 1)];
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  return std::accumulate(V.begin(), V.end(), 0.0) /
         static_cast<double>(V.size());
}

double heapMegabytes() {
  struct mallinfo2 M = mallinfo2();
  return static_cast<double>(M.uordblks + M.hblkhd) / 1e6;
}

std::string Checksum::hex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

uint64_t hashVector(const std::vector<int64_t> &V) {
  uint64_t H = 0x9e3779b97f4a7c15ULL ^ V.size();
  for (int64_t X : V) {
    H ^= static_cast<uint64_t>(X) + 0x9e3779b97f4a7c15ULL + (H << 6) +
         (H >> 2);
    H *= 0xff51afd7ed558ccdULL;
  }
  return H;
}

void reportEndToEnd(RunRecord &R, const Measured &M,
                    const SpeedProbe &SetupProbe,
                    const SpeedProbe &WindowProbe) {
  R.endToEnd("setup_s", median(M.SetupCpu) / SetupProbe.slowdown(), "s");
  R.endToEnd("op_cpu_ms", M.OpCpu / WindowProbe.slowdown() * 1e3, "ms");
  R.endToEnd("heap_mb", M.HeapMb, "MB");
  R.endToEnd("p50_ms", percentile(M.OkLatency, 50) * 1e3, "ms");
  R.endToEnd("ops_per_s",
             M.WindowSeconds > 0
                 ? static_cast<double>(M.OkLatency.size()) / M.WindowSeconds
                 : 0,
             "1/s");
  R.endToEnd("setup_wall_s", median(M.SetupWall), "s");
  std::string Setups;
  for (double S : M.SetupCpu)
    Setups += (Setups.empty() ? "" : ",") + std::to_string(S);
  R.meta("setup_cpu_s", Setups);
  R.count("latency_samples", static_cast<double>(M.OkLatency.size()));
  R.meta("probe", WindowProbe.name());
  for (const auto &[Tag, Probe] :
       {std::pair<std::string, const SpeedProbe *>{"setup_", &SetupProbe},
        {"window_", &WindowProbe}}) {
    R.count(Tag + "probe_samples", static_cast<double>(Probe->samples()));
    R.count(Tag + "probe_ms", Probe->medianSeconds() * 1e3);
    R.count(Tag + "slowdown", Probe->slowdown());
  }
}

void CoreCounts::add(const graphit::OrderedStats &S, double Reach) {
  Runs += 1;
  Rounds += static_cast<double>(S.Rounds);
  Fused += static_cast<double>(S.FusedRounds);
  Processed += static_cast<double>(S.VerticesProcessed);
  Reached += Reach;
}

void CoreCounts::report(RunRecord &R) const {
  const double N = std::max(Runs, 1.0);
  R.layer("core.rounds", Rounds / N, "count");
  R.layer("core.fused_rounds", Fused / N, "count");
  R.layer("core.vertices_processed", Processed / N, "count");
  R.layer("core.work_ratio", Reached > 0 ? Processed / Reached : 0, "ratio");
}

void reportGraphLayers(RunRecord &R) {
  R.layer("graph.generate_s",
          median(trace::durations(R.Spans, "graph.generate")), "s");
  R.layer("graph.build_s", median(trace::durations(R.Spans, "graph.build")),
          "s");
}

void addRunMeta(RunRecord &R, const RunConfig &C, const ThreadRoles &T,
                uint64_t GraphV, uint64_t GraphE, const std::string &OpsSum) {
  const char *Policy = std::getenv("OMP_WAIT_POLICY");
  R.meta("seed", std::to_string(C.Seed));
  R.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  R.meta("omp_wait_policy", Policy ? Policy : "");
  R.meta("workers", std::to_string(T.Workers));
  R.meta("omp_per_query", std::to_string(T.OmpPerQuery));
  R.meta("clients", std::to_string(T.Clients));
  R.meta("writer", std::to_string(T.Writer));
  R.meta("writer_omp", std::to_string(T.WriterOmp));
  R.meta("kernel_omp", std::to_string(T.KernelOmp));
  R.meta("graph_v", std::to_string(GraphV));
  R.meta("graph_e", std::to_string(GraphE));
  R.meta("ops_checksum", OpsSum);
}

namespace {

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

template <class T, class Fn>
std::string object(const std::vector<T> &F, Fn &&Entry) {
  std::string Out = "{";
  for (size_t I = 0; I < F.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Entry(F[I]);
  }
  return Out + "}";
}

std::string metricEntry(const Metric &M) {
  return quoted(M.Name) + ": {\"value\": " + number(M.Value) +
         ", \"unit\": " + quoted(M.Unit) + "}";
}

} // namespace

void printRecord(const RunConfig &C, const RunRecord &R) {
  std::vector<std::pair<std::string, std::string>> Counts = {
      {"attempted", std::to_string(R.Attempted)},
      {"ok", std::to_string(R.Ok)},
      {"failed", std::to_string(R.Failed)},
      {"warmup", std::to_string(R.Warmup)},
      {"oracle_checked", std::to_string(R.OracleChecked)},
      {"oracle_mismatches", std::to_string(R.OracleMismatches)}};
  for (const auto &[Name, V] : R.Counts)
    Counts.emplace_back(Name, number(V));
  std::vector<std::pair<std::string, std::string>> Spans;
  for (const auto &[Name, S] : trace::summarize(R.Spans))
    Spans.emplace_back(Name, "{\"count\": " + std::to_string(S.Count) +
                                 ", \"total_s\": " + number(S.TotalSeconds) +
                                 ", \"self_s\": " + number(S.SelfSeconds) +
                                 "}");

  const auto Raw = [](const std::pair<std::string, std::string> &F) {
    return quoted(F.first) + ": " + F.second;
  };
  const auto Text = [](const std::pair<std::string, std::string> &F) {
    return quoted(F.first) + ": " + quoted(F.second);
  };
  std::printf("{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"traced\": %s, \"meta\": %s, \"counts\": %s, "
              "\"end_to_end\": %s, \"per_layer\": %s, \"spans\": %s}\n",
              quoted(C.Workload).c_str(),
              static_cast<unsigned long long>(C.Seed),
              number(C.Seconds).c_str(), C.Trace ? "true" : "false",
              object(R.Meta, Text).c_str(), object(Counts, Raw).c_str(),
              object(R.EndToEnd, metricEntry).c_str(),
              object(R.Layers, metricEntry).c_str(),
              object(Spans, Raw).c_str());
  std::fflush(stdout);
}

} // namespace perfbench
