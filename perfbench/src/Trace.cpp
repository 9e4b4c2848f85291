//===- perfbench/src/Trace.cpp - In-memory spans around library calls -----===//
//
// Part of graphit-ordered, an independent C++ reproduction of "Optimizing
// Ordered Graph Algorithms with GraphIt" (CGO 2020). MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> NextId{1};
const auto Epoch = std::chrono::steady_clock::now();

/// One thread's spans. Owned by the registry so spans outlive the thread
/// that recorded them; only that thread appends.
struct ThreadBuffer {
  std::vector<Span> Spans;
  uint64_t OpenSpan = 0; ///< innermost open span on this thread
  uint64_t OpenOp = 0;   ///< its operation
};

std::mutex RegistryMu;
std::vector<std::unique_ptr<ThreadBuffer>> Registry;

ThreadBuffer &threadBuffer() {
  thread_local ThreadBuffer *Mine = nullptr;
  if (!Mine) {
    auto Fresh = std::make_unique<ThreadBuffer>();
    Fresh->Spans.reserve(1 << 14);
    Mine = Fresh.get();
    std::lock_guard<std::mutex> Lock(RegistryMu);
    Registry.push_back(std::move(Fresh));
  }
  return *Mine;
}

} // namespace

int64_t trace::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void trace::setEnabled(bool On) { Enabled.store(On); }
bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

std::vector<Span> trace::collect() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::vector<Span> All;
  for (auto &B : Registry)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  return All;
}

std::vector<double> trace::durations(const std::vector<Span> &Spans,
                                     const char *Name, int64_t FromNs,
                                     int64_t ToNs) {
  std::vector<double> Out;
  const std::string Want(Name);
  for (const Span &S : Spans)
    if (S.StartNs >= FromNs && S.StartNs < ToNs && Want == S.Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) * 1e-9);
  return Out;
}

std::map<std::string, SpanSummary>
trace::summarize(const std::vector<Span> &Spans) {
  // Children of each span, as intervals clipped to the parent; their
  // union is the part of the parent's duration that is not self time.
  std::unordered_map<uint64_t, size_t> Index;
  Index.reserve(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Index[Spans[I].Id] = I;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans) {
    auto It = Index.find(S.Parent);
    if (S.Parent == 0 || It == Index.end())
      continue;
    const Span &P = Spans[It->second];
    const int64_t Lo = std::max(S.StartNs, P.StartNs);
    const int64_t Hi = std::min(S.EndNs, P.EndNs);
    if (Lo < Hi)
      Children[It->second].emplace_back(Lo, Hi);
  }

  std::map<std::string, SpanSummary> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    int64_t Covered = 0, RunLo = 0, RunHi = -1;
    for (const auto &K : Kids) {
      if (K.first > RunHi) {
        if (RunHi > RunLo)
          Covered += RunHi - RunLo;
        RunLo = K.first;
        RunHi = K.second;
      } else {
        RunHi = std::max(RunHi, K.second);
      }
    }
    if (RunHi > RunLo)
      Covered += RunHi - RunLo;
    SpanSummary &Sum = Out[S.Name];
    const int64_t Dur = S.EndNs - S.StartNs;
    ++Sum.Count;
    Sum.TotalSeconds += static_cast<double>(Dur) * 1e-9;
    Sum.SelfSeconds += static_cast<double>(Dur - Covered) * 1e-9;
  }
  return Out;
}

bool trace::write(const std::vector<Span> &Spans, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "name,start_ns,end_ns,op,id,parent\n");
  for (const Span &S : Spans)
    std::fprintf(F, "%s,%lld,%lld,%llu,%llu,%llu\n", S.Name,
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs),
                 static_cast<unsigned long long>(S.Op),
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent));
  return std::fclose(F) == 0;
}

ScopedSpan::ScopedSpan(const char *Name, uint64_t Op) {
  if (!trace::enabled())
    return;
  ThreadBuffer &B = threadBuffer();
  Active = true;
  S.Name = Name;
  S.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = B.OpenSpan;
  S.Op = Op ? Op : B.OpenOp;
  SavedOp = B.OpenOp;
  B.OpenSpan = S.Id;
  B.OpenOp = S.Op;
  S.StartNs = trace::nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!Active)
    return;
  S.EndNs = trace::nowNs();
  ThreadBuffer &B = threadBuffer();
  B.OpenSpan = S.Parent;
  B.OpenOp = SavedOp;
  B.Spans.push_back(S);
}

} // namespace perfbench
