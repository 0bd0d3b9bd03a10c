//===- perfbench/src/Trace.cpp - In-memory spans for the traced run -------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

double millis(Tracer::Clock::duration D) {
  return std::chrono::duration<double, std::milli>(D).count();
}

} // namespace

int32_t Tracer::begin(const std::string &Name, const std::string &Layer) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Parent = Open.empty() ? NoParent : Open.back();
  S.Start = Clock::now();
  Spans.push_back(std::move(S));
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void Tracer::end(int32_t Id) {
  Spans[Id].End = Clock::now();
  // Spans close innermost-first (SpanScope is RAII).
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

int32_t Tracer::record(const std::string &Name, const std::string &Layer,
                       Clock::time_point Start, Clock::time_point End,
                       int32_t Parent, uint64_t ReqId, bool Async) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.ReqId = ReqId;
  S.Async = Async;
  Spans.push_back(std::move(S));
  return static_cast<int32_t>(Spans.size() - 1);
}

std::map<std::string, double> Tracer::selfMillisByLayer() const {
  std::vector<double> ChildMs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (!S.Async && S.Parent != NoParent)
      ChildMs[S.Parent] += millis(S.End - S.Start);
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Async)
      continue;
    double Self = millis(S.End - S.Start) - ChildMs[I];
    Out[S.Parent == NoParent ? "residual" : S.Layer] += Self;
  }
  return Out;
}

double Tracer::wallMillis() const {
  double W = 0;
  for (const Span &S : Spans)
    if (!S.Async && S.Parent == NoParent)
      W += millis(S.End - S.Start);
  return W;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  auto Ns = [&](Clock::time_point T) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
            .count());
  };
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name << "\",\"layer\":\""
        << S.Layer << "\",\"start_ns\":" << Ns(S.Start)
        << ",\"end_ns\":" << Ns(S.End) << ",\"parent\":" << S.Parent
        << ",\"req\":" << S.ReqId << ",\"async\":"
        << (S.Async ? "true" : "false") << ",\"counts\":{";
    for (size_t C = 0; C != S.Counts.size(); ++C)
      Out << (C ? "," : "") << "\"" << S.Counts[C].first
          << "\":" << S.Counts[C].second;
    Out << "}}\n";
  }
  return static_cast<bool>(Out);
}

std::string renderLayerTable(const std::string &Workload, const Tracer &T,
                             double OverheadShare) {
  std::map<std::string, double> Self = T.selfMillisByLayer();
  double Wall = T.wallMillis();
  std::string Out;
  char Line[160];
  std::snprintf(Line, sizeof(Line), "traced run: %s, wall %.1f ms\n",
                Workload.c_str(), Wall);
  Out += Line;
  std::snprintf(Line, sizeof(Line), "  %-12s %12s %8s\n", "layer", "self ms",
                "share");
  Out += Line;
  for (const auto &[Layer, Ms] : Self) {
    if (Layer == "residual")
      continue;
    std::snprintf(Line, sizeof(Line), "  %-12s %12.2f %7.2f%%\n",
                  Layer.c_str(), Ms, Wall > 0 ? 100 * Ms / Wall : 0.0);
    Out += Line;
  }
  double Residual = Self.count("residual") ? Self.at("residual") : 0.0;
  std::snprintf(Line, sizeof(Line), "  %-12s %12.2f %7.2f%%\n", "residual",
                Residual, Wall > 0 ? 100 * Residual / Wall : 0.0);
  Out += Line;
  std::snprintf(Line, sizeof(Line),
                "  tracing overhead: %+.2f%% (traced vs untraced time per "
                "unit of work)\n",
                100 * OverheadShare);
  Out += Line;
  return Out;
}

} // namespace perfbench
