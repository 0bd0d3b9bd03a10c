//===- perfbench/src/Trace.h - In-memory spans for the traced run -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each public call it makes into a
/// layer of the library. A span has a name, the layer it is charged to, a
/// start and end, the span that caused it, and a request id shared by the
/// spans of one service request. Spans stay in memory and are written out
/// when the run ends.
///
/// Two kinds of span:
///  * synchronous spans nest on the caller's thread; a layer's self time
///    is its spans' durations minus the part their child spans cover, and
///    the wall time no child covers is the residual;
///  * request spans (Async) describe one request's life (queue wait, the
///    drain that served it) and overlap each other, so they are reported
///    as latencies, never summed into self time.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_PERFBENCH_TRACE_H
#define SEMCOMM_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
public:
  using Clock = std::chrono::steady_clock;
  static constexpr int32_t NoParent = -1;

  struct Span {
    std::string Name;
    std::string Layer;
    Clock::time_point Start, End;
    int32_t Parent = NoParent;
    uint64_t ReqId = 0;
    bool Async = false;
    std::vector<std::pair<std::string, double>> Counts;
  };

  /// Opens a synchronous span under the innermost open one.
  int32_t begin(const std::string &Name, const std::string &Layer);
  void end(int32_t Id);
  /// Records a finished span with explicit times (request spans).
  int32_t record(const std::string &Name, const std::string &Layer,
                 Clock::time_point Start, Clock::time_point End,
                 int32_t Parent, uint64_t ReqId, bool Async);
  void count(int32_t Id, const std::string &Key, double V) {
    Spans[Id].Counts.emplace_back(Key, V);
  }
  void tag(int32_t Id, uint64_t ReqId) { Spans[Id].ReqId = ReqId; }

  /// Self time per layer over every synchronous span, ms. Root spans'
  /// self time is reported under "residual".
  std::map<std::string, double> selfMillisByLayer() const;
  /// Sum of root synchronous span durations, ms.
  double wallMillis() const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool writeJsonLines(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  Clock::time_point Epoch = Clock::now();
};

/// RAII synchronous span; a null tracer makes it free.
class SpanScope {
public:
  SpanScope(Tracer *T, const std::string &Name, const std::string &Layer)
      : T(T), Id(T ? T->begin(Name, Layer) : Tracer::NoParent) {}
  ~SpanScope() {
    if (T)
      T->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  void count(const std::string &Key, double V) {
    if (T)
      T->count(Id, Key, V);
  }
  int32_t id() const { return Id; }
  /// Marks the span as part of request \p ReqId.
  void tag(uint64_t ReqId) {
    if (T)
      T->tag(Id, ReqId);
  }

private:
  Tracer *T;
  int32_t Id;
};

/// The traced run's table: layer, self time, share of the wall time, the
/// residual, and the tracing overhead (traced minus untraced time per unit
/// of work, as a share of the untraced time).
std::string renderLayerTable(const std::string &Workload, const Tracer &T,
                             double OverheadShare);

} // namespace perfbench

#endif // SEMCOMM_PERFBENCH_TRACE_H
