//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run options, the result a workload
/// hands back (known-answer counts, end-to-end and per-layer metrics, the
/// trace table), and small statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_PERFBENCH_BENCH_H
#define SEMCOMM_PERFBENCH_BENCH_H

#include "Trace.h"

#include "commute/SessionPool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// Nominal length of the run, which sizes its fixed work (WorkBudget).
  double Seconds = 10;
  bool Trace = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool Smoke = false;
  /// Replace one reference answer with a deliberately wrong one, to prove
  /// the known-answer checker can fail.
  bool WrongAnswer = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string TraceOut;
  unsigned Cpus = 1;
  /// Worker threads handed to the system (--threads).
  unsigned Threads = 1;
  /// catalog_certify only: override the driver's default solve mode (for
  /// the default-vs-shared-catalog comparison in README.md).
  std::optional<semcomm::SolveMode> SolveMode;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Samples the value was computed from (1 for a count or a ratio of
  /// counts).
  size_t Samples = 1;
};

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The end-to-end metrics (printed by untraced runs) and the per-layer
  /// metrics the workload exercises (printed by traced runs, with 0 for
  /// the layers it bypasses).
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layers;
  /// The traced run's "where did the time go" table.
  std::string TraceTable;

  void addE2E(const std::string &N, double V, const std::string &U,
              size_t S = 1) {
    EndToEnd.push_back({N, V, U, S});
  }
  void addLayer(const std::string &N, double V, const std::string &U,
                size_t S = 1) {
    Layers.push_back({N, V, U, S});
  }
  /// Counts \p Ops operations of which \p Bad failed their check.
  void check(uint64_t Ops, uint64_t Bad) {
    Attempted += Ops;
    Failed += Bad;
  }
};

/// Traced runs: adds the self-time shares, residual and tracing overhead
/// to \p R's layer metrics, renders the table, and writes the spans to
/// O.TraceOut. \p OverheadShare is traced over untraced time per unit of
/// work, minus one.
void finishTrace(Result &R, const Options &O, const Tracer &T,
                 double OverheadShare);

Result runCatalogCertify(const Options &O);
Result runServeZipf(const Options &O);
Result runExecTxn(const Options &O);

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Linear-interpolated quantile \p Q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

inline double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / double(V.size());
}

inline double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

/// A phase's fixed amount of work: \p Seconds times the workload's nominal
/// rate of work units per second on the reference host (4 vCPUs, measured
/// while other tenants kept it busy). Fixing the work rather than the time
/// keeps a run's memory and counters independent of how fast the host
/// happens to be. A phase on a slower host stops after MaxSlowdown times
/// its nominal time, which bounds the length of a run.
class WorkBudget {
public:
  static constexpr double MaxSlowdown = 1.25;
  WorkBudget(double Seconds, double Rate)
      : Target(std::max<size_t>(1, static_cast<size_t>(Seconds * Rate))),
        Cap(MaxSlowdown * Seconds) {}
  /// True while fewer than the target units are done and time remains.
  bool more(size_t Done) const {
    return Done < Target && secondsSince(Start) < Cap;
  }

private:
  size_t Target;
  double Cap;
  Clock::time_point Start = Clock::now();
};

/// Peak resident set of this process, MiB (VmHWM).
double peakRssMiB();

} // namespace perfbench

#endif // SEMCOMM_PERFBENCH_BENCH_H
