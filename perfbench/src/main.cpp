//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--trace-out FILE] [--smoke] [--wrong-answer]
///           [--solve-mode NAME] [--threads N]
///
/// Runs one workload (catalog_certify, serve_zipf, exec_txn; see
/// README.md) and prints a human-readable summary, one ROW line carrying
/// the host, thread count, seed and sample counts, and as the last line a
/// JSON object {correct, attempted, failed, metrics}. An untraced run's
/// metrics are the end-to-end metrics; a traced run's are the per-layer
/// metrics, every one of them on every workload (0 where the workload
/// bypasses the layer). The system gets one worker thread unless --threads
/// says otherwise (for the thread comparisons in README.md). Exit status:
/// 0 when every known-answer check passed, 1 when one failed, 2 on a usage
/// error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

using namespace perfbench;

namespace perfbench {

double peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Layers charged by the benchmark's spans: the library's modules, then the
/// benchmark's own input generation, known-answer checks, repeated set-up
/// measurements and tracing.
static const char *const SpanLayers[] = {
    "commute", "driver", "index", "service", "runtime",
    "loadgen", "input",  "check", "setup",   "trace"};

void finishTrace(Result &R, const Options &O, const Tracer &T,
                 double OverheadShare) {
  std::map<std::string, double> Self = T.selfMillisByLayer();
  double Wall = T.wallMillis();
  for (const char *L : SpanLayers)
    R.addLayer(std::string(L) + ".self_share",
               ratio(Self.count(L) ? Self.at(L) : 0.0, Wall), "ratio");
  R.addLayer("trace.residual_share",
             ratio(Self.count("residual") ? Self.at("residual") : 0.0, Wall),
             "ratio");
  R.addLayer("trace.overhead_share", OverheadShare, "ratio");
  R.TraceTable = renderLayerTable(O.Workload, T, OverheadShare);
  if (!O.TraceOut.empty() && !T.writeJsonLines(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 O.TraceOut.c_str());
}

} // namespace perfbench

namespace {

/// Every per-layer metric with its unit. A traced run prints all of them;
/// the workload notes per metric in README.md say how each is normalized.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"bench.latency_p90_ms", "ms"},
    {"driver.job_ms_p50", "ms"},
    {"driver.job_ms_p99", "ms"},
    {"driver.busy_share", "ratio"},
    {"smt.conflicts", "count"},
    {"smt.vcs", "count"},
    {"smt.peak_live_vars", "count"},
    {"smt.peak_live_clauses", "count"},
    {"smt.compactions", "count"},
    {"commute.pairs_opened", "count"},
    {"commute.prefix_reuse_share", "ratio"},
    {"proof.certificates", "count"},
    {"proof.checked_share", "ratio"},
    {"proof.cost_ms", "ms"},
    {"index.compile_ms", "ms"},
    {"index.roundtrip_ms", "ms"},
    {"index.image_bytes", "bytes"},
    {"index.fallbacks", "count"},
    {"service.open_latency_ms_p50", "ms"},
    {"service.open_latency_ms_p99", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.drain_ms_p50", "ms"},
    {"service.drain_ms_p99", "ms"},
    {"service.drain_size_mean", "count"},
    {"service.batched_reuse_share", "ratio"},
    {"service.repeat_share", "ratio"},
    {"service.clauses_adopted", "count"},
    {"service.warmup_import_ms", "ms"},
    {"loadgen.late_ms_p99", "ms"},
    {"runtime.gk_checks_per_op", "count"},
    {"runtime.gk_pass_share", "ratio"},
    {"runtime.gk_ns_per_query", "ns"},
    {"runtime.aborts_per_txn", "count"},
    {"runtime.commit_share", "ratio"},
    {"runtime.wait_rounds_per_txn", "count"},
    {"runtime.parallel_scaling", "ratio"},
    {"inverse.undone_per_op", "ratio"},
    {"commute.self_share", "ratio"},
    {"driver.self_share", "ratio"},
    {"index.self_share", "ratio"},
    {"service.self_share", "ratio"},
    {"runtime.self_share", "ratio"},
    {"loadgen.self_share", "ratio"},
    {"input.self_share", "ratio"},
    {"check.self_share", "ratio"},
    {"setup.self_share", "ratio"},
    {"trace.self_share", "ratio"},
    {"trace.residual_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.open_loop_overhead_share", "ratio"},
};

unsigned availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return std::max(1, CPU_COUNT(&Set));
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms, bool WithSamples) {
  std::string Out = "{";
  for (size_t I = 0; I != Ms.size(); ++I) {
    Out += (I ? "," : "") + std::string("\"") + Ms[I].Name +
           "\":{\"value\":" + num(Ms[I].Value) + ",\"unit\":\"" + Ms[I].Unit +
           "\"";
    if (WithSamples)
      Out += ",\"samples\":" + std::to_string(Ms[I].Samples);
    Out += "}";
  }
  return Out + "}";
}

/// Fills the traced run's metric list in registry order, 0 for layers the
/// workload bypasses. Returns false when a workload reported a metric the
/// registry does not know or with another unit.
bool completeLayers(Result &R) {
  std::map<std::string, Metric> Given;
  for (const Metric &M : R.Layers)
    Given[M.Name] = M;
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : LayerMetrics) {
    auto It = Given.find(Name);
    if (It == Given.end()) {
      Out.push_back({Name, 0.0, Unit, 0});
      continue;
    }
    if (It->second.Unit != Unit)
      return false;
    Out.push_back(It->second);
    Given.erase(It);
  }
  R.Layers = std::move(Out);
  return Given.empty();
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload catalog_certify|serve_zipf|exec_txn "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--smoke] [--wrong-answer] [--solve-mode NAME] [--threads N]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--wrong-answer") {
      O.WrongAnswer = true;
    } else if (!V) {
      return usage(argv[0]);
    } else if (A == "--workload") {
      O.Workload = argv[++I];
    } else if (A == "--seed") {
      O.Seed = std::strtoull(argv[++I], nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(argv[++I], nullptr);
    } else if (A == "--trace") {
      O.Trace = std::strcmp(argv[++I], "0") != 0;
    } else if (A == "--threads") {
      O.Threads = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
      if (O.Threads == 0)
        return usage(argv[0]);
    } else if (A == "--trace-out") {
      O.TraceOut = argv[++I];
    } else if (A == "--solve-mode") {
      std::string Name = argv[++I];
      for (semcomm::SolveMode M :
           {semcomm::SolveMode::OneShot, semcomm::SolveMode::PerMethod,
            semcomm::SolveMode::SharedPair, semcomm::SolveMode::SharedFamily,
            semcomm::SolveMode::SharedCatalog})
        if (Name == semcomm::solveModeName(M))
          O.SolveMode = M;
      if (!O.SolveMode)
        return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (!(O.Seconds > 0))
    return usage(argv[0]);
  O.Cpus = availableCpus();

  Result R;
  if (O.Workload == "catalog_certify")
    R = runCatalogCertify(O);
  else if (O.Workload == "serve_zipf")
    R = runServeZipf(O);
  else if (O.Workload == "exec_txn")
    R = runExecTxn(O);
  else
    return usage(argv[0]);

  if (O.Trace && !completeLayers(R)) {
    std::fprintf(stderr, "perfbench: a workload reported an unregistered "
                         "layer metric or unit\n");
    return 2;
  }
  const std::vector<Metric> &Out = O.Trace ? R.Layers : R.EndToEnd;
  bool Correct = R.Attempted > 0 && R.Failed == 0;

  std::printf("perfbench %s seed=%llu cpus=%u threads=%u trace=%d\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Cpus,
              O.Threads, O.Trace ? 1 : 0);
  for (const Metric &M : Out)
    std::printf("  %-30s %16.6g %-6s (n=%zu)\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
  std::printf("  failed_share %.6g (%llu of %llu operations)\n",
              ratio(double(R.Failed), double(R.Attempted)),
              (unsigned long long)R.Failed, (unsigned long long)R.Attempted);
  if (O.Trace)
    std::printf("%s", R.TraceTable.c_str());
  std::printf("ROW {\"workload\":\"%s\",\"seed\":%llu,\"cpus\":%u,"
              "\"threads\":%u,\"trace\":%d,\"seconds\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"failed_share\":%s,\"metrics\":%s}\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Cpus,
              O.Threads, O.Trace ? 1 : 0, num(O.Seconds).c_str(),
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed,
              num(ratio(double(R.Failed), double(R.Attempted))).c_str(),
              metricsJson(Out, true).c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              Correct ? "true" : "false", (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed, metricsJson(Out, false).c_str());
  return Correct ? 0 : 1;
}
