//===- perfbench/src/ServeZipf.cpp - The serve_zipf workload --------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived warm session under skewed, heavily repeated traffic: one
/// ShardedVerifyService (4 shards, default config), warmed by one full
/// catalog pass. Eight clients share it; each draws its requests Zipf(s=1)
/// over its own seeded permutation of the 510 catalog questions (family x
/// pair x kind), fixed for the run, and every request comes from a client
/// picked at random. One client's hot set makes a seed's cost: its top ten
/// questions carry 43% of its traffic, and questions differ in solving
/// cost, so with a single client one seed's median cycle read 20% above
/// another's in repeated runs. Eight hot sets average that out.
///
///  * Phase A, closed loop: one caller keeps 64 requests outstanding
///    (submit 64, then drain). It gives the end-to-end figures: the latency
///    a caller sees for its 64 requests (capacity is 64 over that).
///  * Phase B, open loop: Poisson arrivals at a fixed 600 req/s. A greedy
///    caller submits every due request and drains whenever anything is
///    pending; each request is timed from when it was due, so a slow drain
///    charges its wait to every request queued behind it. Its latencies
///    are per-layer figures, not end-to-end ones: on a shared 4-vCPU host
///    their run-to-run spread (15-70% at 4 threads) was wider than any
///    bound a gate could hold.
///    A traced run alternates untraced and traced half-second stretches of
///    phase B; the latency figures come from the untraced stretches, and
///    the traced ones give phase B's own tracing overhead.
///
/// Known answer (the paper): every catalog condition is sound and
/// complete, so every verdict must have both. One operation per request;
/// a request fails when submit rejects it, when no verdict comes back for
/// it, or when its verdict is not sound and complete.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/ShardedVerifyService.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <thread>

using namespace semcomm;
using namespace semcomm::service;

namespace perfbench {

namespace {

constexpr unsigned Outstanding = 64;  ///< Phase A requests per drain.
constexpr unsigned Clients = 8;       ///< Independent Zipf streams.
/// Phase B arrival rate, requests per second: fixed, about a third of
/// phase A's capacity on the reference host while other tenants keep it
/// busy.
constexpr double ArrivalRate = 600;
constexpr double PhaseAShare = 0.5;
constexpr double CyclesPerSecond = 22; ///< Phase A nominal rate (WorkBudget).
/// Length of phase B's alternating untraced and traced stretches.
constexpr double StretchSeconds = 0.5;

std::string keyOf(const ServiceRequest &R) {
  return R.Family + "/" + R.Op1 + "/" + R.Op2 + "/" +
         conditionKindName(R.Kind);
}

/// The catalog, its service, and the question universe, built together.
struct Instance {
  std::unique_ptr<ExprFactory> F;
  std::unique_ptr<Catalog> C;
  std::unique_ptr<ShardedVerifyService> Svc;
  std::vector<ServiceRequest> Universe;

  /// Tears down in dependency order: the service before its catalog,
  /// the catalog before its factory.
  void reset() {
    Svc.reset();
    C.reset();
    F.reset();
    Universe.clear();
  }
};

/// Clients, each drawing Zipf(1) over its own seeded permutation of the
/// universe.
class RequestStream {
public:
  RequestStream(size_t N, uint64_t Seed)
      : Rng(Seed), Perms(Clients, std::vector<size_t>(N)), Cdf(N) {
    for (std::vector<size_t> &Perm : Perms) {
      for (size_t I = 0; I != N; ++I)
        Perm[I] = I;
      for (size_t I = N; I > 1; --I)
        std::swap(Perm[I - 1], Perm[Rng() % I]);
    }
    double Sum = 0;
    for (size_t K = 0; K != N; ++K)
      Cdf[K] = Sum += 1.0 / double(K + 1);
    for (double &X : Cdf)
      X /= Sum;
  }
  size_t next() {
    const std::vector<size_t> &Perm = Perms[Rng() % Clients];
    double U = unit();
    size_t Rank = std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    return Perm[std::min(Rank, Perm.size() - 1)];
  }
  /// Exponential inter-arrival gap at \p Rate per second, seconds.
  double gap(double Rate) { return -std::log(1 - unit()) / Rate; }

private:
  double unit() { return double(Rng() >> 11) * 0x1.0p-53; }
  std::mt19937_64 Rng;
  std::vector<std::vector<size_t>> Perms;
  std::vector<double> Cdf;
};

/// What the measured phases accumulate.
struct Serving {
  /// Phase A: time from the first submit of a cycle to its verdicts, and
  /// untraced and traced totals (their ratio is the tracing overhead).
  std::vector<double> CycleMs, UntracedCycleMs;
  uint64_t RequestsA[2] = {0, 0};
  double BusySecondsA[2] = {0, 0};
  /// Phase B, untraced stretches: per-request latency, queue wait and
  /// lateness; per drain. Traced stretches: per-request latency.
  std::vector<double> LatencyMs, QueueWaitMs, LateMs, DrainMsB, DrainSizeB;
  std::vector<double> TracedLatencyMs;
  uint64_t Requests = 0, Repeats = 0;
  std::vector<char> Seen;
};

class ServeRun {
public:
  ServeRun(const Options &O, Result &R, Instance &I)
      : O(O), R(R), I(I), Stream(I.Universe.size(), O.Seed) {
    S.Seen.assign(I.Universe.size(), 0);
  }

  /// Drains, then checks the verdicts against the submitted questions;
  /// returns when the verdicts came back (before the check).
  Clock::time_point drainAndCheck(const std::vector<size_t> &Qs, Tracer *T) {
    std::vector<ServiceVerdict> V;
    Clock::time_point Done;
    int32_t DrainSpan;
    {
      SpanScope Drain(T, "drain", "service");
      V = I.Svc->drain();
      Done = Clock::now();
      DrainSpan = Drain.id();
    }
    if (T) {
      SpanScope Stats(T, "drain.stats", "trace");
      drainCounts(*T, DrainSpan, Qs.size());
    }
    SpanScope Check(T, "verdicts", "check");
    std::map<std::string, long> Want;
    for (size_t Q : Qs)
      ++Want[keyOf(I.Universe[Q])];
    uint64_t Bad = 0;
    for (const ServiceVerdict &SV : V) {
      auto It = Want.find(keyOf(SV.Req));
      bool Expected = It != Want.end() && It->second > 0;
      bool ExpectComplete = !(O.WrongAnswer && Checked == 0);
      ++Checked;
      if (!Expected || !SV.Sound || SV.Complete != ExpectComplete)
        ++Bad;
      if (Expected)
        --It->second;
    }
    for (const auto &[Key, Left] : Want)
      Bad += Left > 0 ? Left : 0; // No verdict came back.
    R.check(0, std::min<uint64_t>(Bad, Qs.size()));
    return Done;
  }

  /// Attaches the drain's stats deltas to its span.
  void drainCounts(Tracer &T, int32_t Span, size_t Size) {
    ShardedServiceStats St = I.Svc->stats();
    uint64_t Reuses = 0;
    int64_t Conflicts = 0;
    for (size_t Sh = 0; Sh != St.Shards.size(); ++Sh) {
      Reuses += St.Shards[Sh].Stats.BatchedReuses;
      Conflicts += I.Svc->shard(Sh).session().totalConflicts();
    }
    T.count(Span, "requests", double(Size));
    T.count(Span, "batched_reuses", double(Reuses - LastReuses));
    T.count(Span, "conflicts", double(Conflicts - LastConflicts));
    LastReuses = Reuses;
    LastConflicts = Conflicts;
  }

  bool submit(size_t Q, Tracer *T, uint64_t ReqId) {
    SpanScope Span(T, "submit", "service");
    Span.tag(ReqId);
    std::string Error;
    R.check(1, 0);
    ++S.Requests;
    S.Repeats += S.Seen[Q];
    S.Seen[Q] = 1;
    if (I.Svc->submit(I.Universe[Q], Error))
      return true;
    R.check(0, 1);
    return false;
  }

  /// Closed loop for \p Seconds' worth of drain cycles. With a tracer,
  /// every other cycle is traced, so traced and untraced cycles share the
  /// host's conditions.
  void phaseA(double Seconds, Tracer *Tracing) {
    WorkBudget Budget(Seconds, CyclesPerSecond);
    for (size_t N = 0; Budget.more(N); ++N) {
      Tracer *T = Tracing && N % 2 ? Tracing : nullptr;
      SpanScope Cycle(T, "serve.closed_loop", "bench");
      std::vector<size_t> Qs;
      {
        SpanScope Gen(T, "requests", "input");
        for (unsigned K = 0; K != Outstanding; ++K)
          Qs.push_back(Stream.next());
      }
      Clock::time_point T0 = Clock::now();
      std::vector<size_t> Accepted;
      for (size_t Q : Qs)
        if (submit(Q, T, NextReq++))
          Accepted.push_back(Q);
      Clock::time_point T1 = drainAndCheck(Accepted, T);
      double Busy = std::chrono::duration<double>(T1 - T0).count();
      S.BusySecondsA[T != nullptr] += Busy;
      S.RequestsA[T != nullptr] += Accepted.size();
      S.CycleMs.push_back(Busy * 1e3);
      if (!T)
        S.UntracedCycleMs.push_back(Busy * 1e3);
    }
  }

  /// Open loop for \p Seconds. With a tracer, untraced and traced
  /// stretches alternate; each loop turn submits what is due and drains it,
  /// so every request of a drain falls in one stretch.
  void phaseB(double Seconds, Tracer *Tracing) {
    // The schedule: Poisson arrivals over the phase, questions from the
    // same seeded stream.
    std::vector<double> DueS;
    std::vector<size_t> Qs;
    for (double At = Stream.gap(ArrivalRate); At < Seconds;
         At += Stream.gap(ArrivalRate)) {
      DueS.push_back(At);
      Qs.push_back(Stream.next());
    }
    Clock::time_point Start = Clock::now();
    auto Due = [&](size_t K) {
      return Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(DueS[K]));
    };
    size_t Next = 0;
    std::vector<size_t> Pending, PendingQs;
    while (Next < DueS.size() || !Pending.empty()) {
      Clock::time_point Now = Clock::now();
      long Stretch = static_cast<long>(
          std::chrono::duration<double>(Now - Start).count() / StretchSeconds);
      Tracer *T = Tracing && Stretch % 2 ? Tracing : nullptr;
      SpanScope Turn(T, "serve.open_loop", "bench");
      while (Next < DueS.size() && Due(Next) <= Now) {
        if (!T)
          S.LateMs.push_back(msBetween(Due(Next), Clock::now()));
        if (submit(Qs[Next], T, NextReq + Next)) {
          Pending.push_back(Next);
          PendingQs.push_back(Qs[Next]);
        }
        ++Next;
      }
      if (Pending.empty()) {
        SpanScope Idle(T, "idle", "loadgen");
        if (Next < DueS.size())
          std::this_thread::sleep_until(Due(Next));
        continue;
      }
      Clock::time_point D0 = Clock::now();
      Clock::time_point D1 = drainAndCheck(PendingQs, T);
      if (!T) {
        S.DrainMsB.push_back(msBetween(D0, D1));
        S.DrainSizeB.push_back(double(Pending.size()));
      }
      for (size_t K : Pending) {
        if (!T) {
          S.LatencyMs.push_back(msBetween(Due(K), D1));
          S.QueueWaitMs.push_back(msBetween(Due(K), D0));
        } else {
          S.TracedLatencyMs.push_back(msBetween(Due(K), D1));
          uint64_t Id = NextReq + K;
          int32_t Req = T->record("request", "service", Due(K), D1,
                                  Tracer::NoParent, Id, true);
          T->record("queue_wait", "service", Due(K), D0, Req, Id, true);
          T->record("drain", "service", D0, D1, Req, Id, true);
        }
      }
      Pending.clear();
      PendingQs.clear();
    }
    NextReq += DueS.size();
  }

  Serving S;

private:
  const Options &O;
  Result &R;
  Instance &I;
  RequestStream Stream;
  uint64_t NextReq = 0;
  uint64_t Checked = 0;
  uint64_t LastReuses = 0;
  int64_t LastConflicts = 0;
};

/// Set-up: catalog, sharded service, and one warm pass over every
/// question (checked like any other request).
void buildInstance(const Options &O, Result &R, Instance &I) {
  I.reset();
  I.F = std::make_unique<ExprFactory>();
  I.C = std::make_unique<Catalog>(*I.F);
  std::vector<const Family *> Fams = allFamilies();
  ShardedServiceConfig Cfg;
  Cfg.Shards = 4;
  Cfg.Threads = O.Threads;
  I.Svc = std::make_unique<ShardedVerifyService>(*I.C, Fams, Cfg);
  for (const Family *Fam : Fams)
    for (const ConditionEntry &E : I.C->entries(*Fam))
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After})
        I.Universe.push_back({Fam->Name, E.op1().Name, E.op2().Name, K});
  std::string Error;
  uint64_t Bad = 0;
  for (const ServiceRequest &Q : I.Universe)
    Bad += !I.Svc->submit(Q, Error);
  std::vector<ServiceVerdict> V = I.Svc->drain();
  for (const ServiceVerdict &SV : V)
    Bad += !SV.verified();
  Bad += V.size() < I.Universe.size() ? I.Universe.size() - V.size() : 0;
  R.check(I.Universe.size(), std::min<uint64_t>(Bad, I.Universe.size()));
}

struct Totals {
  uint64_t Requests = 0, BatchedReuses = 0, PairsOpened = 0;
  uint64_t PrefixAsserts = 0, PrefixReuses = 0, Compactions = 0;
  uint64_t Adopted = 0, PeakVars = 0, PeakClauses = 0;
  int64_t Conflicts = 0;
};

Totals totalsOf(ShardedVerifyService &Svc) {
  Totals T;
  ShardedServiceStats St = Svc.stats();
  for (size_t Sh = 0; Sh != St.Shards.size(); ++Sh) {
    const ShardStats &SS = St.Shards[Sh];
    T.Requests += SS.Stats.Requests;
    T.BatchedReuses += SS.Stats.BatchedReuses;
    T.PairsOpened += SS.Stats.Session.PairsOpened;
    T.PrefixAsserts += SS.Stats.Session.PrefixAsserts;
    T.PrefixReuses += SS.Stats.Session.PrefixReuses;
    T.Compactions += SS.Stats.Session.BridgeCompactions;
    T.Adopted += SS.ClausesAdopted;
    T.PeakVars = std::max(T.PeakVars, SS.Stats.Session.PeakLiveVars);
    T.PeakClauses = std::max(T.PeakClauses, SS.Stats.Session.PeakLiveClauses);
    T.Conflicts += Svc.shard(Sh).session().totalConflicts();
  }
  return T;
}

} // namespace

Result runServeZipf(const Options &O) {
  Result R;
  Instance I;
  std::vector<double> SetupS;
  for (int K = 0; K != (O.Smoke ? 1 : 5); ++K) {
    I.reset(); // The previous instance goes before the next is built.
    Clock::time_point T0 = Clock::now();
    buildInstance(O, R, I);
    SetupS.push_back(secondsSince(T0));
  }
  double WarmupImportMs = I.Svc->stats().WarmupImportMillisAvg;
  I.Svc->resetPeakStats();
  Totals Before = totalsOf(*I.Svc);

  ServeRun Run(O, R, I);
  Tracer Tr;
  Tracer *T = O.Trace ? &Tr : nullptr;
  Run.phaseA(O.Seconds * PhaseAShare, T);
  Run.phaseB(O.Seconds * (1 - PhaseAShare), T);
  const Serving &S = Run.S;
  double OverheadShare =
      ratio(ratio(double(S.RequestsA[0]), S.BusySecondsA[0]),
            ratio(double(S.RequestsA[1]), S.BusySecondsA[1])) -
      1;
  Totals After = totalsOf(*I.Svc);
  double Served = double(After.Requests - Before.Requests);

  R.addE2E("setup_s", median(SetupS), "s", SetupS.size());
  R.addE2E("peak_rss_mb", peakRssMiB(), "MiB");
  R.addE2E("latency_p50_ms", median(S.CycleMs), "ms", S.CycleMs.size());

  R.addLayer("bench.latency_p90_ms", quantile(S.UntracedCycleMs, 0.9), "ms",
             S.UntracedCycleMs.size());
  R.addLayer("smt.conflicts",
             ratio(double(After.Conflicts - Before.Conflicts), Served),
             "count");
  R.addLayer("smt.peak_live_vars", double(After.PeakVars), "count");
  R.addLayer("smt.peak_live_clauses", double(After.PeakClauses), "count");
  R.addLayer("smt.compactions",
             ratio(double(After.Compactions - Before.Compactions), Served),
             "count");
  R.addLayer("commute.pairs_opened",
             ratio(double(After.PairsOpened - Before.PairsOpened), Served),
             "count");
  uint64_t Asserts = After.PrefixAsserts - Before.PrefixAsserts;
  uint64_t Reuses = After.PrefixReuses - Before.PrefixReuses;
  R.addLayer("commute.prefix_reuse_share",
             ratio(double(Reuses), double(Asserts + Reuses)), "ratio");
  R.addLayer("service.open_latency_ms_p50", median(S.LatencyMs), "ms",
             S.LatencyMs.size());
  R.addLayer("service.open_latency_ms_p99", quantile(S.LatencyMs, 0.99), "ms",
             S.LatencyMs.size());
  R.addLayer("service.queue_wait_ms_p50", median(S.QueueWaitMs), "ms",
             S.QueueWaitMs.size());
  R.addLayer("service.queue_wait_ms_p99", quantile(S.QueueWaitMs, 0.99), "ms",
             S.QueueWaitMs.size());
  R.addLayer("service.drain_ms_p50", median(S.DrainMsB), "ms",
             S.DrainMsB.size());
  R.addLayer("service.drain_ms_p99", quantile(S.DrainMsB, 0.99), "ms",
             S.DrainMsB.size());
  R.addLayer("service.drain_size_mean", mean(S.DrainSizeB), "count",
             S.DrainSizeB.size());
  R.addLayer("service.batched_reuse_share",
             ratio(double(After.BatchedReuses - Before.BatchedReuses), Served),
             "ratio");
  R.addLayer("service.repeat_share",
             ratio(double(S.Repeats), double(S.Requests)), "ratio",
             S.Requests);
  R.addLayer("service.clauses_adopted", double(After.Adopted - Before.Adopted),
             "count");
  R.addLayer("service.warmup_import_ms", WarmupImportMs, "ms");
  R.addLayer("loadgen.late_ms_p99", quantile(S.LateMs, 0.99), "ms",
             S.LateMs.size());
  if (O.Trace) {
    double OpenLoopOverhead =
        ratio(median(S.TracedLatencyMs), median(S.LatencyMs)) - 1;
    R.addLayer("trace.open_loop_overhead_share", OpenLoopOverhead, "ratio");
    finishTrace(R, O, Tr, OverheadShare);
    char Line[128];
    std::snprintf(Line, sizeof(Line),
                  "  phase B tracing overhead: %+.2f%% (traced vs untraced "
                  "stretches, median open-loop latency)\n",
                  100 * OpenLoopOverhead);
    R.TraceTable += Line;
  }
  return R;
}

} // namespace perfbench
