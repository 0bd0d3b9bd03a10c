//===- perfbench/src/ExecTxn.cpp - The exec_txn workload ------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speculative runtime: SpeculativeExecutor over HashTable with inverse
/// rollback and the indexed gatekeeper. Seeded transactions of 64
/// operations, 70/15/15 put/remove/get, over 8192 keys hash-routed to 32
/// shards — bench/perf_speculation's "low" contention cell. Transactions
/// arrive in batches; each batch runs on a fresh executor (sharing one
/// compiled index), and a batch's latency is its run() wall time. The
/// gatekeeper, wound-wait and inverse undo do all the work; the solver,
/// proof and service layers none.
///
/// Timed batches run in Replay mode on one thread with 4 transactions in
/// flight, the log density of Parallel mode at 2 threads: a seeded
/// scheduler interleaves the transactions' steps, so admission checks,
/// wounds and undo happen as they do under threads, and every count is a
/// function of the seed. Parallel mode's threads spin on each other, and on
/// a shared host whose vCPUs slow down by tens of percent for minutes at a
/// time its batch times spread past any bound a gate could hold. The traced
/// run measures Parallel mode's thread scaling on the side.
///
/// Known answer: an independent serial replay. One operation per
/// transaction; every transaction of a batch fails if the run did not
/// complete or if any final shard state differs from
/// SpeculativeExecutor::replaySerial over the batch's commit order.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "index/CommutativityIndex.h"
#include "runtime/SpeculativeExecutor.h"

#include <memory>
#include <random>
#include <unordered_set>

using namespace semcomm;

namespace perfbench {

namespace {

constexpr unsigned Shards = 32;
constexpr unsigned Keys = 8192;
constexpr unsigned OpsPerTxn = 64;
constexpr unsigned BatchTxns = 512;
constexpr unsigned AdmitWindow = 4;     ///< Transactions in flight.
constexpr unsigned ScalingBatches = 8;  ///< Per side, traced run only.
constexpr double BatchesPerSecond = 9; ///< Nominal rate (WorkBudget).

StructureFactory hashTable() {
  for (const StructureFactory &F : allStructureFactories())
    if (F.Name == "HashTable")
      return F;
  return {};
}

/// A batch of \p N transactions from the seeded stream; \p Repeats counts
/// operations whose key an earlier operation of the batch touched.
std::vector<Transaction> buildBatch(std::mt19937_64 &Rng, unsigned N,
                                    uint64_t &Repeats) {
  std::vector<Transaction> Txns(N);
  std::unordered_set<int> Touched;
  for (Transaction &Txn : Txns) {
    for (unsigned I = 0; I != OpsPerTxn; ++I) {
      int K = static_cast<int>(1 + Rng() % Keys);
      Repeats += !Touched.insert(K).second;
      Value Key = Value::obj(K);
      unsigned Shard = SpeculativeExecutor::shardOf(Key, Shards);
      unsigned Roll = Rng() % 20;
      if (Roll < 14)
        Txn.push_back(
            {"put", {Key, Value::obj(static_cast<int>(Rng() % 1000))}, Shard});
      else if (Roll < 17)
        Txn.push_back({"remove", {Key}, Shard});
      else
        Txn.push_back({"get", {Key}, Shard});
    }
  }
  return Txns;
}

} // namespace

Result runExecTxn(const Options &O) {
  Result R;
  StructureFactory Factory = hashTable();
  if (!Factory.Make) {
    R.check(1, 1);
    return R;
  }
  ExecutorConfig Cfg;
  Cfg.Threads = O.Threads;
  Cfg.Shards = Shards;
  Cfg.Policy = RollbackPolicy::Inverses;
  Cfg.Mode = SchedulerMode::Replay;
  Cfg.AdmitWindow = AdmitWindow;
  Cfg.CheckerPath = IndexedChecker::Path::Indexed;

  // Set-up: catalog, compiled index, and one executor. The first set-up
  // serves the batches; one more runs (and is discarded) after every
  // batch, so the set-up median spans the whole run.
  std::unique_ptr<ExprFactory> F;
  std::unique_ptr<Catalog> C;
  std::shared_ptr<const index::CommutativityIndex> Idx;
  std::vector<double> SetupS, CompileMs;
  auto SetUp = [&](std::unique_ptr<ExprFactory> &SF,
                   std::unique_ptr<Catalog> &SC,
                   std::shared_ptr<const index::CommutativityIndex> &SIdx) {
    Clock::time_point T0 = Clock::now();
    SF = std::make_unique<ExprFactory>();
    SC = std::make_unique<Catalog>(*SF);
    Clock::time_point T1 = Clock::now();
    SIdx = std::make_shared<const index::CommutativityIndex>(
        index::CommutativityIndex::compile(*SC));
    CompileMs.push_back(msBetween(T1, Clock::now()));
    SpeculativeExecutor Ex(*SF, *SC, Factory, Cfg, SIdx);
    SetupS.push_back(secondsSince(T0));
  };
  SetUp(F, C, Idx);
  Tracer Tr;

  std::mt19937_64 Rng(O.Seed);
  const unsigned BatchSize = O.Smoke ? 64 : BatchTxns;
  std::vector<double> BatchMs, UntracedBatchMs, TracedBatchMs;
  ExecutorStats Sum;
  uint64_t Txns = 0, Repeats = 0, BatchOps = 0;
  uint64_t TimedChecks = 0; ///< Gatekeeper checks of traced batches.

  // Runs \p In on a fresh executor with \p PC and checks the final shard
  // states against the serial replay of its commit order; returns whether
  // they match and, through \p St and \p Ms, the stats and run() time.
  auto RunChecked = [&](const std::vector<Transaction> &In,
                        const ExecutorConfig &PC, Tracer *T, ExecutorStats &St,
                        double &Ms) {
    std::unique_ptr<SpeculativeExecutor> Ex;
    {
      SpanScope S(T, "SpeculativeExecutor", "runtime");
      Ex = std::make_unique<SpeculativeExecutor>(*F, *C, Factory, PC, Idx);
    }
    Clock::time_point T0 = Clock::now();
    {
      SpanScope S(T, "run", "runtime");
      St = Ex->run(In);
      S.count("ops_executed", double(St.OpsExecuted));
      S.count("aborts", double(St.aborts()));
    }
    Ms = msBetween(T0, Clock::now());
    bool Ok = St.Completed;
    {
      SpanScope S(T, "replaySerial", "check");
      auto Ref = SpeculativeExecutor::replaySerial(Factory, Shards, In,
                                                   Ex->commitOrder());
      if (O.WrongAnswer && !Ref.empty())
        Ref[0]->invoke("put", {Value::obj(Keys + 1), Value::obj(1)});
      for (unsigned Sh = 0; Ok && Sh != Shards; ++Sh)
        Ok = Ex->shard(Sh).abstraction() == Ref[Sh]->abstraction();
      Ok = Ok && Ex->commitOrder().size() == In.size();
    }
    SpanScope S(T, "~SpeculativeExecutor", "runtime");
    Ex.reset();
    return Ok;
  };

  // A traced run alternates untraced and traced batches, so the tracing
  // overhead is measured free of drift across the run.
  Tracer *Tracing = O.Trace ? &Tr : nullptr;
  WorkBudget Budget(O.Seconds, BatchesPerSecond);
  for (size_t N = 0; Budget.more(N); ++N) {
    Tracer *T = Tracing && N % 2 ? Tracing : nullptr;
    ExecutorConfig PC = Cfg;
    // Traced batches also time the gatekeeper and sample the checker.
    PC.TimeGatekeeper = T != nullptr;
    PC.StatsSamplePeriod = T ? 64 : 0;
    SpanScope Batch(T, "exec.batch", "bench");
    std::vector<Transaction> In;
    {
      SpanScope S(T, "generate", "input");
      In = buildBatch(Rng, BatchSize, Repeats);
    }
    PC.ReplaySeed = Rng();
    uint64_t Ops = uint64_t(BatchSize) * OpsPerTxn;
    ExecutorStats St;
    double Ms = 0;
    bool Ok = RunChecked(In, PC, T, St, Ms);
    {
      SpanScope S(T, "setup", "setup");
      std::unique_ptr<ExprFactory> SF;
      std::unique_ptr<Catalog> SC;
      std::shared_ptr<const index::CommutativityIndex> SIdx;
      SetUp(SF, SC, SIdx);
    }
    R.check(In.size(), Ok ? 0 : In.size());
    BatchMs.push_back(Ms);
    (T ? TracedBatchMs : UntracedBatchMs).push_back(Ms);
    Txns += In.size();
    BatchOps += Ops;
    Sum.OpsExecuted += St.OpsExecuted;
    Sum.GatekeeperChecks += St.GatekeeperChecks;
    Sum.GatekeeperPasses += St.GatekeeperPasses;
    Sum.GatekeeperNanos += St.GatekeeperNanos;
    TimedChecks += PC.TimeGatekeeper ? St.GatekeeperChecks : 0;
    Sum.Wounds += St.Wounds;
    Sum.InjectedAborts += St.InjectedAborts;
    Sum.WaitRounds += St.WaitRounds;
    Sum.OpsUndone += St.OpsUndone;
    Sum.Commits += St.Commits;
  }

  // Traced run: Parallel mode at one thread and at min(4, cpus) threads on
  // the same batches, alternated (ROADMAP item 3's scaling target).
  std::vector<double> ParallelMs[2];
  std::vector<Transaction> In;
  for (unsigned N = 0; O.Trace && N != 2 * ScalingBatches; ++N) {
    uint64_t Unused = 0;
    if (N % 2 == 0)
      In = buildBatch(Rng, BatchSize, Unused);
    ExecutorConfig PC = Cfg;
    PC.Mode = SchedulerMode::Parallel;
    PC.AdmitWindow = 0;
    PC.Threads = N % 2 ? std::min(4u, O.Cpus) : 1;
    ExecutorStats St;
    double Ms = 0;
    bool Ok = RunChecked(In, PC, nullptr, St, Ms);
    R.check(In.size(), Ok ? 0 : In.size());
    ParallelMs[N % 2].push_back(Ms);
  }

  R.addE2E("setup_s", median(SetupS), "s", SetupS.size());
  R.addE2E("peak_rss_mb", peakRssMiB(), "MiB");
  R.addE2E("latency_p50_ms", median(BatchMs), "ms", BatchMs.size());

  double Executed = double(Sum.OpsExecuted);
  R.addLayer("bench.latency_p90_ms", quantile(UntracedBatchMs, 0.9), "ms",
             UntracedBatchMs.size());
  R.addLayer("index.compile_ms", median(CompileMs), "ms", CompileMs.size());
  R.addLayer("index.image_bytes", double(Idx->serialize().size()), "bytes");
  R.addLayer("index.fallbacks", double(Idx->stats().Fallbacks), "count");
  R.addLayer("service.repeat_share", ratio(double(Repeats), double(BatchOps)),
             "ratio", BatchOps);
  R.addLayer("runtime.gk_checks_per_op",
             ratio(double(Sum.GatekeeperChecks), Executed), "count");
  R.addLayer("runtime.gk_pass_share",
             ratio(double(Sum.GatekeeperPasses), double(Sum.GatekeeperChecks)),
             "ratio");
  R.addLayer("runtime.gk_ns_per_query",
             ratio(double(Sum.GatekeeperNanos), double(TimedChecks)),
             "ns");
  R.addLayer("runtime.aborts_per_txn",
             ratio(double(Sum.aborts()), double(Txns)), "count");
  R.addLayer("runtime.commit_share",
             ratio(double(Sum.Commits), double(Sum.Commits + Sum.aborts())),
             "ratio");
  R.addLayer("runtime.wait_rounds_per_txn",
             ratio(double(Sum.WaitRounds), double(Txns)), "count");
  R.addLayer("runtime.parallel_scaling",
             ratio(median(ParallelMs[0]), median(ParallelMs[1])), "ratio",
             ParallelMs[1].size());
  R.addLayer("inverse.undone_per_op", ratio(double(Sum.OpsUndone), Executed),
             "ratio");
  if (O.Trace)
    finishTrace(R, O, Tr,
                ratio(median(TracedBatchMs), median(UntracedBatchMs)) - 1);
  return R;
}

} // namespace perfbench
