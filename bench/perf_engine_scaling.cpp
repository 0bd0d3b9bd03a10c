//===- bench/perf_engine_scaling.cpp - Engine scope scaling -------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// Verification cost versus scope for both engines, supporting DESIGN.md
// §4.1's small-scope argument: the verdicts stabilize by scope 3 while the
// cost grows combinatorially — the reason the default scope suffices.
//
// The symbolic section compares the two discharge strategies — one-shot
// session-per-VC (the cold oracle) and the shared per-pair session
// (selector literals, one warm solver for all six methods of an op-pair)
// — and emits machine-readable BENCH_JSON lines that bench/run_all.sh
// collects into BENCH_semcommute.json, including the pair-over-oneshot
// speedup ratio and the clause-GC counters.
//
// A second sweep varies the clause-GC budget
// (SymbolicEngine::setClauseGcBudget, i.e. SatSolver::setClauseGcLimit)
// over the shared-pair ArrayList suite so
// the default threshold is picked from measured peak-retention/time data
// instead of MiniSat folklore.
//
// A third run compares the shared-pair ArrayList suite with the §5.2.1
// proof-hint scripts attached against a hints-off baseline, emitting the
// conflict reduction (and the max single-VC conflict count, i.e. the
// budget the suite actually needs) so the ArrayList conflict budget is a
// measured choice.
//
//===----------------------------------------------------------------------===//

// With --quick the sweeps trim to a ~5s budget (exhaustive scope <= 4,
// symbolic bound <= 3, three GC budget points) — what bench/run_all.sh
// passes unless SEMCOMM_BENCH_FULL=1. Every BENCH_JSON metric name is
// emitted either way; the full sweep just adds the expensive rows.

#include "commute/ExhaustiveEngine.h"
#include "commute/ProofHints.h"
#include "commute/SymbolicEngine.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace semcomm;

namespace {

struct SymbolicRun {
  double Seconds = 0;
  uint64_t Vcs = 0;
  int64_t Conflicts = 0;
  int64_t MaxVcConflicts = 0;
  unsigned Failures = 0;
  unsigned Methods = 0;
  uint64_t RetainedClauses = 0;
  uint64_t PeakRetainedClauses = 0; ///< Max over the pair sessions.
  uint64_t DbReductions = 0;
  uint64_t ReclaimedClauses = 0;
};

/// One-shot discharge: one engine call per testing method, a fresh
/// session per VC split.
SymbolicRun runOneShotSuite(ExprFactory &F, const Catalog &C, int Bound) {
  SymbolicEngine Engine(F, Bound, /*ConflictBudget=*/200000,
                        SolveMode::OneShot);
  SymbolicRun Out;
  Stopwatch W;
  for (const TestingMethod &M :
       generateTestingMethods(C, arrayListFamily())) {
    SymbolicResult R = Engine.verify(M);
    Out.Vcs += R.NumVcs;
    Out.Conflicts += R.SatConflicts;
    Out.RetainedClauses += R.RetainedClauses;
    Out.DbReductions += R.DbReductions;
    Out.ReclaimedClauses += R.ReclaimedClauses;
    Out.Failures += !R.Verified;
    ++Out.Methods;
  }
  Out.Seconds = W.seconds();
  return Out;
}

/// Pair-grouped discharge: all six methods of each pair share one
/// session, as in the driver's shared-pair mode. \p GcBudget sets the
/// clause-GC first limit (0 keeps the default); with \p Hints, the
/// §5.2.1 scripts attach as labeled split assumptions.
SymbolicRun runSharedPairSuite(ExprFactory &F, const Catalog &C, int Bound,
                               int64_t GcBudget = 0,
                               const std::vector<HintScript> *Hints =
                                   nullptr) {
  SymbolicEngine Engine(F, Bound, /*ConflictBudget=*/200000,
                        SolveMode::SharedPair);
  Engine.setClauseGcBudget(GcBudget);
  Engine.attachHints(Hints);
  SymbolicRun Out;
  Stopwatch W;
  for (const ConditionEntry &E : C.entries(arrayListFamily())) {
    CatalogOutcome CO = Engine.verifyGroups({{E.Fam, {&E}}});
    const PairOutcome &O = CO.Families.front().Pairs.front();
    for (const SymbolicResult &R : O.Methods) {
      Out.Vcs += R.NumVcs;
      Out.MaxVcConflicts = std::max(Out.MaxVcConflicts, R.MaxVcConflicts);
      Out.Failures += !R.Verified;
      ++Out.Methods;
    }
    Out.Conflicts += O.Conflicts;
    Out.RetainedClauses += O.RetainedClauses;
    Out.PeakRetainedClauses =
        std::max(Out.PeakRetainedClauses, CO.Stats.PeakRetainedClauses);
    Out.DbReductions += O.DbReductions;
    Out.ReclaimedClauses += O.ReclaimedClauses;
  }
  Out.Seconds = W.seconds();
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
  const int MaxExhaustiveLen = Quick ? 4 : 5;
  const int MaxSymbolicBound = Quick ? 3 : 4;

  ExprFactory F;
  Catalog C(F);

  std::printf("Exhaustive engine, full ArrayList method suite by "
              "scope%s:\n\n", Quick ? " (--quick)" : "");
  std::printf("%8s %10s %12s %10s\n", "maxLen", "methods", "scenarios",
              "time(s)");
  for (int MaxLen = 2; MaxLen <= MaxExhaustiveLen; ++MaxLen) {
    Scope Sc;
    Sc.MaxSeqLen = MaxLen;
    ExhaustiveEngine Engine(Sc);
    Stopwatch W;
    uint64_t Scenarios = 0;
    unsigned Failures = 0, Methods = 0;
    for (const TestingMethod &M :
         generateTestingMethods(C, arrayListFamily())) {
      VerifyResult R = Engine.verify(M);
      Scenarios += R.ScenariosChecked;
      Failures += !R.Verified;
      ++Methods;
    }
    std::printf("%8d %10u %12llu %10.2f%s\n", MaxLen, Methods,
                (unsigned long long)Scenarios, W.seconds(),
                Failures ? "  FAILURES!" : "");
  }

  std::printf("\nSymbolic engine, full ArrayList method suite by length "
              "bound:\none-shot session-per-VC vs shared per-pair "
              "session:\n\n");
  std::printf("%8s %10s %12s %12s %12s %9s\n", "bound", "methods", "VCs",
              "oneshot(s)", "pair(s)", "pair-gain");
  for (int Bound = 2; Bound <= MaxSymbolicBound; ++Bound) {
    // Untimed warm-up: intern this bound's expressions into the shared
    // factory so no timed leg pays first-time allocation.
    runSharedPairSuite(F, C, Bound);
    SymbolicRun OneShot = runOneShotSuite(F, C, Bound);
    SymbolicRun Pair = runSharedPairSuite(F, C, Bound);
    // The acceptance metric: the warm session must at least hold the
    // line against the cold oracle.
    double PairGain = Pair.Seconds > 0 ? OneShot.Seconds / Pair.Seconds : 0;
    unsigned Failures = OneShot.Failures + Pair.Failures;
    std::printf("%8d %10u %12llu %12.3f %12.3f %8.2fx%s\n", Bound,
                Pair.Methods, (unsigned long long)Pair.Vcs, OneShot.Seconds,
                Pair.Seconds, PairGain, Failures ? "  FAILURES!" : "");
    // Machine-readable line for bench/run_all.sh's aggregate baseline.
    std::printf("BENCH_JSON {\"bench\":\"perf_engine_scaling\","
                "\"metric\":\"symbolic_arraylist_suite\",\"bound\":%d,"
                "\"methods\":%u,\"vcs\":%llu,\"oneshot_s\":%.4f,"
                "\"shared_pair_s\":%.4f,"
                "\"pair_over_oneshot_speedup\":%.3f,"
                "\"oneshot_conflicts\":%lld,"
                "\"shared_pair_conflicts\":%lld,"
                "\"shared_pair_retained_clauses\":%llu,"
                "\"shared_pair_peak_retained_clauses\":%llu,"
                "\"shared_pair_db_reductions\":%llu,"
                "\"shared_pair_reclaimed_clauses\":%llu,"
                "\"failures\":%u}\n",
                Bound, Pair.Methods, (unsigned long long)Pair.Vcs,
                OneShot.Seconds, Pair.Seconds, PairGain,
                (long long)OneShot.Conflicts, (long long)Pair.Conflicts,
                (unsigned long long)Pair.RetainedClauses,
                (unsigned long long)Pair.PeakRetainedClauses,
                (unsigned long long)Pair.DbReductions,
                (unsigned long long)Pair.ReclaimedClauses, Failures);
  }

  // Clause-GC budget sweep over the shared-pair ArrayList suite: the
  // default reduce threshold is whatever this data says, not folklore.
  // (A budget below the workload's live-lemma count trades re-derivation
  // conflicts for retention; a budget above it never fires.)
  std::printf("\nClause-GC budget sweep, shared-pair ArrayList suite "
              "(bound 3):\n\n");
  std::printf("%10s %10s %12s %14s %12s %12s\n", "budget", "time(s)",
              "conflicts", "peak-retained", "reductions", "reclaimed");
  runSharedPairSuite(F, C, 3); // Warm-up.
  std::vector<int64_t> GcBudgets =
      Quick ? std::vector<int64_t>{100, 500, 4000}
            : std::vector<int64_t>{100, 250, 500, 1000, 2000, 4000};
  for (int64_t Budget : GcBudgets) {
    SymbolicRun Run = runSharedPairSuite(F, C, 3, Budget);
    std::printf("%10lld %10.3f %12lld %14llu %12llu %12llu%s\n",
                (long long)Budget, Run.Seconds, (long long)Run.Conflicts,
                (unsigned long long)Run.PeakRetainedClauses,
                (unsigned long long)Run.DbReductions,
                (unsigned long long)Run.ReclaimedClauses,
                Run.Failures ? "  FAILURES!" : "");
    std::printf("BENCH_JSON {\"bench\":\"perf_engine_scaling\","
                "\"metric\":\"gc_budget_sweep\",\"bound\":3,"
                "\"gc_budget\":%lld,\"shared_pair_s\":%.4f,"
                "\"conflicts\":%lld,\"peak_retained_clauses\":%llu,"
                "\"db_reductions\":%llu,\"reclaimed_clauses\":%llu,"
                "\"failures\":%u}\n",
                (long long)Budget, Run.Seconds, (long long)Run.Conflicts,
                (unsigned long long)Run.PeakRetainedClauses,
                (unsigned long long)Run.DbReductions,
                (unsigned long long)Run.ReclaimedClauses, Run.Failures);
  }

  // Hint-guided budget measurement: the shared-pair ArrayList suite with
  // the §5.2.1 proof-hint scripts attached vs. the hints-off baseline. The
  // max single-VC conflict count is the budget the suite actually needs —
  // whether --symbolic conflict budgets can drop is a data question, so
  // both numbers land in the committed baseline.
  std::printf("\nHint-guided budget measurement, shared-pair ArrayList "
              "suite (bound 3):\n\n");
  std::printf("%10s %10s %12s %16s\n", "hints", "time(s)", "conflicts",
              "max-vc-conflicts");
  std::vector<HintScript> Scripts = buildArrayListHintScripts(F);
  SymbolicRun HintsOff = runSharedPairSuite(F, C, 3);
  SymbolicRun HintsOn = runSharedPairSuite(F, C, 3, /*GcBudget=*/0, &Scripts);
  for (const auto &Leg : {std::make_pair("off", &HintsOff),
                          std::make_pair("on", &HintsOn)})
    std::printf("%10s %10.3f %12lld %16lld%s\n", Leg.first,
                Leg.second->Seconds, (long long)Leg.second->Conflicts,
                (long long)Leg.second->MaxVcConflicts,
                Leg.second->Failures ? "  FAILURES!" : "");
  double HintReduction =
      HintsOn.Conflicts > 0
          ? (double)HintsOff.Conflicts / (double)HintsOn.Conflicts
          : (HintsOff.Conflicts > 0 ? 0.0 : 1.0);
  std::printf("hint_conflict_reduction: %.3fx; the suite's conflict budget "
              "could drop to ~%lld (max single-VC count with hints %s)\n",
              HintReduction,
              (long long)std::max<int64_t>(HintsOn.MaxVcConflicts, 1),
              HintsOn.MaxVcConflicts <= HintsOff.MaxVcConflicts ? "attached"
                                                                : "off");
  std::printf("BENCH_JSON {\"bench\":\"perf_engine_scaling\","
              "\"metric\":\"hint_budget\",\"bound\":3,"
              "\"hints_off_s\":%.4f,\"hints_on_s\":%.4f,"
              "\"hints_off_conflicts\":%lld,\"hints_on_conflicts\":%lld,"
              "\"hints_off_max_vc_conflicts\":%lld,"
              "\"hints_on_max_vc_conflicts\":%lld,"
              "\"hint_conflict_reduction\":%.3f,"
              "\"failures\":%u}\n",
              HintsOff.Seconds, HintsOn.Seconds,
              (long long)HintsOff.Conflicts, (long long)HintsOn.Conflicts,
              (long long)HintsOff.MaxVcConflicts,
              (long long)HintsOn.MaxVcConflicts, HintReduction,
              HintsOff.Failures + HintsOn.Failures);
  return 0;
}
