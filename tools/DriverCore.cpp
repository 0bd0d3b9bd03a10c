//===- tools/DriverCore.cpp - Full-catalog verification driver ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "DriverCore.h"

#include "commute/ExhaustiveEngine.h"
#include "commute/SymbolicEngine.h"
#include "inverse/InverseVerifier.h"
#include "inverse/SymbolicInverseEngine.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>

using namespace semcomm;
using namespace semcomm::driver;

//===----------------------------------------------------------------------===//
// Job enumeration
//===----------------------------------------------------------------------===//

const char *driver::engineKindName(EngineKind E) {
  switch (E) {
  case EngineKind::Exhaustive:
    return "exhaustive";
  case EngineKind::Symbolic:
    return "symbolic";
  case EngineKind::Both:
    return "both";
  }
  return "exhaustive";
}

std::optional<int64_t> driver::parseInt(const char *Text, int64_t Min,
                                        int64_t Max) {
  if (!Text || !*Text || std::isspace(static_cast<unsigned char>(*Text)))
    return std::nullopt;
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Text, &End, 10);
  if (*End != '\0' || errno == ERANGE || N < Min || N > Max)
    return std::nullopt;
  return static_cast<int64_t>(N);
}

int64_t driver::intFlagOrExit(const char *Flag, const char *Text, int64_t Min,
                              int64_t Max) {
  if (std::optional<int64_t> N = parseInt(Text, Min, Max))
    return *N;
  if (Max == INT32_MAX)
    std::fprintf(stderr, "%s wants an integer >= %lld, got '%s'\n", Flag,
                 static_cast<long long>(Min), Text);
  else
    std::fprintf(stderr, "%s wants an integer in [%lld, %lld], got '%s'\n",
                 Flag, static_cast<long long>(Min),
                 static_cast<long long>(Max), Text);
  std::exit(2);
}

std::vector<const Family *>
driver::resolveFamilies(const std::vector<std::string> &Names,
                        std::string &Error) {
  Error.clear();
  std::vector<const Family *> All = allFamilies();
  if (Names.empty())
    return All;
  for (const std::string &N : Names)
    if (N == "all")
      return All;

  std::vector<const Family *> Picked;
  for (const Family *F : All) {
    bool Wanted = false;
    for (const std::string &N : Names)
      Wanted = Wanted || N == F->Name;
    if (Wanted)
      Picked.push_back(F);
  }
  for (const std::string &N : Names) {
    bool Known = false;
    for (const Family *F : All)
      Known = Known || N == F->Name;
    if (!Known) {
      Error = "unknown family '" + N +
              "' (expected all, Accumulator, Set, Map or ArrayList)";
      return {};
    }
  }
  return Picked;
}

std::vector<JobRecord> driver::enumerateJobs(const Catalog &C,
                                             const DriverOptions &Opts) {
  std::string Error;
  std::vector<const Family *> Fams = resolveFamilies(Opts.Families, Error);

  std::vector<EngineKind> Engines;
  if (Opts.Engine == EngineKind::Both)
    Engines = {EngineKind::Exhaustive, EngineKind::Symbolic};
  else
    Engines = {Opts.Engine};

  std::vector<JobRecord> Jobs;
  for (const Family *Fam : Fams) {
    if (Opts.Commutativity)
      for (EngineKind Eng : Engines)
        for (const ConditionEntry &E : C.entries(*Fam))
          for (ConditionKind K : {ConditionKind::Before,
                                  ConditionKind::Between,
                                  ConditionKind::After})
            for (MethodRole R :
                 {MethodRole::Soundness, MethodRole::Completeness}) {
              JobRecord J;
              J.Family = Fam->Name;
              J.Category = "commutativity";
              J.Engine = engineKindName(Eng);
              J.Op1 = E.op1().Name;
              J.Op2 = E.op2().Name;
              J.Kind = conditionKindName(K);
              J.Role = methodRoleName(R);
              Jobs.push_back(std::move(J));
            }
    if (Opts.Inverses)
      for (EngineKind Eng : Engines)
        for (const InverseSpec &S : buildInverseSpecs())
          if (S.Fam == Fam) {
            JobRecord J;
            J.Family = Fam->Name;
            J.Category = "inverse";
            J.Engine = engineKindName(Eng);
            J.Op1 = S.OpName;
            Jobs.push_back(std::move(J));
          }
  }
  return Jobs;
}

//===----------------------------------------------------------------------===//
// Parallel execution
//===----------------------------------------------------------------------===//

namespace {

/// Everything a worker needs to execute one job without touching shared
/// mutable state (exhaustive) or through anything but the lock-striped
/// factory (symbolic). Conditions and inverse specs are resolved up front,
/// on the main thread, so workers only evaluate.
struct PreparedJob {
  // Commutativity payload.
  const Family *Fam = nullptr;
  const ConditionEntry *Entry = nullptr;
  ConditionKind Kind = ConditionKind::Before;
  MethodRole Role = MethodRole::Soundness;
  bool Symbolic = false;
  // Inverse payload (Inverse != nullptr selects it).
  const InverseSpec *Inverse = nullptr;
};

/// Copies a symbolic method result into its job record.
void fillSymbolicRecord(const SymbolicResult &R, JobRecord &Out) {
  Out.Verified = R.Verified;
  Out.Scenarios = R.NumVcs;
  Out.Vcs = R.NumVcs;
  Out.Conflicts = R.SatConflicts;
  Out.MaxVcConflicts = R.MaxVcConflicts;
  Out.RetainedClauses = R.RetainedClauses;
  Out.DbReductions = R.DbReductions;
  Out.ReclaimedClauses = R.ReclaimedClauses;
  std::string Core;
  for (const std::string &L : R.CoreLabels)
    Core += (Core.empty() ? "" : ";") + L;
  Out.ProofCore = std::move(Core);
  Out.ProofQueries = R.ProofQueries;
  Out.ProofClauses = R.ProofClauses;
  Out.ProofChecked = R.ProofChecked;
  if (!R.Verified)
    Out.Note = R.Countermodel;
}

void runJob(const ExhaustiveEngine &Engine, const Catalog &C,
            const DriverOptions &Opts, const PreparedJob &P, JobRecord &Out) {
  Stopwatch Timer;
  if (P.Inverse && P.Symbolic) {
    SymbolicResult R =
        verifyInverseSymbolic(C.factory(), *P.Inverse,
                              Opts.SymbolicSeqLenBound,
                              Opts.SymbolicConflictBudget, Opts.SymbolicMode,
                              Opts.Certify);
    fillSymbolicRecord(R, Out);
  } else if (P.Inverse) {
    InverseVerifyResult R = verifyInverse(*P.Inverse, Opts.Bounds);
    Out.Verified = R.Verified;
    Out.Scenarios = R.ScenariosChecked;
    Out.Note = R.FailureNote;
  } else {
    assert(!P.Symbolic && "symbolic commutativity jobs run as pair groups");
    VerifyResult R =
        Engine.verifyCondition(*P.Fam, P.Entry->op1().Name,
                               P.Entry->op2().Name, P.Kind, P.Role,
                               P.Entry->get(P.Kind));
    Out.Verified = R.Verified;
    Out.Scenarios = R.ScenariosChecked;
    if (R.CE)
      Out.Note = R.CE->str();
  }
  Out.Millis = Timer.millis();
}

/// The symbolic commutativity jobs of one (family, op-pair): its six
/// testing methods. The unit of symbolic commutativity work, run on one
/// worker: one warm session (shared-pair) or the cold oracle (oneshot).
struct PairGroup {
  const ConditionEntry *Entry = nullptr;
  std::vector<size_t> JobIdx; ///< Six jobs, in (kind x role) order.
};

/// Copies a pair outcome into its stats row. Millis is the sum of the
/// method times.
void fillPairStats(const PairOutcome &O, const ConditionEntry &E,
                   const char *ModeName, PairStats &Stats) {
  Stats.Family = E.Fam->Name;
  Stats.Op1 = E.op1().Name;
  Stats.Op2 = E.op2().Name;
  Stats.Mode = ModeName;
  Stats.Methods = static_cast<unsigned>(O.Methods.size());
  for (const SymbolicResult &R : O.Methods)
    Stats.Vcs += R.NumVcs;
  Stats.Checks = O.Checks;
  Stats.Conflicts = O.Conflicts;
  Stats.RetainedClauses = O.RetainedClauses;
  Stats.DbReductions = O.DbReductions;
  Stats.ReclaimedClauses = O.ReclaimedClauses;
  Stats.Selectors = O.Selectors;
  Stats.SessionsOpened = O.SessionsOpened;
  for (double Ms : O.MethodMillis)
    Stats.Millis += Ms;
}

/// Copies a warm pair session's outcome into its stats row.
void fillSessionStats(const PairOutcome &PO, const ConditionEntry &E,
                      const char *ModeName, CatalogStats &Stats) {
  Stats.Mode = ModeName;
  Stats.FamilyNames = E.Fam->Name;
  Stats.Families = 1;
  Stats.Pairs = 1;
  Stats.Methods = static_cast<unsigned>(PO.Methods.size());
  for (const SymbolicResult &R : PO.Methods)
    Stats.Vcs += R.NumVcs;
  Stats.Checks = PO.Checks;
  Stats.Conflicts = PO.Conflicts;
  const CatalogSessionStats &S = PO.Session;
  Stats.PrefixAsserts = S.PrefixAsserts;
  Stats.PrefixReuses = S.PrefixReuses;
  Stats.PairEvictions = S.PairsRetired;
  Stats.EvictedClauses = S.EvictedClauses;
  Stats.RecycledVars = S.RecycledVars;
  Stats.PeakLiveVars = S.PeakLiveVars;
  Stats.PeakLiveClauses = S.PeakLiveClauses;
  Stats.VarRequests = S.VarRequests;
  Stats.PeakRetainedClauses = S.PeakRetainedClauses;
  Stats.BridgeCompactions = S.BridgeCompactions;
  Stats.ReleasedSelectors = S.ReleasedSelectors;
  Stats.PeakLiveBridges = S.PeakLiveBridges;
  Stats.Selectors = PO.Selectors;
}

/// Runs one pair group through SymbolicEngine::verifyPair: shared-pair on
/// a one-pair CatalogSession, OneShot through dischargeCold. Writes the
/// group's job records and pair row and, when \p Session is set (warm
/// mode), its session row, and returns the pair's planning time. The pair
/// row carries the group's wall clock.
double runPairGroup(const Catalog &C, const DriverOptions &Opts,
                    const PairGroup &PG, std::vector<JobRecord> &Jobs,
                    PairStats &Pair, CatalogStats *Session) {
  Stopwatch Timer;
  SymbolicEngine Sym(C.factory(), Opts.SymbolicSeqLenBound,
                     Opts.SymbolicConflictBudget, Opts.SymbolicMode);
  Sym.setCertify(Opts.Certify);
  PairOutcome PO = Sym.verifyPair(*PG.Entry);

  const char *ModeName = solveModeName(Opts.SymbolicMode);
  assert(PO.Methods.size() == PG.JobIdx.size() &&
         "pair group out of sync with enumeration");
  for (size_t M = 0; M != PG.JobIdx.size(); ++M) {
    JobRecord &Out = Jobs[PG.JobIdx[M]];
    fillSymbolicRecord(PO.Methods[M], Out);
    Out.Millis = PO.MethodMillis[M];
  }
  fillPairStats(PO, *PG.Entry, ModeName, Pair);
  Pair.Millis = Timer.millis();
  if (Session) {
    fillSessionStats(PO, *PG.Entry, ModeName, *Session);
    Session->Millis = Pair.Millis;
    Session->PlanMillis = PO.PlanMillis;
  }
  return PO.PlanMillis;
}

} // namespace

Report driver::runFullCatalog(const Catalog &C, const DriverOptions &Opts) {
  std::string Error;
  std::vector<const Family *> Fams = resolveFamilies(Opts.Families, Error);
  if (Error.empty() && Opts.SymbolicMode != SolveMode::SharedPair &&
      !isColdMode(Opts.SymbolicMode))
    Error = std::string("solve mode ") + solveModeName(Opts.SymbolicMode) +
            " was removed; use shared-pair (one warm session per op-pair) "
            "or oneshot (the cold oracle)";
  if (!Error.empty()) {
    Report R;
    R.Threads = Opts.Threads == 0 ? 1 : Opts.Threads;
    R.Bounds = Opts.Bounds;
    R.Error = Error;
    return R;
  }

  // Force every lazily built singleton now, while single-threaded: family
  // definitions and the inverse-spec table. The catalog itself was built by
  // the caller; after this point workers only read.
  std::vector<InverseSpec> Inverses = buildInverseSpecs();

  std::vector<JobRecord> Jobs = enumerateJobs(C, Opts);
  std::vector<PreparedJob> Prepared(Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I) {
    JobRecord &J = Jobs[I];
    PreparedJob &P = Prepared[I];
    for (const Family *F : Fams)
      if (F->Name == J.Family)
        P.Fam = F;
    P.Symbolic = J.Engine == engineKindName(EngineKind::Symbolic);
    if (J.Category == "inverse") {
      for (const InverseSpec &S : Inverses)
        if (S.Fam == P.Fam && S.OpName == J.Op1)
          P.Inverse = &S;
    } else {
      P.Entry = &C.entry(*P.Fam, J.Op1, J.Op2);
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After})
        if (J.Kind == conditionKindName(K))
          P.Kind = K;
      P.Role = J.Role == methodRoleName(MethodRole::Soundness)
                   ? MethodRole::Soundness
                   : MethodRole::Completeness;
    }
  }

  // Group the symbolic commutativity jobs by (family, op-pair): the six
  // testing methods of one pair, which enumeration emits contiguously in
  // (kind x role) order. Group order is enumeration order, so every
  // statistic is a function of the options.
  std::vector<PairGroup> PairGroups;
  std::map<const ConditionEntry *, size_t> PairOf;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const PreparedJob &P = Prepared[I];
    if (!P.Symbolic || P.Inverse)
      continue;
    auto [It, Fresh] = PairOf.try_emplace(P.Entry, PairGroups.size());
    if (Fresh)
      PairGroups.push_back({P.Entry, {}});
    PairGroups[It->second].JobIdx.push_back(I);
  }
  std::vector<PairStats> Pairs(PairGroups.size());
  std::vector<CatalogStats> SessionRows(
      isColdMode(Opts.SymbolicMode) ? 0 : PairGroups.size());
  std::vector<double> PlanMillis(PairGroups.size());

  unsigned Threads = Opts.Threads == 0 ? 1 : Opts.Threads;
  ExhaustiveEngine Engine(Opts.Bounds);
  Stopwatch Wall;
  {
    ThreadPool Pool(Threads);
    for (size_t I = 0; I != Jobs.size(); ++I) {
      if (Prepared[I].Symbolic && !Prepared[I].Inverse)
        continue; // Runs inside its session group.
      Pool.submit([&Engine, &C, &Opts, &Prepared, &Jobs, I] {
        runJob(Engine, C, Opts, Prepared[I], Jobs[I]);
      });
    }
    for (size_t G = 0; G != PairGroups.size(); ++G)
      Pool.submit([&C, &Opts, &PairGroups, &Jobs, &Pairs, &PlanMillis,
                   &SessionRows, G] {
        PlanMillis[G] =
            runPairGroup(C, Opts, PairGroups[G], Jobs, Pairs[G],
                         SessionRows.empty() ? nullptr : &SessionRows[G]);
      });
    Pool.wait();
  }

  Report R;
  R.Threads = Threads;
  R.WallMillis = Wall.millis();
  for (double Ms : PlanMillis)
    R.PlanMillis += Ms;
  R.Certified = Opts.Certify;
  R.Bounds = Opts.Bounds;
  R.Results = std::move(Jobs);
  R.Pairs = std::move(Pairs);
  R.CatalogSessions = std::move(SessionRows);

  for (const Family *Fam : Fams) {
    FamilySummary S;
    S.Family = Fam->Name;
    if (Opts.Commutativity)
      S.PaperConditions = static_cast<unsigned>(
          C.entries(*Fam).size() * 3 * Fam->StructureNames.size());
    for (const JobRecord &J : R.Results)
      if (J.Family == Fam->Name) {
        ++S.Jobs;
        if (!J.Verified)
          ++S.Failures;
        S.JobMillis += J.Millis;
        S.Scenarios += J.Scenarios;
        S.Vcs += J.Vcs;
        S.Conflicts += J.Conflicts;
        S.RetainedClauses = std::max(S.RetainedClauses, J.RetainedClauses);
        S.DbReductions += J.DbReductions;
        S.ReclaimedClauses += J.ReclaimedClauses;
      }
    R.Families.push_back(std::move(S));
  }
  return R;
}

unsigned Report::failures() const {
  if (!Error.empty())
    return 1;
  unsigned N = 0;
  for (const JobRecord &J : Results)
    if (!J.Verified)
      ++N;
  return N;
}

bool Report::sameVerdicts(const Report &O) const {
  if (Error != O.Error || Results.size() != O.Results.size())
    return false;
  for (size_t I = 0; I != Results.size(); ++I)
    if (Results[I].key() != O.Results[I].key() ||
        Results[I].Verified != O.Results[I].Verified ||
        Results[I].Scenarios != O.Results[I].Scenarios)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// JSON report
//===----------------------------------------------------------------------===//

json::Value Report::toJson() const {
  json::Value Root = json::Value::object();
  Root.set("tool", json::Value::string("semcommute-verify"));
  Root.set("threads", json::Value::integer(Threads));
  Root.set("wall_ms", json::Value::number(WallMillis));
  Root.set("plan_ms", json::Value::number(PlanMillis));
  if (Certified)
    Root.set("certify", json::Value::boolean(true));
  if (!Error.empty())
    Root.set("error", json::Value::string(Error));

  json::Value ScopeObj = json::Value::object();
  ScopeObj.set("set_universe", json::Value::integer(Bounds.SetUniverse));
  ScopeObj.set("map_keys", json::Value::integer(Bounds.MapKeys));
  ScopeObj.set("map_vals", json::Value::integer(Bounds.MapVals));
  ScopeObj.set("seq_vals", json::Value::integer(Bounds.SeqVals));
  ScopeObj.set("max_seq_len", json::Value::integer(Bounds.MaxSeqLen));
  ScopeObj.set("counter_range", json::Value::integer(Bounds.CounterRange));
  Root.set("scope", std::move(ScopeObj));

  json::Value FamArr = json::Value::array();
  for (const FamilySummary &S : Families) {
    json::Value F = json::Value::object();
    F.set("family", json::Value::string(S.Family));
    F.set("jobs", json::Value::integer(S.Jobs));
    F.set("failures", json::Value::integer(S.Failures));
    F.set("paper_conditions", json::Value::integer(S.PaperConditions));
    F.set("job_ms", json::Value::number(S.JobMillis));
    F.set("scenarios", json::Value::integer(
                           static_cast<int64_t>(S.Scenarios)));
    F.set("vcs", json::Value::integer(static_cast<int64_t>(S.Vcs)));
    F.set("sat_conflicts", json::Value::integer(S.Conflicts));
    F.set("retained_clauses", json::Value::integer(
                                  static_cast<int64_t>(S.RetainedClauses)));
    F.set("db_reductions", json::Value::integer(
                               static_cast<int64_t>(S.DbReductions)));
    F.set("reclaimed_clauses",
          json::Value::integer(static_cast<int64_t>(S.ReclaimedClauses)));
    FamArr.push(std::move(F));
  }
  Root.set("families", std::move(FamArr));

  if (!Pairs.empty()) {
    json::Value PairArr = json::Value::array();
    for (const PairStats &P : Pairs) {
      json::Value V = json::Value::object();
      V.set("family", json::Value::string(P.Family));
      V.set("op1", json::Value::string(P.Op1));
      V.set("op2", json::Value::string(P.Op2));
      V.set("mode", json::Value::string(P.Mode));
      V.set("methods", json::Value::integer(P.Methods));
      V.set("vcs", json::Value::integer(static_cast<int64_t>(P.Vcs)));
      V.set("checks", json::Value::integer(static_cast<int64_t>(P.Checks)));
      V.set("sat_conflicts", json::Value::integer(P.Conflicts));
      V.set("retained_clauses",
            json::Value::integer(static_cast<int64_t>(P.RetainedClauses)));
      V.set("db_reductions",
            json::Value::integer(static_cast<int64_t>(P.DbReductions)));
      V.set("reclaimed_clauses",
            json::Value::integer(static_cast<int64_t>(P.ReclaimedClauses)));
      V.set("selectors", json::Value::integer(P.Selectors));
      V.set("sessions", json::Value::integer(
                            static_cast<int64_t>(P.SessionsOpened)));
      V.set("ms", json::Value::number(P.Millis));
      PairArr.push(std::move(V));
    }
    Root.set("pair_stats", std::move(PairArr));
  }

  if (!CatalogSessions.empty()) {
    json::Value CatArr = json::Value::array();
    for (const CatalogStats &S : CatalogSessions) {
      json::Value V = json::Value::object();
      V.set("mode", json::Value::string(S.Mode));
      V.set("family_names", json::Value::string(S.FamilyNames));
      V.set("families", json::Value::integer(S.Families));
      V.set("pairs", json::Value::integer(S.Pairs));
      V.set("methods", json::Value::integer(S.Methods));
      V.set("vcs", json::Value::integer(static_cast<int64_t>(S.Vcs)));
      V.set("checks", json::Value::integer(static_cast<int64_t>(S.Checks)));
      V.set("sat_conflicts", json::Value::integer(S.Conflicts));
      V.set("prefix_asserts",
            json::Value::integer(static_cast<int64_t>(S.PrefixAsserts)));
      V.set("prefix_reuses",
            json::Value::integer(static_cast<int64_t>(S.PrefixReuses)));
      V.set("pair_evictions",
            json::Value::integer(static_cast<int64_t>(S.PairEvictions)));
      V.set("evicted_clauses",
            json::Value::integer(static_cast<int64_t>(S.EvictedClauses)));
      V.set("recycled_vars",
            json::Value::integer(static_cast<int64_t>(S.RecycledVars)));
      V.set("peak_live_vars",
            json::Value::integer(static_cast<int64_t>(S.PeakLiveVars)));
      V.set("peak_live_clauses",
            json::Value::integer(static_cast<int64_t>(S.PeakLiveClauses)));
      V.set("var_requests",
            json::Value::integer(static_cast<int64_t>(S.VarRequests)));
      V.set("peak_retained_clauses",
            json::Value::integer(
                static_cast<int64_t>(S.PeakRetainedClauses)));
      V.set("bridge_compactions",
            json::Value::integer(static_cast<int64_t>(S.BridgeCompactions)));
      V.set("released_selectors",
            json::Value::integer(static_cast<int64_t>(S.ReleasedSelectors)));
      V.set("peak_live_bridges",
            json::Value::integer(static_cast<int64_t>(S.PeakLiveBridges)));
      V.set("selectors", json::Value::integer(S.Selectors));
      V.set("ms", json::Value::number(S.Millis));
      V.set("plan_ms", json::Value::number(S.PlanMillis));
      CatArr.push(std::move(V));
    }
    Root.set("catalog_stats", std::move(CatArr));
  }

  json::Value ResArr = json::Value::array();
  for (const JobRecord &J : Results) {
    json::Value R = json::Value::object();
    R.set("family", json::Value::string(J.Family));
    R.set("category", json::Value::string(J.Category));
    R.set("engine", json::Value::string(J.Engine));
    R.set("op1", json::Value::string(J.Op1));
    R.set("op2", json::Value::string(J.Op2));
    R.set("kind", json::Value::string(J.Kind));
    R.set("role", json::Value::string(J.Role));
    R.set("verified", json::Value::boolean(J.Verified));
    R.set("scenarios",
          json::Value::integer(static_cast<int64_t>(J.Scenarios)));
    R.set("ms", json::Value::number(J.Millis));
    if (J.Vcs != 0) {
      // Solver statistics only exist on the symbolic path.
      R.set("vcs", json::Value::integer(static_cast<int64_t>(J.Vcs)));
      R.set("sat_conflicts", json::Value::integer(J.Conflicts));
      R.set("max_vc_conflicts", json::Value::integer(J.MaxVcConflicts));
      R.set("retained_clauses",
            json::Value::integer(static_cast<int64_t>(J.RetainedClauses)));
      R.set("db_reductions",
            json::Value::integer(static_cast<int64_t>(J.DbReductions)));
      R.set("reclaimed_clauses",
            json::Value::integer(static_cast<int64_t>(J.ReclaimedClauses)));
      if (!J.ProofCore.empty())
        R.set("proof_core", json::Value::string(J.ProofCore));
      if (Certified) {
        R.set("proof_queries",
              json::Value::integer(static_cast<int64_t>(J.ProofQueries)));
        R.set("proof_clauses",
              json::Value::integer(static_cast<int64_t>(J.ProofClauses)));
        R.set("proof_checked", json::Value::boolean(J.ProofChecked));
      }
    }
    if (!J.Note.empty())
      R.set("note", json::Value::string(J.Note));
    ResArr.push(std::move(R));
  }
  Root.set("results", std::move(ResArr));
  return Root;
}

//===----------------------------------------------------------------------===//
// Summary rendering
//===----------------------------------------------------------------------===//

std::string driver::renderSummary(const Report &R) {
  if (!R.Error.empty())
    return "error: " + R.Error + "\n";
  char Buf[256];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf),
                "%-12s %8s %10s %14s %12s %10s\n", "family", "jobs",
                "failures", "conditions", "scenarios", "job ms");
  Out += Buf;
  unsigned TotalJobs = 0, TotalFailures = 0, TotalConds = 0;
  uint64_t TotalScenarios = 0;
  double TotalMillis = 0;
  for (const FamilySummary &S : R.Families) {
    std::snprintf(Buf, sizeof(Buf), "%-12s %8u %10u %14u %12llu %10.1f\n",
                  S.Family.c_str(), S.Jobs, S.Failures, S.PaperConditions,
                  static_cast<unsigned long long>(S.Scenarios), S.JobMillis);
    Out += Buf;
    TotalJobs += S.Jobs;
    TotalFailures += S.Failures;
    TotalConds += S.PaperConditions;
    TotalScenarios += S.Scenarios;
    TotalMillis += S.JobMillis;
  }
  std::snprintf(Buf, sizeof(Buf), "%-12s %8u %10u %14u %12llu %10.1f\n",
                "total", TotalJobs, TotalFailures, TotalConds,
                static_cast<unsigned long long>(TotalScenarios), TotalMillis);
  Out += Buf;
  uint64_t TotalVcs = 0, PeakRetained = 0, TotalReductions = 0,
           TotalReclaimed = 0;
  int64_t TotalConflicts = 0;
  for (const FamilySummary &S : R.Families) {
    TotalVcs += S.Vcs;
    TotalConflicts += S.Conflicts;
    PeakRetained = std::max(PeakRetained, S.RetainedClauses);
    TotalReductions += S.DbReductions;
    TotalReclaimed += S.ReclaimedClauses;
  }
  if (TotalVcs != 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "symbolic path: %llu VCs discharged, %lld CDCL "
                  "conflicts, peak %llu retained clauses\n",
                  static_cast<unsigned long long>(TotalVcs),
                  static_cast<long long>(TotalConflicts),
                  static_cast<unsigned long long>(PeakRetained));
    Out += Buf;
    if (!R.Pairs.empty()) {
      uint64_t Sessions = 0, Checks = 0;
      for (const PairStats &P : R.Pairs) {
        Sessions += P.SessionsOpened;
        Checks += P.Checks;
      }
      std::snprintf(Buf, sizeof(Buf),
                    "pair sessions: %zu pairs, %llu sessions, %llu checks, "
                    "%llu clause-GC runs reclaiming %llu clauses\n",
                    R.Pairs.size(),
                    static_cast<unsigned long long>(Sessions),
                    static_cast<unsigned long long>(Checks),
                    static_cast<unsigned long long>(TotalReductions),
                    static_cast<unsigned long long>(TotalReclaimed));
      Out += Buf;
    }
    if (!R.CatalogSessions.empty()) {
      uint64_t Recycled = 0, PeakVars = 0, Demand = 0, PeakCls = 0;
      for (const CatalogStats &S : R.CatalogSessions) {
        Recycled += S.RecycledVars;
        PeakVars = std::max(PeakVars, S.PeakLiveVars);
        PeakCls = std::max(PeakCls, S.PeakLiveClauses);
        Demand += S.VarRequests;
      }
      std::snprintf(Buf, sizeof(Buf),
                    "catalog sessions: %zu sessions, %llu vars recycled "
                    "(peak %llu live of %llu requested), peak %llu live "
                    "clauses\n",
                    R.CatalogSessions.size(),
                    static_cast<unsigned long long>(Recycled),
                    static_cast<unsigned long long>(PeakVars),
                    static_cast<unsigned long long>(Demand),
                    static_cast<unsigned long long>(PeakCls));
      Out += Buf;
    }
  }
  if (R.Certified) {
    size_t CertJobs = 0, CertOk = 0;
    uint64_t CertQueries = 0, CertPeak = 0;
    for (const JobRecord &J : R.Results) {
      if (J.Engine != engineKindName(EngineKind::Symbolic))
        continue;
      ++CertJobs;
      CertOk += J.ProofChecked;
      CertQueries += J.ProofQueries;
      CertPeak = std::max(CertPeak, J.ProofClauses);
    }
    std::snprintf(Buf, sizeof(Buf),
                  "certified: %zu/%zu symbolic jobs proof-checked, %llu "
                  "certificates, peak %llu checker clauses\n",
                  CertOk, CertJobs,
                  static_cast<unsigned long long>(CertQueries),
                  static_cast<unsigned long long>(CertPeak));
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "wall time %.1f ms on %u thread%s; %u verification "
                "failure%s\n",
                R.WallMillis, R.Threads, R.Threads == 1 ? "" : "s",
                TotalFailures, TotalFailures == 1 ? "" : "s");
  Out += Buf;
  return Out;
}
