//===- tests/DriverTest.cpp - Parallel verification driver ------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// Pins down the semcommute-verify driver: the job enumeration covers the
/// complete catalog (the tr_full_catalog counts), a 1-thread run and an
/// N-thread run reach identical verdicts, and the JSON report round-trips
/// through the parser without loss.
///
//===----------------------------------------------------------------------===//

#include "DriverCore.h"

#include "inverse/InverseSpec.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <type_traits>

using namespace semcomm;
using namespace semcomm::driver;

namespace {

/// A scope strictly inside the default one: every scenario it enumerates is
/// also enumerated by the default scope, so all catalog verdicts remain
/// "verified" while tests run in a fraction of the time.
Scope smallScope() {
  Scope S;
  S.SetUniverse = 2;
  S.MapKeys = 2;
  S.MapVals = 2;
  S.SeqVals = 2;
  S.MaxSeqLen = 2;
  S.CounterRange = 1;
  return S;
}

struct DriverFixture {
  ExprFactory F;
  Catalog C{F};
};

/// The JSON node the report writer emits for a field of type \p T.
template <typename T> json::Value dom(const T &V) {
  if constexpr (std::is_same_v<T, bool>)
    return json::Value::boolean(V);
  else if constexpr (std::is_floating_point_v<T>)
    return json::Value::number(V);
  else if constexpr (std::is_integral_v<T>)
    return json::Value::integer(static_cast<int64_t>(V));
  else
    return json::Value::string(V);
}

/// The written report carries \p Want under \p Key of \p Row.
template <typename T>
void expectField(const json::Value &Row, const char *Key, const T &Want) {
  const json::Value *Got = Row.find(Key);
  ASSERT_NE(Got, nullptr) << "missing '" << Key << "'";
  EXPECT_TRUE(*Got == dom(Want))
      << Key << ": wrote " << Got->dump() << ", want " << dom(Want).dump();
}

//===----------------------------------------------------------------------===//
// Job enumeration completeness
//===----------------------------------------------------------------------===//

TEST(DriverEnumeration, CoversEveryPairKindAndRole) {
  DriverFixture Fx;
  DriverOptions Opts;
  std::vector<JobRecord> Jobs = enumerateJobs(Fx.C, Opts);

  // Per family: |ops|^2 ordered pairs x 3 kinds x 2 roles commutativity
  // jobs, plus that family's Table 5.10 inverse rows.
  std::vector<InverseSpec> Inverses = buildInverseSpecs();
  size_t Expected = 0;
  for (const Family *Fam : allFamilies()) {
    Expected += Fx.C.entries(*Fam).size() * 3 * 2;
    for (const InverseSpec &S : Inverses)
      if (S.Fam == Fam)
        ++Expected;
  }
  EXPECT_EQ(Jobs.size(), Expected);

  // Every job is distinct.
  std::set<std::string> Keys;
  for (const JobRecord &J : Jobs)
    Keys.insert(J.key());
  EXPECT_EQ(Keys.size(), Jobs.size());

  // The commutativity jobs cover the paper's 765 conditions (counted per
  // implementing structure) exactly: each condition contributes one
  // soundness and one completeness job, counted once per family.
  size_t PaperCount = 0;
  for (const Family *Fam : allFamilies()) {
    size_t FamJobs = 0;
    for (const JobRecord &J : Jobs)
      if (J.Family == Fam->Name && J.Category == "commutativity")
        ++FamJobs;
    EXPECT_EQ(FamJobs, Fx.C.entries(*Fam).size() * 6) << Fam->Name;
    PaperCount += FamJobs / 2 * Fam->StructureNames.size();
  }
  EXPECT_EQ(PaperCount, Fx.C.totalConditionsPaperCount());
  EXPECT_EQ(Fx.C.totalConditionsPaperCount(), 765u);

  // All eight Table 5.10 inverses appear.
  size_t InverseJobs = 0;
  for (const JobRecord &J : Jobs)
    if (J.Category == "inverse")
      ++InverseJobs;
  EXPECT_EQ(InverseJobs, Inverses.size());
  EXPECT_EQ(InverseJobs, 8u);
}

TEST(DriverEnumeration, FamilyFilterAndErrors) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Families = {"Set"};
  for (const JobRecord &J : enumerateJobs(Fx.C, Opts))
    EXPECT_EQ(J.Family, "Set");

  std::string Error;
  std::vector<const Family *> All = resolveFamilies({"all"}, Error);
  EXPECT_EQ(All.size(), 4u);
  EXPECT_TRUE(Error.empty());

  std::vector<const Family *> Bad = resolveFamilies({"Stack"}, Error);
  EXPECT_TRUE(Bad.empty());
  EXPECT_FALSE(Error.empty());

  std::vector<const Family *> Two = resolveFamilies({"Map", "Set"}, Error);
  ASSERT_EQ(Two.size(), 2u);
  // Presentation order is preserved regardless of request order.
  EXPECT_EQ(Two[0]->Name, "Set");
  EXPECT_EQ(Two[1]->Name, "Map");
}

//===----------------------------------------------------------------------===//
// Parallel runs: verdicts are independent of the thread count
//===----------------------------------------------------------------------===//

TEST(DriverParallel, OneThreadAndManyThreadsAgree) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();

  Opts.Threads = 1;
  Report Serial = runFullCatalog(Fx.C, Opts);
  Opts.Threads = 8;
  Report Parallel = runFullCatalog(Fx.C, Opts);

  EXPECT_TRUE(Serial.sameVerdicts(Parallel));
  EXPECT_TRUE(Parallel.sameVerdicts(Serial));
  EXPECT_EQ(Serial.failures(), 0u);
  EXPECT_EQ(Parallel.failures(), 0u);
  EXPECT_EQ(Serial.Results.size(), Parallel.Results.size());
  EXPECT_EQ(Parallel.Threads, 8u);

  // The small scope exercises every family.
  EXPECT_EQ(Serial.Families.size(), 4u);
  for (const FamilySummary &S : Serial.Families) {
    EXPECT_GT(S.Jobs, 0u) << S.Family;
    EXPECT_GT(S.Scenarios, 0u) << S.Family;
  }
}

TEST(DriverParallel, SubsetRunMatchesItsSlice) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Families = {"Accumulator"};
  Opts.Threads = 4;

  Report R = runFullCatalog(Fx.C, Opts);
  EXPECT_EQ(R.failures(), 0u);
  ASSERT_EQ(R.Families.size(), 1u);
  EXPECT_EQ(R.Families[0].Family, "Accumulator");
  // 2 ops -> 4 ordered pairs x 3 kinds x 2 roles, plus the increase inverse.
  EXPECT_EQ(R.Results.size(),
            Fx.C.entries(accumulatorFamily()).size() * 6 + 1);
}

//===----------------------------------------------------------------------===//
// Engine selection: the symbolic path must match the exhaustive one
//===----------------------------------------------------------------------===//

TEST(DriverEngines, EnumerationCoversBothEnginesExactlyOnce) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Both;
  std::vector<JobRecord> Jobs = enumerateJobs(Fx.C, Opts);

  Opts.Engine = EngineKind::Exhaustive;
  size_t ExOnly = enumerateJobs(Fx.C, Opts).size();
  Opts.Engine = EngineKind::Symbolic;
  size_t SymOnly = enumerateJobs(Fx.C, Opts).size();

  // "Both" doubles every job: the inverse catalog now runs under each
  // engine too (the symbolic inverse path cross-checks the concrete one).
  EXPECT_EQ(ExOnly, SymOnly);
  EXPECT_EQ(Jobs.size(), 2 * ExOnly);

  std::set<std::string> Keys;
  size_t SymbolicInverses = 0, ExhaustiveInverses = 0;
  for (const JobRecord &J : Jobs) {
    EXPECT_TRUE(J.Engine == "exhaustive" || J.Engine == "symbolic")
        << J.key();
    if (J.Category == "inverse") {
      if (J.Engine == "symbolic")
        ++SymbolicInverses;
      else
        ++ExhaustiveInverses;
    }
    Keys.insert(J.key());
  }
  EXPECT_EQ(Keys.size(), Jobs.size());
  size_t Inverses = buildInverseSpecs().size();
  EXPECT_EQ(SymbolicInverses, Inverses);
  EXPECT_EQ(ExhaustiveInverses, Inverses);
}

TEST(DriverEngines, SymbolicMatchesExhaustiveOnFullCatalog) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Engine = EngineKind::Both;
  Opts.SymbolicSeqLenBound = 2;
  Opts.Threads = 4;

  Report R = runFullCatalog(Fx.C, Opts);
  EXPECT_EQ(R.failures(), 0u);

  // Pair every symbolic verdict (commutativity and inverse) with its
  // exhaustive twin.
  std::map<std::string, bool> Exhaustive;
  for (const JobRecord &J : R.Results)
    if (J.Engine == "exhaustive")
      Exhaustive[J.Family + "/" + J.Category + "/" + J.Op1 + "/" + J.Op2 +
                 "/" + J.Kind + "/" + J.Role] = J.Verified;

  size_t SymbolicJobs = 0, SymbolicInverses = 0;
  uint64_t TotalVcs = 0;
  for (const JobRecord &J : R.Results) {
    if (J.Engine != "symbolic")
      continue;
    ++SymbolicJobs;
    SymbolicInverses += J.Category == "inverse";
    TotalVcs += J.Vcs;
    std::string Key = J.Family + "/" + J.Category + "/" + J.Op1 + "/" +
                      J.Op2 + "/" + J.Kind + "/" + J.Role;
    ASSERT_TRUE(Exhaustive.count(Key)) << Key;
    EXPECT_EQ(J.Verified, Exhaustive[Key]) << Key;
    EXPECT_GT(J.Vcs, 0u) << Key;
  }
  EXPECT_EQ(SymbolicJobs, Exhaustive.size());
  EXPECT_EQ(SymbolicInverses, buildInverseSpecs().size());
  EXPECT_GT(TotalVcs, SymbolicJobs); // ArrayList case splits multiply VCs.

  // Every symbolic (family, op-pair) shows up in the pair-session stats
  // with its six methods and a live session.
  EXPECT_FALSE(R.Pairs.empty());
  size_t PairEntries = 0;
  for (const Family *Fam : allFamilies())
    PairEntries += Fx.C.entries(*Fam).size();
  EXPECT_EQ(R.Pairs.size(), PairEntries);
  bool AnyRetained = false;
  for (const PairStats &P : R.Pairs) {
    EXPECT_EQ(P.Methods, 6u) << P.Family << "/" << P.Op1 << "," << P.Op2;
    EXPECT_EQ(P.Mode, "shared-pair");
    EXPECT_EQ(P.SessionsOpened, 1u);
    EXPECT_EQ(P.Selectors, 6u);
    EXPECT_GT(P.Vcs, 0u);
    // Trivial pairs (e.g. Accumulator read/read) may encode entirely to
    // unit clauses, which live on the trail; substantial pairs must show
    // retained clauses.
    AnyRetained = AnyRetained || P.RetainedClauses > 0;
  }
  EXPECT_TRUE(AnyRetained);
}

TEST(DriverEngines, SymbolicVerdictsAreThreadCountInvariant) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.SymbolicSeqLenBound = 3;

  Opts.Threads = 1;
  Report Serial = runFullCatalog(Fx.C, Opts);
  for (unsigned Threads : {2u, 8u}) {
    Opts.Threads = Threads;
    Report Parallel = runFullCatalog(Fx.C, Opts);

    EXPECT_TRUE(Serial.sameVerdicts(Parallel)) << Threads;
    EXPECT_TRUE(Parallel.sameVerdicts(Serial)) << Threads;
    EXPECT_EQ(Serial.failures(), 0u);
    EXPECT_EQ(Parallel.failures(), 0u);

    // Solver statistics are a function of the job, not of scheduling:
    // each pair runs its six methods in a fixed order on one worker.
    for (size_t I = 0; I != Serial.Results.size(); ++I) {
      EXPECT_EQ(Serial.Results[I].Vcs, Parallel.Results[I].Vcs)
          << Serial.Results[I].key();
      EXPECT_EQ(Serial.Results[I].Conflicts, Parallel.Results[I].Conflicts)
          << Serial.Results[I].key();
      EXPECT_EQ(Serial.Results[I].ProofCore, Parallel.Results[I].ProofCore)
          << Serial.Results[I].key();
    }
    ASSERT_EQ(Serial.Pairs.size(), Parallel.Pairs.size());
    for (size_t I = 0; I != Serial.Pairs.size(); ++I) {
      EXPECT_EQ(Serial.Pairs[I].Checks, Parallel.Pairs[I].Checks);
      EXPECT_EQ(Serial.Pairs[I].Conflicts, Parallel.Pairs[I].Conflicts);
      EXPECT_EQ(Serial.Pairs[I].RetainedClauses,
                Parallel.Pairs[I].RetainedClauses);
    }
  }
}

TEST(DriverEngines, SolveModesAgreeOnDriverVerdicts) {
  // The shared-family mode and the one-shot oracle must reach the same
  // verdicts as the shared-pair default (only the statistics may differ).
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.Families = {"Set"};
  Opts.Threads = 4;

  Opts.SymbolicMode = SolveMode::SharedPair;
  Report Shared = runFullCatalog(Fx.C, Opts);
  Opts.SymbolicMode = SolveMode::OneShot;
  Report OneShot = runFullCatalog(Fx.C, Opts);
  Opts.SymbolicMode = SolveMode::SharedFamily;
  Report FamilyRun = runFullCatalog(Fx.C, Opts);

  EXPECT_EQ(Shared.failures(), 0u);
  EXPECT_EQ(OneShot.failures(), 0u);
  EXPECT_EQ(FamilyRun.failures(), 0u);
  EXPECT_TRUE(Shared.sameVerdicts(OneShot));
  EXPECT_TRUE(Shared.sameVerdicts(FamilyRun));
  for (const PairStats &P : OneShot.Pairs) {
    EXPECT_EQ(P.Mode, "oneshot");
    EXPECT_EQ(P.SessionsOpened, P.Vcs); // One fresh session per VC split.
    EXPECT_EQ(P.Selectors, 0u);
  }

  // Every warm mode reports one session row per session: one per pair
  // under shared-pair.
  ASSERT_EQ(Shared.CatalogSessions.size(), Shared.Pairs.size());
  for (size_t I = 0; I != Shared.Pairs.size(); ++I) {
    const CatalogStats &CS = Shared.CatalogSessions[I];
    EXPECT_EQ(CS.Mode, "shared-pair");
    EXPECT_EQ(CS.FamilyNames, "Set");
    EXPECT_EQ(CS.Pairs, 1u);
    EXPECT_EQ(CS.Checks, Shared.Pairs[I].Checks);
    EXPECT_GT(CS.PeakLiveVars, 0u);
  }
  EXPECT_TRUE(OneShot.CatalogSessions.empty()); // Cold: no warm session.

  // The family run reports one warm session for the whole family, pair
  // rows under shared-family mode, and a session row whose eviction,
  // retirement and recycling counters show every pair was retired. The
  // session's one family sits at its root, so no family subtree retires.
  ASSERT_EQ(FamilyRun.CatalogSessions.size(), 1u);
  const CatalogStats &CS = FamilyRun.CatalogSessions[0];
  EXPECT_EQ(CS.Mode, "shared-family");
  EXPECT_EQ(CS.FamilyNames, "Set");
  EXPECT_EQ(CS.Families, 1u);
  EXPECT_EQ(CS.Pairs, FamilyRun.Pairs.size());
  EXPECT_EQ(CS.PairEvictions, FamilyRun.Pairs.size());
  EXPECT_EQ(CS.SubtreeRetirements, 0u);
  EXPECT_GT(CS.EvictedClauses, 0u);
  EXPECT_GT(CS.PrefixReuses, 0u);
  EXPECT_GT(CS.PeakRetainedClauses, 0u);
  EXPECT_GT(CS.RecycledVars, 0u);
  EXPECT_GT(CS.PeakLiveVars, 0u);
  EXPECT_LT(CS.PeakLiveVars, CS.VarRequests);
  uint64_t Sessions = 0;
  for (const PairStats &P : FamilyRun.Pairs) {
    EXPECT_EQ(P.Mode, "shared-family");
    EXPECT_EQ(P.Selectors, 7u); // Pair selector + six method selectors.
    Sessions += P.SessionsOpened;
  }
  EXPECT_EQ(Sessions, 1u);
}

TEST(DriverEngines, SharedFamilyVerdictsAreThreadCountInvariant) {
  // The acceptance bar of the family session: on the full catalog,
  // shared-family verdicts and solver statistics are identical at 1, 2
  // and 8 threads (each family runs its pairs in catalog order on one
  // worker), and every session row shows bounded retention via eviction
  // and recycled variables. Each session's one family sits at its root,
  // so no session retires a family subtree.
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.SymbolicMode = SolveMode::SharedFamily;
  Opts.SymbolicSeqLenBound = 2;

  Opts.Threads = 1;
  Report Serial = runFullCatalog(Fx.C, Opts);
  EXPECT_EQ(Serial.failures(), 0u);
  ASSERT_EQ(Serial.CatalogSessions.size(), 4u);
  for (const CatalogStats &CS : Serial.CatalogSessions) {
    EXPECT_EQ(CS.Families, 1u) << CS.FamilyNames;
    EXPECT_EQ(CS.PairEvictions, CS.Pairs) << CS.FamilyNames;
    EXPECT_EQ(CS.SubtreeRetirements, 0u) << CS.FamilyNames;
    EXPECT_GT(CS.Checks, 0u) << CS.FamilyNames;
  }
  uint64_t Recycled = 0;
  for (const CatalogStats &CS : Serial.CatalogSessions)
    Recycled += CS.RecycledVars;
  EXPECT_GT(Recycled, 0u);

  for (unsigned Threads : {2u, 8u}) {
    Opts.Threads = Threads;
    Report Parallel = runFullCatalog(Fx.C, Opts);
    EXPECT_TRUE(Serial.sameVerdicts(Parallel)) << Threads;
    EXPECT_EQ(Parallel.failures(), 0u);
    for (size_t I = 0; I != Serial.Results.size(); ++I) {
      EXPECT_EQ(Serial.Results[I].Vcs, Parallel.Results[I].Vcs)
          << Serial.Results[I].key();
      EXPECT_EQ(Serial.Results[I].Conflicts, Parallel.Results[I].Conflicts)
          << Serial.Results[I].key();
      EXPECT_EQ(Serial.Results[I].ProofCore, Parallel.Results[I].ProofCore)
          << Serial.Results[I].key();
    }
    ASSERT_EQ(Serial.CatalogSessions.size(), Parallel.CatalogSessions.size());
    for (size_t I = 0; I != Serial.CatalogSessions.size(); ++I) {
      const CatalogStats &A = Serial.CatalogSessions[I];
      const CatalogStats &B = Parallel.CatalogSessions[I];
      EXPECT_EQ(A.FamilyNames, B.FamilyNames);
      EXPECT_EQ(A.Checks, B.Checks) << A.FamilyNames;
      EXPECT_EQ(A.Conflicts, B.Conflicts) << A.FamilyNames;
      EXPECT_EQ(A.PeakLiveVars, B.PeakLiveVars) << A.FamilyNames;
      EXPECT_EQ(A.EvictedClauses, B.EvictedClauses) << A.FamilyNames;
      EXPECT_EQ(A.RecycledVars, B.RecycledVars) << A.FamilyNames;
    }
  }
}

TEST(DriverEngines, SharedCatalogModeYieldsErrorReport) {
  // The whole-catalog schedule and the per-method cold mode are gone:
  // asking for either fails the run, naming what to use instead, rather
  // than quietly running another schedule.
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.Families = {"Accumulator"};
  for (auto [Mode, Instead] :
       {std::pair{SolveMode::SharedCatalog, "shared-family"},
        std::pair{SolveMode::PerMethod, "shared-pair"}}) {
    SCOPED_TRACE(solveModeName(Mode));
    Opts.SymbolicMode = Mode;
    Report R = runFullCatalog(Fx.C, Opts);
    EXPECT_NE(R.Error.find(Instead), std::string::npos) << R.Error;
    EXPECT_TRUE(R.Results.empty());
    EXPECT_EQ(R.failures(), 1u);
  }
}

//===----------------------------------------------------------------------===//
// JSON report round-trip
//===----------------------------------------------------------------------===//

TEST(DriverReport, JsonRoundTrips) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Families = {"Accumulator", "Set"};
  Opts.Threads = 2;

  Report R = runFullCatalog(Fx.C, Opts);
  json::Value Doc = R.toJson();

  // Serialized text parses back to the identical DOM, compact and pretty.
  for (int Indent : {-1, 2}) {
    std::optional<json::Value> Parsed = json::Value::parse(Doc.dump(Indent));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_TRUE(*Parsed == Doc);
    EXPECT_EQ(Parsed->dump(Indent), Doc.dump(Indent));
  }

  // The DOM carries the report's metadata, family rows and verdicts.
  expectField(Doc, "tool", std::string("semcommute-verify"));
  expectField(Doc, "threads", R.Threads);
  expectField(Doc, "wall_ms", R.WallMillis);
  expectField(Doc, "plan_ms", R.PlanMillis);
  expectField(Doc["scope"], "set_universe", R.Bounds.SetUniverse);
  expectField(Doc["scope"], "counter_range", R.Bounds.CounterRange);
  ASSERT_EQ(Doc["families"].size(), R.Families.size());
  for (size_t I = 0; I != R.Families.size(); ++I) {
    const json::Value &F = Doc["families"].at(I);
    expectField(F, "family", R.Families[I].Family);
    expectField(F, "jobs", R.Families[I].Jobs);
    expectField(F, "failures", R.Families[I].Failures);
    expectField(F, "paper_conditions", R.Families[I].PaperConditions);
    expectField(F, "job_ms", R.Families[I].JobMillis);
    expectField(F, "scenarios", R.Families[I].Scenarios);
  }
  ASSERT_EQ(Doc["results"].size(), R.Results.size());
  for (size_t I = 0; I != R.Results.size(); ++I) {
    const json::Value &Row = Doc["results"].at(I);
    const JobRecord &J = R.Results[I];
    expectField(Row, "family", J.Family);
    expectField(Row, "category", J.Category);
    expectField(Row, "op1", J.Op1);
    expectField(Row, "op2", J.Op2);
    expectField(Row, "kind", J.Kind);
    expectField(Row, "role", J.Role);
    expectField(Row, "verified", J.Verified);
    expectField(Row, "scenarios", J.Scenarios);
    expectField(Row, "ms", J.Millis);
  }

  // Garbage is rejected, not mis-parsed.
  EXPECT_FALSE(json::Value::parse("{\"unterminated\": ").has_value());
  EXPECT_FALSE(json::Value::parse("[1, 2,]trailing").has_value());
  EXPECT_FALSE(json::Value::parse("1-2").has_value());
  EXPECT_FALSE(json::Value::parse("+1").has_value());
  EXPECT_FALSE(json::Value::parse("1e5e5").has_value());
  EXPECT_FALSE(json::Value::parse("1.").has_value());
  EXPECT_FALSE(json::Value::parse("[1-2]").has_value());
  // Numbers that do not fit fail the parse instead of saturating (an
  // integer outside int64) or reading as inf (a double overflow, which
  // dump() could not write back as JSON).
  EXPECT_FALSE(json::Value::parse("99999999999999999999").has_value());
  EXPECT_FALSE(json::Value::parse("-9223372036854775809").has_value());
  EXPECT_FALSE(json::Value::parse("{\"drains\": 99999999999999999999}")
                   .has_value());
  EXPECT_FALSE(json::Value::parse("1e400").has_value());
  EXPECT_FALSE(json::Value::parse("-1e400").has_value());
  // The int64 and double limits themselves still parse.
  std::optional<json::Value> Max = json::Value::parse("9223372036854775807");
  ASSERT_TRUE(Max.has_value());
  EXPECT_EQ(Max->asInt(), INT64_MAX);
  std::optional<json::Value> Min = json::Value::parse("-9223372036854775808");
  ASSERT_TRUE(Min.has_value());
  EXPECT_EQ(Min->asInt(), INT64_MIN);
  EXPECT_TRUE(json::Value::parse("1.7e308").has_value());
}

TEST(DriverReport, EngineAndSolverStatsRoundTrip) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Families = {"Set"};
  Opts.Engine = EngineKind::Both;
  Opts.Threads = 2;

  Report R = runFullCatalog(Fx.C, Opts);
  json::Value Doc = R.toJson();
  ASSERT_EQ(Doc["results"].size(), R.Results.size());
  for (size_t I = 0; I != R.Results.size(); ++I) {
    const json::Value &Row = Doc["results"].at(I);
    const JobRecord &J = R.Results[I];
    SCOPED_TRACE(J.key());
    expectField(Row, "engine", J.Engine);
    if (J.Vcs == 0) {
      // Solver statistics only exist on the symbolic path.
      EXPECT_EQ(J.Engine, "exhaustive");
      EXPECT_EQ(Row.find("vcs"), nullptr);
      continue;
    }
    expectField(Row, "vcs", J.Vcs);
    expectField(Row, "sat_conflicts", J.Conflicts);
    expectField(Row, "max_vc_conflicts", J.MaxVcConflicts);
    expectField(Row, "retained_clauses", J.RetainedClauses);
    expectField(Row, "db_reductions", J.DbReductions);
    expectField(Row, "reclaimed_clauses", J.ReclaimedClauses);
    if (J.ProofCore.empty())
      EXPECT_EQ(Row.find("proof_core"), nullptr);
    else
      expectField(Row, "proof_core", J.ProofCore);
  }
  ASSERT_EQ(Doc["families"].size(), R.Families.size());
  for (size_t I = 0; I != R.Families.size(); ++I) {
    const json::Value &F = Doc["families"].at(I);
    const FamilySummary &S = R.Families[I];
    expectField(F, "vcs", S.Vcs);
    expectField(F, "sat_conflicts", S.Conflicts);
    expectField(F, "retained_clauses", S.RetainedClauses);
    expectField(F, "db_reductions", S.DbReductions);
    expectField(F, "reclaimed_clauses", S.ReclaimedClauses);
  }
  // The per-pair reuse stats are written field by field.
  EXPECT_FALSE(R.Pairs.empty());
  ASSERT_EQ(Doc["pair_stats"].size(), R.Pairs.size());
  for (size_t I = 0; I != R.Pairs.size(); ++I) {
    const json::Value &Row = Doc["pair_stats"].at(I);
    const PairStats &P = R.Pairs[I];
    expectField(Row, "family", P.Family);
    expectField(Row, "op1", P.Op1);
    expectField(Row, "op2", P.Op2);
    expectField(Row, "mode", P.Mode);
    expectField(Row, "methods", P.Methods);
    expectField(Row, "vcs", P.Vcs);
    expectField(Row, "checks", P.Checks);
    expectField(Row, "sat_conflicts", P.Conflicts);
    expectField(Row, "retained_clauses", P.RetainedClauses);
    expectField(Row, "db_reductions", P.DbReductions);
    expectField(Row, "reclaimed_clauses", P.ReclaimedClauses);
    expectField(Row, "selectors", P.Selectors);
    expectField(Row, "sessions", P.SessionsOpened);
    expectField(Row, "ms", P.Millis);
  }
}

TEST(DriverReport, CatalogStatsRoundTrip) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.SymbolicMode = SolveMode::SharedFamily;
  Opts.Families = {"Accumulator", "Set"};
  Opts.Threads = 2;

  Report R = runFullCatalog(Fx.C, Opts);
  ASSERT_EQ(R.CatalogSessions.size(), 2u);
  EXPECT_EQ(R.CatalogSessions[0].FamilyNames, "Accumulator");
  EXPECT_EQ(R.CatalogSessions[1].FamilyNames, "Set");
  json::Value Doc = R.toJson();
  expectField(Doc, "plan_ms", R.PlanMillis);
  ASSERT_EQ(Doc["catalog_stats"].size(), R.CatalogSessions.size());
  // Every session plans its pairs, within its own wall clock; the
  // top-level planning time is the sum over the sessions.
  double PlanSum = 0;
  for (const CatalogStats &A : R.CatalogSessions) {
    EXPECT_GT(A.PlanMillis, 0) << A.FamilyNames;
    EXPECT_LE(A.PlanMillis, A.Millis) << A.FamilyNames;
    PlanSum += A.PlanMillis;
  }
  EXPECT_EQ(R.PlanMillis, PlanSum);
  for (size_t I = 0; I != R.CatalogSessions.size(); ++I) {
    const CatalogStats &A = R.CatalogSessions[I];
    const json::Value &Row = Doc["catalog_stats"].at(I);
    SCOPED_TRACE(A.FamilyNames);
    expectField(Row, "mode", A.Mode);
    expectField(Row, "family_names", A.FamilyNames);
    expectField(Row, "families", A.Families);
    expectField(Row, "pairs", A.Pairs);
    expectField(Row, "methods", A.Methods);
    expectField(Row, "vcs", A.Vcs);
    expectField(Row, "checks", A.Checks);
    expectField(Row, "sat_conflicts", A.Conflicts);
    expectField(Row, "prefix_asserts", A.PrefixAsserts);
    expectField(Row, "prefix_reuses", A.PrefixReuses);
    expectField(Row, "subtree_retirements", A.SubtreeRetirements);
    expectField(Row, "pair_evictions", A.PairEvictions);
    expectField(Row, "evicted_clauses", A.EvictedClauses);
    expectField(Row, "recycled_vars", A.RecycledVars);
    expectField(Row, "peak_live_vars", A.PeakLiveVars);
    expectField(Row, "peak_live_clauses", A.PeakLiveClauses);
    expectField(Row, "var_requests", A.VarRequests);
    expectField(Row, "peak_retained_clauses", A.PeakRetainedClauses);
    expectField(Row, "bridge_compactions", A.BridgeCompactions);
    expectField(Row, "released_selectors", A.ReleasedSelectors);
    expectField(Row, "peak_live_bridges", A.PeakLiveBridges);
    expectField(Row, "selectors", A.Selectors);
    expectField(Row, "ms", A.Millis);
    expectField(Row, "plan_ms", A.PlanMillis);
  }
}

TEST(DriverReport, BenchBaselineIndexStatsRoundTrips) {
  // bench/run_all.sh (schema 6) embeds perf_dynamic_check's index_summary
  // metrics as an index_stats section in BENCH_semcommute.json. The section
  // must survive our JSON parse/dump unchanged — CI and regression tooling
  // read the baseline back through this parser.
  const char *Doc = R"({
    "schema": 6,
    "tool": "bench/run_all.sh",
    "index_stats": {
      "indexed_speedup_x": 25.4,
      "constant_speedup_x": 118.7,
      "interpreted_ns": 642.1,
      "indexed_ns": 25.3,
      "constant_ns": 3.1,
      "raw_op_ns": 41.8,
      "constant_fraction": 0.2882,
      "total_slots": 680,
      "programs": 484,
      "constants": 196,
      "fallbacks": 0,
      "max_regs": 19,
      "total_instructions": 2683,
      "paper_conditions": 765
    }
  })";
  std::optional<json::Value> V = json::Value::parse(Doc);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)["schema"].asInt(), 6);

  const json::Value &Idx = (*V)["index_stats"];
  ASSERT_TRUE(Idx.isObject());
  EXPECT_DOUBLE_EQ(Idx["indexed_speedup_x"].asDouble(), 25.4);
  EXPECT_DOUBLE_EQ(Idx["constant_fraction"].asDouble(), 0.2882);
  EXPECT_EQ(Idx["total_slots"].asInt(), 680);
  EXPECT_EQ(Idx["programs"].asInt(), 484);
  EXPECT_EQ(Idx["constants"].asInt(), 196);
  EXPECT_EQ(Idx["fallbacks"].asInt(), 0);
  EXPECT_EQ(Idx["paper_conditions"].asInt(), 765);

  // Compact and pretty serializations both reparse to the identical DOM
  // and re-serialize byte-identically (objects preserve member order).
  for (int Indent : {-1, 2}) {
    std::optional<json::Value> Back = json::Value::parse(V->dump(Indent));
    ASSERT_TRUE(Back.has_value());
    EXPECT_TRUE(*Back == *V);
    EXPECT_EQ(Back->dump(Indent), V->dump(Indent));
  }

  // A pre-index baseline (schema 5, no index_stats) still reads cleanly:
  // the consumer distinguishes "absent" from "null" via find().
  std::optional<json::Value> Old =
      json::Value::parse(R"({"schema": 5, "tool": "bench/run_all.sh"})");
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(Old->find("index_stats"), nullptr);
}

TEST(DriverReport, BenchBaselineSpeculationStatsRoundTrips) {
  // bench/run_all.sh (schema 7) embeds perf_speculation's summary and grid
  // rows as a speculation_stats section in BENCH_semcommute.json. The
  // section must survive our JSON parse/dump unchanged — CI and regression
  // tooling read the baseline back through this parser.
  const char *Doc = R"({
    "schema": 7,
    "tool": "bench/run_all.sh",
    "speculation_stats": {
      "max_threads": 8,
      "thread_levels": 4,
      "gk_window": 16,
      "indexed_over_interpreted_x_high": 11.91,
      "indexed_over_interpreted_x_low": 4.28,
      "gk_ns_per_query_indexed_high": 47.0,
      "gk_ns_per_query_interpreted_high": 736.4,
      "scaling_1_to_max_low": 0.692,
      "scaling_1_to_max_high": 0.989,
      "ops_per_sec_1t_low": 1723096,
      "ops_per_sec_max_low": 1192889,
      "ops_per_sec_1t_high": 2340830,
      "ops_per_sec_max_high": 2314804,
      "sampled_const_hit_rate": 0.0156,
      "storm_undone_inverses": 1641,
      "storm_undone_snapshot": 1655,
      "all_completed": true,
      "grid": [
        {"mode": "replay", "threads": 1, "shards": 2, "contention": "high",
         "keys": 65536, "policy": "inverses", "path": "indexed",
         "abort_every": 0, "txns": 125, "ops": 12000, "wall_ms": 210.7,
         "ops_per_sec": 56963, "ops_executed": 15504, "commits": 125,
         "aborts": 43, "wounds": 43, "injected_aborts": 0,
         "abort_rate": 0.344, "undone_ops": 1843, "snapshots": 0,
         "gk_checks": 2731881, "gk_pass_rate": 0.9998,
         "gk_ns_per_query": 47.0, "checker_program_runs": 2650124,
         "checker_fallbacks": 0, "sampled_const_hit_rate": 0.0156,
         "completed": true},
        {"mode": "parallel", "threads": 8, "shards": 4,
         "contention": "high", "keys": 48, "policy": "snapshot",
         "path": "indexed", "abort_every": 1024, "txns": 313,
         "ops": 30048, "wall_ms": 15.6, "ops_per_sec": 1923412,
         "ops_executed": 31904, "commits": 313, "aborts": 31,
         "wounds": 2, "injected_aborts": 29, "abort_rate": 0.099,
         "undone_ops": 1849, "snapshots": 950, "gk_checks": 159,
         "gk_pass_rate": 0.56, "gk_ns_per_query": 48126.0,
         "checker_program_runs": 69, "checker_fallbacks": 0,
         "sampled_const_hit_rate": 0.0, "completed": true}
      ]
    }
  })";
  std::optional<json::Value> V = json::Value::parse(Doc);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)["schema"].asInt(), 7);

  const json::Value &Spec = (*V)["speculation_stats"];
  ASSERT_TRUE(Spec.isObject());
  EXPECT_DOUBLE_EQ(Spec["indexed_over_interpreted_x_high"].asDouble(), 11.91);
  EXPECT_DOUBLE_EQ(Spec["gk_ns_per_query_interpreted_high"].asDouble(),
                   736.4);
  EXPECT_EQ(Spec["max_threads"].asInt(), 8);
  EXPECT_EQ(Spec["gk_window"].asInt(), 16);
  EXPECT_EQ(Spec["storm_undone_inverses"].asInt(), 1641);
  EXPECT_TRUE(Spec["all_completed"].asBool());

  const json::Value &Grid = Spec["grid"];
  ASSERT_TRUE(Grid.isArray());
  ASSERT_EQ(Grid.size(), 2u);
  EXPECT_EQ(Grid.at(0)["mode"].asString(), "replay");
  EXPECT_EQ(Grid.at(0)["path"].asString(), "indexed");
  EXPECT_EQ(Grid.at(0)["gk_checks"].asInt(), 2731881);
  EXPECT_EQ(Grid.at(1)["mode"].asString(), "parallel");
  EXPECT_EQ(Grid.at(1)["policy"].asString(), "snapshot");
  EXPECT_EQ(Grid.at(1)["snapshots"].asInt(), 950);
  EXPECT_DOUBLE_EQ(Grid.at(1)["abort_rate"].asDouble(), 0.099);

  // Compact and pretty serializations both reparse to the identical DOM
  // and re-serialize byte-identically (objects preserve member order).
  for (int Indent : {-1, 2}) {
    std::optional<json::Value> Back = json::Value::parse(V->dump(Indent));
    ASSERT_TRUE(Back.has_value());
    EXPECT_TRUE(*Back == *V);
    EXPECT_EQ(Back->dump(Indent), V->dump(Indent));
  }

  // A pre-executor baseline (schema 6, no speculation_stats) still reads
  // cleanly: the consumer distinguishes "absent" from "null" via find().
  std::optional<json::Value> Old =
      json::Value::parse(R"({"schema": 6, "tool": "bench/run_all.sh"})");
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(Old->find("speculation_stats"), nullptr);
}

TEST(DriverReport, SameVerdictsDetectsDifferences) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Families = {"Accumulator"};

  Report A = runFullCatalog(Fx.C, Opts);
  Report B = A;
  EXPECT_TRUE(A.sameVerdicts(B));

  B.Results[0].Verified = !B.Results[0].Verified;
  EXPECT_FALSE(A.sameVerdicts(B));

  Report C = A;
  C.Results.pop_back();
  EXPECT_FALSE(A.sameVerdicts(C));
}

TEST(DriverReport, UnknownFamilyYieldsErrorReportNotSuccess) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Families = {"Sets"}; // typo: must not read as "verified everything"
  Report R = runFullCatalog(Fx.C, Opts);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.Results.empty());
  EXPECT_GT(R.failures(), 0u);

  // The written report carries the error.
  expectField(R.toJson(), "error", R.Error);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  std::atomic<int> Counter{0};
  {
    ThreadPool Pool(4);
    EXPECT_EQ(Pool.threadCount(), 4u);
    for (int I = 0; I != 1000; ++I)
      Pool.submit([&Counter] { Counter.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Counter.load(), 1000);
    // The pool is reusable after wait().
    for (int I = 0; I != 100; ++I)
      Pool.submit([&Counter] { Counter.fetch_add(1); });
    Pool.wait();
  }
  EXPECT_EQ(Counter.load(), 1100);
}

TEST(ThreadPool, TasksMaySubmitTasks) {
  std::atomic<int> Counter{0};
  ThreadPool Pool(3);
  for (int I = 0; I != 10; ++I)
    Pool.submit([&Pool, &Counter] {
      for (int J = 0; J != 10; ++J)
        Pool.submit([&Counter] { Counter.fetch_add(1); });
    });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversTheRange) {
  std::vector<std::atomic<int>> Hits(257);
  ThreadPool::parallelFor(Hits.size(), 4,
                          [&Hits](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
}

} // namespace

TEST(DriverCli, ParseIntIsStrictAndBounded) {
  // The one numeric-flag parser of semcommute-verify, -serve, -lint and
  // -indexgen: whole base-10 integers inside [Min, Max], nothing else.
  EXPECT_EQ(parseInt("3", 1), 3);
  EXPECT_EQ(parseInt("0", 0), 0);
  EXPECT_EQ(parseInt("-7", -10), -7);
  EXPECT_EQ(parseInt("4294967295", 0, UINT32_MAX), 4294967295LL);
  EXPECT_EQ(parseInt("12441", 0, INT64_MAX), 12441);

  EXPECT_FALSE(parseInt("0", 1));   // --seq-bound 0 verifies vacuously.
  EXPECT_FALSE(parseInt("-1", 0));  // --compact-min-dead / --selfcheck -1
                                    // wrapped.
  EXPECT_FALSE(parseInt("xyz", 1)); // --budget xyz read as budget 0.
  EXPECT_FALSE(parseInt("abc", 1)); // --requests abc read as 0 requests.
  EXPECT_FALSE(parseInt("abc", 0)); // lint --seq-bound abc linted at 0.
  EXPECT_FALSE(parseInt("4x", 1));  // indexgen --threads 4x read as 4.
  EXPECT_FALSE(parseInt("abc", 0, INT64_MAX)); // --seed abc became 0.
  EXPECT_FALSE(parseInt("", 0));
  EXPECT_FALSE(parseInt("12abc", 0));
  EXPECT_FALSE(parseInt(" 5", 0));
  EXPECT_FALSE(parseInt("5 ", 0));
  EXPECT_FALSE(parseInt("2147483648", 1)); // Above the default INT32_MAX.
  EXPECT_FALSE(parseInt("4294967296", 0, UINT32_MAX));
  EXPECT_FALSE(parseInt("99999999999999999999999", 0, INT64_MAX));
}

TEST(DriverCli, IntFlagOrExitDiagnosesAndExits2) {
  // A bad value is a one-line diagnostic naming the flag and exit status 2.
  EXPECT_EQ(intFlagOrExit("--seq-bound", "0", 0), 0);
  EXPECT_EXIT(intFlagOrExit("--selfcheck", "-1", 0),
              ::testing::ExitedWithCode(2),
              "--selfcheck wants an integer >= 0, got '-1'");
  EXPECT_EXIT(intFlagOrExit("--seed", "abc", 0, INT64_MAX),
              ::testing::ExitedWithCode(2), "--seed wants an integer in");
}
