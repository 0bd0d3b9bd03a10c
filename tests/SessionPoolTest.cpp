//===- tests/SessionPoolTest.cpp - Shared per-pair session tests ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// The shared session layer must be invisible in the verdicts: selector
/// literals isolate each method's scoped prefix inside the shared clause
/// database, and discharging any subset of a pair's methods in any order
/// through one one-pair CatalogSession (the shared-pair session, its pair
/// at the root) agrees with independent one-shot sessions. The fuzz
/// sweep below drives exactly that comparison over random method subsets,
/// including mutants whose proofs fail.
///
//===----------------------------------------------------------------------===//

#include "commute/SymbolicEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace semcomm;

namespace {

struct PoolFixture {
  ExprFactory F;
  Catalog C{F};
};
PoolFixture &fixture() {
  static PoolFixture Fx;
  return Fx;
}

/// A one-family, one-pair catalog plan: the session shared-pair mode runs,
/// with pair \p Key at the session root.
CatalogPlan onePairPlan(const std::string &Key = "p") {
  CatalogPlan CP;
  CP.Families.push_back({"demo", {PairPlan{Key, {}}}});
  return CP;
}

/// True when some label of \p Labels starts with \p Prefix.
bool anyLabelStartsWith(const std::vector<std::string> &Labels,
                        const std::string &Prefix) {
  return std::any_of(Labels.begin(), Labels.end(),
                     [&Prefix](const std::string &L) {
                       return L.rfind(Prefix, 0) == 0;
                     });
}

} // namespace

TEST(SharedSessionTest, SelectorsIsolateContradictoryScopedPrefixes) {
  // Two methods with mutually contradictory scoped prefixes must coexist
  // in one warm database: each proof sees only its own prefix.
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("shared_x", Sort::Bool);

  MethodPlan PosPlan;
  PosPlan.Name = "scoped_pos";
  PosPlan.Scoped.push_back({X, "x"});
  PosPlan.Splits.push_back(
      VcSplit{{{Fx.F.lnot(X), "not-x"}}, ""}); // x ∧ ¬x: refuted.

  MethodPlan NegPlan;
  NegPlan.Name = "scoped_neg";
  NegPlan.Scoped.push_back({Fx.F.lnot(X), "not-x"});
  NegPlan.Splits.push_back(VcSplit{{{X, "x"}}, ""});

  CatalogPlan CP = onePairPlan();
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);
  SymbolicResult R1, R2;
  EXPECT_TRUE(Sess.discharge(0, "p", PosPlan, R1));
  EXPECT_TRUE(Sess.discharge(0, "p", NegPlan, R2));
  EXPECT_EQ(Sess.numSelectors(), 2u); // Method selectors only.

  // Had either scoped prefix leaked into the global base, the database
  // would now be contradictory and this satisfiable plan would "verify".
  MethodPlan SatPlan;
  SatPlan.Name = "scoped_free";
  SatPlan.Splits.push_back(
      VcSplit{{{Fx.F.var("shared_y", Sort::Bool), "y"}}, ""});
  SymbolicResult R3;
  EXPECT_FALSE(Sess.discharge(0, "p", SatPlan, R3));
  EXPECT_EQ(R3.LastOutcome, SatResult::Sat);
}

TEST(SharedSessionTest, SameNameDifferentPlansGetDistinctSelectors) {
  // Two *different* plans that happen to share a name (e.g. a mutated
  // entry's methods keep the original names) must not share a selector:
  // the second plan would otherwise be proved against the first plan's
  // scoped prefix.
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("dup_x", Sort::Bool);

  MethodPlan A;
  A.Name = "dup_method";
  A.Scoped.push_back({X, "x"});
  A.Splits.push_back(VcSplit{{{Fx.F.lnot(X), "not-x"}}, ""});

  MethodPlan B = A; // Same name, contradictory prefix.
  B.Scoped.clear();
  B.Scoped.push_back({Fx.F.lnot(X), "not-x"});

  CatalogPlan CP = onePairPlan();
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);
  SymbolicResult RA, RB, RA2;
  EXPECT_TRUE(Sess.discharge(0, "p", A, RA));
  // Under B's own prefix (¬x) the split ¬x is satisfiable — had B reused
  // A's selector (prefix x), it would wrongly verify.
  EXPECT_FALSE(Sess.discharge(0, "p", B, RB));
  EXPECT_EQ(RB.LastOutcome, SatResult::Sat);
  EXPECT_EQ(Sess.numSelectors(), 2u);
  // Re-discharging A reuses its original selector.
  EXPECT_TRUE(Sess.discharge(0, "p", A, RA2));
  EXPECT_EQ(Sess.numSelectors(), 2u);
}

TEST(SharedSessionTest, UnsatCoreLabelsNameTheUsedAssumptions) {
  PoolFixture &Fx = fixture();
  ExprRef A = Fx.F.var("core_a", Sort::Bool);
  ExprRef B = Fx.F.var("core_b", Sort::Bool);

  MethodPlan Plan;
  Plan.Name = "core_demo";
  Plan.Scoped.push_back({Fx.F.implies(A, B), "a-implies-b"});
  // Assume a and ¬b: the refutation needs the selector (which activates
  // the implication) and both split literals — and nothing else.
  Plan.Splits.push_back(
      VcSplit{{{A, "a"}, {Fx.F.lnot(B), "not-b"},
               {Fx.F.var("core_unused", Sort::Bool), "unused"}},
              ""});

  CatalogPlan CP = onePairPlan();
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);
  SymbolicResult R;
  ASSERT_TRUE(Sess.discharge(0, "p", Plan, R));
  auto Has = [&R](const char *L) {
    return std::find(R.CoreLabels.begin(), R.CoreLabels.end(), L) !=
           R.CoreLabels.end();
  };
  EXPECT_TRUE(Has("sel:core_demo"));
  EXPECT_TRUE(Has("a"));
  EXPECT_TRUE(Has("not-b"));
  EXPECT_FALSE(Has("unused"));
  // The root pair has no selector to name.
  EXPECT_FALSE(anyLabelStartsWith(R.CoreLabels, "pair:"));
}

TEST(SharedSessionTest, UnsupportedPlanReportsItsNote) {
  PoolFixture &Fx = fixture();
  MethodPlan Plan;
  Plan.Name = "unsupported_demo";
  Plan.Unsupported = true;
  Plan.UnsupportedNote = "unsupported atom shape in bounded lowering";
  // Even a refutable final split must not count as a proof.
  Plan.Splits.push_back(VcSplit{{{Fx.F.falseExpr(), "false"}}, "n=0"});

  CatalogPlan CP = onePairPlan();
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);
  SymbolicResult R;
  EXPECT_FALSE(Sess.discharge(0, "p", Plan, R));
  EXPECT_EQ(R.Countermodel, Plan.UnsupportedNote);
}

TEST(SharedSessionTest, SharedPairRegistersSixMethodSelectorsAndNoPairSelector) {
  // The shared-pair session puts its sole pair at the session root: the
  // six methods get one selector each and the pair none, so every scoped
  // formula encodes under one selector implication. A pair selector here
  // would change the encoding (and the conflict counts) of the default
  // mode.
  PoolFixture &Fx = fixture();
  SymbolicEngine Engine(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                        SolveMode::SharedPair);
  const ConditionEntry &E = Fx.C.entry(mapFamily(), "put_", "remove_");
  PairOutcome O = Engine.verifyPair(E);
  EXPECT_EQ(O.failures(), 0u);
  EXPECT_EQ(O.Selectors, 6u);
  EXPECT_EQ(O.SessionsOpened, 1u);
  for (const SymbolicResult &R : O.Methods)
    EXPECT_FALSE(anyLabelStartsWith(R.CoreLabels, "pair:"));
}

/// Fuzz: random subsets of a pair's six methods, in random order, through
/// one shared session, against independent one-shot sessions — verdicts
/// and VC counts must be identical. Mutated entries mix failing proofs
/// into the sequence.
class SharedPairFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedPairFuzzTest, RandomMethodSubsetsMatchOneShotSessions) {
  PoolFixture &Fx = fixture();
  std::mt19937 Rng(GetParam());
  SymbolicEngine Shared(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                        SolveMode::SharedPair);
  SymbolicEngine OneShot(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                         SolveMode::OneShot);

  // Pool of entries spanning all four families.
  std::vector<const ConditionEntry *> Entries;
  for (const Family *Fam : allFamilies())
    for (const ConditionEntry &E : Fx.C.entries(*Fam))
      Entries.push_back(&E);

  for (int Trial = 0; Trial < 30; ++Trial) {
    const ConditionEntry &Real =
        *Entries[Rng() % Entries.size()];
    // Half of the trials weaken the conditions to "always commutes",
    // which fails soundness for most pairs — the shared session must not
    // let one method's failure contaminate another's verdict.
    ConditionEntry Mutant = Real;
    bool Mutated = (Rng() & 1) != 0;
    if (Mutated)
      Mutant.Before = Mutant.Between = Mutant.After = Fx.F.trueExpr();
    const ConditionEntry &E = Mutated ? Mutant : Real;

    // A random subset of the six methods, in random order.
    std::vector<std::pair<ConditionKind, MethodRole>> All;
    for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                            ConditionKind::After})
      for (MethodRole Role :
           {MethodRole::Soundness, MethodRole::Completeness})
        All.push_back({K, Role});
    std::shuffle(All.begin(), All.end(), Rng);
    size_t Take = 1 + Rng() % All.size();

    CatalogPlan CP = onePairPlan(E.pairName());
    CatalogSession Sess(Fx.F, CP, /*Budget=*/200000);
    for (size_t I = 0; I != Take; ++I) {
      TestingMethod M;
      M.Entry = &E;
      M.Kind = All[I].first;
      M.Role = All[I].second;

      SymbolicResult Got;
      Got.Verified = Sess.discharge(0, E.pairName(), Shared.plan(M), Got);
      SymbolicResult Want = OneShot.verify(M);

      ASSERT_EQ(Got.Verified, Want.Verified)
          << "seed=" << GetParam() << " trial=" << Trial << " "
          << E.Fam->Name << " " << E.pairName() << " " << M.name()
          << (Mutated ? " (mutant)" : "");
      ASSERT_EQ(Got.NumVcs, Want.NumVcs) << M.name();
    }
    EXPECT_EQ(Sess.numSelectors(), Take);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedPairFuzzTest,
                         ::testing::Values(17, 29, 71, 113));

namespace {

/// A catalog plan over one family whose pairs the caller names at
/// discharge time, with \p Common as catalog base.
CatalogPlan oneFamilyPlan(const std::string &Name,
                          std::vector<ExprRef> Common = {}) {
  CatalogPlan CP;
  CP.CatalogCommon = std::move(Common);
  CP.Families.push_back({Name, {}});
  return CP;
}

} // namespace

TEST(FamilySessionTest, SelectorsNestAndRetireCleanly) {
  // Two "pairs" with contradictory pair-common prefixes coexist under
  // their pair selectors in a one-family catalog session; retiring one
  // evicts its clauses and leaves the other scope's proofs intact.
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("fam_x", Sort::Bool);

  CatalogPlan CP = oneFamilyPlan("demo");
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);

  MethodPlan Pos;
  Pos.Name = "m";
  Pos.Common = {X};
  Pos.Splits.push_back(VcSplit{{{Fx.F.lnot(X), "not-x"}}, ""});
  MethodPlan Neg;
  Neg.Name = "m";
  Neg.Common = {Fx.F.lnot(X)};
  Neg.Splits.push_back(VcSplit{{{X, "x"}}, ""});

  SymbolicResult R1, R2;
  EXPECT_TRUE(Sess.discharge(0, "p1", Pos, R1));
  EXPECT_TRUE(Sess.discharge(0, "p2", Neg, R2));
  // Pair selector + method selector per pair.
  EXPECT_EQ(Sess.numSelectors(), 4u);
  EXPECT_EQ(Sess.stats().PairsOpened, 2u);
  // Each pair asserted its own Common prefix in its own scope.
  EXPECT_EQ(Sess.stats().PrefixAsserts, 2u);

  // The core names the pair scope, the method selector, and the split.
  auto Has = [&R1](const char *L) {
    return std::find(R1.CoreLabels.begin(), R1.CoreLabels.end(), L) !=
           R1.CoreLabels.end();
  };
  EXPECT_TRUE(Has("pair:demo/p1"));
  EXPECT_TRUE(Has("not-x"));

  uint64_t Retained = Sess.retainedClauses();
  EXPECT_GT(Sess.retirePair(0, "p1"), 0u);
  EXPECT_LT(Sess.retainedClauses(), Retained);
  EXPECT_EQ(Sess.stats().PairsRetired, 1u);
  EXPECT_TRUE(Sess.session().solver().reasonInvariantHolds());

  // p2 still verifies after p1's eviction; p1 re-opens under a fresh
  // selector and verifies again.
  SymbolicResult R3, R4;
  EXPECT_TRUE(Sess.discharge(0, "p2", Neg, R3));
  EXPECT_TRUE(Sess.discharge(0, "p1", Pos, R4));
  EXPECT_EQ(Sess.stats().PairsOpened, 3u);
}

TEST(SymbolicEngineTest, VerifyFamilyMatchesSharedPairOnWholeCatalog) {
  // One session over a whole family is a pure performance refactor:
  // every verdict equals the per-pair sessions', pair by pair and method
  // by method, and every finished pair is retired.
  PoolFixture &Fx = fixture();
  SymbolicEngine FamEng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  SymbolicEngine Pair(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                      SolveMode::SharedPair);

  for (const Family *Fam : allFamilies()) {
    CatalogOutcome CO = FamEng.verifyCatalog(Fx.C, {Fam});
    const FamilyOutcome &FO = CO.Families.front();
    const std::vector<ConditionEntry> &Entries = Fx.C.entries(*Fam);
    ASSERT_EQ(FO.Pairs.size(), Entries.size()) << Fam->Name;
    EXPECT_EQ(CO.Stats.PairsRetired, Entries.size());
    EXPECT_EQ(CO.Stats.PairsOpened, Entries.size());
    for (size_t I = 0; I != Entries.size(); ++I) {
      EXPECT_EQ(FO.PairKeys[I], Entries[I].pairName());
      PairOutcome Want = Pair.verifyPair(Entries[I]);
      ASSERT_EQ(FO.Pairs[I].Methods.size(), Want.Methods.size());
      for (size_t M = 0; M != Want.Methods.size(); ++M) {
        EXPECT_EQ(FO.Pairs[I].Methods[M].Verified,
                  Want.Methods[M].Verified)
            << Fam->Name << " " << Entries[I].pairName() << " method " << M;
        EXPECT_EQ(FO.Pairs[I].Methods[M].NumVcs, Want.Methods[M].NumVcs);
      }
    }
  }
}

TEST(SymbolicEngineTest, EvictionBoundsRetainedClausesAcrossAFamily) {
  // The point of pair retirement: the peak database of a session serving
  // a whole family stays near one live pair's footprint instead of
  // accumulating every pair's. The no-eviction reference discharges the
  // same plans through the same catalog plan without ever retiring a pair.
  PoolFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);

  const Family &Fam = mapFamily();
  CatalogSessionStats Evicting = Eng.verifyCatalog(Fx.C, {&Fam}).Stats;

  CatalogPlan CP = Eng.planCatalog(Fx.C, {&Fam});
  CatalogSession NoEvict(Fx.F, CP, /*Budget=*/200000);
  for (const ConditionEntry &E : Fx.C.entries(Fam)) {
    PairPlan PP = Eng.planPair(E);
    for (const MethodPlan &MP : PP.Methods) {
      SymbolicResult R;
      NoEvict.discharge(0, PP.Key, MP, R);
    }
  }
  uint64_t NoEvictPeak = NoEvict.stats().PeakRetainedClauses;

  EXPECT_GT(Evicting.EvictedClauses, 0u);
  EXPECT_LT(Evicting.PeakRetainedClauses, NoEvictPeak);
  // Not proportional to family size: the evicting peak stays well under
  // half of the accumulate-everything peak on the 49-pair Map family.
  EXPECT_LT(Evicting.PeakRetainedClauses, NoEvictPeak / 2);
}

/// Eviction-soundness fuzz: random pair discharge / retire / re-verify
/// orders through one session over a family — including mutant catalogs whose
/// proofs fail — against a no-eviction per-pair reference. Verdicts must
/// match everywhere and the solver's reason invariant must survive every
/// eviction.
class FamilyEvictionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FamilyEvictionFuzzTest, RandomRetireOrdersMatchNoEvictionReference) {
  PoolFixture &Fx = fixture();
  std::mt19937 Rng(GetParam());
  SymbolicEngine Planner(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);

  for (int Trial = 0; Trial < 12; ++Trial) {
    const Family *Fam = allFamilies()[Rng() % allFamilies().size()];
    const std::vector<ConditionEntry> &All = Fx.C.entries(*Fam);

    // A handful of pairs, half of the trials mutated to "always commutes"
    // (fails soundness for most pairs).
    std::vector<ConditionEntry> Picked;
    for (int I = 0; I < 4; ++I) {
      ConditionEntry E = All[Rng() % All.size()];
      if (Rng() & 1)
        E.Before = E.Between = E.After = Fx.F.trueExpr();
      Picked.push_back(E);
    }
    // The family's catalog-common prefix is session base (the hoist rule
    // holds for mutants too: they keep the original's vocabulary); the
    // rest of each pair's Common prefix goes into its pair scope.
    std::vector<PairPlan> Pairs;
    for (const ConditionEntry &E : Picked)
      Pairs.push_back(Planner.planPair(E));
    CatalogPlan CP = oneFamilyPlan(
        Fam->Name, Planner.planCatalog(Fx.C, {Fam}).CatalogCommon);
    CatalogSession Sess(Fx.F, CP, /*Budget=*/200000);
    Sess.configureClauseGc(true, /*FirstLimit=*/64);

    // Random operation sequence over the picked pairs: discharge a random
    // method of a random pair (re-verification after retirement included),
    // or retire a random pair.
    for (int Step = 0; Step < 24; ++Step) {
      size_t PI = Rng() % Pairs.size();
      const PairPlan &PP = Pairs[PI];
      // Keys may repeat across picked entries; index the key by position
      // so a mutant and its original stay distinguishable to the test.
      std::string Key = PP.Key + "#" + std::to_string(PI);
      if (Rng() % 4 == 0) {
        Sess.retirePair(0, Key);
        ASSERT_TRUE(Sess.session().solver().reasonInvariantHolds())
            << "seed=" << GetParam() << " trial=" << Trial
            << " step=" << Step;
        continue;
      }
      const MethodPlan &MP = PP.Methods[Rng() % PP.Methods.size()];
      SymbolicResult Got;
      Got.Verified = Sess.discharge(0, Key, MP, Got);

      SymbolicResult Want =
          dischargePlan(Fx.F, MP, SolveMode::OneShot, /*Budget=*/200000,
                        /*GcBudget=*/0, /*Certify=*/false);

      ASSERT_EQ(Got.Verified, Want.Verified)
          << "seed=" << GetParam() << " trial=" << Trial << " step=" << Step
          << " " << Fam->Name << " " << PP.Key << " " << MP.Name;
      ASSERT_EQ(Got.NumVcs, Want.NumVcs) << MP.Name;
    }
    // Retire everything that is still live and confirm the solver state.
    for (size_t PI = 0; PI != Pairs.size(); ++PI)
      Sess.retirePair(0, Pairs[PI].Key + "#" + std::to_string(PI));
    ASSERT_TRUE(Sess.session().solver().reasonInvariantHolds());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FamilyEvictionFuzzTest,
                         ::testing::Values(23, 47, 89, 131));

TEST(CatalogSessionTest, SamePairKeyInTwoFamiliesGetsSeparateScopes) {
  // Pair keys repeat across families ("size,size" names a pair of Set,
  // Map and ArrayList). One certifying session serves key "p" in two
  // families with contradictory Common prefixes: each pair gets a scope
  // of its own, both proofs hold, the certified tags differ, and retiring
  // one pair leaves the other's proofs intact and recycles its variables.
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("cat_x", Sort::Bool);
  ExprRef W = Fx.F.var("cat_w", Sort::Bool);

  CatalogPlan CP;
  CP.Families = {{"demoA", {}}, {"demoB", {}}};
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1, /*Certify=*/true);

  // Compound scoped/split formulas, so the pair scopes own Tseitin
  // definitions (the variables pair retirement recycles).
  MethodPlan Pos;
  Pos.Name = "m";
  Pos.Common = {X};
  Pos.Scoped.push_back({Fx.F.disj({X, W}), "x-or-w"});
  Pos.Splits.push_back(
      VcSplit{{{Fx.F.conj({Fx.F.lnot(X), W}), "not-x-and-w"}}, ""});
  MethodPlan Neg;
  Neg.Name = "m";
  Neg.Common = {Fx.F.lnot(X)};
  Neg.Splits.push_back(VcSplit{{{Fx.F.conj({X, W}), "x-and-w"}}, ""});

  SymbolicResult R1, R2;
  EXPECT_TRUE(Sess.discharge(0, "p", Pos, R1));
  EXPECT_TRUE(Sess.discharge(1, "p", Neg, R2));
  // Pair + method selector per family; no family selector.
  EXPECT_EQ(Sess.numSelectors(), 4u);
  EXPECT_EQ(Sess.stats().PairsOpened, 2u);
  EXPECT_EQ(Sess.stats().PrefixAsserts, 2u);

  // The labels name the family, so cores and proof tags tell the two
  // pairs apart.
  auto Has = [](const SymbolicResult &R, const char *L) {
    return std::find(R.CoreLabels.begin(), R.CoreLabels.end(), L) !=
           R.CoreLabels.end();
  };
  EXPECT_TRUE(Has(R1, "pair:demoA/p"));
  EXPECT_TRUE(Has(R2, "pair:demoB/p"));
  EXPECT_FALSE(anyLabelStartsWith(R1.CoreLabels, "fam:"));
  ASSERT_EQ(R1.ProofQueryTags.size(), 1u);
  ASSERT_EQ(R2.ProofQueryTags.size(), 1u);
  EXPECT_NE(R1.ProofQueryTags[0], R2.ProofQueryTags[0]);

  uint64_t Retained = Sess.retainedClauses();
  int64_t RecycledBefore = Sess.session().recycledVars();
  EXPECT_GT(Sess.retirePair(0, "p"), 0u);
  EXPECT_LT(Sess.retainedClauses(), Retained);
  EXPECT_GT(Sess.session().recycledVars(), RecycledBefore);
  EXPECT_TRUE(Sess.session().solver().reasonInvariantHolds());

  // demoB's pair still verifies; demoA's re-opens as a fresh scope.
  SymbolicResult R3, R4;
  EXPECT_TRUE(Sess.discharge(1, "p", Neg, R3));
  EXPECT_TRUE(Sess.discharge(0, "p", Pos, R4));
  EXPECT_EQ(Sess.stats().PairsOpened, 3u);

  const proof::CertifySummary &Cert = Sess.finishCertification();
  EXPECT_TRUE(Cert.Ok);
  for (const SymbolicResult *R : {&R1, &R2, &R3, &R4})
    EXPECT_TRUE(Cert.allPassed(R->ProofQueryTags));
}

TEST(CatalogSessionTest, CountermodelsNameNoSelector) {
  // A failed proof's countermodel lists state atoms only. Selectors are
  // solver variables the session mints, not atoms, so no pair or method
  // selector can appear in it (a family selector once leaked in as
  // "__fam_famA").
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("x", Sort::Obj), Y = Fx.F.var("y", Sort::Obj);
  CatalogPlan CP;
  CP.Families.resize(2);
  CP.Families[0].FamilyName = "famA";
  CP.Families[1].FamilyName = "famB";
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);

  MethodPlan Plan;
  Plan.Name = "m";
  Plan.Splits.push_back(VcSplit{{{Fx.F.eq(X, Y), "x-eq-y"}}, ""});
  SymbolicResult R;
  EXPECT_FALSE(Sess.discharge(0, "p", Plan, R));
  EXPECT_EQ(R.LastOutcome, SatResult::Sat);
  EXPECT_EQ(R.Countermodel, "x = y; ");
}

TEST(SymbolicEngineTest, VerifyCatalogMatchesSharedPairOnWholeCatalog) {
  // One session over the whole catalog is a pure performance refactor:
  // every verdict equals the per-pair sessions', family by family, pair by
  // pair, method by method; every pair is retired; and the session
  // recycles variables.
  PoolFixture &Fx = fixture();
  SymbolicEngine CatEng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  SymbolicEngine Pair(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                      SolveMode::SharedPair);

  CatalogOutcome CO = CatEng.verifyCatalog(Fx.C, allFamilies());
  ASSERT_EQ(CO.Families.size(), allFamilies().size());
  EXPECT_GT(CO.Stats.RecycledVars, 0u);
  EXPECT_LT(CO.Stats.PeakLiveVars, CO.Stats.VarRequests);

  size_t Pairs = 0;
  for (size_t FI = 0; FI != allFamilies().size(); ++FI) {
    const Family *Fam = allFamilies()[FI];
    const FamilyOutcome &FO = CO.Families[FI];
    const std::vector<ConditionEntry> &Entries = Fx.C.entries(*Fam);
    ASSERT_EQ(FO.Pairs.size(), Entries.size()) << Fam->Name;
    Pairs += Entries.size();
    for (size_t I = 0; I != Entries.size(); ++I) {
      EXPECT_EQ(FO.PairKeys[I], Entries[I].pairName());
      PairOutcome Want = Pair.verifyPair(Entries[I]);
      ASSERT_EQ(FO.Pairs[I].Methods.size(), Want.Methods.size());
      for (size_t M = 0; M != Want.Methods.size(); ++M) {
        EXPECT_EQ(FO.Pairs[I].Methods[M].Verified, Want.Methods[M].Verified)
            << Fam->Name << " " << Entries[I].pairName() << " method " << M;
        EXPECT_EQ(FO.Pairs[I].Methods[M].NumVcs, Want.Methods[M].NumVcs);
      }
    }
  }
  EXPECT_EQ(CO.Stats.PairsOpened, Pairs);
  EXPECT_EQ(CO.Stats.PairsRetired, Pairs);
}

TEST(SymbolicEngineTest, CatalogCommonPrefixHoistsSharedWellFormedness) {
  // The catalog plan hoists the well-formedness formulas every entry
  // either asserts itself or provably cannot mention: the shared v1/v2
  // non-null constraints qualify (Set and ArrayList assert them; the
  // families that skip them never mention those variables).
  PoolFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  CatalogPlan CP = Eng.planCatalog(Fx.C, allFamilies());
  ASSERT_EQ(CP.Families.size(), 4u);
  EXPECT_FALSE(CP.CatalogCommon.empty());
  ExprRef V1NonNull =
      Fx.F.ne(Fx.F.var("v1", Sort::Obj), Fx.F.nullConst());
  EXPECT_TRUE(std::find(CP.CatalogCommon.begin(), CP.CatalogCommon.end(),
                        V1NonNull) != CP.CatalogCommon.end());
  // Every hoisted formula really is in some family's common prefix and in
  // no family's *negated* vocabulary: cross-check against shared-pair
  // verdicts is covered by VerifyCatalogMatchesSharedPairOnWholeCatalog.
}

TEST(SymbolicEngineTest, CatalogRecyclingBoundsLiveVarsBelowDemand) {
  // The acceptance bound of variable recycling: the catalog session's
  // peak live variable count stays measurably below the cumulative
  // allocation a no-recycling run needs for the same discharge sequence.
  PoolFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  CatalogPlan CP = Eng.planCatalog(Fx.C, allFamilies());

  auto RunAll = [&](CatalogSession &Sess) {
    unsigned Failures = 0;
    for (size_t FI = 0; FI != allFamilies().size(); ++FI) {
      for (const ConditionEntry &E : Fx.C.entries(*allFamilies()[FI])) {
        PairPlan PP = Eng.planPair(E);
        for (const MethodPlan &MP : PP.Methods) {
          SymbolicResult R;
          Failures += !Sess.discharge(FI, PP.Key, MP, R);
        }
        Sess.retirePair(FI, PP.Key);
      }
    }
    return Failures;
  };

  CatalogSession Rec(Fx.F, CP, /*Budget=*/200000);
  unsigned RecFailures = RunAll(Rec);

  CatalogSession NoRec(Fx.F, CP, /*Budget=*/200000);
  NoRec.session().solver().setVarRecycling(false);
  unsigned NoRecFailures = RunAll(NoRec);

  // Recycling is invisible in the verdicts...
  EXPECT_EQ(RecFailures, NoRecFailures);
  // ...and both runs make the same variable demand, but the recycling
  // session's peak live count is measurably below the no-recycling run's
  // cumulative allocation (its live == allocated count).
  CatalogSessionStats RecStats = Rec.stats(), NoRecStats = NoRec.stats();
  EXPECT_EQ(RecStats.VarRequests, NoRecStats.VarRequests);
  EXPECT_EQ(NoRecStats.RecycledVars, 0u);
  uint64_t NoRecAllocated =
      static_cast<uint64_t>(NoRec.session().solver().numVars());
  EXPECT_GT(RecStats.RecycledVars, 0u);
  EXPECT_LT(RecStats.PeakLiveVars, NoRecAllocated);
  // "Measurably": at least 15% of the cumulative allocation is recycled
  // away at bound 2; larger bounds only widen the gap.
  EXPECT_LT(RecStats.PeakLiveVars, NoRecAllocated * 85 / 100);
}

TEST(SymbolicEngineTest, LazyPlanningBoundsMaterializedSplits) {
  // verifyGroups materializes each pair's splits just before discharge
  // and drops them after retirePair: the peak number of live splits is
  // one pair's worth, far below the whole family's.
  PoolFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  FamilyOutcome FO =
      Eng.verifyCatalog(Fx.C, {&arrayListFamily()}).Families.front();
  EXPECT_GT(FO.PeakMaterializedSplits, 0u);
  EXPECT_GT(FO.TotalSplits, FO.PeakMaterializedSplits * 10);

  // The peak equals the largest single pair's split count — exactly what
  // planPair materializes for that pair alone.
  uint64_t MaxPair = 0, Total = 0;
  for (const ConditionEntry &E : Fx.C.entries(arrayListFamily())) {
    uint64_t N = 0;
    for (const MethodPlan &MP : Eng.planPair(E).Methods)
      N += MP.Splits.size();
    MaxPair = std::max(MaxPair, N);
    Total += N;
  }
  EXPECT_EQ(FO.PeakMaterializedSplits, MaxPair);
  EXPECT_EQ(FO.TotalSplits, Total);
}

TEST(SharedSessionTest, OneShotModeRecreatesSessions) {
  PoolFixture &Fx = fixture();
  const ConditionEntry &E = Fx.C.entries(setFamily()).front();
  SymbolicEngine OneShot(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                         SolveMode::OneShot);
  PairOutcome OS = OneShot.verifyPair(E);
  EXPECT_EQ(OS.failures(), 0u);
  uint64_t Vcs = 0;
  for (const SymbolicResult &R : OS.Methods) {
    Vcs += R.NumVcs;
    EXPECT_EQ(R.RetainedClauses, 0u); // Nothing carries over.
  }
  EXPECT_EQ(OS.SessionsOpened, Vcs); // One session per VC split.
  EXPECT_EQ(OS.Selectors, 0u);       // Selectors are warm-only.
}
