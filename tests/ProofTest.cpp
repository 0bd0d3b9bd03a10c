//===- tests/ProofTest.cpp - proof trace + checker + certification tests ---===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the certification tentpole in three layers:
///
///  * ProofChecker unit tests over hand-built traces (acceptance and the
///    persistent-root-propagation completeness case);
///  * rejection tests: corrupted, truncated, and permuted proofs — and a
///    "mutated solver" that skips one deletion record — must all fail
///    certification, pinning down that the checker is not a rubber stamp;
///  * solver-integrated certification: warm SmtSessions and the symbolic
///    engines certify real catalog slices through reduceDb, scope
///    retirement, and variable recycling, and the checked verdicts agree
///    with the uncertified run.
///
//===----------------------------------------------------------------------===//

#include "commute/Condition.h"
#include "commute/SymbolicEngine.h"
#include "inverse/InverseSpec.h"
#include "inverse/SymbolicInverseEngine.h"
#include "logic/ExprFactory.h"
#include "proof/ProofChecker.h"
#include "proof/ProofTrace.h"
#include "smt/SmtSolver.h"
#include "spec/Family.h"

#include "TextMutator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <string>

using namespace semcomm;
using namespace semcomm::proof;
using semcomm::testing_support::TextMutator;

//===----------------------------------------------------------------------===//
// ProofTrace serialization
//===----------------------------------------------------------------------===//

namespace {

ProofTrace sampleTrace() {
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2});
  T.addDerive({2});
  T.setTag("unit test");
  T.addQuery({-2}, 2);
  T.addDelete({1, 2});
  T.addRecycle(3);
  return T;
}

} // namespace

TEST(ProofTraceTest, SerializeParseRoundtrip) {
  ProofTrace T = sampleTrace();
  std::string Text = T.serialize();
  std::optional<ProofTrace> P = ProofTrace::parse(Text);
  ASSERT_TRUE(P.has_value());
  ASSERT_EQ(P->size(), T.size());
  for (size_t I = 0; I != T.size(); ++I) {
    EXPECT_EQ(P->steps()[I].Kind, T.steps()[I].Kind) << "step " << I;
    EXPECT_EQ(P->steps()[I].Lits, T.steps()[I].Lits) << "step " << I;
    EXPECT_EQ(P->steps()[I].Var, T.steps()[I].Var) << "step " << I;
    EXPECT_EQ(P->steps()[I].LiveClauses, T.steps()[I].LiveClauses)
        << "step " << I;
    EXPECT_EQ(P->steps()[I].Tag, T.steps()[I].Tag) << "step " << I;
  }
  // Tags are one token: the space was folded at setTag time.
  EXPECT_EQ(T.steps()[3].Tag, "unit_test");
}

TEST(ProofTraceTest, TruncatedTextFailsToParse) {
  std::string Text = sampleTrace().serialize();
  // Drop the last line. The header's step count makes this a parse error
  // instead of a silently shorter proof.
  size_t LastNl = Text.find_last_of('\n', Text.size() - 2);
  ASSERT_NE(LastNl, std::string::npos);
  EXPECT_FALSE(ProofTrace::parse(Text.substr(0, LastNl + 1)).has_value());
  // Garbage prefix and empty text fail too.
  EXPECT_FALSE(ProofTrace::parse("").has_value());
  EXPECT_FALSE(ProofTrace::parse("c not a proof\n" + Text).has_value());
}

// Deterministic mutation fuzzing of a certified session's trace text:
// every mutant either fails to parse or parses to a trace whose
// serialize() is exactly the mutant, so the reader accepts only the
// canonical text the solver writes.
TEST(ProofTraceTest, MutantsRejectOrRoundTrip) {
  ExprFactory F;
  SmtSession S(F);
  S.enableCertification();
  ExprRef X = F.var("x", Sort::Bool);
  ExprRef Y = F.var("y", Sort::Bool);
  ExprRef Z = F.var("z", Sort::Bool);
  S.assertBase(F.implies(X, Y));
  S.assertBase(F.disj({Y, Z}));
  SmtSession::ScopeId Scope =
      S.openScope(SmtSession::RootScope, /*OwnLayer=*/true, "scope");
  S.assertInScope(Scope, F.conj({F.lnot(Y), F.disj({X, Z})}));
  S.setProofTag("pre retire");
  EXPECT_EQ(S.check({X}, -1, Scope), SatResult::Unsat);
  ASSERT_NE(S.proofTrace(), nullptr);
  const std::string Early = S.proofTrace()->serialize();
  S.retireScope(Scope);
  S.setProofTag("post");
  EXPECT_EQ(S.check({X, F.lnot(Y)}), SatResult::Unsat);
  const std::string Full = S.proofTrace()->serialize();
  for (char Kind : {'i', 'd', 'q'})
    ASSERT_NE(Full.find(std::string("\n") + Kind + ' '), std::string::npos)
        << "seed trace has no '" << Kind << "' step";

  TextMutator Mutator({Early, Full}, "0123456789- \nildrqp_", 0x7ace5ull);
  unsigned Rejected = 0, RoundTripped = 0;
  for (unsigned N = 0; N != 4000; ++N) {
    std::string Text = Mutator.mutate(Mutator.seeds()[N % 2]);
    std::optional<ProofTrace> P = ProofTrace::parse(Text);
    if (!P) {
      ++Rejected;
      continue;
    }
    ++RoundTripped;
    ASSERT_EQ(P->serialize(), Text) << "mutant " << N << " did not round-trip";
  }
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(RoundTripped, 0u);
  std::printf("trace mutants: %u rejected, %u round-tripped\n", Rejected,
              RoundTripped);
}

//===----------------------------------------------------------------------===//
// ProofChecker acceptance
//===----------------------------------------------------------------------===//

TEST(ProofCheckerTest, AcceptsResolutionDerivation) {
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2});
  T.addDerive({2}); // RUP: assume -2, both inputs force a conflict on 1.
  T.setTag("q0");
  T.addQuery({-2}, 2); // Core -2 conflicts with the derived unit 2.
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.QueriesChecked, 1u);
  EXPECT_EQ(R.QueriesPassed, 1u);
  ASSERT_EQ(R.Queries.size(), 1u);
  EXPECT_EQ(R.Queries[0].Tag, "q0");
}

TEST(ProofCheckerTest, PersistentRootStateReachesLaterQueries) {
  // The unit consequences of early inputs must persist: the query's core
  // alone does not conflict without first propagating 1 -> 2 -> 3.
  ProofTrace T;
  T.addInput({1});
  T.addInput({-1, 2});
  T.addInput({-2, 3});
  T.setTag("chained");
  T.addQuery({-3}, 2);
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.QueriesPassed, 1u);
}

TEST(ProofCheckerTest, DeletionShrinksStateBeforeLaterSteps) {
  // After deleting {-1, 2} the derived unit {2} must no longer be RUP —
  // the checker has to rebuild its root fixpoint, not reuse stale
  // propagation.
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2});
  T.addDelete({-1, 2});
  T.addDerive({2});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

//===----------------------------------------------------------------------===//
// ProofChecker rejection
//===----------------------------------------------------------------------===//

TEST(ProofCheckerTest, RejectsNonRupDerivation) {
  // A "learned" clause nothing entails (a corrupted literal).
  ProofTrace T;
  T.addInput({1, 2});
  T.addDerive({3});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
}

TEST(ProofCheckerTest, RejectsDeletionOfUnknownClause) {
  ProofTrace T;
  T.addInput({1, 2});
  T.addDelete({1, 3});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
}

TEST(ProofCheckerTest, RejectsRecycleOfLiveVariable) {
  ProofTrace T;
  T.addInput({1, 2});
  T.addRecycle(1); // DIMACS variable 1, still in a live clause.
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
}

TEST(ProofCheckerTest, RejectsQueryWithWrongLiveCount) {
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2});
  T.addDerive({2});
  T.addQuery({-2}, 7); // Solver claims 7 live clauses; checker holds 2.
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
}

TEST(ProofCheckerTest, FailedQueryRupIsRecordedPerTag) {
  // A core that does not conflict is a per-query failure, not a fatal
  // trace error: later queries still check.
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2});
  T.setTag("bogus");
  T.addQuery({3}, 2); // Nothing constrains 3.
  T.addDerive({2});
  T.setTag("good");
  T.addQuery({-2}, 2);
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Error.empty()) << R.Error; // No fatal error.
  EXPECT_EQ(R.QueriesChecked, 2u);
  EXPECT_EQ(R.QueriesPassed, 1u);
  ASSERT_EQ(R.Queries.size(), 2u);
  EXPECT_FALSE(R.Queries[0].Passed);
  EXPECT_TRUE(R.Queries[1].Passed);

  CertifySummary S;
  S.fold(R);
  EXPECT_FALSE(S.allPassed({"bogus"}));
  EXPECT_TRUE(S.allPassed({"good"}));
  EXPECT_FALSE(S.allPassed({"good", "missing"}));
}

TEST(ProofCheckerTest, DuplicateTagPassesOnlyIfEveryQueryPassed) {
  // One tag can name several queries: a service re-opens a retired pair
  // under the same scope labels, and shards share labels. The tag passes
  // only when all of them passed, whichever result is folded first —
  // within one run and across folded summaries.
  CheckResult Fail, Pass;
  Fail.Ok = false;
  Fail.Queries = {{"pair:Set/add,add|sel:m#0", false, "not RUP"}};
  Pass.Ok = true;
  Pass.Queries = {{"pair:Set/add,add|sel:m#0", true, ""}};

  for (bool FailFirst : {true, false}) {
    SCOPED_TRACE(FailFirst ? "failing query first" : "passing query first");
    CertifySummary Runs;
    Runs.fold(FailFirst ? Fail : Pass);
    Runs.fold(FailFirst ? Pass : Fail);
    EXPECT_FALSE(Runs.allPassed({"pair:Set/add,add|sel:m#0"}));

    CertifySummary A, B, Merged;
    A.fold(Fail);
    B.fold(Pass);
    Merged.fold(FailFirst ? A : B);
    Merged.fold(FailFirst ? B : A);
    EXPECT_FALSE(Merged.allPassed({"pair:Set/add,add|sel:m#0"}));
  }

  CheckResult Both;
  Both.Ok = true;
  Both.Queries = {Pass.Queries[0], Pass.Queries[0]};
  CertifySummary S;
  S.fold(Both);
  EXPECT_TRUE(S.allPassed({"pair:Set/add,add|sel:m#0"}));
}

//===----------------------------------------------------------------------===//
// Solver-integrated certification
//===----------------------------------------------------------------------===//

namespace {

/// A certifying warm session over a few boolean pigeonhole-ish checks,
/// returning the finished summary. \p Budget forces clause-GC when small.
const CertifySummary &runCertifiedSession(SmtSession &S, ExprFactory &F) {
  S.enableCertification();
  ExprRef A = F.var("a", Sort::Bool);
  ExprRef B = F.var("b", Sort::Bool);
  ExprRef Cv = F.var("c", Sort::Bool);
  S.assertBase(F.implies(A, B));
  S.assertBase(F.implies(B, Cv));
  S.setProofTag("q one");
  EXPECT_EQ(S.check({A, F.lnot(Cv)}), SatResult::Unsat);
  S.setProofTag("q2");
  EXPECT_EQ(S.check({A}), SatResult::Sat); // Sat checks emit no Query.
  S.setProofTag("q3");
  EXPECT_EQ(S.check({F.lnot(A), A}), SatResult::Unsat);
  return S.finishCertification();
}

} // namespace

TEST(CertifiedSessionTest, WarmSessionQueriesAllPass) {
  ExprFactory F;
  SmtSession S(F);
  const CertifySummary &Sum = runCertifiedSession(S, F);
  EXPECT_TRUE(Sum.Checked);
  EXPECT_TRUE(Sum.Ok) << Sum.Error;
  EXPECT_EQ(Sum.Queries, 2u); // Only the Unsat verdicts certify.
  EXPECT_EQ(Sum.QueriesPassed, 2u);
  // Tags arrived space-folded, one per Unsat check.
  EXPECT_TRUE(Sum.allPassed({"q_one", "q3"}));
  EXPECT_FALSE(Sum.allPassed({"q2"})); // Sat check never logged a query.
  // Idempotent: a second finish returns the same summary.
  EXPECT_EQ(S.finishCertification().Queries, 2u);
}

TEST(CertifiedSessionTest, ScopeRetirementKeepsTraceCheckable) {
  // Assert-and-retire under selector scopes: the retirement's deletion
  // sweep (and the pre-retirement root-trail dump) must leave a trace the
  // independent checker accepts, and queries before AND after the
  // retirement must certify.
  ExprFactory F;
  SmtSession S(F);
  S.enableCertification();
  ExprRef X = F.var("x", Sort::Bool);
  ExprRef Y = F.var("y", Sort::Bool);
  S.assertBase(F.implies(X, Y));

  SmtSession::ScopeId Scope =
      S.openScope(SmtSession::RootScope, /*OwnLayer=*/true, "scope");
  S.assertInScope(Scope, F.lnot(Y));
  S.setProofTag("scoped");
  EXPECT_EQ(S.check({X}, /*MaxConflicts=*/-1, Scope), SatResult::Unsat);

  S.retireScope(Scope);
  EXPECT_EQ(S.releasedSelectors(), 1); // The selector's unit is deleted.

  S.setProofTag("after-retire");
  EXPECT_EQ(S.check({X, F.lnot(Y)}), SatResult::Unsat);

  const CertifySummary &Sum = S.finishCertification();
  EXPECT_TRUE(Sum.Checked);
  EXPECT_TRUE(Sum.Ok) << Sum.Error;
  EXPECT_TRUE(Sum.allPassed({"scoped", "after-retire"}));
}

TEST(CertifiedSessionTest, MutatedTraceSkippingOneDeletionFails) {
  // The "lying solver" case: drop a single Delete step from an otherwise
  // honest trace. The checker must notice — either through the RUP break,
  // the recycle liveness check, or the Query live-count cross-check.
  ExprFactory F;
  SmtSession S(F);
  S.enableCertification();
  ExprRef X = F.var("x", Sort::Bool);
  ExprRef Y = F.var("y", Sort::Bool);
  S.assertBase(F.implies(X, Y));
  SmtSession::ScopeId Scope =
      S.openScope(SmtSession::RootScope, /*OwnLayer=*/true, "scope");
  S.assertInScope(Scope, F.lnot(Y));
  S.setProofTag("pre");
  EXPECT_EQ(S.check({X}, -1, Scope), SatResult::Unsat);
  S.retireScope(Scope); // Emits Delete (and possibly Recycle) steps.
  S.setProofTag("post");
  EXPECT_EQ(S.check({X, F.lnot(Y)}), SatResult::Unsat);

  ASSERT_NE(S.proofTrace(), nullptr);
  // Honest trace passes.
  {
    ProofTrace Honest = *S.proofTrace();
    ProofChecker C;
    CheckResult R = C.check(Honest);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
  // Mutated trace: erase the first Delete step.
  ProofTrace Mutated = *S.proofTrace();
  auto &Steps = Mutated.mutableSteps();
  auto It = std::find_if(Steps.begin(), Steps.end(), [](const Step &St) {
    return St.Kind == StepKind::Delete;
  });
  ASSERT_NE(It, Steps.end()) << "retirement emitted no deletions";
  Steps.erase(It);
  ProofChecker C;
  CheckResult R = C.check(Mutated);
  EXPECT_FALSE(R.Ok) << "checker accepted a trace with a skipped deletion";
}

TEST(CertifiedSessionTest, PermutedTraceFails) {
  // Move the first Delete step in front of the whole trace: it now deletes
  // a clause the checker does not hold yet, so the replay must reject the
  // reordering. A retired scope guarantees Delete steps exist.
  ExprFactory F;
  SmtSession S(F);
  S.enableCertification();
  ExprRef A = F.var("a", Sort::Bool);
  ExprRef B = F.var("b", Sort::Bool);
  S.assertBase(F.implies(A, B));
  SmtSession::ScopeId Scope =
      S.openScope(SmtSession::RootScope, /*OwnLayer=*/true, "scope");
  S.assertInScope(Scope, F.lnot(B));
  S.setProofTag("q");
  EXPECT_EQ(S.check({A}, -1, Scope), SatResult::Unsat);
  S.retireScope(Scope);

  ASSERT_NE(S.proofTrace(), nullptr);
  ProofTrace Mutated = *S.proofTrace();
  auto &Steps = Mutated.mutableSteps();
  auto It = std::find_if(Steps.begin(), Steps.end(), [](const Step &St) {
    return St.Kind == StepKind::Delete;
  });
  ASSERT_NE(It, Steps.end()) << "retirement emitted no deletions";
  Step Moved = *It;
  Steps.erase(It);
  Steps.insert(Steps.begin(), Moved);
  ProofChecker C;
  CheckResult R = C.check(Mutated);
  EXPECT_FALSE(R.Ok) << "checker accepted a permuted trace";
}

TEST(CertifiedSessionTest, CorruptedCoreFailsItsQueryOnly) {
  // Corrupt one Query's core (replace it with a fresh, unconstrained
  // variable): that query must fail while the rest of the trace checks.
  ExprFactory F;
  SmtSession S(F);
  S.enableCertification();
  ExprRef A = F.var("a", Sort::Bool);
  ExprRef B = F.var("b", Sort::Bool);
  S.assertBase(F.implies(A, B));
  S.setProofTag("target");
  EXPECT_EQ(S.check({A, F.lnot(B)}), SatResult::Unsat);

  ProofTrace Mutated = *S.proofTrace();
  bool Corrupted = false;
  int MaxVar = 0;
  for (const Step &St : Mutated.steps())
    for (int L : St.Lits)
      MaxVar = std::max(MaxVar, std::abs(L));
  for (Step &St : Mutated.mutableSteps())
    if (St.Kind == StepKind::Query && St.Tag == "target") {
      St.Lits = {MaxVar + 1}; // Unconstrained fresh variable.
      Corrupted = true;
    }
  ASSERT_TRUE(Corrupted);
  ProofChecker C;
  CheckResult R = C.check(Mutated);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Error.empty()) << R.Error; // Query failure, not fatal.
  CertifySummary Sum;
  Sum.fold(R);
  EXPECT_FALSE(Sum.allPassed({"target"}));
}

//===----------------------------------------------------------------------===//
// Engine-level certification
//===----------------------------------------------------------------------===//

TEST(CertifiedEngineTest, SharedPairCertifiesAnEntry) {
  ExprFactory F;
  Catalog C(F);
  const Family &Set = setFamily();
  const ConditionEntry &E = C.entry(Set, "add", "contains");
  SymbolicEngine Eng(F, /*SeqLenBound=*/3, /*ConflictBudget=*/200000,
                     SolveMode::SharedPair);
  Eng.setCertify(true);
  PairOutcome O = Eng.verifyPair(E);
  EXPECT_TRUE(O.Certified);
  EXPECT_GT(O.ProofQueries, 0u);
  EXPECT_GT(O.ProofSteps, 0u);
  for (const SymbolicResult &R : O.Methods) {
    EXPECT_TRUE(R.Verified);
    EXPECT_TRUE(R.ProofChecked);
    EXPECT_EQ(R.ProofQueries, R.ProofQueryTags.size());
    EXPECT_GT(R.ProofClauses, 0u);
  }
}

TEST(CertifiedEngineTest, CatalogSessionCertifiesThroughRetireAndRecycle) {
  // Three families through one certifying catalog session: pair subtree
  // retirements, variable recycling, and (with a tiny GC budget)
  // clause-DB reductions all land in one trace that must check out, and
  // every certified query carries a tag of its own.
  ExprFactory F;
  Catalog C(F);
  SymbolicEngine Eng(F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  Eng.setCertify(true);
  Eng.setClauseGcBudget(50); // Aggressive reduction exercises Delete steps.
  // Set and Map share pair keys such as "size,size".
  std::vector<const Family *> Fams = {&accumulatorFamily(), &setFamily(),
                                      &mapFamily()};
  CatalogOutcome O = Eng.verifyCatalog(C, Fams);
  EXPECT_EQ(O.failures(), 0u);
  EXPECT_TRUE(O.Certified);
  EXPECT_GT(O.ProofQueries, 0u);
  EXPECT_GT(O.Stats.RecycledVars, 0u); // Recycle steps were in the trace.
  std::set<std::string> Tags;
  for (const FamilyOutcome &FO : O.Families) {
    EXPECT_TRUE(FO.Certified);
    for (const PairOutcome &PO : FO.Pairs)
      for (const SymbolicResult &R : PO.Methods) {
        EXPECT_TRUE(R.ProofChecked)
            << FO.Family << ": a method's certificate failed";
        EXPECT_EQ(R.ProofQueries, R.ProofQueryTags.size());
        Tags.insert(R.ProofQueryTags.begin(), R.ProofQueryTags.end());
      }
  }
  // Scope labels name the family, so no two queries share a tag.
  EXPECT_EQ(Tags.size(), O.ProofQueries);
}

TEST(CertifiedEngineTest, CertifyAgreesWithUncertifiedVerdicts) {
  ExprFactory F1;
  Catalog C1(F1);
  SymbolicEngine Plain(F1, 2, 200000);
  std::vector<const Family *> Fams1 = {&accumulatorFamily(), &setFamily()};
  CatalogOutcome A = Plain.verifyCatalog(C1, Fams1);

  ExprFactory F2;
  Catalog C2(F2);
  SymbolicEngine Certified(F2, 2, 200000);
  Certified.setCertify(true);
  std::vector<const Family *> Fams2 = {&accumulatorFamily(), &setFamily()};
  CatalogOutcome B = Certified.verifyCatalog(C2, Fams2);

  ASSERT_EQ(A.Families.size(), B.Families.size());
  for (size_t FI = 0; FI != A.Families.size(); ++FI) {
    ASSERT_EQ(A.Families[FI].Pairs.size(), B.Families[FI].Pairs.size());
    for (size_t PI = 0; PI != A.Families[FI].Pairs.size(); ++PI) {
      const PairOutcome &PA = A.Families[FI].Pairs[PI];
      const PairOutcome &PB = B.Families[FI].Pairs[PI];
      ASSERT_EQ(PA.Methods.size(), PB.Methods.size());
      for (size_t MI = 0; MI != PA.Methods.size(); ++MI)
        EXPECT_EQ(PA.Methods[MI].Verified, PB.Methods[MI].Verified);
    }
  }
  EXPECT_FALSE(A.Certified);
  EXPECT_TRUE(B.Certified);
}

TEST(CertifiedEngineTest, InversePathCertifies) {
  ExprFactory F;
  for (const InverseSpec &Spec : buildInverseSpecs()) {
    SymbolicResult R = verifyInverseSymbolic(F, Spec, /*SeqLenBound=*/2,
                                             /*ConflictBudget=*/200000,
                                             SolveMode::SharedPair,
                                             /*Certify=*/true);
    EXPECT_TRUE(R.Verified) << Spec.OpName;
    EXPECT_TRUE(R.ProofChecked) << Spec.OpName;
    EXPECT_EQ(R.ProofQueries, R.ProofQueryTags.size());
  }
}
