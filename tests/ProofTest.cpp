//===- tests/ProofTest.cpp - proof trace + checker + certification tests ---===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers certification in four layers:
///
///  * ProofChecker unit tests over hand-built traces (acceptance and the
///    persistent-root-propagation completeness case);
///  * rejection tests: corrupted, truncated, and permuted proofs — and a
///    "mutated solver" that skips one deletion record — must all fail
///    certification, pinning down that the checker is not a rubber stamp;
///  * a differential test: the streaming watched-literal checker and the
///    occurrence-list reference (ReferenceProofChecker.h) must return the
///    same result on seeded random traces;
///  * solver-integrated certification: warm SmtSessions and the symbolic
///    engines certify real catalog slices through reduceDb, scope
///    retirement, and variable recycling, the checked verdicts agree
///    with the uncertified run, and a recorded catalog session re-checks
///    whole to exactly its streaming summary.
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

#include "CatalogSessionRun.h"
#include "ReferenceProofChecker.h"
#include "TextMutator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>

using namespace semcomm;
using namespace semcomm::proof;
using semcomm::testing_support::failuresOf;
using semcomm::testing_support::ReferenceProofChecker;
using semcomm::testing_support::runCatalogSession;
using semcomm::testing_support::SessionPairRun;
using semcomm::testing_support::SplitMix64;
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
  ProofTrace Recorded; // Outlives the session it records.
  SmtSession S(F);
  S.enableCertification(&Recorded);
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
  const std::string Early = Recorded.serialize();
  S.retireScope(Scope);
  S.setProofTag("post");
  EXPECT_EQ(S.check({X, F.lnot(Y)}), SatResult::Unsat);
  const std::string Full = Recorded.serialize();
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

namespace {

/// The summary a whole checked trace folds to: its run totals plus one
/// (tag, passed) outcome per query row.
CertifySummary summaryOf(const CheckResult &R) {
  CertifySummary S;
  S.setTotals(R);
  for (const QueryResult &Q : R.Queries)
    S.recordQuery(Q.Tag, Q.Passed);
  return S;
}

} // namespace

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

  CertifySummary S = summaryOf(R);
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
    Runs.fold(summaryOf(FailFirst ? Fail : Pass));
    Runs.fold(summaryOf(FailFirst ? Pass : Fail));
    EXPECT_FALSE(Runs.allPassed({"pair:Set/add,add|sel:m#0"}));

    CertifySummary A, B, Merged;
    A.fold(summaryOf(Fail));
    B.fold(summaryOf(Pass));
    Merged.fold(FailFirst ? A : B);
    Merged.fold(FailFirst ? B : A);
    EXPECT_FALSE(Merged.allPassed({"pair:Set/add,add|sel:m#0"}));
  }

  CheckResult Both;
  Both.Ok = true;
  Both.Queries = {Pass.Queries[0], Pass.Queries[0]};
  CertifySummary S = summaryOf(Both);
  EXPECT_TRUE(S.allPassed({"pair:Set/add,add|sel:m#0"}));
}

//===----------------------------------------------------------------------===//
// Differential: streaming watched-literal checker vs the reference oracle
//===----------------------------------------------------------------------===//

namespace {

/// A seeded random trace over a few variables mixing every step kind the
/// checker handles: RUP derives (resolvents and weakenings of live
/// clauses) and non-RUP ones, held and unheld deletions, unit deletions
/// that force a root rebuild, live and dead recycles, and queries with
/// right and wrong live counts. \p FaultPerMille is the per-step chance
/// of a step that stops the check (a random derive, an unheld deletion, a
/// live recycle, a wrong live count), so some traces end early and the
/// others run to the end.
ProofTrace randomTrace(uint64_t Seed, unsigned Steps, unsigned FaultPerMille) {
  SplitMix64 Rng{Seed};
  ProofTrace T;
  const int NumVars = 8 + static_cast<int>(Rng.below(16));
  const size_t Target = 4 + Rng.below(24); // Live-clause set point.
  std::vector<std::vector<int>> Live;      // Alive >= 2-literal clauses.
  std::vector<int> Units;                  // Alive unit records.
  auto Fault = [&] { return Rng.below(1000) < FaultPerMille; };
  auto Lit = [&](int Var) { return Rng.below(2) ? Var : -Var; };
  auto RandomClause = [&](size_t Size) {
    std::vector<int> C;
    while (C.size() != Size) {
      int V = 1 + static_cast<int>(Rng.below(static_cast<size_t>(NumVars)));
      if (std::none_of(C.begin(), C.end(),
                       [V](int L) { return std::abs(L) == V; }))
        C.push_back(Lit(V));
    }
    return C;
  };
  auto Shuffled = [&](std::vector<int> C) {
    for (size_t I = C.size(); I > 1; --I)
      std::swap(C[I - 1], C[Rng.below(I)]);
    return C;
  };
  auto Store = [&](const std::vector<int> &C) {
    if (C.size() == 1)
      Units.push_back(C[0]);
    else if (!C.empty())
      Live.push_back(C);
  };
  // A RUP clause: the resolvent of two live clauses, or a live clause
  // weakened by one more literal. Empty when no candidate was found.
  auto RupClause = [&]() -> std::vector<int> {
    if (Live.empty())
      return {};
    const std::vector<int> &A = Live[Rng.below(Live.size())];
    if (Rng.below(2)) {
      int Pivot = A[Rng.below(A.size())];
      for (const std::vector<int> &B : Live) {
        if (std::find(B.begin(), B.end(), -Pivot) == B.end())
          continue;
        std::vector<int> Res;
        bool Tautology = false;
        for (const std::vector<int> *Side : {&A, &B})
          for (int L : *Side) {
            if (L == Pivot || L == -Pivot ||
                std::find(Res.begin(), Res.end(), L) != Res.end())
              continue;
            Tautology |= std::find(Res.begin(), Res.end(), -L) != Res.end();
            Res.push_back(L);
          }
        if (!Tautology && !Res.empty())
          return Shuffled(Res);
      }
    }
    std::vector<int> Weak = A;
    for (int V = 1; V <= NumVars; ++V)
      if (std::none_of(Weak.begin(), Weak.end(),
                       [V](int L) { return std::abs(L) == V; })) {
        Weak.push_back(Lit(V));
        break;
      }
    return Shuffled(Weak);
  };
  auto DeleteAt = [&](size_t I) {
    T.addDelete(Shuffled(Live[I]));
    Live.erase(Live.begin() + static_cast<std::ptrdiff_t>(I));
  };

  for (unsigned N = 0; N != Steps; ++N) {
    size_t Roll = Rng.below(100);
    if (Roll < 28) { // Input.
      if (Rng.below(1000) == 0) {
        T.addInput({});
        continue;
      }
      size_t Size = Rng.below(12) == 0 ? 1 : 2 + Rng.below(3);
      std::vector<int> C = RandomClause(Size);
      T.addInput(C);
      Store(C);
    } else if (Roll < 46) { // Derive.
      std::vector<int> C = Fault() ? RandomClause(1 + Rng.below(3))
                                   : RupClause();
      if (C.empty())
        continue;
      T.addDerive(C);
      Store(C);
    } else if (Roll < 72) { // Delete.
      if (Fault()) {
        T.addDelete(RandomClause(2 + Rng.below(3)));
      } else if (!Units.empty() && Rng.below(6) == 0) {
        size_t I = Rng.below(Units.size());
        T.addDelete({Units[I]});
        Units.erase(Units.begin() + static_cast<std::ptrdiff_t>(I));
      } else if (Live.size() > Target / 2 && !Live.empty()) {
        DeleteAt(Rng.below(Live.size()));
      }
    } else if (Roll < 80) { // Recycle.
      int V = 1 + static_cast<int>(Rng.below(static_cast<size_t>(NumVars)));
      if (!Fault()) {
        // Kill the variable first: delete every clause and unit naming it.
        for (size_t I = Live.size(); I-- != 0;)
          if (std::any_of(Live[I].begin(), Live[I].end(),
                          [V](int L) { return std::abs(L) == V; }))
            DeleteAt(I);
        for (size_t I = Units.size(); I-- != 0;)
          if (std::abs(Units[I]) == V) {
            T.addDelete({Units[I]});
            Units.erase(Units.begin() + static_cast<std::ptrdiff_t>(I));
          }
      }
      T.addRecycle(V);
    } else { // Query.
      T.setTag("q" + std::to_string(Rng.below(40)));
      std::vector<int> Core;
      if (!Live.empty() && Rng.below(2)) {
        for (int L : Live[Rng.below(Live.size())])
          Core.push_back(-L); // Falsifies a live clause: conflicts.
      } else {
        Core = RandomClause(1 + Rng.below(3));
      }
      uint64_t Count = Live.size();
      if (Fault())
        Count += Rng.below(2) ? 1 : static_cast<uint64_t>(-1);
      T.addQuery(Shuffled(Core), Count);
    }
  }
  return T;
}

void expectSameResult(const CheckResult &Got, const CheckResult &Want,
                      const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Got.Ok, Want.Ok);
  EXPECT_EQ(Got.Error, Want.Error);
  EXPECT_EQ(Got.StepsChecked, Want.StepsChecked);
  EXPECT_EQ(Got.QueriesChecked, Want.QueriesChecked);
  EXPECT_EQ(Got.QueriesPassed, Want.QueriesPassed);
  EXPECT_EQ(Got.PeakClauses, Want.PeakClauses);
  ASSERT_EQ(Got.Queries.size(), Want.Queries.size());
  for (size_t I = 0; I != Got.Queries.size(); ++I) {
    EXPECT_EQ(Got.Queries[I].Tag, Want.Queries[I].Tag) << "query " << I;
    EXPECT_EQ(Got.Queries[I].Passed, Want.Queries[I].Passed) << "query " << I;
    EXPECT_EQ(Got.Queries[I].Error, Want.Queries[I].Error) << "query " << I;
  }
}

void expectSameSummary(const CertifySummary &Got, const CertifySummary &Want) {
  EXPECT_EQ(Got.Checked, Want.Checked);
  EXPECT_EQ(Got.Ok, Want.Ok);
  EXPECT_EQ(Got.Steps, Want.Steps);
  EXPECT_EQ(Got.Queries, Want.Queries);
  EXPECT_EQ(Got.QueriesPassed, Want.QueriesPassed);
  EXPECT_EQ(Got.PeakClauses, Want.PeakClauses);
  EXPECT_EQ(Got.Error, Want.Error);
  EXPECT_EQ(Got.QueryOutcome, Want.QueryOutcome);
}

} // namespace

TEST(ProofCheckerDifferentialTest, MatchesReferenceOnRandomTraces) {
  // Both checkers see the same seeded traces; every CheckResult field
  // must agree. The tallies below pin down that the traces really reach
  // each outcome (so agreement is not vacuous).
  unsigned RanToEnd = 0, PassedQueries = 0, FailedQueries = 0;
  std::set<std::string> FatalKinds;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    unsigned FaultPerMille = Seed % 4 == 0 ? 0 : 2 + Seed % 7;
    ProofTrace T = randomTrace(Seed, Seed % 8 == 0 ? 6000 : 1500,
                               FaultPerMille);
    CheckResult Want = ReferenceProofChecker().check(T);
    CheckResult Got = ProofChecker().check(T);
    expectSameResult(Got, Want, "seed " + std::to_string(Seed));

    // The streaming form a session uses: queries fold into a summary as
    // they are checked, and the summary matches the folded reference.
    CertifySummary Streamed;
    ProofChecker Sink(&Streamed);
    Sink.check(T);
    EXPECT_TRUE(Sink.result().Queries.empty());
    Streamed.setTotals(Sink.result());
    expectSameSummary(Streamed, summaryOf(Want));

    RanToEnd += Want.Error.empty();
    for (const QueryResult &Q : Want.Queries)
      (Q.Passed ? PassedQueries : FailedQueries) += 1;
    if (!Want.Error.empty()) {
      size_t Open = Want.Error.find('(');
      FatalKinds.insert(
          Want.Error.substr(Open, Want.Error.find(')') - Open + 1));
    }
  }
  std::printf("differential: %u traces ran to the end, %u/%u queries "
              "passed, %zu fatal step kinds\n",
              RanToEnd, PassedQueries, PassedQueries + FailedQueries,
              FatalKinds.size());
  EXPECT_GT(RanToEnd, 0u);
  EXPECT_GT(PassedQueries, 0u);
  EXPECT_GT(FailedQueries, 0u);
  for (const char *Kind : {"(derive)", "(delete)", "(recycle)", "(query)"})
    EXPECT_TRUE(FatalKinds.count(Kind)) << "no trace failed at a " << Kind
                                        << " step";
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
  ProofTrace Recorded; // Outlives the session it records.
  SmtSession S(F);
  S.enableCertification(&Recorded);
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

  // Honest trace passes.
  {
    ProofTrace Honest = Recorded;
    ProofChecker C;
    CheckResult R = C.check(Honest);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
  // Mutated trace: erase the first Delete step.
  ProofTrace Mutated = Recorded;
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
  ProofTrace Recorded; // Outlives the session it records.
  SmtSession S(F);
  S.enableCertification(&Recorded);
  ExprRef A = F.var("a", Sort::Bool);
  ExprRef B = F.var("b", Sort::Bool);
  S.assertBase(F.implies(A, B));
  SmtSession::ScopeId Scope =
      S.openScope(SmtSession::RootScope, /*OwnLayer=*/true, "scope");
  S.assertInScope(Scope, F.lnot(B));
  S.setProofTag("q");
  EXPECT_EQ(S.check({A}, -1, Scope), SatResult::Unsat);
  S.retireScope(Scope);

  ProofTrace Mutated = Recorded;
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
  ProofTrace Recorded; // Outlives the session it records.
  SmtSession S(F);
  S.enableCertification(&Recorded);
  ExprRef A = F.var("a", Sort::Bool);
  ExprRef B = F.var("b", Sort::Bool);
  S.assertBase(F.implies(A, B));
  S.setProofTag("target");
  EXPECT_EQ(S.check({A, F.lnot(B)}), SatResult::Unsat);

  ProofTrace Mutated = Recorded;
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
  CertifySummary Sum = summaryOf(R);
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
  // retirements, variable recycling, and (with a tiny GC limit)
  // clause-DB reductions all land in one trace that must check out, and
  // every certified query carries a tag of its own.
  ExprFactory F;
  Catalog C(F);
  SymbolicEngine Eng(F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  // Set and Map share pair keys such as "size,size".
  std::vector<const Family *> Fams = {&accumulatorFamily(), &setFamily(),
                                      &mapFamily()};
  CatalogPlan CP = Eng.planCatalog(C, Fams);
  CatalogSession Sess(F, CP, /*Budget=*/200000, /*Certify=*/true);
  // Aggressive reduction exercises Delete steps.
  Sess.session().solver().setClauseGcLimit(50);
  std::vector<std::vector<SessionPairRun>> Runs =
      runCatalogSession(Eng, C, Fams, Sess);
  EXPECT_EQ(failuresOf(Runs), 0u);
  const CertifySummary &Cert = Sess.finishCertification();
  EXPECT_TRUE(Cert.Checked && Cert.Ok) << Cert.Error;
  EXPECT_GT(Cert.Queries, 0u);
  EXPECT_GT(Sess.stats().RecycledVars, 0u); // Recycle steps were in the trace.
  std::set<std::string> Tags;
  for (size_t FI = 0; FI != Fams.size(); ++FI)
    for (SessionPairRun &P : Runs[FI])
      for (SymbolicResult &R : P.Methods) {
        backfillCertification(Cert, R);
        EXPECT_TRUE(R.ProofChecked)
            << Fams[FI]->Name << ": a method's certificate failed";
        EXPECT_EQ(R.ProofQueries, R.ProofQueryTags.size());
        Tags.insert(R.ProofQueryTags.begin(), R.ProofQueryTags.end());
      }
  // Scope labels name the family, so no two queries share a tag.
  EXPECT_EQ(Tags.size(), Cert.Queries);
}

TEST(CertifiedEngineTest, RecordedCatalogTraceRechecksToStreamingSummary) {
  // A certifying catalog session checks its proof as it is logged and
  // keeps no trace. Recording the same steps and re-checking them whole
  // must give exactly the streaming summary — through pair retirement,
  // variable recycling and (with a tiny GC limit) clause-DB reductions.
  ExprFactory F;
  Catalog C(F);
  SymbolicEngine Eng(F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  std::vector<const Family *> Fams = {&accumulatorFamily(), &setFamily(),
                                      &mapFamily()};
  CatalogPlan CP = Eng.planCatalog(C, Fams);
  ProofTrace Recorded;
  CatalogSession Sess(F, CP, /*Budget=*/200000, /*Certify=*/true, &Recorded);
  Sess.session().solver().setClauseGcLimit(50);
  EXPECT_EQ(failuresOf(runCatalogSession(Eng, C, Fams, Sess)), 0u);

  const CertifySummary &Streamed = Sess.finishCertification();
  EXPECT_TRUE(Streamed.Ok) << Streamed.Error;
  EXPECT_GT(Streamed.Queries, 0u);
  EXPECT_EQ(Streamed.Steps, Recorded.size());
  EXPECT_GT(Sess.session().recycledVars(), 0);
  bool SawDelete = std::any_of(
      Recorded.steps().begin(), Recorded.steps().end(),
      [](const Step &St) { return St.Kind == StepKind::Delete; });
  EXPECT_TRUE(SawDelete);

  CheckResult Whole = ProofChecker().check(Recorded);
  expectSameResult(Whole, ReferenceProofChecker().check(Recorded),
                   "recorded catalog session");
  expectSameSummary(Streamed, summaryOf(Whole));
}

TEST(CertifiedEngineTest, CertifyAgreesWithUncertifiedVerdicts) {
  // The same two families through a plain and a certifying catalog
  // session, each over a factory of its own: certification changes no
  // verdict, and only the certifying session's trace checks.
  auto Run = [](bool Certify, std::vector<std::vector<SessionPairRun>> &Out,
                bool &Certified) {
    ExprFactory F;
    Catalog C(F);
    SymbolicEngine Eng(F, 2, 200000);
    std::vector<const Family *> Fams = {&accumulatorFamily(), &setFamily()};
    CatalogPlan CP = Eng.planCatalog(C, Fams);
    CatalogSession Sess(F, CP, /*Budget=*/200000, Certify);
    Out = runCatalogSession(Eng, C, Fams, Sess);
    const CertifySummary &Cert = Sess.finishCertification();
    Certified = Cert.Checked && Cert.Ok;
  };
  std::vector<std::vector<SessionPairRun>> A, B;
  bool ACertified = false, BCertified = false;
  Run(/*Certify=*/false, A, ACertified);
  Run(/*Certify=*/true, B, BCertified);

  ASSERT_EQ(A.size(), B.size());
  for (size_t FI = 0; FI != A.size(); ++FI) {
    ASSERT_EQ(A[FI].size(), B[FI].size());
    for (size_t PI = 0; PI != A[FI].size(); ++PI) {
      const SessionPairRun &PA = A[FI][PI];
      const SessionPairRun &PB = B[FI][PI];
      ASSERT_EQ(PA.Methods.size(), PB.Methods.size());
      for (size_t MI = 0; MI != PA.Methods.size(); ++MI)
        EXPECT_EQ(PA.Methods[MI].Verified, PB.Methods[MI].Verified);
    }
  }
  EXPECT_FALSE(ACertified);
  EXPECT_TRUE(BCertified);
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
