//===- tests/LintTest.cpp - semcommute-lint static auditor tests ----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins down the static-audit satellite: the shipped catalog must lint
/// clean with full coverage counters, each seeded violation must yield
/// exactly one finding with its documented code, and the audit-stream
/// analyzer's individual rules (ancestor-chain references, scope-name
/// reuse-after-retire, use-after-retire) must fire on hand-built streams.
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "logic/ExprFactory.h"
#include "smt/SessionAudit.h"
#include "smt/SmtSolver.h"

#include <gtest/gtest.h>

using namespace semcomm;
using namespace semcomm::lint;

namespace {

/// The codes of \p Findings, in order.
std::vector<std::string> codesOf(const std::vector<Finding> &Findings) {
  std::vector<std::string> Out;
  for (const Finding &F : Findings)
    Out.push_back(F.Code);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-catalog lint
//===----------------------------------------------------------------------===//

TEST(LintTest, ShippedCatalogIsClean) {
  ExprFactory F;
  LintResult R = lintCatalog(F);
  EXPECT_TRUE(R.Findings.empty());
  for (const Finding &Fi : R.Findings)
    ADD_FAILURE() << Fi.Code << " " << Fi.Where << ": " << Fi.Message;
  // Coverage counters prove the lint looked at the whole catalog, not an
  // empty slice: 170 distinct entries, 1020 generated method plans.
  EXPECT_EQ(R.EntriesChecked, 170u);
  EXPECT_EQ(R.MethodsChecked, 1020u);
  EXPECT_GT(R.FormulasChecked, 0u);
  EXPECT_GT(R.HoistedChecked, 0u);
  EXPECT_GT(R.AuditEvents, 0u);
}

TEST(LintTest, FamilyRestrictionStillClean) {
  ExprFactory F;
  LintResult R = lintCatalog(F, /*SeqLenBound=*/2, {"Accumulator", "Set"});
  EXPECT_TRUE(R.Findings.empty());
  EXPECT_GT(R.EntriesChecked, 0u);
  EXPECT_LT(R.EntriesChecked, 170u);
}

//===----------------------------------------------------------------------===//
// Seeded violations: one finding each, with the documented code
//===----------------------------------------------------------------------===//

namespace {

const char *expectedCode(SeededViolation V) {
  switch (V) {
  case SeededViolation::IllSorted:
    return "SORT01";
  case SeededViolation::MisHoisted:
    return "HOIST01";
  case SeededViolation::CrossSiblingReference:
    return "SCOPE01";
  case SeededViolation::ReusedSelector:
    return "SCOPE02";
  case SeededViolation::UseAfterRetire:
    return "SCOPE03";
  case SeededViolation::DuplicateLabel:
    return "LABEL01";
  }
  return "?";
}

} // namespace

TEST(LintTest, EachSeededViolationYieldsExactlyOneFinding) {
  for (SeededViolation V : allSeededViolations()) {
    ExprFactory F;
    std::vector<Finding> Findings = seededViolationFindings(F, V);
    ASSERT_EQ(Findings.size(), 1u)
        << seededViolationName(V) << " produced " << Findings.size()
        << " findings";
    EXPECT_EQ(Findings[0].Code, expectedCode(V)) << seededViolationName(V);
    EXPECT_FALSE(Findings[0].Where.empty());
    EXPECT_FALSE(Findings[0].Message.empty());
  }
}

TEST(LintTest, SeededViolationNamesRoundtrip) {
  for (SeededViolation V : allSeededViolations()) {
    SeededViolation Parsed;
    ASSERT_TRUE(parseSeededViolation(seededViolationName(V), Parsed));
    EXPECT_EQ(Parsed, V);
  }
  SeededViolation Dummy;
  EXPECT_FALSE(parseSeededViolation("no-such-violation", Dummy));
}

//===----------------------------------------------------------------------===//
// Audit-stream analyzer rules, on hand-built streams
//===----------------------------------------------------------------------===//

TEST(LintTest, AncestorChainReferenceIsLegal) {
  audit::Log L;
  L.pushLayer(1, 0); // Layer 1 under the root layer 0.
  L.pushLayer(2, 1);
  L.define(1);
  L.reference(1, 2); // Child looks up the parent's definition: fine.
  L.reference(0, 2); // Root is on every chain.
  EXPECT_TRUE(checkAuditLog(L).empty());
}

TEST(LintTest, SiblingReferenceIsScope01) {
  audit::Log L;
  L.pushLayer(1, 0);
  L.pushLayer(2, 0); // Sibling of 1, not an ancestor.
  L.define(1);
  L.reference(1, 2);
  std::vector<Finding> F = checkAuditLog(L);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Code, "SCOPE01");
}

TEST(LintTest, SelectorReuseIsScope02) {
  audit::Log L;
  L.openScope("pair:p#1");
  L.retire("pair:p#1");
  L.openScope("pair:p#1"); // Retired scope names never come back.
  std::vector<Finding> F = checkAuditLog(L);
  ASSERT_EQ(codesOf(F), std::vector<std::string>{"SCOPE02"});
}

TEST(LintTest, UseAfterRetireIsScope03) {
  audit::Log L;
  L.openScope("sel:a#1");
  L.openScope("sel:b#2");
  L.retire("sel:a#1");
  L.assertInScope("sel:a#1");      // Assert into a retired scope.
  L.check({"sel:a#1", "sel:b#2"}); // Check activating a retired scope.
  std::vector<Finding> F = checkAuditLog(L);
  ASSERT_EQ(F.size(), 2u);
  EXPECT_EQ(F[0].Code, "SCOPE03");
  EXPECT_EQ(F[1].Code, "SCOPE03");
}

TEST(LintTest, CleanScriptHasNoFindings) {
  audit::Log L;
  L.openScope("fam:f#1");
  L.openScope("pair:p#2");
  L.assertInScope("pair:p#2");
  L.check({"fam:f#1", "pair:p#2"});
  L.retire("pair:p#2");
  L.openScope("pair:p#3"); // A re-open has a fresh serial: a fresh name.
  L.check({"fam:f#1", "pair:p#3"});
  EXPECT_TRUE(checkAuditLog(L).empty());
}

TEST(LintTest, SessionReopenOfALabelIsClean) {
  // A real session re-opening a retired scope's label: the audit names
  // differ by their opening serial, and the re-opened scope's Tseitin
  // layer reuses the dropped layer's id, so the replay stays clean.
  ExprFactory F;
  SmtSession S(F);
  audit::Log L;
  S.setAuditLog(&L);
  ExprRef X = F.var("lint_x", Sort::Bool), Y = F.var("lint_y", Sort::Bool);
  for (int I = 0; I != 2; ++I) {
    SmtSession::ScopeId Pair =
        S.openScope(SmtSession::RootScope, /*OwnLayer=*/true, "pair:p");
    S.assertInScope(Pair, F.disj({X, Y}));
    S.encodeForAudit({F.disj({X, Y})}, Pair);
    S.retireScope(Pair);
  }
  EXPECT_TRUE(checkAuditLog(L).empty());
  std::vector<std::string> Opened;
  for (const audit::Event &E : L.Events)
    if (E.Kind == audit::EventKind::OpenScope)
      Opened.push_back(E.Scope);
  EXPECT_EQ(Opened, (std::vector<std::string>{"pair:p#1", "pair:p#2"}));
}

//===----------------------------------------------------------------------===//
// Formula-level checks
//===----------------------------------------------------------------------===//

TEST(LintTest, VocabularyCoherenceFlagsCrossSortName) {
  ExprFactory F;
  ExprRef AsInt = F.var("v1", Sort::Int);
  ExprRef AsObj = F.var("v1", Sort::Obj);
  std::vector<Finding> Out = checkVocabularyCoherence(
      {F.eq(AsInt, F.intConst(0)), F.eq(AsObj, AsObj)}, "fixture");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Code, "SORT01");
}

TEST(LintTest, HoistRuleAllowsDisjointAndOwnedFormulas) {
  ExprFactory F;
  ExprRef X = F.var("x", Sort::Int);
  ExprRef Y = F.var("y", Sort::Int);
  ExprRef HoistX = F.eq(X, F.intConst(1));
  ExprRef HoistY = F.eq(Y, F.intConst(2));

  HoistEntry Owns;   // Mentions x and asserts the x-formula itself.
  Owns.Name = "owns";
  Owns.Common = {HoistX};
  collectVars(HoistX, Owns.Vars);

  HoistEntry Disjoint; // Mentions only y: the x-formula is vacuous for it.
  Disjoint.Name = "disjoint";
  collectVars(HoistY, Disjoint.Vars);

  EXPECT_TRUE(checkHoistRule({HoistX}, {Owns, Disjoint}).empty());

  // A third entry mentions x but does not assert the x-formula: violation.
  HoistEntry Victim;
  Victim.Name = "victim";
  collectVars(HoistX, Victim.Vars);
  std::vector<Finding> Out = checkHoistRule({HoistX}, {Owns, Victim});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Code, "HOIST01");
}

TEST(LintTest, ChecksRegistryCoversAllCodes) {
  std::set<std::string> Codes;
  for (const CheckInfo &C : checks())
    Codes.insert(C.Code);
  for (const char *Expected :
       {"SORT01", "HOIST01", "SCOPE01", "SCOPE02", "SCOPE03", "LABEL01"})
    EXPECT_TRUE(Codes.count(Expected)) << Expected;
}
