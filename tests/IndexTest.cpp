//===- tests/IndexTest.cpp - Compiled commutativity index -------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "index/CommutativityIndex.h"
#include "index/IndexFuzz.h"
#include "index/IndexVM.h"
#include "logic/Simplifier.h"
#include "runtime/IndexedChecker.h"
#include "runtime/SpeculativeExecutor.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace semcomm;
using namespace semcomm::index;

namespace {

/// One factory + catalog + compiled index shared by every test (all three
/// are immutable once built; the catalog factory is only touched through
/// the serialised helpers below).
struct IndexFixture {
  ExprFactory F;
  Catalog C{F};
  CommutativityIndex Idx = CommutativityIndex::compile(C);
};
IndexFixture &fixture() {
  static IndexFixture Fx;
  return Fx;
}

StructureFactory factoryFor(const std::string &Name) {
  for (const StructureFactory &F : allStructureFactories())
    if (F.Name == Name)
      return F;
  abort();
}

} // namespace

// --- Coverage ----------------------------------------------------------------

TEST(IndexCoverageTest, EveryPaperConditionIsCompiledOrConstant) {
  IndexFixture &Fx = fixture();
  IndexStats S = Fx.Idx.stats();

  // The paper's counting: 765 conditions over the four families.
  EXPECT_EQ(S.PaperConditions, 765u);
  EXPECT_EQ(S.PaperConditions, Fx.C.totalConditionsPaperCount());

  // Four slots per ordered pair (before / between / after / conservative
  // between), every family dense.
  unsigned ExpectedSlots = 0;
  for (const Family *Fam : allFamilies())
    ExpectedSlots += static_cast<unsigned>(Fam->Ops.size() * Fam->Ops.size()) *
                     NumSlotsPerPair;
  EXPECT_EQ(S.TotalSlots, ExpectedSlots);

  // The tentpole guarantee: nothing in the shipped catalog is left to the
  // interpreter — every slot is either a program or a bitmap constant.
  EXPECT_EQ(S.Fallbacks, 0u);
  EXPECT_EQ(S.Programs + S.Constants, S.TotalSlots);
  EXPECT_GT(S.Programs, 0u);
  EXPECT_GT(S.Constants, 0u);
  EXPECT_GT(S.MaxRegs, 0u);
}

TEST(IndexCoverageTest, ConservativeProgramsNeverProbeS1) {
  // The conservative dialect drops every s1 clause, so its compiled form
  // must never touch state slot 0 — IndexedChecker::mayCommuteFast relies
  // on this when it passes a null s1 view.
  IndexFixture &Fx = fixture();
  for (const FamilyIndex &FI : Fx.Idx.families()) {
    for (unsigned I = 0; I != FI.numOps(); ++I)
      for (unsigned J = 0; J != FI.numOps(); ++J) {
        const IndexProgram *P = FI.program(I, J, SlotBetweenConservative);
        if (!P)
          continue;
        for (const IInstr &Instr : P->Code) {
          if (Instr.Op >= IOpcode::SetContains) {
            EXPECT_NE(unsigned(Instr.St), StateSlotS1)
                << FI.familyName() << " pair (" << I << "," << J
                << ") conservative program probes s1";
          }
        }
      }
  }
}

// --- Differential fuzzing ----------------------------------------------------

TEST(IndexFuzzTest, AgreesWithEvaluatorOnEveryCondition) {
  IndexFixture &Fx = fixture();
  FuzzReport R = crossCheck(Fx.C, Fx.Idx, /*Seed=*/7, /*Trials=*/32,
                            /*Threads=*/1);
  EXPECT_EQ(R.UnsupportedSlots, 0u);
  EXPECT_EQ(R.Mismatches, 0u) << (R.Diagnostics.empty()
                                      ? std::string("no diagnostics")
                                      : R.Diagnostics.front());
  EXPECT_GT(R.ProgramsChecked, 0u);
  EXPECT_GT(R.ConstantsChecked, 0u);
}

TEST(IndexFuzzTest, ConstantBitmapHoldsOnAThousandEnvironments) {
  // The bitmap claims some conditions are environment-independent; pin
  // that against the interpreter on >= 1000 random environments.
  IndexFixture &Fx = fixture();
  FuzzReport R = crossCheck(Fx.C, Fx.Idx, /*Seed=*/99, /*Trials=*/64,
                            /*Threads=*/2);
  EXPECT_GE(R.ConstantsChecked, 1000u);
  EXPECT_EQ(R.Mismatches, 0u);
}

TEST(IndexFuzzTest, DeterministicAcrossThreadCounts) {
  // The counter-based RNG makes the sweep thread-count independent: the
  // same seed must visit the same trials and stay clean at 8 threads over
  // the one shared immutable index.
  IndexFixture &Fx = fixture();
  FuzzReport One = crossCheck(Fx.C, Fx.Idx, /*Seed=*/3, /*Trials=*/8,
                              /*Threads=*/1);
  FuzzReport Eight = crossCheck(Fx.C, Fx.Idx, /*Seed=*/3, /*Trials=*/8,
                                /*Threads=*/8);
  EXPECT_EQ(One.Trials, Eight.Trials);
  EXPECT_EQ(One.ProgramsChecked, Eight.ProgramsChecked);
  EXPECT_EQ(One.ConstantsChecked, Eight.ConstantsChecked);
  EXPECT_EQ(One.Mismatches, 0u);
  EXPECT_EQ(Eight.Mismatches, 0u);
}

TEST(IndexFuzzTest, SharedIndexServesConcurrentVMs) {
  // Eight threads, each with its own IndexVM, hammer the same program set
  // of the shared index and must all see the same answers.
  IndexFixture &Fx = fixture();
  const FamilyIndex *FI = Fx.Idx.familyIndex(setFamily());
  ASSERT_NE(FI, nullptr);
  const IndexProgram *Prog = nullptr;
  unsigned Op1 = 0, Op2 = 0;
  for (unsigned I = 0; I != FI->numOps() && !Prog; ++I)
    for (unsigned J = 0; J != FI->numOps() && !Prog; ++J)
      if ((Prog = FI->program(I, J, SlotBetweenConservative))) {
        Op1 = I;
        Op2 = J;
      }
  ASSERT_NE(Prog, nullptr);

  AbstractState Live = AbstractState::makeSet();
  Live.setInsert(Value::obj(1));
  const StateView *Views[NumStateSlots] = {nullptr, &Live, nullptr};
  // Fill the bank from the pair's signatures, as crossCheck does: both
  // operations' arguments, then their two return values, each of its own
  // sort (a program reads a boolean slot with Value::asBool).
  const std::vector<Operation> &Ops = setFamily().Ops;
  std::vector<Sort> Sorts = Ops[Op1].ArgSorts;
  Sorts.insert(Sorts.end(), Ops[Op2].ArgSorts.begin(),
               Ops[Op2].ArgSorts.end());
  Sorts.push_back(Ops[Op1].ReturnSort);
  Sorts.push_back(Ops[Op2].ReturnSort);
  ASSERT_LE(Sorts.size(), MaxArgSlots);
  Value Args[MaxArgSlots];
  for (unsigned I = 0; I != Sorts.size(); ++I)
    Args[I] = Sorts[I] == Sort::Bool  ? Value::boolean(I % 2 == 0)
              : Sorts[I] == Sort::Int ? Value::integer(I)
                                      : Value::obj(I % 3);

  IndexVM Reference(Fx.Idx.stats().MaxRegs);
  bool Expected = Reference.runBool(*Prog, Args, Views);

  std::atomic<unsigned> Disagreements{0};
  ThreadPool::parallelFor(8, 8, [&](size_t) {
    IndexVM VM(Fx.Idx.stats().MaxRegs);
    for (int Rep = 0; Rep != 1000; ++Rep)
      if (VM.runBool(*Prog, Args, Views) != Expected)
        Disagreements.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Disagreements.load(), 0u);
}

// --- Serialization -----------------------------------------------------------

TEST(IndexSerializationTest, RoundTripIsExact) {
  IndexFixture &Fx = fixture();
  std::string Image = Fx.Idx.serialize();
  std::optional<CommutativityIndex> Reloaded =
      CommutativityIndex::parse(Image);
  ASSERT_TRUE(Reloaded.has_value());
  EXPECT_TRUE(*Reloaded == Fx.Idx);
  EXPECT_EQ(Reloaded->serialize(), Image);

  // The reloaded image answers queries too (families rebound by name).
  IndexStats A = Fx.Idx.stats(), B = Reloaded->stats();
  EXPECT_EQ(A.Programs, B.Programs);
  EXPECT_EQ(A.Constants, B.Constants);
  EXPECT_EQ(A.TotalInstructions, B.TotalInstructions);
  EXPECT_NE(Reloaded->familyIndex(setFamily()), nullptr);
}

TEST(IndexSerializationTest, RejectsCorruptImages) {
  IndexFixture &Fx = fixture();
  std::string Image = Fx.Idx.serialize();

  EXPECT_FALSE(CommutativityIndex::parse("").has_value());
  EXPECT_FALSE(CommutativityIndex::parse("SEMCOMM-INDEX 2\n").has_value());
  // Truncation loses the trailing "end" sentinel.
  EXPECT_FALSE(
      CommutativityIndex::parse(Image.substr(0, Image.size() / 2))
          .has_value());
  // An unknown family name cannot be rebound.
  std::string Renamed = Image;
  size_t Pos = Renamed.find("family Set");
  ASSERT_NE(Pos, std::string::npos);
  Renamed.replace(Pos, 10, "family Zet");
  EXPECT_FALSE(CommutativityIndex::parse(Renamed).has_value());
}

// --- IndexedChecker ----------------------------------------------------------

TEST(IndexedCheckerTest, AgreesWithDynamicCheckerOnLiveStructures) {
  // Both checkers answer every (op1, op2) gatekeeper query identically on
  // live concrete structures, for a spread of argument tuples.
  IndexFixture &Fx = fixture();
  DynamicChecker Interp(Fx.F, Fx.C);
  IndexedChecker Indexed(Fx.F, Fx.C);

  for (const StructureFactory &Factory : allStructureFactories()) {
    std::unique_ptr<ConcreteStructure> Before = Factory.Make();
    // Populate deterministically through family-appropriate mutators.
    const Family &Fam = Factory.Fam ? *Factory.Fam : Before->family();
    if (Fam.Name == "Accumulator") {
      Before->invoke("increase", {Value::integer(3)});
    } else if (Fam.Name == "Set") {
      for (int I = 0; I != 5; ++I)
        Before->invoke("add", {Value::obj(I)});
    } else if (Fam.Name == "Map") {
      for (int I = 0; I != 5; ++I)
        Before->invoke("put", {Value::obj(I), Value::obj(I + 10)});
    } else {
      for (int I = 0; I != 5; ++I)
        Before->invoke("add_at", {Value::integer(I), Value::obj(I % 3)});
    }
    std::unique_ptr<ConcreteStructure> Live = Before->clone();

    // Argument pools per sort keep every tuple precondition-safe for pure
    // queries (the checkers never execute the operations).
    auto argFor = [&](Sort S, int Salt) {
      switch (S) {
      case Sort::Int:
        return Value::integer(Salt % 4); // In-range for the 5-element list.
      case Sort::Bool:
        return Value::boolean(Salt % 2 == 0);
      default:
        return Salt % 5 == 4 ? Value::null() : Value::obj(Salt % 6);
      }
    };

    unsigned Checked = 0;
    for (const Operation &O1 : Fam.Ops)
      for (const Operation &O2 : Fam.Ops)
        for (int Salt = 0; Salt != 4; ++Salt) {
          ArgList A1, A2;
          for (size_t I = 0; I != O1.ArgSorts.size(); ++I)
            A1.push_back(argFor(O1.ArgSorts[I], Salt + static_cast<int>(I)));
          for (size_t I = 0; I != O2.ArgSorts.size(); ++I)
            A2.push_back(
                argFor(O2.ArgSorts[I], Salt + 2 + static_cast<int>(I)));
          Value R1 = O1.RecordsReturn ? argFor(O1.ReturnSort, Salt + 1)
                                      : Value::null();

          EXPECT_EQ(
              Interp.mayCommute(*Live, O1.Name, A1, R1, O2.Name, A2),
              Indexed.mayCommute(*Live, O1.Name, A1, R1, O2.Name, A2))
              << Factory.Name << " " << O1.Name << "," << O2.Name
              << " salt " << Salt;
          EXPECT_EQ(Interp.commutesExact(*Before, *Live, O1.Name, A1, R1,
                                         O2.Name, A2),
                    Indexed.commutesExact(*Before, *Live, O1.Name, A1, R1,
                                          O2.Name, A2))
              << Factory.Name << " " << O1.Name << "," << O2.Name
              << " salt " << Salt;
          ++Checked;
        }
    EXPECT_GT(Checked, 0u);
  }
}

TEST(IndexedCheckerTest, PathToggleAndQueryStats) {
  IndexFixture &Fx = fixture();
  IndexedChecker Checker(Fx.F, Fx.C);
  {
    std::unique_ptr<ConcreteStructure> S = factoryFor("HashSet").Make();
    S->invoke("add", {Value::obj(1)});

    // Indexed path: queries resolve via bitmap or bytecode, never the
    // interpreter (the catalog compiles fully).
    Checker.resetQueryStats();
    Checker.mayCommute(*S, "add", {Value::obj(1)}, Value::boolean(true),
                       "contains", {Value::obj(2)});
    EXPECT_EQ(Checker.queryStats().InterpreterFallbacks, 0u);
    EXPECT_EQ(Checker.queryStats().ConstantHits +
                  Checker.queryStats().ProgramRuns,
              1u);

    // Interpreted path: everything goes to the oracle.
    Checker.setPath(IndexedChecker::Path::Interpreted);
    Checker.resetQueryStats();
    Checker.mayCommute(*S, "add", {Value::obj(1)}, Value::boolean(true),
                       "contains", {Value::obj(2)});
    EXPECT_EQ(Checker.queryStats().InterpreterFallbacks, 1u);
    EXPECT_EQ(Checker.queryStats().ProgramRuns, 0u);
  }
}

TEST(IndexedCheckerTest, PreloadedSharedIndexAnswersQueries) {
  // The semcommute-indexgen deployment shape: one parsed image shared (as
  // a const index) by checkers, answering like a freshly compiled one.
  IndexFixture &Fx = fixture();
  auto Shared = std::make_shared<const CommutativityIndex>(
      *CommutativityIndex::parse(Fx.Idx.serialize()));
  IndexedChecker FromImage(Fx.F, Fx.C, Shared);
  IndexedChecker FromCatalog(Fx.F, Fx.C);

  std::unique_ptr<ConcreteStructure> S = factoryFor("ListSet").Make();
  S->invoke("add", {Value::obj(1)});
  for (int Salt = 0; Salt != 8; ++Salt) {
    Value A = Value::obj(Salt % 3);
    Value B = Value::obj((Salt + 1) % 3);
    EXPECT_EQ(FromImage.mayCommute(*S, "add", {A}, Value::boolean(true),
                                   "contains", {B}),
              FromCatalog.mayCommute(*S, "add", {A}, Value::boolean(true),
                                     "contains", {B}));
  }
}

// --- DynamicChecker memoization ----------------------------------------------

TEST(DynamicCheckerMemoTest, ConservativeBetweenIsMemoized) {
  IndexFixture &Fx = fixture();
  DynamicChecker Checker(Fx.F, Fx.C);
  const Family &Fam = setFamily();

  // Hash-consing makes ExprRef equality structural; memoization makes
  // repeated lookups return the identical node without re-rewriting.
  ExprRef First = Checker.conservativeBetween(Fam, "add", "contains");
  ExprRef Second = Checker.conservativeBetween(Fam, "add", "contains");
  EXPECT_EQ(First, Second);

  // And the memoized value is exactly the shared-helper rewrite of the
  // catalog's between condition.
  ExprRef Expected =
      dropS1Disjuncts(Fx.F, Fx.C.entry(Fam, "add", "contains").Between);
  EXPECT_EQ(First, Expected);
}

// --- SpeculativeExecutor on the index ----------------------------------------

TEST(SpeculativeIndexTest, IndexedAndInterpretedGatekeepersAgree) {
  // The same workload through both gatekeeper paths must produce the same
  // schedule (stats) and the same final abstract state. Replay mode keeps
  // the comparison exact under multi-threaded execution.
  IndexFixture &Fx = fixture();
  std::vector<Transaction> Txns;
  for (int T = 0; T != 4; ++T) {
    Transaction Txn;
    for (int I = 0; I != 6; ++I) {
      int K = (T * 7 + I * 3) % 8;
      if ((T + I) % 3 == 0)
        Txn.push_back({"add", {Value::obj(K)}, 0});
      else if ((T + I) % 3 == 1)
        Txn.push_back({"contains", {Value::obj(K)}, 0});
      else
        Txn.push_back({"remove", {Value::obj(K)}, 0});
    }
    Txns.push_back(std::move(Txn));
  }

  ExecutorConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Mode = SchedulerMode::Replay;
  Cfg.ReplaySeed = 17;
  Cfg.CheckerPath = IndexedChecker::Path::Indexed;
  SpeculativeExecutor Indexed(Fx.F, Fx.C, factoryFor("HashSet"), Cfg);
  ExecutorStats IndexedStats = Indexed.run(Txns);

  Cfg.CheckerPath = IndexedChecker::Path::Interpreted;
  SpeculativeExecutor Interp(Fx.F, Fx.C, factoryFor("HashSet"), Cfg);
  ExecutorStats InterpStats = Interp.run(Txns);

  EXPECT_EQ(IndexedStats.OpsExecuted, InterpStats.OpsExecuted);
  EXPECT_EQ(IndexedStats.GatekeeperChecks, InterpStats.GatekeeperChecks);
  EXPECT_EQ(IndexedStats.GatekeeperPasses, InterpStats.GatekeeperPasses);
  EXPECT_EQ(IndexedStats.aborts(), InterpStats.aborts());
  EXPECT_EQ(IndexedStats.Commits, InterpStats.Commits);
  EXPECT_EQ(Indexed.commitOrder(), Interp.commitOrder());
  EXPECT_TRUE(Indexed.shard(0).abstraction() ==
              Interp.shard(0).abstraction());

  // The indexed gatekeeper actually used the index; the interpreted one
  // answered every admission query through the oracle.
  EXPECT_GT(IndexedStats.GatekeeperChecks, 0u);
  EXPECT_EQ(IndexedStats.CheckerFallbacks, 0u);
  EXPECT_EQ(InterpStats.CheckerFallbacks, InterpStats.GatekeeperChecks);
}

TEST(IndexedCheckerTest, SampledHandleStatsCountEveryPeriodthQuery) {
  // Opt-in sampling makes constant-bitmap hit rates observable on the
  // PairHandle fast path: every Period-th query (power-of-two rounded) is
  // classified; off by default.
  IndexFixture &Fx = fixture();
  IndexedChecker Checker(Fx.F, Fx.C);
  EXPECT_EQ(Checker.statsSamplingPeriod(), 0u);

  // Rounding: 3 -> 4, 64 -> 64, 1 -> every query.
  Checker.setStatsSampling(3);
  EXPECT_EQ(Checker.statsSamplingPeriod(), 4u);
  Checker.setStatsSampling(64);
  EXPECT_EQ(Checker.statsSamplingPeriod(), 64u);

  std::unique_ptr<ConcreteStructure> S = factoryFor("HashSet").Make();
  S->invoke("add", {Value::obj(1)});
  // add(o1) / add(o2): distinct-element adds commute unconditionally, a
  // constant-bitmap slot.
  IndexedChecker::PairHandle H = Checker.resolve(setFamily(), "add_", "add_");

  Checker.setStatsSampling(4);
  Checker.resetQueryStats();
  for (int I = 0; I != 17; ++I)
    Checker.mayCommuteFast(H, *S, {Value::obj(1)}, Value(), {Value::obj(2)});
  EXPECT_EQ(Checker.queryStats().SampledQueries, 4u); // floor(17 / 4)
  EXPECT_EQ(Checker.queryStats().SampledConstantHits,
            Checker.queryStats().SampledQueries);

  // Sampling every query degenerates to exact counting.
  Checker.setStatsSampling(1);
  Checker.resetQueryStats();
  for (int I = 0; I != 5; ++I)
    Checker.mayCommuteFast(H, *S, {Value::obj(1)}, Value(), {Value::obj(2)});
  EXPECT_EQ(Checker.queryStats().SampledQueries, 5u);

  // Off again: the tick is not even advanced.
  Checker.setStatsSampling(0);
  Checker.resetQueryStats();
  for (int I = 0; I != 5; ++I)
    Checker.mayCommuteFast(H, *S, {Value::obj(1)}, Value(), {Value::obj(2)});
  EXPECT_EQ(Checker.queryStats().SampledQueries, 0u);
  EXPECT_EQ(Checker.queryStats().SampledConstantHits, 0u);
}
