//===- commute/SymbolicEngine.h - VC-based verification ---------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic counterpart of the exhaustive engine, mirroring how Jahob
/// discharges the generated testing methods (§1.4): the two execution
/// orders are executed *symbolically* over an unknown initial abstract
/// state, producing a verification condition that the smt/ stack decides.
///
///  * Accumulator: states are linear terms over a symbolic initial counter;
///    VCs fall to the canonical linear-atom encoding.
///  * Set / Map: states are symbolic update chains over an uninterpreted
///    initial state S0/M0. Membership and lookup atoms unfold through the
///    chain; state equality uses extensionality instantiated exactly at
///    the operation arguments (updates touch no other element/key, so the
///    instantiation is complete, not just sound). Size deltas are expanded
///    propositionally.
///  * ArrayList: verified by symbolic execution with the length and index
///    arguments case-split up to a bound and *elements kept symbolic*
///    (v1, v2 and every cell are unknown objects); indexOf/lastIndexOf
///    atoms expand into first/last-occurrence formulas. This bounded
///    symbolic mode is the engine's stand-in for Jahob's unbounded sequence
///    reasoning; the hint machinery of ProofHints.h carries the paper's
///    §5.2.1 proof-guidance content (see EXPERIMENTS.md for the exact
///    correspondence).
///
/// A VC that the SMT stack cannot refute within its conflict budget is
/// reported Unknown — the analogue of the prover timeouts that dominate the
/// paper's ArrayList verification time (Table 5.8).
///
/// Discharge strategy: each testing method is compiled to a MethodPlan
/// (pair-common prefix, selector-scoped method prefix, labeled VC splits)
/// and discharged on a CatalogSession (see SessionPool.h) through the one
/// per-pair loop of verifyGroups, whether the session serves one pair (the
/// driver's shared-pair mode) or several families (the catalog tests and
/// benches). Pair scopes open directly under the catalog-common base and
/// retire as their six methods finish. OneShot (cold start per split)
/// remains as the independent cold oracle, discharged through
/// dischargeCold.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_COMMUTE_SYMBOLICENGINE_H
#define SEMCOMM_COMMUTE_SYMBOLICENGINE_H

#include "commute/ProofHints.h"
#include "commute/SessionPool.h"
#include "commute/TestingMethod.h"

#include <cstdint>
#include <string>
#include <vector>

namespace semcomm {

/// Outcome of verifying every op-pair of one family through a
/// CatalogSession; counters are the family's share of the session.
struct FamilyOutcome {
  std::string Family;
  std::vector<std::string> PairKeys; ///< "op1,op2", catalog entry order.
  std::vector<PairOutcome> Pairs;    ///< Parallel to PairKeys; per-pair
                                     ///< stats are deltas over the shared
                                     ///< session.
  uint64_t Checks = 0;               ///< SMT checks the session served.
  int64_t Conflicts = 0;             ///< CDCL conflicts across the family.
  uint64_t RetainedClauses = 0;      ///< Clauses alive at the end.
  uint64_t DbReductions = 0;
  uint64_t ReclaimedClauses = 0;
  unsigned Selectors = 0; ///< Pair + method selectors registered.
  /// Lazy-planning accounting: VC splits materialized over the whole run
  /// vs. the largest number alive at once (one pair's worth — plans are
  /// built just before discharge and dropped after retirePair, so plan
  /// memory no longer grows with family size).
  uint64_t TotalSplits = 0;
  uint64_t PeakMaterializedSplits = 0;

  /// Certification aggregates over the session's trace (zero unless the
  /// engine certifies).
  bool Certified = false;
  uint64_t ProofSteps = 0;
  uint64_t ProofQueries = 0;
  uint64_t ProofClauses = 0;

  unsigned failures() const {
    unsigned N = 0;
    for (const PairOutcome &P : Pairs)
      N += P.failures();
    return N;
  }
};

/// Outcome of verifying one or more families through a single
/// CatalogSession: per-family outcomes plus the session statistics —
/// prefix amortization, pair retirements, variable recycling, and the
/// peak-liveness bounds.
struct CatalogOutcome {
  std::vector<FamilyOutcome> Families; ///< Requested-family order.
  CatalogSessionStats Stats;
  uint64_t Checks = 0;
  int64_t Conflicts = 0;
  uint64_t RetainedClauses = 0; ///< Clauses alive at the end.
  uint64_t DbReductions = 0;
  uint64_t ReclaimedClauses = 0;
  unsigned Selectors = 0; ///< Pair + method selectors.
  uint64_t TotalSplits = 0;
  uint64_t PeakMaterializedSplits = 0;
  /// Planning wall time: the planGroups pass plus every pair's planPair.
  double PlanMillis = 0;

  /// Certification aggregates over the one catalog-session trace (zero
  /// unless the engine certifies).
  bool Certified = false;
  uint64_t ProofSteps = 0;
  uint64_t ProofQueries = 0;
  uint64_t ProofClauses = 0;

  unsigned failures() const {
    unsigned N = 0;
    for (const FamilyOutcome &FO : Families)
      N += FO.failures();
    return N;
  }
};

/// Symbolic verifier for generated testing methods.
class SymbolicEngine {
public:
  /// \p SeqLenBound is the ArrayList case-split bound (lengths 0..bound).
  explicit SymbolicEngine(ExprFactory &F, int SeqLenBound = 3,
                          int64_t ConflictBudget = 200000,
                          SolveMode Mode = SolveMode::SharedPair)
      : F(F), SeqLenBound(SeqLenBound), ConflictBudget(ConflictBudget),
        Mode(Mode) {}

  /// Verifies one testing method symbolically in a session of its own (a
  /// one-pair CatalogSession in the warm modes). Safe to call concurrently
  /// from several engines sharing one (thread-safe) ExprFactory.
  SymbolicResult verify(const TestingMethod &M);

  /// Verifies all six testing methods of \p E: in every warm mode through
  /// a one-pair CatalogSession (one warm solver for the whole pair, the
  /// pair at the session root), in OneShot mode through dischargeCold.
  /// Method order is deterministic, so results and statistics are a
  /// function of the options alone.
  PairOutcome verifyPair(const ConditionEntry &E);

  /// One family's share of a warm session: the entries to verify, in
  /// order.
  struct FamilyEntries {
    const Family *Fam = nullptr;
    std::vector<const ConditionEntry *> Entries;
  };

  /// Verifies \p Groups through one CatalogSession, the engine's one warm
  /// entry point: the catalog-common prefix is asserted once, pairs are
  /// planned lazily just before their discharge, each opens a selector
  /// scope beneath the base, and each is retired (its plans dropped) when
  /// its six methods are done. A single pair sits at the session root.
  /// Family, pair, and method order are deterministic.
  CatalogOutcome verifyGroups(const std::vector<FamilyEntries> &Groups);

  /// verifyGroups over every entry of each of \p Fams, in catalog order.
  CatalogOutcome verifyCatalog(const Catalog &C,
                               const std::vector<const Family *> &Fams);

  /// Compiles one testing method to its discharge plan: planPair's
  /// builder asked for this method alone (exposed so tests can replay
  /// plans against differently configured sessions).
  MethodPlan plan(const TestingMethod &M) const;

  /// Compiles one entry's six testing methods to a pair plan, in
  /// (kind x role) enumeration order. The pair's symbolic execution and
  /// agreement goal are built once (once per split for ArrayList) and Phi
  /// once per condition kind (ArrayList kinds with one formula share its
  /// lowering); only the role assumptions and hint lemmas are per method.
  PairPlan planPair(const ConditionEntry &E) const;

  /// Compiles the catalog-level plan for \p Fams: per-family pair keys
  /// (methods left unmaterialized — verifyGroups plans them lazily) plus
  /// the catalog-common prefix, the well-formedness formulas
  /// every entry either asserts in its own Common prefix or provably
  /// cannot mention (none of the formula's variables occur in the entry's
  /// vocabulary), hoisted to the session root.
  CatalogPlan planCatalog(const Catalog &C,
                          const std::vector<const Family *> &Fams) const;

  /// Clause-GC budget: the live-learned-clause count at which a session's
  /// first database reduction fires (0 keeps the solver default). The
  /// perf_engine_scaling sweep and the proof tests set it; the driver
  /// keeps the default.
  void setClauseGcBudget(int64_t Budget) { GcBudget = Budget; }

  /// Turns on certified verdicts (the driver's --certify knob): every
  /// session the engine opens streams its DRAT-style proof steps into the
  /// independent RUP checker, which checks each verdict as it is logged,
  /// and each method's SymbolicResult records whether its Unsat verdicts
  /// carried checked certificates (ProofQueries / ProofClauses /
  /// ProofChecked).
  void setCertify(bool C) { Certify = C; }
  bool certify() const { return Certify; }

  /// Attaches proof-hint scripts: ArrayList method plans whose method
  /// matches a script gain the script's note/pickWitness lemmas as extra
  /// *labeled* split assumptions, so unsat cores can name the hint
  /// commands a proof actually used (the input to minimizedFor()).
  /// \p Scripts must outlive the engine; nullptr detaches.
  void attachHints(const std::vector<HintScript> *Scripts) {
    Hints = Scripts;
  }

private:
  /// Every entry of each of \p Fams, in catalog order.
  static std::vector<FamilyEntries>
  entriesOf(const Catalog &C, const std::vector<const Family *> &Fams);
  /// planCatalog over explicit entry lists.
  CatalogPlan planGroups(const std::vector<FamilyEntries> &Groups) const;
  /// The plans of \p Ms, which all test \p E, in order: the one plan
  /// builder behind plan and planPair.
  std::vector<MethodPlan>
  planMethods(const ConditionEntry &E,
              const std::vector<TestingMethod> &Ms) const;
  /// The Common prefix of \p E's method plans, built without any method:
  /// a handful of well-formedness formulas over the entry's arguments.
  std::vector<ExprRef> planCommonOnly(const ConditionEntry &E) const;

  ExprFactory &F;
  int SeqLenBound;
  int64_t ConflictBudget;
  SolveMode Mode;
  int64_t GcBudget = 0;
  bool Certify = false;
  const std::vector<HintScript> *Hints = nullptr;
};

} // namespace semcomm

#endif // SEMCOMM_COMMUTE_SYMBOLICENGINE_H
