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
/// (pair-common prefix, selector-scoped method prefix, labeled VC splits).
/// verifyPair discharges one op-pair's six methods on a one-pair
/// CatalogSession (see SessionPool.h) with the pair at the session root;
/// the service drives its own multi-pair CatalogSession over planCatalog's
/// plan. OneShot (cold start per split) remains as the independent cold
/// oracle, discharged through dischargeCold.
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

  /// Verifies all six testing methods of \p E, the engine's one per-pair
  /// entry point: in every warm mode through a one-pair CatalogSession
  /// (one warm solver for the whole pair, the pair at the session root,
  /// retired when its six methods are done), in OneShot mode through
  /// dischargeCold. Method order is deterministic, so results and
  /// statistics are a function of the options alone.
  PairOutcome verifyPair(const ConditionEntry &E);

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
  /// (methods left unmaterialized — callers plan each pair just before
  /// its discharge) plus the catalog-common prefix, the well-formedness
  /// formulas every entry either asserts in its own Common prefix or
  /// provably cannot mention (none of the formula's variables occur in
  /// the entry's vocabulary), hoisted to the session root.
  CatalogPlan planCatalog(const Catalog &C,
                          const std::vector<const Family *> &Fams) const;

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
  /// One family's share of a catalog plan: the entries to plan, in order.
  struct FamilyEntries {
    const Family *Fam = nullptr;
    std::vector<const ConditionEntry *> Entries;
  };
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
  bool Certify = false;
  const std::vector<HintScript> *Hints = nullptr;
};

} // namespace semcomm

#endif // SEMCOMM_COMMUTE_SYMBOLICENGINE_H
