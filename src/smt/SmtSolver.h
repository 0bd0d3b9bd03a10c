//===- smt/SmtSolver.h - Eager-encoding SMT facade --------------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver the symbolic engine discharges verification conditions with —
/// the role Z3 / CVC3 play under Jahob (§1.4). The interface is Z3-flavored
/// (a context-owned expression factory, assert / check / model), and the
/// implementation is *eager*: theory semantics is compiled into
/// propositional bridge clauses before the CDCL search, UCLID-style:
///
///  * Equality over object terms: symmetry is handled by atom
///    canonicalization; transitivity over every term triple; congruence
///    for the uninterpreted query terms (map lookups, set membership).
///  * Linear integer atoms are canonicalized to `sum-of-symbols <=/= c`
///    form; atoms sharing a symbol part get ordering/exclusivity bridges.
///
/// SmtSession is the *incremental* interface: base formulas are asserted
/// (and Tseitin-encoded, with their bridge clauses) exactly once, and each
/// query is discharged under assumption literals on a warm SatSolver, so
/// Tseitin definitions, bridge clauses, and learned clauses are all
/// retained across the queries of one verification family. Bridges are
/// emitted incrementally: a new theory atom only generates the bridge
/// instances that mention it. All bookkeeping is insertion-ordered, so a
/// session's behavior is a function of the asserted formula sequence alone
/// — never of pointer values — which keeps multi-threaded driver runs
/// verdict-deterministic.
///
/// Scoped assertions live on a selector *tree* (catalog → family → pair →
/// method paths) with one API: openScope() adds a node guarded by a
/// selector variable the session mints, assertInScope() adds one guard
/// clause (the negated selectors of the node's path plus the formula's
/// literal), and check() assumes the selectors of the scope it runs in.
/// A selector is a bare solver variable, not an expression: nothing is
/// interned per scope, and no Tseitin cache entry can name a selector. A
/// scope may own a Tseitin cache layer so its formulas' definition
/// variables are private to its subtree; a scope without one shares its
/// parent's (method scopes, and the method scopes of a one-pair session,
/// which open directly under the root). retireScope() retires a whole
/// subtree in one solver pass — selectors falsified and released, guarded
/// and definition clauses evicted, definition variable indices recycled,
/// tree node and layer slots freed — so the clause database, the variable
/// array and the session's bookkeeping all stay bounded by the live scope
/// over a catalog-length session. Atom variables and theory bridges stay
/// global: they are the shared lattice the long-lived tiers amortize.
///
/// SmtSolver is the original one-shot facade, now a thin wrapper that runs
/// each check() in a fresh session.
///
/// The encoding is complete for the fragment the symbolic engine emits
/// (see SymbolicEngine.h); on larger fragments it is conservative: check()
/// may report Sat with a spurious model, which the engine treats as a
/// failed proof — never as unsoundness.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SMT_SMTSOLVER_H
#define SEMCOMM_SMT_SMTSOLVER_H

#include "logic/ExprFactory.h"
#include "proof/ProofChecker.h"
#include "smt/SatSolver.h"
#include "smt/SessionAudit.h"
#include "smt/Tseitin.h"

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace semcomm {

namespace detail {
/// Metadata for a canonicalized integer atom variable.
struct IntAtomInfo {
  std::string Signature; ///< Symbol part (canonical).
  bool IsEq = false;     ///< sum = C when true; sum <= C otherwise.
  int64_t C = 0;
};
} // namespace detail

/// An incremental eager SMT session over the logic's expressions: assert
/// base formulas once, then discharge many queries under assumptions
/// against the same warm CDCL solver.
class SmtSession {
public:
  /// A node in the session's selector tree. RootScope is the unguarded
  /// session base; every other scope is guarded by its selector and by
  /// all the selectors on its path to the root. A retired scope's id is
  /// handed out again by a later openScope().
  using ScopeId = size_t;
  static constexpr ScopeId RootScope = 0;

  explicit SmtSession(ExprFactory &F);
  SmtSession(const SmtSession &) = delete;
  SmtSession &operator=(const SmtSession &) = delete;

  /// Conjoins \p E to the session permanently: it holds in every
  /// subsequent check().
  void assertBase(ExprRef E);

  /// Opens a scope under \p Parent, guarded by a fresh selector variable,
  /// and returns its id. \p Label names the scope in unsat cores
  /// (lastCoreScopeLabels) and, suffixed with the scope's opening serial,
  /// in audit events — so the audit name is unique for the session's
  /// lifetime even when a retired scope's label is opened again. When
  /// \p OwnLayer is set the scope owns a Tseitin cache layer: definition
  /// variables created while asserting or checking in the scope are
  /// private to its subtree and are evicted and *recycled* when the scope
  /// retires (a CatalogSession gives each pair scope its own layer;
  /// method scopes share their pair's, since they only ever retire
  /// together with it).
  ScopeId openScope(ScopeId Parent = RootScope, bool OwnLayer = false,
                    std::string Label = "");

  /// Asserts \p Body permanently under \p Scope's selector path as one
  /// guard clause `~sel_1 | ... | ~sel_k | Body`, attributing \p Body's
  /// atoms to the scope and its encoding to the scope's layer. A check()
  /// run in the scope (or below it) reports countermodels over base +
  /// path scopes + query atoms — other scopes' atoms stay out of the
  /// diagnostics.
  void assertInScope(ScopeId Scope, ExprRef Body);

  /// Permanently retires \p Scope and its entire subtree in one solver
  /// pass: every subtree selector is forced false at root level and
  /// released, the subtree's guarded clauses, scope-touching learned
  /// clauses, and the definition clauses of its owned Tseitin layers are
  /// evicted, the owned definition variables are recycled, and the
  /// subtree's node and layer slots are freed. Callers that re-verify a
  /// retired scope open a fresh one. Returns the number of clauses
  /// evicted.
  size_t retireScope(ScopeId Scope);

  /// Decides base ∧ ⋀Assumed within \p Scope under a per-call conflict
  /// budget (negative = unlimited): the selectors on \p Scope's path are
  /// assumed before \p Assumed. The \p Assumed formulas hold for this
  /// call only; their Tseitin encodings (hosted by \p Scope's layer),
  /// bridge clauses, and any learned clauses are retained for future
  /// calls. The countermodel vocabulary widens to the path scopes' atoms.
  SatResult check(const std::vector<ExprRef> &Assumed,
                  int64_t MaxConflicts = -1, ScopeId Scope = RootScope);

  /// Runs check()'s encoding pipeline — normalization, bridge emission,
  /// scope-layer routing, Tseitin encoding — without the SAT search. The
  /// `semcommute-lint` replay drives sessions through this to audit the
  /// encoding discipline at static-analysis cost.
  void encodeForAudit(const std::vector<ExprRef> &Assumed, ScopeId Scope);

  /// The labels of \p Scope's path, outermost first (empty for the root).
  std::vector<std::string> scopePathLabels(ScopeId Scope) const;

  /// --- Bounded long-lived sessions -------------------------------------
  ///
  /// Retired subtree selectors are always *released*: retireScope() folds
  /// each retired scope's pinned-false selector off the trail and
  /// recycles its variable (only guard clauses, learned clauses and
  /// check() assumptions ever name a selector). Theory atoms and bridges
  /// are never released: a session's atom universe is bounded by the
  /// formulas it is asked about (for the catalog, by the catalog).
  /// Statistics: retired selector variables released off the trail,
  /// bridge formulas currently asserted, and their high-water mark.
  int64_t releasedSelectors() const { return Sat.numReleasedSelectors(); }
  int64_t liveBridges() const { return LiveBridges; }
  int64_t peakLiveBridges() const { return PeakLiveBridges; }
  /// Restarts the live-var/clause/bridge high-water marks from the
  /// current live counts — the service loop's pass-boundary hook, so the
  /// steady-state plateau is observable per pass.
  void resetPeakStats() {
    Sat.resetPeakStats();
    PeakLiveBridges = LiveBridges;
  }

  /// --- Certification (proof logging + independent checking) -----------
  ///
  /// Turns on certification: every proof step the solver logs streams
  /// into an independent proof::ProofChecker, which checks each Unsat
  /// check()'s Query step (the current proof tag plus the minimized core)
  /// the moment it is logged; no trace is kept. Must be called before the
  /// first assertion or check: the checker has to see every stored
  /// clause, or it would reject honest deletions. \p Recorder, when
  /// given, also receives every step — the hook for tests that mutate or
  /// re-check a session's whole trace; it must outlive the session.
  void enableCertification(proof::ProofTrace *Recorder = nullptr);
  bool certifying() const { return Checker != nullptr; }
  /// Tag stamped onto subsequently certified verdicts (the selector path
  /// of the verification condition being discharged), in its
  /// proof::canonicalTag spelling.
  void setProofTag(const std::string &T);
  /// The checker's running outcome over every verdict certified so far;
  /// an unchecked summary when certification was never enabled.
  const proof::CertifySummary &finishCertification();

  /// Attaches a discipline event log (scope/assert/check/retire plus the
  /// encoder's layer events) for the lint replay. Not owned.
  void setAuditLog(audit::Log *L) {
    Audit = L;
    Encoder.setAuditLog(L);
  }

  /// After an Unsat check(), iterate solve(unsatCore()) until the core
  /// stops shrinking (or \p MaxRounds re-solves ran) before recording the
  /// core, so CoreLabels name a locally minimal assumption set — the
  /// §5.2.1 minimization signal. 0 disables the extra solves. The default
  /// is a small bound: each round is cheap (the refutation's lemmas are
  /// already learned), and the fixpoint is usually reached in one.
  void setCoreMinimizationRounds(unsigned N) { CoreMinRounds = N; }
  /// Extra solves the minimization ran (statistics).
  int64_t coreMinimizationSolves() const { return CoreMinSolves; }

  /// SAT statistics of the last check() (per-call deltas).
  int64_t conflicts() const { return LastConflicts; }
  int64_t decisions() const { return LastDecisions; }
  /// Cumulative statistics across the whole session.
  int64_t totalConflicts() const { return Sat.numConflicts(); }
  size_t numChecks() const { return Checks; }
  /// Clauses retained in the warm solver (Tseitin definitions, bridge
  /// clauses, learned clauses) that later checks reuse instead of
  /// re-deriving. Each bridge instance is one clause (the membership
  /// biconditional two), so a new term triple adds exactly three.
  size_t retainedClauses() const { return Sat.numClauses(); }
  int64_t learnedClauses() const { return Sat.numLearnedClauses(); }
  /// Learned-clause-database reductions the warm solver ran, and the total
  /// clauses they reclaimed (long-lived shared sessions rely on this GC).
  int64_t dbReductions() const { return Sat.numDbReductions(); }
  int64_t reclaimedClauses() const { return Sat.numReclaimedClauses(); }
  /// Scope retirements served and the clauses they evicted (family-level
  /// sessions retire each finished pair's scope).
  int64_t scopeRetirements() const { return Sat.numScopeRetirements(); }
  int64_t evictedClauses() const { return Sat.numEvictedClauses(); }
  /// Variable recycling and liveness accounting (catalog-session stats):
  /// indices recycled by scope retirements, vars currently live, the
  /// live-var and clause-count high-water marks, and the cumulative
  /// variable demand (what the allocation would be without recycling).
  int64_t recycledVars() const { return Sat.numRecycledVars(); }
  int liveVars() const { return Sat.numLiveVars(); }
  int peakLiveVars() const { return Sat.peakLiveVars(); }
  size_t peakClauses() const { return Sat.peakClauses(); }
  int64_t varRequests() const { return Sat.numVarRequests(); }
  int numAtoms() const { return static_cast<int>(Encoder.atoms().size()); }

  /// The underlying CDCL solver, exposed for clause-GC configuration
  /// (benches pin the no-GC baseline; tests force aggressive reduction).
  SatSolver &solver() { return Sat; }

  /// After a Sat check(): the atoms assigned true, for countermodel
  /// diagnostics (sorted by printed form; deterministic across runs).
  const std::vector<std::string> &modelAtoms() const { return LastModel; }

  /// After an Unsat check(): indices into the check's Assumed vector of the
  /// assumptions the refutation actually used (the solver's unsat core
  /// mapped back to formulas). Empty when the base alone is contradictory.
  const std::vector<size_t> &lastCoreAssumptionIndices() const {
    return LastCoreIdx;
  }
  /// After an Unsat check(): the labels of the path scopes whose selectors
  /// the refutation used, outermost first.
  const std::vector<std::string> &lastCoreScopeLabels() const {
    return LastCoreScopes;
  }

private:
  /// One node of the selector tree.
  struct ScopeNode {
    Lit Selector; ///< Invalid for the root.
    ScopeId Parent = RootScope;
    std::vector<ScopeId> Children;
    Tseitin::LayerId Layer = Tseitin::RootLayer;
    bool OwnsLayer = false;
    bool Alive = true;
    std::string Label;
    uint64_t Serial = 0;   ///< Opening order, unique for the session.
    std::set<ExprRef> Atoms; ///< Boolean atoms of the scope's assertions.
  };

  ExprRef normalize(ExprRef E);
  ExprRef normalizeAtom(ExprRef E);
  ExprRef canonicalIntAtom(ExprKind K, ExprRef A, ExprRef B);
  ExprRef eqObj(ExprRef A, ExprRef B);

  /// \p Scope's path from the outermost scope down to \p Scope itself
  /// (empty for the root).
  std::vector<ScopeId> pathOf(ScopeId Scope) const;
  /// The audit name of \p Scope: its label and opening serial.
  std::string auditName(ScopeId Scope) const;
  /// Records a Check event over \p Path's audit names.
  void auditCheck(const std::vector<ScopeId> &Path);

  /// Registers the theory atoms of a normalized formula and asserts the
  /// bridge instances that mention at least one newly seen atom. Bridges
  /// are root clauses over atom literals, and their atoms are encoded in
  /// the root layer: they constrain global atoms and outlive every scope.
  void ingest(ExprRef Normalized);
  void collectTheoryAtoms(ExprRef E);
  /// Adds each new bridge instance straight to the solver as one clause
  /// over atom literals (the membership biconditional as two): no
  /// connective is interned or normalized, no Tseitin definition created,
  /// no unit pinned. Transitivity reads its three atoms from EqLits.
  void emitNewBridges();
  /// Adds the clause over \p Atoms, each negated unless its flag is set.
  /// A constant atom folds: true satisfies the clause, which is skipped;
  /// false drops out.
  void addBridgeClause(std::initializer_list<std::pair<ExprRef, bool>> Atoms);
  /// Collects the boolean atoms (non-propositional leaves) of a normalized
  /// formula — the vocabulary a countermodel should be reported over.
  /// \p Visited memoizes over the hash-consed DAG (connective nodes are
  /// not in \p Out, so Out alone cannot stop re-traversal).
  static void collectBoolAtoms(ExprRef E, std::set<ExprRef> &Out,
                               std::set<ExprRef> &Visited);

  ExprFactory &F;
  SatSolver Sat;
  Tseitin Encoder;

  // Theory atom registries. Vectors preserve discovery order (the bridge
  // emission order must not depend on pointer values); sets dedup.
  std::vector<ExprRef> ObjTerms;
  std::set<ExprRef> ObjTermSet;
  std::vector<ExprRef> MapLookups;
  std::vector<ExprRef> MemAtoms;
  std::set<ExprRef> MemAtomSet;
  std::vector<std::pair<ExprRef, detail::IntAtomInfo>> IntAtoms;
  std::set<ExprRef> IntAtomSeen;

  /// Atoms of the base formulas: a failing check's countermodel is
  /// reported over base + active-scope + current-query atoms only, not
  /// over every atom the warm session has accumulated from earlier,
  /// unrelated queries or other selector scopes.
  std::set<ExprRef> BaseAtoms;

  /// The selector tree (node 0 is the root). A retired node's slot joins
  /// FreeScopes and is reused by the next openScope().
  std::vector<ScopeNode> Scopes;
  std::vector<ScopeId> FreeScopes;
  uint64_t ScopesOpened = 0;

  /// The session's pairwise equality atoms: row K holds the literal of
  /// eqObj(ObjTerms[J], ObjTerms[K]) for every J < K. emitNewBridges fills
  /// row K when it bridges term K.
  std::vector<std::vector<Lit>> EqLits;

  // High-water marks of the atoms already covered by emitted bridges.
  size_t BridgedObjTerms = 0;
  size_t BridgedMapLookups = 0;
  size_t BridgedMemAtoms = 0;
  size_t BridgedIntAtoms = 0;

  int64_t LiveBridges = 0;
  int64_t PeakLiveBridges = 0;

  /// Null unless certifying. Records each query's outcome into Cert.
  std::unique_ptr<proof::ProofChecker> Checker;
  proof::CertifySummary Cert;
  std::string ProofTag;
  audit::Log *Audit = nullptr; ///< Optional discipline event log.

  size_t Checks = 0;
  int64_t LastConflicts = 0;
  int64_t LastDecisions = 0;
  unsigned CoreMinRounds = 4;
  int64_t CoreMinSolves = 0;
  std::vector<std::string> LastModel;
  std::vector<size_t> LastCoreIdx;
  std::vector<std::string> LastCoreScopes;
};

/// One-shot eager SMT checker: the historical facade, each check() running
/// in a fresh SmtSession. Kept for callers that decide a single formula
/// set (and as the cold-start baseline the incremental benches compare
/// against).
class SmtSolver {
public:
  explicit SmtSolver(ExprFactory &F) : F(F) {}

  /// Conjoins \p E to the context.
  void assertFormula(ExprRef E);

  /// Decides the asserted conjunction under a conflict budget
  /// (negative = unlimited). Unknown means the budget ran out.
  SatResult check(int64_t MaxConflicts = -1);

  /// SAT statistics of the last check().
  int64_t conflicts() const { return LastConflicts; }
  int64_t decisions() const { return LastDecisions; }
  int numAtoms() const { return LastNumAtoms; }

  /// After a Sat check(): the atoms assigned true, for countermodel
  /// diagnostics.
  const std::vector<std::string> &modelAtoms() const { return LastModel; }

private:
  ExprFactory &F;
  std::vector<ExprRef> Asserted;
  int64_t LastConflicts = 0;
  int64_t LastDecisions = 0;
  int LastNumAtoms = 0;
  std::vector<std::string> LastModel;
};

} // namespace semcomm

#endif // SEMCOMM_SMT_SMTSOLVER_H
